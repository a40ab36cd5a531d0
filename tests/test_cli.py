"""Command-line front end: file format, artifacts, exit codes, determinism.

End-to-end assertions run ``main()`` in process against the shipped example
files and compare the written artifacts with the frozen expected values used
elsewhere in the suite.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import math
import operator
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachnet.affine import CouplingRow
from reachnet.axisset import AxisSet, polytope_set, project_set
from reachnet.cli import (
    MODES,
    TASKS,
    RunConfig,
    _array,
    _compare_sets,
    load_spec,
    main,
    parse_document,
    run,
    save_spec,
    serialize,
)
from reachnet.errors import (
    NumericalFailure,
    ParseError,
    ReachnetError,
    ValidationError,
)
from reachnet.fixpoint import FixpointProblem
from reachnet.polytope import HPolytope, from_text, set_equal
from reachnet.reachability import NetworkSpec, start_join

from .test_reachability import box, finite_toy_spec, integrator_spec

FIXTURES = Path(__file__).parent / "fixtures"
NETWORK_FIXTURES = ("integrator.json", "two_agent_affine.json",
                    "finite_pair.json")
AXIS_FIXTURES = ("five_node_points.json", "five_node_polytopes.json")


def load_fixture_doc(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


def _disturbed_integrator_doc() -> dict:
    """The integrator with a drift K and a disturbance E d, d in a triangle."""
    doc = load_fixture_doc("integrator.json")
    doc["agents"][0]["dynamics"].update(
        K=[0.25], E=[[1.0, 0.5]],
        disturbance_set={"vertices": [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]]})
    return doc


def write_doc(tmp_path: Path, doc: dict, name: str = "spec.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# parsing and round trips
# ---------------------------------------------------------------------------


class TestLoadSpec:
    def test_fixture_types(self):
        assert isinstance(load_spec(FIXTURES / "integrator.json"), NetworkSpec)
        assert isinstance(load_spec(FIXTURES / "two_agent_affine.json"),
                          NetworkSpec)
        assert load_spec(FIXTURES / "finite_pair.json").backend == "finite"
        assert isinstance(load_spec(FIXTURES / "five_node_points.json"),
                          FixpointProblem)
        assert isinstance(load_spec(FIXTURES / "five_node_polytopes.json"),
                          FixpointProblem)

    @pytest.mark.parametrize("name", NETWORK_FIXTURES + AXIS_FIXTURES
                             + ("disturbed",))
    def test_serialize_round_trip_is_idempotent(self, name):
        doc = (_disturbed_integrator_doc() if name == "disturbed"
               else load_fixture_doc(name))
        first = serialize(parse_document(doc))
        second = serialize(parse_document(first))
        assert first == second

    def test_disturbed_agent_round_trip_keeps_its_disturbance(self):
        before = parse_document(_disturbed_integrator_doc()).dynamics[0]
        after = parse_document(serialize(parse_document(
            _disturbed_integrator_doc()))).dynamics[0]
        assert np.array_equal(after.K, before.K)
        assert np.array_equal(after.E, before.E)
        assert set_equal(after.disturbance_set, before.disturbance_set)

    def test_finite_network_round_trip(self):
        doc = serialize(finite_toy_spec())
        again = serialize(parse_document(doc))
        assert doc == again
        spec = parse_document(doc)
        assert spec.backend == "finite"
        assert spec.input_sets[1] == ((),)

    def test_save_spec_reloads(self, tmp_path):
        spec = integrator_spec()
        path = tmp_path / "saved.json"
        save_spec(spec, path)
        again = load_spec(path)
        assert serialize(again) == serialize(spec)

    def test_callable_coupling_row_is_refused(self, tmp_path):
        # it used to end in a bare AttributeError on row.state_coefs
        spec = dataclasses.replace(finite_toy_spec(),
                                   couplings=((), (lambda xs, us: True,)))
        with pytest.raises(ValidationError,
                           match="agent 2's coupling row 1, a function"):
            serialize(spec)
        with pytest.raises(ValidationError, match="agent 2's coupling row 1"):
            save_spec(spec, tmp_path / "saved.json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_spec(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_spec(path)

    def test_top_level_must_pick_one_kind(self):
        with pytest.raises(ParseError, match="exactly one"):
            parse_document({})
        both = load_fixture_doc("integrator.json")
        both["axis_problem"] = load_fixture_doc(
            "five_node_points.json")["axis_problem"]
        with pytest.raises(ParseError, match="exactly one"):
            parse_document(both)

    def test_unknown_key_rejected(self):
        doc = load_fixture_doc("integrator.json")
        doc["frobnicate"] = 1
        with pytest.raises(ParseError, match="frobnicate"):
            parse_document(doc)

    def test_comments_allowed_everywhere(self):
        doc = load_fixture_doc("integrator.json")
        doc["comment"] = "top"
        doc["agents"][0]["comment"] = "agent"
        parse_document(doc)

    def test_negative_horizon(self):
        doc = load_fixture_doc("integrator.json")
        doc["horizon"] = -1
        with pytest.raises(ValidationError, match="horizon"):
            parse_document(doc)

    def test_missing_goal(self):
        doc = load_fixture_doc("integrator.json")
        doc["targets"] = []
        with pytest.raises(ParseError, match="goal"):
            parse_document(doc)

    def test_duplicate_target(self):
        doc = load_fixture_doc("integrator.json")
        doc["targets"] = doc["targets"] * 2
        with pytest.raises(ParseError, match="already has"):
            parse_document(doc)

    def test_goal_outside_partition(self):
        doc = load_fixture_doc("integrator.json")
        doc["targets"][0]["goal_partition"] = {"box": [[-0.5, 0.5]]}
        with pytest.raises(ValidationError, match="partition"):
            parse_document(doc)

    def test_finite_own_goal_over_larger_window_rejected(self):
        doc = serialize(finite_toy_spec())
        doc["targets"][0]["goal"] = {"points": [[0.0]]}
        doc["targets"][0]["over"] = "own"
        with pytest.raises(ValidationError, match="own"):
            parse_document(doc)

    def test_payload_forms_agree(self):
        base = load_fixture_doc("integrator.json")
        variants = [
            {"box": [[-10.0, 10.0]]},
            {"vertices": [[-10.0], [10.0]]},
            {"polytope": "dim 1\nI 1.0 10.0\nI -1.0 10.0\n"},
        ]
        polys = []
        for payload in variants:
            doc = copy.deepcopy(base)
            doc["agents"][0]["state_set"] = payload
            polys.append(parse_document(doc).state_sets[0])
        assert set_equal(polys[0], polys[1])
        assert set_equal(polys[0], polys[2])

    @pytest.mark.parametrize("base, edit, message", [
        ("integrator.json",
         lambda doc: doc["agents"][0]["dynamics"].update(K=[[0.0]]),
         "agents[0].dynamics.K: expected a flat list of numbers"),
        ("integrator.json",
         lambda doc: doc["agents"][0]["dynamics"].update(A={"1": [1.0]}),
         "agents[0].dynamics.A[1]: expected a nested list of rows"),
        ("integrator.json",
         lambda doc: doc["agents"][0]["dynamics"].update(K=["x"]),
         "agents[0].dynamics.K: not a numeric vector"),
        ("integrator.json",
         lambda doc: doc["agents"][0]["dynamics"].update(A={"1": [["x"]]}),
         "agents[0].dynamics.A[1]: not a numeric matrix"),
        ("integrator.json", lambda doc: doc["agents"][0].pop("input_set"),
         "agents[0].input_set: is required when input_dim > 0"),
        ("finite_toy", lambda doc: doc["agents"][0].pop("input_set"),
         "agents[0].input_set: is required when input_dim > 0"),
    ], ids=["vector-as-matrix", "matrix-as-vector", "vector-not-numeric",
            "matrix-not-numeric", "affine-input-set-missing",
            "finite-input-set-missing"])
    def test_field_errors(self, base, edit, message):
        doc = (serialize(finite_toy_spec()) if base == "finite_toy"
               else load_fixture_doc(base))
        assert doc["agents"][0]["input_dim"] == 1
        edit(doc)
        with pytest.raises(ParseError) as info:
            parse_document(doc)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("value", [True, float("inf"), float("nan"), 0.0,
                                       -1.0, "1e-9"],
                             ids=["bool", "inf", "nan", "zero", "negative",
                                  "string"])
    def test_axis_problem_tolerance_rejected(self, value):
        doc = load_fixture_doc("five_node_polytopes.json")
        doc["axis_problem"]["tolerance"] = value
        with pytest.raises(ParseError, match=r"^axis_problem\.tolerance: "):
            parse_document(doc)

    @pytest.mark.parametrize("axes, message", [
        ([1.7, 5], "axis labels must be positive integers, got (1.7, 5)"),
        ([True, 5], "axis labels must be positive integers, got (True, 5)"),
        (["3", 5], "axis labels must be positive integers, got ('3', 5)"),
        ([3, 3], "repeated axis label"),
        ([0, 5], "axis labels must be positive integers"),
        (3, "must be a list of axis labels"),
    ], ids=["float", "bool", "string", "repeated", "zero", "scalar"])
    def test_axis_labels_rejected(self, axes, message):
        doc = load_fixture_doc("five_node_points.json")
        doc["axis_problem"]["nodes"][1]["axes"] = axes
        with pytest.raises(ParseError) as info:
            parse_document(doc)
        assert str(info.value) == f"axis_problem.nodes[1].axes: {message}"

    @pytest.mark.parametrize("key", ["01", " 1", "+1", "1.0", "3"])
    @pytest.mark.parametrize("base, field, where", [
        ("integrator.json", ("agents", 0, "dynamics", "A"),
         "agents[0].dynamics.A"),
        ("finite_pair.json", ("coupling", 0, "state_coefs"),
         "coupling[0].state_coefs"),
    ], ids=["dynamics-block", "coupling-coefs"])
    def test_id_key_not_in_canonical_form_is_refused(self, base, field,
                                                     where, key):
        # int() reads each of the first three as 1, which once let "01"
        # silently replace the block keyed "1"
        doc = load_fixture_doc(base)
        keyed = functools.reduce(operator.getitem, field, doc)
        keyed[key] = keyed["1"]
        N = len(doc["agents"])
        with pytest.raises(ParseError) as info:
            parse_document(doc)
        assert str(info.value) == (f"{where} key must be an integer in "
                                   f"1..{N}, got {key!r}")

    @pytest.mark.parametrize("path, value, message", [
        (("agents", 0, "state_dim"), 0,
         "agents[0].state_dim must be an integer in 1..1048576, got 0"),
        (("agents", 0, "input_dim"), -1,
         "agents[0].input_dim must be an integer in 0..1048576, got -1"),
        (("agents", 0, "state_dim"), 2 ** 40,
         "agents[0].state_dim must be an integer in 1..1048576, "
         "got 1099511627776"),
        (("agents", 0, "id"), True,
         "agents[0].id must be an integer in 1..2, got True"),
        (("agents", 1, "dynamics_neighbors", 0), 3,
         "agents[1].dynamics_neighbors[0] must be an integer in 1..2, got 3"),
        (("agents", 1, "constraint_neighbors", 0), 1.0,
         "agents[1].constraint_neighbors[0] must be an integer in 1..2, "
         "got 1.0"),
        (("coupling", 0, "agent"), 0,
         "coupling[0].agent must be an integer in 1..2, got 0"),
        (("targets", 1, "agent"), "2",
         "targets[1].agent must be an integer in 1..2, got '2'"),
        (("horizon",), -1, "horizon must be an integer >= 0, got -1"),
    ], ids=["state-dim-zero", "input-dim-negative", "state-dim-huge",
            "id-bool", "neighbor-out-of-range", "neighbor-float",
            "coupling-agent-zero", "target-agent-string", "horizon-negative"])
    def test_finite_counts_and_agent_ids_are_refused_naming_the_field(
            self, path, value, message):
        doc = load_fixture_doc("finite_pair.json")
        *parents, key = path
        functools.reduce(operator.getitem, parents, doc)[key] = value
        with pytest.raises(ParseError) as info:
            parse_document(doc)
        assert str(info.value) == message

    def test_two_agent_axis_layout(self):
        spec = load_spec(FIXTURES / "two_agent_affine.json")
        idx = spec.index
        assert idx.own_state_axes(0, 0) == AxisSet([1])
        assert idx.own_state_axes(0, 1) == AxisSet([2])
        assert idx.own_input_axes(0, 0) == AxisSet([3])
        assert idx.own_input_axes(0, 1) == AxisSet([4])
        assert idx.own_state_axes(1, 0) == AxisSet([5])
        assert idx.horizon_axes(0) == AxisSet(range(1, 13))
        assert idx.horizon_axes(1) == AxisSet(range(1, 13))


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig("compare", "pre", "/tmp/x")
        assert cfg.seed == 0
        assert cfg.disturbance_lag == "paper"
        assert isinstance(cfg.out_dir, Path)

    def test_numpy_integers_accepted(self):
        cfg = RunConfig("compare", "pre", "/tmp/x", tolerance=np.float32(0.5),
                        max_rounds=np.int64(3), seed=np.int64(7))
        assert (cfg.tolerance, cfg.max_rounds, cfg.seed) == (0.5, 3, 7)
        assert all(type(v) is t for v, t in ((cfg.tolerance, float),
                                              (cfg.max_rounds, int),
                                              (cfg.seed, int)))

    @pytest.mark.parametrize("kw", [
        {"mode": "both"},
        {"task": "forward"},
        {"tolerance": 0.0},
        {"tolerance": -1e-9},
        {"max_rounds": 0},
        {"disturbance_lag": "delayed"},
        {"tolerance": float("inf")},
        {"seed": -1},
        {"tolerance": True},
        {"tolerance": "1e-9"},
        {"max_rounds": 2.7},
        {"max_rounds": True},
        {"seed": 1.7},
        {"seed": "1"},
    ])
    def test_invalid_settings(self, kw):
        base = dict(mode="compare", task="pre", out_dir="/tmp/x")
        base.update(kw)
        with pytest.raises(ValidationError):
            RunConfig(**base)


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------


def run_cli(*args: str) -> int:
    return main(list(args))


class TestEndToEnd:
    def test_five_node_points_compare(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "compare", "--task", "fixpoint-only",
                       "--spec", str(FIXTURES / "five_node_points.json"),
                       "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["exact_match"] is True
        assert report["converged"] is True
        assert report["rounds_executed"] == 4
        assert report["fixed_point_round"] == 3
        assert report["messages_sent"] == 50
        trace = json.loads((out / "trace.json").read_text())
        assert len(trace["rounds"]) == 5  # the initial state plus 4 rounds
        assert trace["rounds"][0]["round"] == 0
        assert not any(trace["rounds"][-1]["changed"])
        for i in range(1, 6):
            assert (out / f"node_{i:02d}_fixpoint.json").exists()

    @pytest.mark.parametrize("fixture, suffix", [
        ("five_node_points.json", ".json"),
        ("five_node_polytopes.json", ".poly"),
    ])
    def test_centralized_fixpoint_writes_node_files(self, tmp_path, fixture,
                                                    suffix):
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "centralized", "--task",
                       "fixpoint-only", "--spec", str(FIXTURES / fixture),
                       "--out", str(out))
        assert code == 0
        assert sorted(p.name for p in out.glob(f"node_*_fixpoint{suffix}")) \
            == [f"node_{i:02d}_fixpoint{suffix}" for i in range(1, 6)]
        nodes = json.loads((out / "result.json").read_text())["nodes"]
        assert [node.pop("node") for node in nodes] == [1, 2, 3, 4, 5]
        for i, node in enumerate(nodes, start=1):
            text = (out / f"node_{i:02d}_fixpoint{suffix}").read_text()
            if suffix == ".json":
                assert json.loads(text) == node
            else:
                assert text == node["polytope"]

    def test_compare_with_empty_polytopes(self, tmp_path):
        # node 1's box misses node 4's range of axis 1, so the join and
        # every set of both routes are empty, and empty equals empty
        doc = load_fixture_doc("five_node_polytopes.json")
        doc["axis_problem"]["nodes"][0]["set"] = {"box": [[10, 11], [10, 11]]}
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "compare", "--task", "fixpoint-only",
                       "--spec", str(write_doc(tmp_path, doc)),
                       "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["exact_match"] is True
        assert report["max_support_gap"] == 0.0
        assert all(rec["exact_match"] is True and rec["max_support_gap"] == 0.0
                   for rec in report["per_node"])

    def test_compare_empty_against_nonempty_is_a_mismatch(self):
        empty = polytope_set([1], HPolytope.empty(1))
        full = polytope_set([1], HPolytope.from_box([0.0], [1.0]))
        rng = np.random.default_rng(0)
        for dist, cent in ((empty, full), (full, empty)):
            assert _compare_sets(dist, cent, 1e-9, rng) \
                == {"exact_match": False, "max_support_gap": None}

    def test_five_node_polytopes_compare(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "compare", "--task", "fixpoint-only",
                       "--spec", str(FIXTURES / "five_node_polytopes.json"),
                       "--out", str(out), "--seed", "7")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["max_support_gap"] <= 1e-6
        assert report["rounds_executed"] == 3
        assert report["fixed_point_round"] == 2
        assert report["messages_sent"] == 32
        assert (out / "node_01_fixpoint.poly").exists()
        assert (out / "node_01_fixpoint_vertices.csv").exists()

    @pytest.mark.parametrize("mode,stem", [("centralized", "global_start"),
                                           ("distributed", "node_01_start")])
    def test_integrator_backward_set(self, tmp_path, mode, stem):
        out = tmp_path / "out"
        code = run_cli("run", "--mode", mode, "--task", "pre",
                       "--spec", str(FIXTURES / "integrator.json"),
                       "--out", str(out))
        assert code == 0
        poly = from_text((out / f"{stem}.poly").read_text())
        assert set_equal(poly, HPolytope.from_box([-2.0], [2.0]))

    def test_two_agent_compare_report(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "compare", "--task", "pre",
                       "--spec", str(FIXTURES / "two_agent_affine.json"),
                       "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["max_support_gap"] <= 1e-6
        assert {rec["node"] for rec in report["per_node"]} == {1, 2}

    def test_start_partition_on_one_agent_only(self, tmp_path):
        # a start partition on the second target alone: both routes place
        # it on agent 2's window only and agree on every set
        doc = load_fixture_doc("two_agent_affine.json")
        doc["targets"][1]["start_partition"] = {"box": [[-4, 4]]}
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "compare", "--task", "pre",
                       "--spec", str(write_doc(tmp_path, doc)),
                       "--out", str(out), "--tol", "1e-6")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["exact_match"] is True \
            or report["max_support_gap"] <= 1e-6

    def test_disturbance_lag_flag_changes_result(self, tmp_path):
        doc = load_fixture_doc("integrator.json")
        doc["agents"][0]["dynamics"]["E"] = [[1.0]]
        doc["agents"][0]["dynamics"]["disturbance_set"] = \
            {"box": [[-0.5, 0.5]]}
        spec_path = write_doc(tmp_path, doc)
        polys = {}
        for lag, want in (("paper", box(-2, 2)), ("standard", box(-1.5, 1.5))):
            out = tmp_path / lag
            code = run_cli("run", "--mode", "distributed", "--task", "pre",
                           "--spec", str(spec_path), "--out", str(out),
                           "--disturbance-lag", lag)
            assert code == 0
            polys[lag] = from_text((out / "node_01_start.poly").read_text())
            assert set_equal(polys[lag], want)

    @pytest.mark.parametrize("start,verdict", [([[-1.8, 1.8]], True),
                                               ([[-3.0, 3.0]], False)])
    @pytest.mark.parametrize("mode", ["distributed", "centralized"])
    def test_reach_check_verdict(self, tmp_path, start, verdict, mode):
        doc = load_fixture_doc("integrator.json")
        doc["targets"][0]["start"] = {"box": start}
        spec_path = write_doc(tmp_path, doc)
        out = tmp_path / f"out-{mode}-{verdict}"
        code = run_cli("run", "--mode", mode, "--task", "reach-check",
                       "--spec", str(spec_path), "--out", str(out))
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["reachable"] is verdict

    def test_finite_network_compare(self, tmp_path):
        out = tmp_path / "out"
        spec_path = write_doc(tmp_path, serialize(finite_toy_spec()))
        code = run_cli("run", "--mode", "compare", "--task", "pre",
                       "--spec", str(spec_path), "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["exact_match"], report["max_support_gap"]) == (True, None)
        assert [rec["node"] for rec in report["per_node"]] == [1, 2]
        for rec in report["per_node"]:
            for key in (None, "window", "start_states", "admissible_controls"):
                part = rec if key is None else rec[key]
                assert (part["exact_match"], part["max_support_gap"]) == \
                    (True, None), (rec["node"], key)

    def test_finite_network_with_coupling_rows(self, tmp_path):
        # agent 1 owns x0 + x1 <= 2 and x1 = u0 over both agents
        rows = (CouplingRow({0: [1.0], 1: [1.0]}, {}, -2.0),
                CouplingRow({1: [1.0]}, {0: [-1.0]}, 0.0, "="))
        base = finite_toy_spec()
        coupled = dataclasses.replace(base, con_neighbors=((), (0,)),
                                      couplings=((), rows))
        idx = coupled.index
        windows = {}
        for name, spec in (("base", base), ("coupled", coupled)):
            spec_path = write_doc(tmp_path, serialize(spec), f"{name}.json")
            for mode in ("distributed", "centralized", "compare"):
                out = tmp_path / f"{name}-{mode}"
                code = run_cli("run", "--mode", mode, "--task", "pre",
                               "--spec", str(spec_path), "--out", str(out))
                assert code == 0, (name, mode)
            report = json.loads((out / "report.json").read_text())
            assert report["exact_match"] is True, name
            trace = json.loads((out / "trace.json").read_text())
            windows[name] = trace["rounds"][-1]["nodes"]
        assert any(len(c["points"]) < len(b["points"])
                   for b, c in zip(windows["base"], windows["coupled"]))
        for node in windows["coupled"]:
            at = {lab: k for k, lab in enumerate(node["axes"])}
            x0, x1 = (at[idx.own_state_axes(0, j).labels[0]] for j in (0, 1))
            u0 = at[idx.own_input_axes(0, 0).labels[0]]
            for z in node["points"]:
                assert z[x0] + z[x1] - 2.0 <= 1e-9 and z[x1] == z[u0], z

    @pytest.mark.parametrize("starts,verdict", [
        (((0.0, 0.0), (1.0, 1.0)), True),
        (tuple((float(x), float(y)) for x in range(3) for y in range(2)),
         False),
    ], ids=["reachable", "full-alphabet"])
    def test_finite_reach_check_verdict(self, tmp_path, starts, verdict):
        spec = dataclasses.replace(finite_toy_spec(),
                                   start_sets=(starts, starts))
        spec_path = write_doc(tmp_path, serialize(spec))
        for mode in ("centralized", "distributed", "compare"):
            out = tmp_path / mode
            code = run_cli("run", "--mode", mode, "--task", "reach-check",
                           "--spec", str(spec_path), "--out", str(out))
            assert code == 0
            result = json.loads((out / "result.json").read_text())
            assert result["reachable"] is verdict, mode
        report = json.loads((tmp_path / "compare" / "report.json").read_text())
        assert report["reachable_distributed"] is verdict
        assert report["reachable_centralized"] is verdict

    def test_reach_check_builds_the_start_join_once(self, tmp_path,
                                                    monkeypatch):
        calls = []
        monkeypatch.setattr("reachnet.cli.start_join",
                            lambda spec: calls.append(spec) or start_join(spec))
        doc = load_fixture_doc("integrator.json")
        doc["targets"][0]["start"] = {"box": [[-1.8, 1.8]]}
        spec_path = write_doc(tmp_path, doc)
        for mode in ("centralized", "distributed", "compare"):
            calls.clear()
            code = run_cli("run", "--mode", mode, "--task", "reach-check",
                           "--spec", str(spec_path), "--out",
                           str(tmp_path / mode))
            assert code == 0 and len(calls) == 1, mode

    @pytest.mark.parametrize("tol_args,tolerance,rounds", [
        ((), 10.0, 1),
        (("--tol", "1e-9"), 1e-9, 3),
    ], ids=["file-tolerance", "tol-flag-wins"])
    def test_axis_problem_tolerance_is_used(self, tmp_path, tol_args,
                                            tolerance, rounds):
        doc = load_fixture_doc("five_node_polytopes.json")
        doc["axis_problem"]["tolerance"] = 10.0
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "compare", "--task", "fixpoint-only",
                       "--spec", str(write_doc(tmp_path, doc)),
                       "--out", str(out), *tol_args)
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["tolerance"] == tolerance
        report = json.loads((out / "report.json").read_text())
        assert report["rounds_executed"] == rounds

    def test_timing_file_is_the_only_wall_clock_artifact(self, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--mode", "distributed", "--task", "fixpoint-only",
                "--spec", str(FIXTURES / "five_node_points.json"),
                "--out", str(out))
        timing = json.loads((out / "timing.json").read_text())
        assert timing["total_seconds"] >= 0
        assert len(timing["per_round_seconds"]) == 5  # initial + 4 rounds


class TestExitCodes:
    def test_validation_error_exits_2(self, tmp_path):
        doc = load_fixture_doc("integrator.json")
        doc["horizon"] = -1
        spec_path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "distributed", "--task", "pre",
                       "--spec", str(spec_path), "--out", str(out))
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["exit_code"] == 2

    def test_negative_seed_exits_2_before_any_result(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "compare", "--task", "pre",
                       "--spec", str(FIXTURES / "two_agent_affine.json"),
                       "--out", str(out), "--seed", "-1")
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert not (out / "result.json").exists()

    def test_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "distributed", "--task", "pre",
                       "--spec", str(bad), "--out", str(out))
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ParseError"

    def test_task_problem_mismatch_exits_2(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "distributed", "--task", "pre",
                       "--spec", str(FIXTURES / "five_node_points.json"),
                       "--out", str(out))
        assert code == 2
        assert (out / "error.json").exists()

    def test_out_path_collides_with_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = run_cli("run", "--mode", "distributed", "--task", "pre",
                       "--spec", str(FIXTURES / "integrator.json"),
                       "--out", str(blocker))
        assert code == 2
        assert "cannot create output directory" in capsys.readouterr().err
        # the path is still the original file, not a directory
        assert blocker.is_file()

    def test_out_parent_is_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = run_cli("run", "--mode", "distributed", "--task", "pre",
                       "--spec", str(FIXTURES / "integrator.json"),
                       "--out", str(blocker / "out"))
        assert code == 2
        assert "cannot create output directory" in capsys.readouterr().err

    def test_reach_check_without_starts_exits_2(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "distributed", "--task", "reach-check",
                       "--spec", str(FIXTURES / "integrator.json"),
                       "--out", str(out))
        assert code == 2

    def test_unbounded_disturbance_exits_2(self, tmp_path):
        doc = load_fixture_doc("integrator.json")
        doc["agents"][0]["dynamics"]["E"] = [[1.0]]
        doc["agents"][0]["dynamics"]["disturbance_set"] = \
            {"polytope": "dim 1\nI 1.0 1.0\n"}
        spec_path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "distributed", "--task", "pre",
                       "--spec", str(spec_path), "--out", str(out))
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "UnboundedDisturbance"

    def test_empty_disturbance_exits_2(self, tmp_path):
        doc = load_fixture_doc("integrator.json")
        doc["agents"][0]["dynamics"]["E"] = [[1.0]]
        doc["agents"][0]["dynamics"]["disturbance_set"] = \
            {"polytope": "dim 1\nI 1.0 1.0\nI -1.0 -2.0\n"}
        spec_path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "distributed", "--task", "pre",
                       "--spec", str(spec_path), "--out", str(out))
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["exit_code"] == 2
        assert "agents[0].dynamics.disturbance_set" in err["message"]

    def test_failing_start_projection_exits_3_before_any_node_file(
            self, tmp_path, monkeypatch):
        # the shadows are projected when first read, so the failure surfaces
        # in the CLI, not in run_distributed_reachability; here it hits the
        # second node's start projection, after the first node's shadows
        spec_path = FIXTURES / "two_agent_affine.json"
        index = load_spec(spec_path).index
        start_axes = {index.nbhd_state_axes(0, i) for i in range(2)}
        starts_read = []

        def failing(source, axes):
            if axes in start_axes:
                starts_read.append(axes)
                if len(starts_read) == 2:
                    raise NumericalFailure("projection failed")
            return project_set(source, axes)

        monkeypatch.setattr("reachnet.reachability.project_set", failing)
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "distributed", "--task", "pre",
                       "--spec", str(spec_path), "--out", str(out))
        assert code == 3 and len(starts_read) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "NumericalFailure"
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    def test_finite_coupling_wrong_length_exits_2(self, tmp_path):
        # the spec's construction refuses the row, so the run never starts
        doc = serialize(finite_toy_spec())
        doc["coupling"] = [{"agent": 1, "state_coefs": {"1": [1.0, 1.0]},
                            "offset": -1.0}]
        spec_path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "distributed", "--task", "pre",
                       "--spec", str(spec_path), "--out", str(out))
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ValidationError"
        assert "have length 2, expected 1" in err["message"]

    @pytest.mark.parametrize("edit, error, message", [
        (lambda doc: doc["agents"][0]["dynamics"].update(A={"1": [[1.0, 2.0]]}),
         "ShapeMismatch",
         "agents[0].dynamics.A[1]: expected shape (1, 1), got (1, 2)"),
        (lambda doc: doc.update(coupling=[
            {"agent": 1, "state_coefs": {"1": [1.0]}, "offset": -1.0},
            {"agent": 1, "state_coefs": {"1": [1.0, 1.0]}, "offset": -1.0}]),
         "ValidationError",
         "coupling[1].state_coefs[1]: have length 2, expected 1"),
        (lambda doc: doc["targets"][0].update(goal_partition={"box": [[-0.5, 0.5]]}),
         "ValidationError",
         "targets[0].goal_partition: goal set is not inside its partition"),
    ], ids=["dynamics-block", "coupling-row", "target-partition"])
    def test_network_spec_errors_name_the_json_field(self, tmp_path, edit,
                                                     error, message):
        doc = load_fixture_doc("integrator.json")
        edit(doc)
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "distributed", "--task", "pre",
                       "--spec", str(write_doc(tmp_path, doc)), "--out", str(out))
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert (err["error"], err["message"]) == (error, message)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(coupling=None),
         "coupling: must be a list of coupling rows"),
        (lambda doc: doc.update(targets={"agent": 1}),
         "targets: must be a list of target entries"),
        (lambda doc: doc["agents"][0]["dynamics"]["transitions"][2][0]
         .__setitem__(1, None),
         "agents[0].dynamics.transitions[2]: null or NaN in a numeric vector"),
        (lambda doc: doc["targets"][1]["goal"]["points"][3]
         .__setitem__(0, None),
         "targets[1].goal: null or NaN in a numeric matrix"),
    ], ids=["coupling-null", "targets-object", "transition-null",
            "goal-point-null"])
    def test_malformed_finite_network_exits_2_naming_the_field(
            self, tmp_path, edit, message):
        doc = serialize(finite_toy_spec())
        edit(doc)
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "distributed", "--task", "pre",
                       "--spec", str(write_doc(tmp_path, doc)), "--out", str(out))
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert (err["error"], err["message"]) == ("ParseError", message)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["agents"][0]["state_set"]["box"][0].__setitem__(0, "-1"),
         "agents[0].state_set: matrix entries must be int or float numbers, "
         "got '-1'"),
        (lambda doc: doc["agents"][0]["dynamics"]["A"]["1"][0].__setitem__(0, True),
         "agents[0].dynamics.A[1]: matrix entries must be int or float numbers, "
         "got True"),
        (lambda doc: doc["agents"][0]["dynamics"]["A"]["2"][0].__setitem__(0, "0.5"),
         "agents[0].dynamics.A[2]: matrix entries must be int or float numbers, "
         "got '0.5'"),
    ], ids=["box-bound-string", "dynamics-bool", "dynamics-string"])
    def test_numbers_as_strings_or_bools_exit_2_naming_the_field(
            self, tmp_path, edit, message):
        # numpy would read each of these as a number
        doc = load_fixture_doc("two_agent_affine.json")
        edit(doc)
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "distributed", "--task", "pre",
                       "--spec", str(write_doc(tmp_path, doc)), "--out", str(out))
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert (err["error"], err["message"]) == ("ParseError", message)

    @pytest.mark.parametrize("leaf", ["1", False], ids=["string", "bool"])
    def test_points_payload_refuses_a_string_or_bool(self, tmp_path, leaf):
        doc = serialize(finite_toy_spec())
        doc["targets"][1]["goal"]["points"][3][0] = leaf
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "distributed", "--task", "pre",
                       "--spec", str(write_doc(tmp_path, doc)), "--out", str(out))
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert (err["error"], err["message"]) == (
            "ParseError", "targets[1].goal: matrix entries must be int or float "
                          f"numbers, got {leaf!r}")

    @pytest.mark.parametrize("value, ndim, message", [
        (["0.5", True, 2], 1, "vector entries must be int or float numbers, got '0.5'"),
        ([[1.0, None]], 2, "null or NaN in a numeric matrix"),
        ([10 ** 400], 1, "not a numeric vector"),
        ([[1.0, -1e308]], 2,
         "matrix entries must be at most 1e+150 in size, got -1e+308"),
    ], ids=["string-and-bool", "null", "beyond-float", "beyond-magnitude"])
    def test_array_refuses_what_is_not_a_number(self, value, ndim, message):
        with pytest.raises(ParseError, match=re.escape(f"x: {message}")):
            _array(value, "x", ndim)
        assert _array([1, 2.5], "x", 1).tolist() == [1.0, 2.5]

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["targets"][1]["goal"]["points"][0]
         .__setitem__(0, math.inf),
         "targets[1].goal: point coordinates must be finite"),
        (lambda doc: doc["agents"][0]["dynamics"]["transitions"][2][2]
         .__setitem__(0, -math.inf),
         "agents[0].dynamics: transition entries must be finite"),
    ], ids=["goal-point-inf", "transition-inf"])
    def test_non_finite_finite_network_exits_2_naming_the_field(
            self, tmp_path, edit, message):
        doc = serialize(finite_toy_spec())
        edit(doc)
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "distributed", "--task", "pre",
                       "--spec", str(write_doc(tmp_path, doc)), "--out", str(out))
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert (err["error"], err["message"]) == ("DimensionMismatch", message)

    @pytest.mark.parametrize("mode", MODES)
    def test_assembler_overflow_exits_3(self, tmp_path, mode):
        # every number is within the file's cap, but A's cube overflows
        doc = load_fixture_doc("integrator.json")
        doc["horizon"] = 3
        doc["agents"][0]["dynamics"]["A"] = {"1": [[1e120]]}
        out = tmp_path / "out"
        code = run_cli("run", "--mode", mode, "--task", "pre",
                       "--spec", str(write_doc(tmp_path, doc)), "--out", str(out))
        assert code == 3
        err = json.loads((out / "error.json").read_text())
        assert (err["error"], err["message"]) == (
            "NumericalFailure",
            "agent 0: the closed-form dynamics overflow over horizon 3")

    def test_round_budget_exhaustion_exits_4_with_partial_trace(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("run", "--mode", "distributed", "--task",
                       "fixpoint-only",
                       "--spec", str(FIXTURES / "five_node_points.json"),
                       "--out", str(out), "--max-rounds", "1")
        assert code == 4
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "MaxRoundsExceeded"
        trace = json.loads((out / "trace.json").read_text())
        assert trace["converged"] is False
        assert len(trace["rounds"]) == 2  # the initial state plus 1 round

    def test_missing_arguments_use_argparse_exit(self):
        with pytest.raises(SystemExit):
            main(["run", "--mode", "distributed"])


#: What a mutant puts in place of one field: each kind of JSON value, edge
#: numbers, and numbers spelled as strings.
MUTANT_VALUES = (None, True, False, 0, -1, 1.5, 2 ** 40, math.nan, math.inf,
                 -math.inf, 1e308, "x", "1", [], {}, [[1.0, 2.0], [3.0]])


def _leaves(node, path=()):
    """The path of every number, string, bool and null in a JSON document."""
    if not isinstance(node, (dict, list)):
        yield path
        return
    for key, val in (node.items() if isinstance(node, dict)
                     else enumerate(node)):
        yield from _leaves(val, path + (key,))


def _entry(path) -> str:
    """The file location that a refusal of the field at ``path`` must name:
    the path up to its first list item (``agents[0]``,
    ``axis_problem.nodes[3]``), or its top-level key (``horizon``)."""
    where = ""
    for key in path:
        if isinstance(key, int):
            return f"{where}[{key}]"
        where += f".{key}" if where else key
    return path[0]


MUTANT_FIELDS = [(name, path) for name in (*NETWORK_FIXTURES, *AXIS_FIXTURES)
                 for path in _leaves(load_fixture_doc(name))]


class TestMutants:
    @settings(deadline=None, derandomize=True, max_examples=600)
    @given(field=st.sampled_from(MUTANT_FIELDS),
           value=st.sampled_from(MUTANT_VALUES),
           mode=st.sampled_from(MODES), task=st.sampled_from(TASKS))
    def test_one_field_mutant_is_refused_by_name_or_runs_to_an_exit_code(
            self, field, value, mode, task):
        name, path = field
        doc = load_fixture_doc(name)
        *parents, key = path
        holder = functools.reduce(operator.getitem, parents, doc)
        old, holder[key] = holder[key], value
        try:
            problem = parse_document(doc)
        except ReachnetError as exc:
            assert _entry(path) in str(exc)
            return
        number = isinstance(old, (int, float)) and not isinstance(old, bool)
        assert not (number and isinstance(value, (str, bool))), \
            "a string or a bool was read as a number"
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            code = run(RunConfig(mode=mode, task=task, out_dir=out), problem)
            if code:
                error = json.loads((out / "error.json").read_text())
                assert error["exit_code"] == code
            else:
                assert not (out / "error.json").exists()


class TestDeterminism:
    def test_identical_seeds_give_identical_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli("run", "--mode", "compare", "--task", "pre",
                           "--spec", str(FIXTURES / "two_agent_affine.json"),
                           "--out", str(out), "--seed", "42")
            assert code == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            if name == "timing.json":
                continue
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name

    def test_different_seed_changes_only_probe_directions(self, tmp_path):
        gaps = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            code = run_cli("run", "--mode", "compare", "--task",
                           "fixpoint-only",
                           "--spec", str(FIXTURES / "five_node_polytopes.json"),
                           "--out", str(out), "--seed", seed)
            assert code == 0
            report = json.loads((out / "report.json").read_text())
            gaps.append(report["max_support_gap"])
            result_a = json.loads((tmp_path / "1" / "result.json").read_text())
        result_b = json.loads((out / "result.json").read_text())
        result_a.pop("seed"), result_b.pop("seed")
        assert result_a == result_b
        assert all(g <= 1e-6 for g in gaps)
