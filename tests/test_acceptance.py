"""Acceptance gate: twelve end-to-end criteria with pinned tolerances.

Each criterion is one test named ``test_criterion_NN_*`` (so the verbose
run shows one pass/fail line per criterion) and additionally prints a
``criterion NN: PASS/FAIL`` line (visible with ``pytest -s``).

Expected values are the frozen goldens shared with the unit suites: exact
hand-derived sets for the worked examples (including the corrected iterates
where the published tables are provably inconsistent — see the unit suites
for the certifying convex-weight derivations) and independent oracles
(forward simulation, exhaustive search, vertex enumeration) everywhere else.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from reachnet import lpsolve
from reachnet import polytope as pl
from reachnet.affine import AffineAgent, CouplingRow, assemble_robust_system
from reachnet.axisset import (
    AxisSet,
    extrude,
    join_extrusions,
    polytope_set,
    project_vector,
)
from reachnet.cli import main as cli_main
from reachnet.fixpoint import centralized_projections, run_distributed
from reachnet.polytope import HPolytope, embed_columns, vertices
from reachnet.reachability import (
    NetworkSpec,
    centralized_reachability,
    run_distributed_reachability,
)

from .oracles import gift_wrap_2d, hausdorff, support_point
from .test_affine import _oracle_disturbance_matrix
from .test_axisset import JOIN_5, PROJ_5, as_tuple_set, five_node_sets
from .test_fixpoint import (
    POLY_PROJ,
    ROUND_1,
    ROUND_2,
    five_node_problem,
    poly_problem,
    random_instance,
)
from .test_lpsolve import _random_bounded_lp
from .test_reachability import (
    _support_gap_vs_global,
    box,
    random_affine_spec,
    robust_integrator_spec,
)

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    print(f"criterion {number:2d}: PASS - {description}")


# ---------------------------------------------------------------------------
# 1-3: frozen operator goldens
# ---------------------------------------------------------------------------


def test_criterion_01_projection_and_extrusion_goldens():
    with criterion(1, "vector projection and point extrusion reproduce the "
                      "frozen outputs exactly, each call under 1 ms"):
        small, large = AxisSet([3, 6, 7]), AxisSet([1, 3, 4, 6, 7])
        vec = np.array([-4.0, 6.0, np.pi, 0.0, 3.2])
        cyl_axes = AxisSet([2, 3, 4, 5, 9])
        point = polytope_set(AxisSet([3, 5]),
                             pl.from_vertices([[5.0, -1.0]]))
        project_vector(vec, large, small)      # warm-up
        extrude(point, cyl_axes)

        t0 = time.perf_counter()
        got = project_vector(vec, large, small)
        t_project = time.perf_counter() - t0
        assert np.array_equal(got, np.array([6.0, 0.0, 3.2]))

        t0 = time.perf_counter()
        cyl = extrude(point, cyl_axes)
        t_extrude = time.perf_counter() - t0
        poly = cyl.poly()
        for k, label in enumerate(cyl_axes):
            d = np.zeros(len(cyl_axes))
            d[k] = 1.0
            hi, lo = lpsolve.support(poly, d), -lpsolve.support(poly, -d)
            if label == 3:
                assert hi == lo == 5.0
            elif label == 5:
                assert hi == lo == -1.0
            else:
                assert np.isinf(hi) and np.isinf(-lo)
        assert t_project < 1e-3 and t_extrude < 1e-3


def test_criterion_02_five_node_join_golden():
    with criterion(2, "the five-node join returns exactly the three frozen "
                      "six-dimensional points, under 10 ms"):
        sets = five_node_sets()
        target = AxisSet.union_of(s.axes for s in sets)
        join_extrusions(sets, target)          # warm-up
        t0 = time.perf_counter()
        joined = join_extrusions(sets, target)
        elapsed = time.perf_counter() - t0
        assert as_tuple_set(joined) == JOIN_5
        assert elapsed < 10e-3


def test_criterion_03_centralized_projections_golden():
    with criterion(3, "centralized projections of the five-node example "
                      "equal the five frozen sets exactly"):
        got = centralized_projections(five_node_problem())
        assert len(got) == 5
        for s, want in zip(got, PROJ_5):
            assert as_tuple_set(s) == want


# ---------------------------------------------------------------------------
# 4-5: frozen distributed traces
# ---------------------------------------------------------------------------


def test_criterion_04_distributed_point_trace():
    with criterion(4, "distributed iterates match the frozen corrected "
                      "trace; the fixed point is confirmed and nothing "
                      "changes afterwards"):
        final, trace = run_distributed(five_node_problem())
        for got, want in zip(trace.sets_at(1), ROUND_1):
            assert as_tuple_set(got) == want
        for got, want in zip(trace.sets_at(2), ROUND_2):
            assert as_tuple_set(got) == want
        # rounds 1 -> 2 still change nodes 4 and 5, so the first repeated
        # round is round 3; the run spends one more round confirming it
        assert trace.converged
        assert trace.fixed_point_round == 3
        assert trace.records[4].changed == (False,) * 5
        for got, want in zip(final, PROJ_5):
            assert as_tuple_set(got) == want


def test_criterion_05_distributed_polytope_trace():
    with criterion(5, "polytope example: fixed point after two rounds; "
                      "vertices within 0.01 of the exact projections; "
                      "support gap to centralized <= 1e-6; under 5 s"):
        t0 = time.perf_counter()
        prob = poly_problem()
        final, trace = run_distributed(prob)
        cent = centralized_projections(prob)
        assert trace.converged
        assert trace.fixed_point_round == 2
        assert trace.rounds_executed == 3
        rng = np.random.RandomState(5)
        for got, want, c in zip(final, POLY_PROJ, cent):
            assert hausdorff(vertices(got.poly()),
                             np.array(want, dtype=float)) <= 0.01
            d = len(got.axes)
            for dd in np.vstack([np.eye(d), -np.eye(d),
                                 rng.standard_normal((16, d))]):
                gap = abs(lpsolve.support(got.poly(), dd)
                          - lpsolve.support(c.poly(), dd))
                assert gap <= 1e-6
        assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# 6-7: randomized finite-instance equivalence and round invariants
# ---------------------------------------------------------------------------


def test_criterion_06_random_instances_distributed_equals_centralized():
    with criterion(6, "200 random finite instances: distributed output "
                      "equals centralized projections exactly, under 30 s"):
        rng = np.random.RandomState(2024)
        t0 = time.perf_counter()
        for _ in range(200):
            prob = random_instance(rng)
            final, trace = run_distributed(prob)
            assert trace.converged
            for got, want in zip(final, centralized_projections(prob)):
                assert as_tuple_set(got) == as_tuple_set(want)
        assert time.perf_counter() - t0 < 30.0


def test_criterion_07_join_invariance_and_nesting_per_round():
    with criterion(7, "on the same 200 instances every round preserves the "
                      "join exactly and every iterate nests in its "
                      "predecessor"):
        rng = np.random.RandomState(2024)
        for _ in range(200):
            prob = random_instance(rng)
            _, trace = run_distributed(prob)
            target = prob.union_axes
            want_join = as_tuple_set(
                join_extrusions(list(prob.initial_sets), target))
            for k in range(trace.rounds_executed + 1):
                sets_k = trace.sets_at(k)
                got_join = as_tuple_set(join_extrusions(list(sets_k), target))
                assert got_join == want_join
                if k:
                    for s_now, s_prev in zip(sets_k, trace.sets_at(k - 1)):
                        assert as_tuple_set(s_now) <= as_tuple_set(s_prev)


# ---------------------------------------------------------------------------
# 8: affine distributed-equals-centralized within support tolerance
# ---------------------------------------------------------------------------


def test_criterion_08_affine_windows_match_monolithic_projections():
    with criterion(8, "20 random coupled affine systems: every local window "
                      "and shadow equals the matching projection of the "
                      "monolithic solution within 1e-8 support gap, "
                      "under 2 min"):
        t0 = time.perf_counter()
        for seed in range(20):
            spec = random_affine_spec(seed)
            idx = spec.index
            sols, trace = run_distributed_reachability(spec)
            assert trace.converged
            cent = centralized_reachability(spec)
            if lpsolve.is_empty(cent.trajectories.poly()):
                assert all(s.refined_trajectories.empty for s in sols)
                continue
            rng = np.random.default_rng(seed)
            for sol in sols:
                for local in (sol.refined_trajectories, sol.start_states,
                              sol.admissible_controls):
                    gap = _support_gap_vs_global(local, cent.trajectories,
                                                 idx.all_axes, rng)
                    assert gap <= 1e-8
        assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 9: membership vs brute-force forward gridding
# ---------------------------------------------------------------------------


def _gridding_spec() -> NetworkSpec:
    """Agent 0: x0' = x0 + 0.5 x1 + u; agent 1 autonomous: x1' = x1."""
    return NetworkSpec(
        state_dims=(1, 1), input_dims=(1, 0),
        dyn_neighbors=((1,), ()), con_neighbors=((1,), ()),
        horizon=1,
        state_sets=(box(-5, 5), box(-5, 5)),
        input_sets=(box(-1, 1), None),
        goal_sets=(box([-1.5, -2.0], [1.5, 2.0]),
                   embed_columns(box(-1, 1), 2, [1])),
        dynamics=(AffineAgent(1, 1, A={0: [[1.0]], 1: [[0.5]]},
                              B={0: [[1.0]]}),
                  AffineAgent(1, 0, A={1: [[1.0]]})),
        couplings=((CouplingRow({0: [1.0], 1: [1.0]}, {}, -6.0),), ()))


def _distance_to_polygon_boundary(points: np.ndarray,
                                  hull: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from each point to the polygon's boundary."""
    dist = np.full(points.shape[0], np.inf)
    for k in range(hull.shape[0]):
        a, b = hull[k], hull[(k + 1) % hull.shape[0]]
        ab = b - a
        denom = float(ab @ ab)
        t = ((points - a) @ ab) / denom if denom else np.zeros(len(points))
        t = np.clip(t, 0.0, 1.0)
        closest = a + t[:, None] * ab
        dist = np.minimum(dist, np.linalg.norm(points - closest, axis=1))
    return dist


def test_criterion_09_membership_matches_forward_gridding():
    with criterion(9, "two-agent affine instance: at least 99.5% of grid "
                      "points farther than 1e-3 from the backward-set "
                      "boundary are classified identically by membership "
                      "and brute-force forward search, under 2 min"):
        t0 = time.perf_counter()
        spec = _gridding_spec()
        start = centralized_reachability(spec).start_states
        poly = start.poly()

        xs = np.linspace(-5.5, 5.5, 111)
        grid = np.array([(x, y) for x in xs for y in xs])
        A, b = poly.A_ineq, poly.b_ineq
        member = np.all(A @ grid.T <= b[:, None] + 1e-9, axis=0)
        if poly.A_eq.shape[0]:
            member &= np.all(np.abs(poly.A_eq @ grid.T
                                    - poly.b_eq[:, None]) <= 1e-9, axis=0)

        # brute force: try every input on a 5e-4 grid, step the dynamics
        # forward, test every constraint of the problem statement directly
        u_grid = np.arange(-1.0, 1.0 + 5e-4, 5e-4)
        oracle = np.zeros(len(grid), dtype=bool)
        for lo in range(0, len(grid), 1024):
            chunk = grid[lo:lo + 1024]
            x0, x1 = chunk[:, 0], chunk[:, 1]
            static = ((np.abs(x0) <= 5.0) & (np.abs(x1) <= 5.0)
                      & (x0 + x1 <= 6.0) & (np.abs(x1) <= 1.0))
            x0_next = x0[:, None] + 0.5 * x1[:, None] + u_grid[None, :]
            goal_hit = np.any((np.abs(x0_next) <= 1.5)
                              & (np.abs(x0_next) <= 5.0), axis=1)
            oracle[lo:lo + 1024] = static & goal_hit

        hull = gift_wrap_2d(vertices(poly))
        far = _distance_to_polygon_boundary(grid, hull) > 1e-3
        assert far.sum() > 8000
        assert member[far].any() and not member[far].all()
        agreement = float(np.mean(member[far] == oracle[far]))
        assert agreement >= 0.995
        assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 10: robustness soundness and tightness
# ---------------------------------------------------------------------------


def test_criterion_10_robust_soundness_and_tightness():
    with criterion(10, "10^4 admissible disturbance sequences applied to "
                       "robust-set trajectories cause zero nominal "
                       "violations; every active tightened row is tight to "
                       "within 1e-7"):
        spec = robust_integrator_spec(horizon=2, half_width=0.5)
        idx = spec.index
        sys0 = assemble_robust_system(spec, 0,
                                      disturbance_lag="standard")
        poly = sys0.polytope()
        assert np.count_nonzero(sys0.margins) > 0

        verts = vertices(poly)
        rng = np.random.default_rng(101)
        Z = rng.dirichlet(np.ones(len(verts)), size=100) @ verts
        D = rng.uniform(-0.5, 0.5, size=(10_000, 2))
        L_oracle = _oracle_disturbance_matrix(spec, idx, 0, "standard")
        Zetas = D @ L_oracle.T
        worst = (np.max(sys0.G @ Z.T, axis=1)
                 + np.max(sys0.G @ Zetas.T, axis=1))
        violations = int(np.sum(worst > sys0.g + 1e-9))
        assert violations == 0

        checked = 0
        for r in np.nonzero(sys0.margins > 1e-9)[0]:
            val, z_star = support_point(poly, sys0.G[r])
            if abs(val - (sys0.g[r] - sys0.margins[r])) > 1e-7:
                continue  # margin present but row not active on the set
            c = sys0.G[r] @ L_oracle
            d_star = np.where(c > 0, 0.5, -0.5)
            slack = sys0.g[r] - sys0.G[r] @ (z_star + L_oracle @ d_star)
            assert abs(slack) <= 1e-7
            checked += 1
        assert checked >= 1


# ---------------------------------------------------------------------------
# 11: LP kernel
# ---------------------------------------------------------------------------


def test_criterion_11_lp_duality_and_vertex_oracle():
    with criterion(11, "LP kernel: duality gap <= 1e-7 and vertex-oracle "
                       "agreement on 500 random bounded instances, "
                       "under 10 s"):
        rng = np.random.default_rng(7777)
        t0 = time.perf_counter()
        for _ in range(500):
            G, g, c = _random_bounded_lp(rng)
            lp = lpsolve.LinearProgram(c, A_ineq=G, b_ineq=g)
            res = lpsolve.solve(lp)
            assert res.is_optimal
            assert abs(res.value - res.dual_value(lp)) <= 1e-7
            verts = vertices(HPolytope(G, g))
            assert res.value == pytest.approx(float((verts @ c).max()),
                                              abs=1e-7)
        assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 12: byte-level determinism of the polytope-example run
# ---------------------------------------------------------------------------


def test_criterion_12_determinism_byte_identical_runs(tmp_path):
    with criterion(12, "two runs of the polytope example with identical "
                       "seeds produce byte-identical result files "
                       "(timings excluded)"):
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = cli_main([
                "run", "--mode", "compare", "--task", "fixpoint-only",
                "--spec", str(FIXTURES / "five_node_polytopes.json"),
                "--out", str(out), "--seed", "11",
            ])
            assert code == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert "result.json" in names and "report.json" in names
        compared = 0
        for name in names:
            if name == "timing.json":
                continue
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name
            compared += 1
        assert compared >= len(names) - 1
        report = json.loads((outs[0] / "report.json").read_text())
        assert report["max_support_gap"] <= 1e-6
