"""Command-line front end: problem ingestion, run orchestration, artifacts.

A problem file is a JSON document with either an ``agents`` section (a
networked reachability problem) or an ``axis_problem`` section (a bare
fixed-point iteration over labeled sets).  ``reachnet run`` loads the file,
runs the requested mode/task combination, and writes machine-readable
artifacts into the output directory:

``result.json``
    The computed sets (per node and/or global) plus the run configuration.
``trace.json``
    Full per-round iteration record (distributed and compare modes).
``timing.json``
    Wall-clock times.  This is the only file whose bytes may differ
    between reruns; everything else is deterministic for a fixed seed.
``report.json``
    Compare mode only: per-node agreement between the distributed and the
    monolithic route (exact equality for finite sets, max support-function
    gap over a deterministic direction bundle for polytopes).
``node_XX_*.poly`` / ``node_XX_*.json`` / ``*_vertices.csv``
    Per-node result sets in the text polytope convention or as point
    lists, plus vertex lists for low-dimensional polytopes so results can
    be plotted offline.
``error.json``
    Written instead of results when the run fails; carries the error class,
    message, and exit code.

Exit codes: 0 success, 2 invalid input, 3 numerical/internal failure,
4 round budget exhausted before convergence.

Problem files number agents 1..N.  Loader diagnostics, and the network
checks on one agent's entry, name the JSON field (``agents[2].dynamics.A[3]``
is the block of the third agent's dynamics that multiplies the fourth
agent's state); other diagnostics raised by the underlying modules use
their 0-based indices.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .affine import DISTURBANCE_LAGS, AffineAgent, CouplingRow
from .axisset import (
    FINITE,
    AxisSet,
    LabeledSet,
    PointTable,
    finite_set,
    polytope_set,
    project_set,
    sets_equal,
)
from .errors import (
    MaxRoundsExceeded,
    ParseError,
    ReachnetError,
    ValidationError,
    check_choice,
    check_count,
)
from .fixpoint import (
    FixpointProblem,
    IterationTrace,
    centralized_projections,
    check_limits,
    run_distributed,
)
from .lpsolve import support
from .netgraph import graph_from_dynamics
from .polytope import (
    ABS_TOL,
    HPolytope,
    embed_columns,
    from_text,
    from_vertices,
    to_text,
    vertices,
)
from .reachability import (
    FiniteDynamics,
    NetworkSpec,
    centralized_reachability,
    run_distributed_reachability,
    start_join,
)

logger = logging.getLogger("reachnet.cli")

MODES = ("centralized", "distributed", "compare")
TASKS = ("pre", "reach-check", "fixpoint-only")

#: random directions added to the +/- coordinate axes when measuring
#: support-function gaps in compare mode
_EXTRA_DIRECTIONS = 8

#: vertex CSVs are only emitted up to this polytope dimension
_CSV_MAX_DIM = 3


# -- run configuration --------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs of one CLI run: the limits by
    :func:`~reachnet.fixpoint.check_limits`, the seed as a count.

    ``tolerance`` None means the problem's own: an axis problem's
    ``tolerance``, ``ABS_TOL`` for a network; :func:`run` resolves it.
    """

    mode: str
    task: str
    out_dir: Path
    tolerance: float | None = None
    max_rounds: int | None = None
    seed: int = 0
    disturbance_lag: str = "paper"

    def __post_init__(self):
        check_choice(self.mode, "mode", MODES)
        check_choice(self.task, "task", TASKS)
        tolerance = check_limits(ABS_TOL if self.tolerance is None
                                 else self.tolerance, self.max_rounds)
        check_choice(self.disturbance_lag, "disturbance_lag", DISTURBANCE_LAGS)
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        object.__setattr__(self, "seed", check_count(self.seed, "seed", 0))
        if self.tolerance is not None:
            object.__setattr__(self, "tolerance", tolerance)
        if self.max_rounds is not None:
            object.__setattr__(self, "max_rounds", int(self.max_rounds))


# -- schema helpers ------------------------------------------------------------


def _fail(where: str, msg: str):
    raise ParseError(f"{where}: {msg}")


def _check_keys(obj: dict, where: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        _fail(where, f"expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(required) - set(optional) - {"comment"})
    if unknown:
        _fail(where, f"unknown keys {unknown}")
    missing = [k for k in required if k not in obj]
    if missing:
        _fail(where, f"missing required keys {missing}")


def _int_field(obj: dict, key: str, where: str) -> int:
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        _fail(where, f"'{key}' must be an integer, got {val!r}")
    return int(val)


def _array(value, where: str, ndim: int) -> np.ndarray:
    """A numeric vector (``ndim`` 1) or matrix (``ndim`` 2) field."""
    kind, shape = (("vector", "a flat list of numbers") if ndim == 1
                   else ("matrix", "a nested list of rows"))
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        _fail(where, f"not a numeric {kind}")
    if arr.ndim != ndim:
        _fail(where, f"expected {shape}, got shape {arr.shape}")
    if np.isnan(arr).any():
        _fail(where, f"null or NaN in a numeric {kind}")
    return arr


def _list_of(value, where: str, what: str) -> list:
    if not isinstance(value, list):
        _fail(where, f"must be a list of {what}")
    return value


_SET_KINDS = ("polytope", "vertices", "box", "points")


def _parse_set(obj, where: str) -> tuple[str, Any]:
    """Parse one set payload.

    Returns ``("polytope", HPolytope)`` for the ``polytope`` (text block),
    ``vertices`` (convex hull) and ``box`` ([[lo, hi], ...]) forms, and
    ``("finite", tuple_of_tuples)`` for the ``points`` form.
    """
    if not isinstance(obj, dict):
        _fail(where, f"expected an object, got {type(obj).__name__}")
    kinds = [k for k in _SET_KINDS if k in obj]
    if len(kinds) != 1:
        _fail(where, f"exactly one of {list(_SET_KINDS)} is required")
    kind = kinds[0]
    _check_keys(obj, where, (kind,))
    try:
        if kind == "polytope":
            if not isinstance(obj[kind], str):
                _fail(where, "'polytope' must hold the text block as a string")
            return "polytope", from_text(obj[kind])
        if kind == "vertices":
            return "polytope", from_vertices(_array(obj[kind], where, 2))
        if kind == "box":
            rows = _array(obj[kind], where, 2)
            if rows.shape[1] != 2:
                _fail(where, "'box' rows must be [lo, hi] pairs")
            return "polytope", HPolytope.from_box(rows[:, 0], rows[:, 1])
        return "finite", tuple(tuple(map(float, row))
                               for row in _array(obj[kind], where, 2))
    except ParseError:
        raise
    except ReachnetError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _parse_polytope(obj, where: str) -> HPolytope:
    kind, val = _parse_set(obj, where)
    if kind != "polytope":
        _fail(where, "a polytope payload is required here, not a point list")
    return val


def _parse_points(obj, where: str) -> tuple:
    kind, val = _parse_set(obj, where)
    if kind != "finite":
        _fail(where, "a 'points' payload is required here, not a polytope")
    return val


def _id_keyed(obj, n_agents: int, where: str) -> dict:
    """Convert a ``{"<1-based id>": value}`` mapping to 0-based int keys."""
    if not isinstance(obj, dict):
        _fail(where, "expected an object keyed by agent ids")
    out = {}
    for key, val in obj.items():
        try:
            ident = int(key)
        except (TypeError, ValueError):
            _fail(where, f"key {key!r} is not an agent id")
        if not 1 <= ident <= n_agents:
            _fail(where, f"agent id {ident} out of range 1..{n_agents}")
        out[ident - 1] = val
    return out


def _agent_index(obj: dict, key: str, n_agents: int, where: str) -> int:
    ident = _int_field(obj, key, where)
    if not 1 <= ident <= n_agents:
        _fail(where, f"'{key}' id {ident} out of range 1..{n_agents}")
    return ident - 1


# -- loading -------------------------------------------------------------------


def load_spec(path) -> NetworkSpec | FixpointProblem:
    """Load and validate a problem file.

    Returns a :class:`NetworkSpec` when the document has an ``agents``
    section and a :class:`FixpointProblem` when it has an ``axis_problem``
    section.  Diagnostics name the offending field.
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}: invalid JSON: {exc}") from exc
    return parse_document(doc)


def parse_document(doc) -> NetworkSpec | FixpointProblem:
    """Build the in-memory problem from an already-decoded JSON document."""
    if not isinstance(doc, dict):
        _fail("document", "top level must be an object")
    has_agents = "agents" in doc
    has_axis = "axis_problem" in doc
    if has_agents == has_axis:
        _fail("document",
              "exactly one of 'agents' and 'axis_problem' is required")
    if has_axis:
        _check_keys(doc, "document", ("axis_problem",))
        return _parse_axis_problem(doc["axis_problem"])
    _check_keys(doc, "document", ("agents", "horizon"),
                optional=("coupling", "targets"))
    return _parse_network(doc)


def _parse_axis_problem(obj) -> FixpointProblem:
    where = "axis_problem"
    _check_keys(obj, where, ("nodes",), optional=("tolerance",))
    nodes = obj["nodes"]
    if not isinstance(nodes, list) or not nodes:
        _fail(where, "'nodes' must be a non-empty list")
    axis_sets, sets = [], []
    for k, node in enumerate(nodes):
        nwhere = f"{where}.nodes[{k}]"
        _check_keys(node, nwhere, ("axes", "set"))
        labels = _list_of(node["axes"], f"{nwhere}.axes", "axis labels")
        for label in labels:
            if isinstance(label, bool) or not isinstance(label, int):
                _fail(f"{nwhere}.axes",
                      f"axis label {label!r} is not an integer")
        if len(set(labels)) != len(labels):
            _fail(f"{nwhere}.axes", "repeated axis label")
        try:
            axes = AxisSet(labels)
        except ReachnetError as exc:
            _fail(f"{nwhere}.axes", str(exc))
        kind, val = _parse_set(node["set"], f"{nwhere}.set")
        try:
            sets.append(finite_set(axes, val) if kind == "finite"
                        else polytope_set(axes, val))
        except ReachnetError as exc:
            raise type(exc)(f"{nwhere}.set: {exc}") from exc
        axis_sets.append(axes)
    try:
        tolerance = check_limits(obj.get("tolerance", ABS_TOL))
    except ValidationError as exc:
        _fail(f"{where}.tolerance", str(exc))
    return FixpointProblem(axis_sets, sets, tolerance=tolerance)


def _parse_dynamics(obj, n_agents: int, where: str):
    if not isinstance(obj, dict) or "type" not in obj:
        _fail(where, "dynamics needs a 'type' of 'affine' or 'finite'")
    kind = obj["type"]
    if kind == "affine":
        _check_keys(obj, where, ("type", "A"),
                    optional=("B", "K", "E", "disturbance_set"))
        A = {j: _array(v, f"{where}.A[{j + 1}]", 2)
             for j, v in _id_keyed(obj["A"], n_agents, f"{where}.A").items()}
        B = {j: _array(v, f"{where}.B[{j + 1}]", 2)
             for j, v in _id_keyed(obj.get("B", {}), n_agents,
                                   f"{where}.B").items()}
        K = (None if "K" not in obj
             else _array(obj["K"], f"{where}.K", 1))
        E = (None if "E" not in obj
             else _array(obj["E"], f"{where}.E", 2))
        dset = (None if "disturbance_set" not in obj
                else _parse_polytope(obj["disturbance_set"],
                                     f"{where}.disturbance_set"))
        if dset is not None and dset.is_empty():
            _fail(f"{where}.disturbance_set", "disturbance set is empty")
        return "affine", dict(A=A, B=B, K=K, E=E, disturbance_set=dset)
    if kind == "finite":
        _check_keys(obj, where, ("type", "transitions"))
        rows = _list_of(obj["transitions"], f"{where}.transitions", "triples")
        triples = set()
        for k, row in enumerate(rows):
            rwhere = f"{where}.transitions[{k}]"
            if not isinstance(row, list) or len(row) != 3:
                _fail(rwhere, "each transition is [states, inputs, next_state]")
            triples.add(tuple(tuple(map(float, _array(part, rwhere, 1)))
                              for part in row))
        return "finite", frozenset(triples)
    _fail(f"{where}.type", f"unknown dynamics type {kind!r}")


def _parse_network(doc) -> NetworkSpec:
    agents = doc["agents"]
    if not isinstance(agents, list) or not agents:
        _fail("agents", "must be a non-empty list")
    N = len(agents)
    dims, idims, dyn_nb, con_nb = [], [], [], []
    state_payloads, input_payloads, dyn_payloads = [], [], []
    kinds = set()
    for k, ag in enumerate(agents):
        where = f"agents[{k}]"
        _check_keys(ag, where, ("id", "state_dim", "input_dim", "dynamics"),
                    optional=("dynamics_neighbors", "constraint_neighbors",
                              "state_set", "input_set"))
        if _int_field(ag, "id", where) != k + 1:
            _fail(f"{where}.id", f"agent ids must be 1..{N} in order, "
                                 f"got {ag['id']}")
        dims.append(_int_field(ag, "state_dim", where))
        idims.append(_int_field(ag, "input_dim", where))
        for key, dest in (("dynamics_neighbors", dyn_nb),
                          ("constraint_neighbors", con_nb)):
            entry = []
            for ident in _list_of(ag.get(key, []), f"{where}.{key}", "agent ids"):
                if isinstance(ident, bool) or not isinstance(ident, int) or \
                        not 1 <= ident <= N:
                    _fail(f"{where}.{key}",
                          f"agent id {ident!r} out of range 1..{N}")
                entry.append(ident - 1)
            dest.append(tuple(entry))
        kind, payload = _parse_dynamics(ag["dynamics"], N,
                                        f"{where}.dynamics")
        kinds.add(kind)
        dyn_payloads.append(payload)
        state_payloads.append(ag.get("state_set"))
        input_payloads.append(ag.get("input_set"))
    if len(kinds) > 1:
        _fail("agents", "all agents must share one dynamics type")
    backend = kinds.pop()
    parse = _parse_polytope if backend == "affine" else _parse_points

    state_sets, input_sets, dynamics = [], [], []
    for k in range(N):
        where = f"agents[{k}]"
        if state_payloads[k] is None:
            _fail(f"{where}.state_set", "is required")
        state_sets.append(parse(state_payloads[k], f"{where}.state_set"))
        if input_payloads[k] is not None:
            input_sets.append(parse(input_payloads[k], f"{where}.input_set"))
        elif idims[k] > 0:
            _fail(f"{where}.input_set", "is required when input_dim > 0")
        else:
            input_sets.append(None if backend == "affine" else ())
        if backend == "finite":
            dynamics.append(FiniteDynamics(dyn_payloads[k]))
            continue
        try:
            dynamics.append(AffineAgent(dims[k], idims[k], **dyn_payloads[k]))
        except ReachnetError as exc:
            raise type(exc)(f"{where}.dynamics: {exc}") from exc

    couplings = [[] for _ in range(N)]
    coupling_at = [[] for _ in range(N)]  # each row's index in the file
    for k, row in enumerate(_list_of(doc.get("coupling", []), "coupling",
                                     "coupling rows")):
        where = f"coupling[{k}]"
        _check_keys(row, where, ("agent",),
                    optional=("state_coefs", "input_coefs", "offset",
                              "relation"))
        i = _agent_index(row, "agent", N, where)
        sc = {j: _array(v, f"{where}.state_coefs[{j + 1}]", 1)
              for j, v in _id_keyed(row.get("state_coefs", {}), N,
                                    f"{where}.state_coefs").items()}
        ic = {j: _array(v, f"{where}.input_coefs[{j + 1}]", 1)
              for j, v in _id_keyed(row.get("input_coefs", {}), N,
                                    f"{where}.input_coefs").items()}
        offset = row.get("offset", 0.0)
        if isinstance(offset, bool) or not isinstance(offset, (int, float)):
            _fail(f"{where}.offset", f"must be a number, got {offset!r}")
        try:
            couplings[i].append(CouplingRow(sc, ic, float(offset),
                                            row.get("relation", "<=")))
        except ReachnetError as exc:
            raise type(exc)(f"{where}: {exc}") from exc
        coupling_at[i].append(k)

    graph = graph_from_dynamics(dyn_nb, con_nb)
    families = {name: [None] * N for name in _TARGET_KEYS}
    goal, target_at = families["goal_sets"], [None] * N
    for k, tgt in enumerate(_list_of(doc.get("targets", []), "targets",
                                     "target entries")):
        where = f"targets[{k}]"
        _check_keys(tgt, where, ("agent", "goal"),
                    optional=("over", *_TARGET_KEYS.values()))
        i = _agent_index(tgt, "agent", N, where)
        if goal[i] is not None:
            _fail(where, f"agent {i + 1} already has a targets entry")
        target_at[i] = k
        over = tgt.get("over", "neighborhood")
        if over not in ("own", "neighborhood"):
            _fail(f"{where}.over",
                  f"must be 'own' or 'neighborhood', got {over!r}")
        members = graph.neighborhood(i)
        for name, key in _TARGET_KEYS.items():
            if key not in tgt:
                continue
            family, fwhere = families[name], f"{where}.{key}"
            family[i] = parse(tgt[key], fwhere)
            if over != "own":
                continue
            if backend == "affine":
                family[i] = _extrude_own(family[i], dims, members, i, fwhere)
            elif members != (i,):
                raise ValidationError(
                    f"{fwhere}: finite sets over own coordinates cannot "
                    f"be extended to the neighbourhood stack "
                    f"{tuple(j + 1 for j in members)}; list the stacked "
                    "points explicitly")
    for i in range(N):
        if goal[i] is None:
            _fail("targets", f"agent {i + 1} has no goal set")

    try:
        return NetworkSpec(
            state_dims=tuple(dims), input_dims=tuple(idims),
            dyn_neighbors=tuple(dyn_nb), con_neighbors=tuple(con_nb),
            horizon=_int_field(doc, "horizon", "document"),
            state_sets=tuple(state_sets), input_sets=tuple(input_sets),
            dynamics=tuple(dynamics),
            couplings=tuple(tuple(rows) for rows in couplings),
            **{name: tuple(fam) if any(s is not None for s in fam) else None
               for name, fam in families.items()},
        )
    except ReachnetError as exc:
        if not hasattr(exc, "field"):
            raise
        where = _json_field(exc.field, coupling_at, target_at)
        raise type(exc)(f"{where}: {exc.detail}") from exc


#: The ``targets`` entry key of each per-agent target set of a NetworkSpec.
_TARGET_KEYS = {"goal_sets": "goal", "start_sets": "start",
                "start_partitions": "start_partition",
                "goal_partitions": "goal_partition"}


def _json_field(field: tuple, coupling_at, target_at) -> str:
    """The problem-file path of the NetworkSpec ``field`` an error names
    (see ``reachability._spec_error``)."""
    name, i, *keys = field
    if name == "couplings":
        where = f"coupling[{coupling_at[i][keys.pop(0)]}]"
    elif name in _TARGET_KEYS:
        where = f"targets[{target_at[i]}].{_TARGET_KEYS[name]}"
    else:  # dynamics, state_sets or input_sets
        where = f"agents[{i}].{name.replace('_sets', '_set')}"
    if keys:  # a block or coefficient vector keyed by 1-based agent id
        where += f".{keys[0]}[{keys[1] + 1}]"
    return where


def _extrude_own(poly: HPolytope, dims, members, i: int,
                 where: str) -> HPolytope:
    """Embed an own-state set into the stacked neighbourhood coordinates."""
    if poly.dim != dims[i]:
        _fail(where, f"own-coordinate set has dimension {poly.dim}, "
                     f"agent state dimension is {dims[i]}")
    offset = sum(dims[j] for j in members if j < i)
    total = sum(dims[j] for j in members)
    return embed_columns(poly, total, range(offset, offset + dims[i]))


# -- serialization -------------------------------------------------------------


def _set_payload(obj) -> dict:
    """A spec set or a LabeledSet's data as a problem-file set payload."""
    if isinstance(obj, HPolytope):
        return {"polytope": to_text(obj)}
    rows = obj.points if isinstance(obj, PointTable) else obj
    return {"points": sorted([float(x) for x in row] for row in rows)}


def serialize(obj) -> dict:
    """Canonical JSON-ready document for a problem; inverse of parsing.

    ``parse_document(serialize(x))`` reconstructs an equivalent problem and
    ``serialize`` is idempotent across that round trip, which is what the
    round-trip tests pin down.
    """
    if isinstance(obj, FixpointProblem):
        return {"axis_problem": {
            "tolerance": obj.tolerance,
            "nodes": [{"axes": [int(a) for a in axes],
                       "set": _set_payload(s.data)}
                      for axes, s in zip(obj.axis_sets, obj.initial_sets)],
        }}
    if not isinstance(obj, NetworkSpec):
        raise ValidationError(
            f"cannot serialize a {type(obj).__name__}")
    agents = []
    for i in range(obj.n_agents):
        entry: dict[str, Any] = {
            "id": i + 1,
            "state_dim": obj.state_dims[i],
            "input_dim": obj.input_dims[i],
            "dynamics_neighbors": [j + 1 for j in obj.dyn_neighbors[i]],
            "constraint_neighbors": [j + 1 for j in obj.con_neighbors[i]],
            "state_set": _set_payload(obj.state_sets[i]),
        }
        if obj.backend == "affine":
            if obj.input_dims[i] > 0:
                entry["input_set"] = _set_payload(obj.input_sets[i])
            ag = obj.dynamics[i]
            dyn: dict[str, Any] = {
                "type": "affine",
                "A": {str(j + 1): ag.A[j].tolist() for j in sorted(ag.A)},
                "B": {str(j + 1): ag.B[j].tolist() for j in sorted(ag.B)},
            }
            if np.any(ag.K):
                dyn["K"] = ag.K.tolist()
            if ag.E is not None:
                dyn["E"] = ag.E.tolist()
                dyn["disturbance_set"] = _set_payload(ag.disturbance_set)
            entry["dynamics"] = dyn
        else:
            if obj.input_sets[i] != ((),):
                entry["input_set"] = _set_payload(obj.input_sets[i])
            entry["dynamics"] = {
                "type": "finite",
                "transitions": sorted(
                    [list(xs), list(us), list(nxt)]
                    for xs, us, nxt in obj.dynamics[i].transitions),
            }
        agents.append(entry)

    coupling = []
    for i in range(obj.n_agents):
        for row in obj.couplings[i]:
            coupling.append({
                "agent": i + 1,
                "state_coefs": {str(j + 1): row.state_coefs[j].tolist()
                                for j in sorted(row.state_coefs)},
                "input_coefs": {str(j + 1): row.input_coefs[j].tolist()
                                for j in sorted(row.input_coefs)},
                "offset": float(row.offset),
                "relation": row.relation,
            })

    targets = []
    for i in range(obj.n_agents):
        entry = {"agent": i + 1}
        for name, key in _TARGET_KEYS.items():
            fam = getattr(obj, name)
            if fam is not None and fam[i] is not None:
                entry[key] = _set_payload(fam[i])
        targets.append(entry)

    doc: dict[str, Any] = {"horizon": obj.horizon, "agents": agents,
                           "targets": targets}
    if coupling:
        doc["coupling"] = coupling
    return doc


def save_spec(obj, path) -> None:
    """Write a problem in the canonical JSON form accepted by load_spec."""
    _write_json(Path(path), serialize(obj))


# -- artifact writers ----------------------------------------------------------


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _labeled_to_json(s: LabeledSet) -> dict:
    return {"axes": [int(a) for a in s.axes], **_set_payload(s.data)}


def _convergence_summary(trace: IterationTrace) -> dict:
    return {
        "converged": trace.converged,
        "rounds_executed": trace.rounds_executed,
        "fixed_point_round": trace.fixed_point_round,
        "messages_sent": trace.messages_sent,
    }


def _trace_to_json(trace: IterationTrace) -> dict:
    return {
        **_convergence_summary(trace),
        "rounds": [{
            "round": rec.round_index,
            "changed": [bool(c) for c in rec.changed],
            "nodes": [_labeled_to_json(s) for s in rec.sets],
        } for rec in trace.records],
    }


def _write_node_set(out: Path, stem: str, s: LabeledSet) -> None:
    """One per-node result set: text polytope or point list, plus a vertex
    CSV for plotting when the polytope is low-dimensional and bounded."""
    if s.backend == FINITE:
        _write_json(out / f"{stem}.json", _labeled_to_json(s))
        return
    (out / f"{stem}.poly").write_text(to_text(s.data))
    if len(s.axes) > _CSV_MAX_DIM:
        return
    try:
        verts = vertices(s.data)
    except ReachnetError as exc:
        logger.info("%s: skipping vertex CSV (%s)", stem, exc)
        return
    rows = sorted(map(tuple, np.round(verts, 9) + 0.0))
    with (out / f"{stem}_vertices.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"axis_{a}" for a in s.axes])
        writer.writerows([repr(float(x)) for x in row] for row in rows)


def _write_error(out: Path, exc: ReachnetError) -> int:
    """Write ``error.json`` for ``exc`` and return its exit code: 2 invalid
    input, 4 round budget exhausted, 3 any other failure."""
    code = (2 if isinstance(exc, ValidationError)
            else 4 if isinstance(exc, MaxRoundsExceeded) else 3)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "error.json", {
            "error": type(exc).__name__,
            "message": str(exc),
            "exit_code": code,
        })
    except OSError:
        # the error file is a convenience; stderr already carries the
        # message, so an unwritable output path must not mask it
        pass
    return code


# -- compare-mode gap measurement ----------------------------------------------


def _direction_bundle(dim: int, rng: np.random.Generator) -> np.ndarray:
    eye = np.eye(dim)
    extra = rng.standard_normal((_EXTRA_DIRECTIONS, dim))
    norms = np.linalg.norm(extra, axis=1, keepdims=True)
    extra = extra / np.where(norms == 0.0, 1.0, norms)
    return np.vstack([eye, -eye, extra])


def _compare_sets(dist: LabeledSet, cent: LabeledSet, tolerance: float,
                  rng: np.random.Generator) -> dict:
    """Agreement record between one distributed set and the monolithic set
    ``cent``, whose axes contain ``dist``'s.

    Point tables are compared exactly with the projection of ``cent``.
    Polytopes are compared by the max gap |h_dist(d) - h_cent(d)| over a
    direction bundle, each direction embedded at ``dist``'s axes: the
    support of a projection is the support of the original in the embedded
    direction, so ``cent`` is never projected.
    """
    if dist.backend == FINITE:
        return {"exact_match": sets_equal(dist, project_set(cent, dist.axes),
                                          tolerance),
                "max_support_gap": None}
    if dist.empty or cent.data.is_empty():
        both = dist.empty and cent.data.is_empty()
        return {"exact_match": both, "max_support_gap": 0.0 if both else None}
    positions = cent.axes.positions_of(dist.axes)
    gap = 0.0
    for d in _direction_bundle(len(dist.axes), rng):
        full = np.zeros(len(cent.axes))
        full[positions] = d
        sp, sq = support(dist.data, d), support(cent.data, full)
        if not (np.isinf(sp) and np.isinf(sq)):
            gap = max(gap, abs(sp - sq))
    return {"exact_match": None, "max_support_gap": gap}


def _agreement(records) -> dict:
    """Roll agreement records up: every exact verdict must hold, and the
    largest support gap wins (None where no record has one)."""
    matches = [rec["exact_match"] for rec in records
               if rec["exact_match"] is not None]
    gaps = [rec["max_support_gap"] for rec in records
            if rec["max_support_gap"] is not None]
    return {"exact_match": all(matches) if matches else None,
            "max_support_gap": max(gaps) if gaps else None}


# -- run orchestration ---------------------------------------------------------


def run(config: RunConfig, problem) -> int:
    """Execute one configured run and write all artifacts.

    Returns the process exit code (0 ok, 2 invalid input, 3 numerical
    failure, 4 round budget exhausted).  A config without a tolerance runs
    at the problem's own.
    """
    if config.tolerance is None:
        config = replace(config, tolerance=(
            problem.tolerance if isinstance(problem, FixpointProblem)
            else ABS_TOL))
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        if config.task == "fixpoint-only":
            if not isinstance(problem, FixpointProblem):
                raise ValidationError(
                    "task 'fixpoint-only' needs a problem file with an "
                    "'axis_problem' section")
            trace = _run_fixpoint(config, problem, out)
        else:
            if not isinstance(problem, NetworkSpec):
                raise ValidationError(
                    f"task {config.task!r} needs a problem file with an "
                    "'agents' section")
            if config.task == "reach-check":
                _check_start_sets(problem)
            trace = _run_network(config, problem, out)
    except ReachnetError as exc:
        if isinstance(exc, MaxRoundsExceeded) and exc.trace is not None:
            _write_json(out / "trace.json", _trace_to_json(exc.trace))
        return _write_error(out, exc)
    timing = {"total_seconds": time.perf_counter() - started}
    if trace is not None:
        timing["per_round_seconds"] = [rec.wall_time for rec in trace.records]
    _write_json(out / "timing.json", timing)
    return 0


def _check_start_sets(spec: NetworkSpec) -> None:
    if spec.start_sets is None:
        raise ValidationError(
            "task 'reach-check' needs at least one start set in 'targets'")
    if spec.backend == "finite":
        missing = [i + 1 for i, s in enumerate(spec.start_sets) if s is None]
        if missing:
            raise ValidationError(
                f"task 'reach-check' with finite sets needs a start set for "
                f"every agent; missing for {missing}")


def _config_header(config: RunConfig) -> dict:
    return {
        "version": __version__,
        "mode": config.mode,
        "task": config.task,
        "tolerance": config.tolerance,
        "max_rounds": config.max_rounds,
        "seed": config.seed,
        "disturbance_lag": config.disturbance_lag,
    }


def _run_fixpoint(config: RunConfig, problem: FixpointProblem,
                  out: Path) -> IterationTrace | None:
    problem = FixpointProblem(problem.axis_sets, problem.initial_sets,
                              tolerance=config.tolerance)
    result = _config_header(config)
    trace = None
    if config.mode in ("distributed", "compare"):
        finals, trace = run_distributed(problem, max_rounds=config.max_rounds)
        result["nodes"] = [dict(node=i + 1, **_labeled_to_json(s))
                           for i, s in enumerate(finals)]
        result["convergence"] = _convergence_summary(trace)
        _write_json(out / "trace.json", _trace_to_json(trace))
        for i, s in enumerate(finals):
            _write_node_set(out, f"node_{i + 1:02d}_fixpoint", s)
    if config.mode in ("centralized", "compare"):
        cents = centralized_projections(problem)
        key = "centralized_nodes" if config.mode == "compare" else "nodes"
        result[key] = [dict(node=i + 1, **_labeled_to_json(s))
                       for i, s in enumerate(cents)]
        if config.mode == "centralized":
            for i, s in enumerate(cents):
                _write_node_set(out, f"node_{i + 1:02d}_fixpoint", s)
    _write_json(out / "result.json", result)
    if config.mode == "compare":
        rng = np.random.default_rng(config.seed)
        per_node = []
        for i, (d, c) in enumerate(zip(finals, cents)):
            rec = _compare_sets(d, c, config.tolerance, rng)
            per_node.append(dict(node=i + 1, **rec))
        _write_json(out / "report.json",
                    _build_report(config, per_node, trace))
    return trace


def _build_report(config: RunConfig, per_node: list, trace: IterationTrace,
                  extra: dict | None = None) -> dict:
    return {
        "mode": config.mode,
        "task": config.task,
        "seed": config.seed,
        "per_node": per_node,
        **_agreement(per_node),
        "directions_per_set": _EXTRA_DIRECTIONS,
        **_convergence_summary(trace),
        **(extra or {}),
    }


def _run_network(config: RunConfig, spec: NetworkSpec,
                 out: Path) -> IterationTrace | None:
    result = _config_header(config)
    trace = None
    solutions = flags = joined = None
    if config.mode in ("distributed", "compare"):
        solutions, trace = run_distributed_reachability(
            spec, task=config.task, disturbance_lag=config.disturbance_lag,
            max_rounds=config.max_rounds, tolerance=config.tolerance)
        # read every shadow first: a failing projection writes no node file
        result["nodes"] = [
            {"node": sol.node + 1,
             "start_states": _labeled_to_json(sol.start_states),
             "admissible_controls": _labeled_to_json(sol.admissible_controls)}
            for sol in solutions]
        for sol in solutions:
            stem = f"node_{sol.node + 1:02d}"
            _write_node_set(out, stem + "_start", sol.start_states)
            _write_node_set(out, stem + "_controls", sol.admissible_controls)
        result["convergence"] = _convergence_summary(trace)
        _write_json(out / "trace.json", _trace_to_json(trace))
        if config.task == "reach-check":
            joined = start_join(spec)
            flags = _distributed_reach_flags(joined, solutions,
                                             config.tolerance)
            result["per_node_reachable"] = flags
            result["reachable"] = all(flags)

    central = None
    if config.mode in ("centralized", "compare"):
        central = centralized_reachability(
            spec, task=config.task, disturbance_lag=config.disturbance_lag)
        if config.mode == "centralized":
            result["start_states"] = _labeled_to_json(central.start_states)
            result["admissible_controls"] = _labeled_to_json(
                central.admissible_controls)
            _write_node_set(out, "global_start", central.start_states)
            _write_node_set(out, "global_controls",
                            central.admissible_controls)
            if config.task == "reach-check":
                result["reachable"] = _centralized_reach_flag(
                    start_join(spec), central, config.tolerance)

    _write_json(out / "result.json", result)
    if config.mode == "compare":
        _write_json(out / "report.json",
                    _network_report(config, solutions, trace, central,
                                    flags, joined))
    return trace


def _distributed_reach_flags(joined: LabeledSet, solutions,
                             tolerance: float) -> list[bool]:
    """Per node: does every declared start state admit a trajectory?

    The computed start states are always contained in the declared joined
    start restriction ``joined`` (:func:`start_join`); the check is whether
    the containment is tight.
    """
    return [bool(sets_equal(sol.start_states,
                            project_set(joined, sol.start_states.axes),
                            tolerance))
            for sol in solutions]


def _centralized_reach_flag(joined: LabeledSet, central,
                            tolerance: float) -> bool:
    return bool(sets_equal(central.start_states, joined, tolerance))


def _network_report(config: RunConfig, solutions, trace: IterationTrace,
                    central, flags, joined) -> dict:
    """Compare-mode agreement report; ``flags`` are the distributed
    per-node reach-check verdicts and ``joined`` the start join they
    checked against (both None for the pre task)."""
    rng = np.random.default_rng(config.seed)
    per_node = []
    for sol in solutions:
        records = {key: _compare_sets(local, central.trajectories,
                                      config.tolerance, rng)
                   for key, local in (
                       ("window", sol.refined_trajectories),
                       ("start_states", sol.start_states),
                       ("admissible_controls", sol.admissible_controls))}
        per_node.append({"node": sol.node + 1, **records,
                         **_agreement(records.values())})
    extra = {}
    if config.task == "reach-check":
        extra["reachable_distributed"] = all(flags)
        extra["reachable_centralized"] = _centralized_reach_flag(
            joined, central, config.tolerance)
    return _build_report(config, per_node, trace, extra)


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reachnet",
        description="Backward reachability for networked constrained "
                    "systems, computed monolithically or by a distributed "
                    "fixed-point exchange.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one problem file")
    runp.add_argument("--mode", required=True, choices=MODES,
                      help="computation route (compare runs both and "
                           "reports their agreement)")
    runp.add_argument("--task", required=True, choices=TASKS,
                      help="what to compute")
    runp.add_argument("--spec", required=True, type=Path,
                      help="problem description file (JSON)")
    runp.add_argument("--out", required=True, type=Path,
                      help="output directory for result files")
    runp.add_argument("--tol", type=float, default=None,
                      help="set-comparison tolerance (default: the axis "
                           f"problem's own tolerance, else {ABS_TOL})")
    runp.add_argument("--max-rounds", type=int, default=None,
                      help="round budget for the distributed iteration")
    runp.add_argument("--seed", type=int, default=0,
                      help="seed for the compare-mode direction bundle")
    runp.add_argument("--disturbance-lag", choices=DISTURBANCE_LAGS,
                      default="paper",
                      help="disturbance propagation convention")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig(mode=args.mode, task=args.task, out_dir=args.out,
                           tolerance=args.tol, max_rounds=args.max_rounds,
                           seed=args.seed,
                           disturbance_lag=args.disturbance_lag)
        try:
            config.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(
                f"cannot create output directory {config.out_dir}: "
                f"{exc}") from exc
        problem = load_spec(args.spec)
    except ReachnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _write_error(Path(args.out), exc)
    code = run(config, problem)
    if code == 0:
        print(f"wrote results to {config.out_dir}")
    else:
        print(f"run failed with exit code {code}; see "
              f"{config.out_dir / 'error.json'}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
