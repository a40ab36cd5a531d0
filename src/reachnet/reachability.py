"""Backward reachability for networked constrained systems.

The trajectory of the whole network over a finite horizon lives in one long
vector: states and inputs of every agent, time step by time step.  Each
coordinate gets a global *axis label*, and every agent owns a window of those
labels -- the states and inputs of its communication neighbourhood across the
horizon.  This module:

* numbers the coordinates (:class:`AxisIndex`),
* assembles and solves each agent's local trajectory system
  (:func:`local_system_solution`),
* orchestrates the distributed computation -- solve locally, run the
  projection/extrusion exchange to a fixed point, then read off the
  backward-reachable start states and the admissible control sequences
  (:func:`run_distributed_reachability`),
* and builds the global trajectory set in one place for cross-checking, as
  the join of all local systems (:func:`centralized_reachability`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real

import numpy as np

from . import affine as _affine
from .affine import AffineAgent, CouplingRow
from .axisset import (
    QUANT_DECIMALS,
    AxisSet,
    LabeledSet,
    finite_set,
    join_extrusions,
    polytope_set,
    project_set,
)
from .errors import (
    MAX_COORDINATES,
    DimensionCapExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    NonlinearConstraint,
    ShapeMismatch,
    UnsupportedDynamics,
    ValidationError,
    check_choice,
    check_count,
)
from .fixpoint import (
    FixpointProblem,
    IterationTrace,
    centralized_join,
    check_limits,
    run_distributed,
)
from .netgraph import graph_from_dynamics
from .polytope import ABS_TOL, HPolytope, includes

logger = logging.getLogger("reachnet.reachability")

TASKS = ("pre", "reach-check")

DEFAULT_DIMENSION_CAP = 64


@dataclass(frozen=True)
class FiniteDynamics:
    """Explicit transition relation of one agent.

    Each element of ``transitions`` is a triple
    ``(neighbour_state_stack, neighbour_input_stack, next_own_state)`` where
    the stacks run over the agent's dynamic neighbourhood (itself included)
    in index order.  A step is admissible iff its triple is listed.
    """

    transitions: frozenset = frozenset()

    def __post_init__(self):
        norm = set()
        for item in self.transitions:
            if len(item) != 3:
                raise ValidationError(
                    "each transition must be (states, inputs, next_state)")
            xs, us, nxt = item
            norm.add((_key(xs), _key(us), _key(nxt)))
        object.__setattr__(self, "transitions", frozenset(norm))


def _key(values) -> tuple:
    """Quantized tuple key so float noise below 1e-9 cannot split points."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    arr = np.round(arr, QUANT_DECIMALS) + 0.0
    return tuple(float(v) for v in arr)


def _spec_error(cls, field: tuple, what: str, detail: str):
    """``cls(f"{what}: {detail}")`` for a :class:`NetworkSpec` field.

    The error also carries ``field``, the spec field at fault as its name,
    the agent index and any keys below them (``("dynamics", 0, "A", 1)`` is
    agent 0's A block for agent 1; ``("couplings", 0, 2)`` is agent 0's
    third coupling row), and ``detail``, so that a caller holding the
    spec's source can name that source instead.
    """
    exc = cls(f"{what}: {detail}")
    exc.field, exc.detail = field, detail
    return exc


def _payload_kind(i: int, payload) -> str:
    if isinstance(payload, AffineAgent):
        return "affine"
    if isinstance(payload, FiniteDynamics):
        return "finite"
    raise _spec_error(
        UnsupportedDynamics, ("dynamics", i), f"agent {i}",
        f"payload {type(payload).__name__} is neither affine nor "
        "a finite transition table")


#: Each per-agent set family of a NetworkSpec and how its errors name it.
_SET_FAMILIES = {"state_sets": "state set", "input_sets": "input set",
                 "goal_sets": "goal set", "start_sets": "start set",
                 "start_partitions": "start partition",
                 "goal_partitions": "goal partition"}
_OPTIONAL_SETS = ("start_sets", "start_partitions", "goal_partitions")


# -- network description ------------------------------------------------------


@dataclass(frozen=True)
class NetworkSpec:
    """Everything that defines one networked reachability problem.

    ``goal_sets`` / ``start_sets`` / partitions are given per agent over the
    stacked states of its *communication neighbourhood* (itself plus every
    agent it shares dynamics or constraints with, in index order).  For the
    affine backend the sets are halfspace polytopes; for the finite backend
    they are finite point families, and ``state_sets`` / ``input_sets`` act
    as per-agent alphabets.

    A spec that constructs is solvable: every structural check runs here,
    once, and the local-system builders trust it.  Besides list lengths, it
    checks that:

    * dimensions, the horizon and neighbour indices are integers, numpy's
      included, never a bool or a float (ValidationError), indices name
      an agent (IndexOutOfRange), and the trajectory vector has at most
      ``MAX_COORDINATES`` coordinates (ValidationError);
    * each dynamics payload is an ``AffineAgent`` or ``FiniteDynamics``
      (UnsupportedDynamics), all of one kind (ValidationError);
    * affine A/B blocks have the declared shapes and finite entries
      (ShapeMismatch); finite transitions have the lengths of the agent's
      dynamic neighbourhood and finite entries (DimensionMismatch);
    * coupling rows are ``CouplingRow``s (affine: NonlinearConstraint) or
      callables (finite: UnsupportedDynamics), and a ``CouplingRow`` names
      only constraint neighbours, with coefficients of their agents' state
      and input lengths (ValidationError);
    * every state, input, goal, start and partition entry, by one check
      for both backends, is of the backend's type (ValidationError; only
      the start and partition entries, and an affine agent's input set
      when it has no inputs, may be None) and of the right dimension
      (DimensionMismatch); a point family also has finite coordinates
      (DimensionMismatch), no duplicate points, and an alphabet has at
      least one point (ValidationError);
    * each goal set lies inside its goal partition and each start set
      inside its start partition (ValidationError).

    Each ``AffineAgent`` checks at its own construction that its
    disturbance set is bounded (UnboundedDisturbance).  An error about one
    agent's entry names the field at fault in its ``field`` attribute (see
    :func:`_spec_error`).
    ``index``, its :class:`AxisIndex`, is built here once, and
    :meth:`window_sets` lists the sets on each agent's window.
    """

    state_dims: tuple
    input_dims: tuple
    dyn_neighbors: tuple
    con_neighbors: tuple
    horizon: int
    state_sets: tuple
    input_sets: tuple
    goal_sets: tuple
    dynamics: tuple
    couplings: tuple | None = None
    start_sets: tuple | None = None
    start_partitions: tuple | None = None
    goal_partitions: tuple | None = None

    # -- construction-time normalization and validation ---------------------

    def __post_init__(self):
        set_attr = object.__setattr__
        dims = tuple(check_count(d, f"state_dims[{i}]", 1)
                     for i, d in enumerate(self.state_dims))
        idims = tuple(check_count(d, f"input_dims[{i}]", 0)
                      for i, d in enumerate(self.input_dims))
        N = len(dims)
        if N < 1:
            raise ValidationError("at least one agent is required")
        if len(idims) != N:
            raise ValidationError("state_dims and input_dims lengths differ")
        set_attr(self, "state_dims", dims)
        set_attr(self, "input_dims", idims)
        set_attr(self, "horizon", check_count(self.horizon, "horizon", 0))
        width = (self.horizon + 1) * (sum(dims) + sum(idims))
        if width > MAX_COORDINATES:
            raise ValidationError(f"horizon {self.horizon} gives {width} "
                                  f"trajectory coordinates, over {MAX_COORDINATES}")

        def norm_nb(lists, what):
            if len(lists) != N:
                raise ValidationError(f"{what} must list all {N} agents")
            out = []
            for i, lst in enumerate(lists):
                for j in lst:  # range first: out of range is IndexOutOfRange
                    if isinstance(j, Real) and not 0 <= j < N:
                        raise IndexOutOfRange(
                            f"{what}[{i}] references unknown agent {j}")
                out.append(tuple(sorted(
                    {check_count(j, f"{what}[{i}] entry", 0) for j in lst} - {i})))
            return tuple(out)

        set_attr(self, "dyn_neighbors", norm_nb(self.dyn_neighbors,
                                                "dyn_neighbors"))
        set_attr(self, "con_neighbors", norm_nb(self.con_neighbors,
                                                "con_neighbors"))

        for name in ("state_sets", "input_sets", "goal_sets", "dynamics"):
            if len(getattr(self, name)) != N:
                raise ValidationError(f"{name} must list all {N} agents")
        couplings = self.couplings
        if couplings is None:
            couplings = tuple(() for _ in range(N))
        if len(couplings) != N:
            raise ValidationError("couplings must list all agents")
        set_attr(self, "couplings", tuple(tuple(rows) for rows in couplings))
        for opt in _OPTIONAL_SETS:
            val = getattr(self, opt)
            if val is not None:
                if len(val) != N:
                    raise ValidationError(f"{opt} must list all {N} agents")
                set_attr(self, opt, tuple(val))

        kinds = {_payload_kind(i, d) for i, d in enumerate(self.dynamics)}
        if len(kinds) > 1:
            raise ValidationError(
                "all agents must share one dynamics payload kind")
        set_attr(self, "_backend", kinds.pop())

        graph = graph_from_dynamics(self.dyn_neighbors, self.con_neighbors)
        members = tuple(graph.neighborhood(i) for i in range(N))
        set_attr(self, "index", AxisIndex(dims, idims, self.horizon, members))

        for i in range(N):
            for r, row in enumerate(self.couplings[i]):
                self._validate_coupling(i, r, row)
            self._validate_dynamics(i)
        for name in _SET_FAMILIES:
            fam = getattr(self, name)
            if fam is not None:
                set_attr(self, name, tuple(self._check_set(name, i, entry)
                                           for i, entry in enumerate(fam)))
        for part_name, set_name, what in (
                ("goal_partitions", "goal_sets", "goal"),
                ("start_partitions", "start_sets", "start")):
            parts = getattr(self, part_name) or (None,) * N
            sets = getattr(self, set_name) or (None,) * N
            for i, (part, inner) in enumerate(zip(parts, sets)):
                if part is None or inner is None:
                    continue
                if not (includes(part, inner) if self._backend == "affine"
                        else set(inner) <= set(part)):
                    raise _spec_error(
                        ValidationError, (part_name, i), f"agent {i}",
                        f"{what} set is not inside its partition")

    # -- simple accessors ----------------------------------------------------

    @property
    def n_agents(self) -> int:
        return len(self.state_dims)

    @property
    def backend(self) -> str:
        return self._backend

    def members(self, i: int) -> tuple:
        """Communication neighbourhood of agent i (itself included)."""
        self.index._check(0, i)
        return self.index.members[i]

    def window_sets(self, i: int, task: str) -> tuple[list, list]:
        """The sets on agent i's window, as two lists of ``(axes, set)``
        pairs, for both backends: each member's state and input set at
        t = 0..H, step by step; then the targets on the stacked neighbourhood
        states: the start set at t = 0 (reach-check only, if the agent has
        one), the start partition for t < H (if it has one), the goal at H."""
        index, H, members = self.index, self.horizon, self.members(i)
        steps = []
        for t in range(H + 1):
            for j in members:
                steps.append((index.own_state_axes(t, j), self.state_sets[j]))
                if self.input_dims[j]:
                    steps.append((index.own_input_axes(t, j),
                                  self.input_sets[j]))
        start, partition = (None if fam is None else fam[i]
                            for fam in (self.start_sets, self.start_partitions))
        targets = []
        if task == "reach-check" and start is not None:
            targets.append((index.nbhd_state_axes(0, i), start))
        if partition is not None:
            targets += [(index.nbhd_state_axes(t, i), partition)
                        for t in range(H)]
        targets.append((index.nbhd_state_axes(H, i), self.goal_sets[i]))
        return steps, targets

    # -- validation helpers --------------------------------------------------

    def _validate_coupling(self, i: int, r: int, row):
        field = ("couplings", i, r)
        if not isinstance(row, CouplingRow):
            if self._backend == "affine":
                raise _spec_error(
                    NonlinearConstraint, field, f"agent {i}",
                    f"coupling payload {type(row).__name__} is not a linear "
                    "row; the affine pipeline cannot encode it")
            if not callable(row):
                raise _spec_error(
                    UnsupportedDynamics, field, f"agent {i}",
                    f"coupling payload {type(row).__name__} is not evaluable")
            return
        if not row.participants() <= set(self.con_neighbors[i]) | {i}:
            raise _spec_error(
                ValidationError, field, f"agent {i}",
                "coupling row references agents outside the declared "
                "constraint neighbours")
        for kind, coefs, dims in (("state", row.state_coefs, self.state_dims),
                                  ("input", row.input_coefs, self.input_dims)):
            for j, c in coefs.items():
                if c.shape != (dims[j],):
                    raise _spec_error(
                        ValidationError, (*field, f"{kind}_coefs", j),
                        f"agent {i}: coupling {kind} coefficients for {j}",
                        f"have length {c.shape[0]}, expected {dims[j]}")

    def _validate_dynamics(self, i: int):
        dyn = self.dynamics[i]
        if self._backend == "finite":
            who = (i, *self.dyn_neighbors[i])
            shape = (sum(self.state_dims[j] for j in who),
                     sum(self.input_dims[j] for j in who), self.state_dims[i])
            if any(tuple(map(len, r)) != shape for r in dyn.transitions):
                raise _spec_error(DimensionMismatch, ("dynamics", i),
                                  f"agent {i}",
                                  f"transition lengths must be {shape}")
            if not np.isfinite([xs + us + nxt for xs, us, nxt
                                in dyn.transitions]).all():
                raise _spec_error(DimensionMismatch, ("dynamics", i),
                                  f"agent {i}",
                                  "transition entries must be finite")
            return
        if dyn.state_dim != self.state_dims[i] or \
                dyn.input_dim != self.input_dims[i]:
            raise _spec_error(
                ValidationError, ("dynamics", i), f"agent {i}",
                f"dynamics dims {(dyn.state_dim, dyn.input_dim)} disagree "
                f"with declared {(self.state_dims[i], self.input_dims[i])}")
        allowed = set(self.dyn_neighbors[i]) | {i}
        for name, blocks, dims in (("A", dyn.A, self.state_dims),
                                   ("B", dyn.B, self.input_dims)):
            for j, M in blocks.items():
                field = ("dynamics", i, name, j)
                if j not in allowed:
                    raise _spec_error(
                        ValidationError, field, f"agent {i}",
                        f"dynamics block for {j} but {j} is not a "
                        "declared dynamic neighbour")
                what = f"agent {i}: {name} block for {j}"
                if M.shape != (dyn.state_dim, dims[j]):
                    raise _spec_error(
                        ShapeMismatch, field, what,
                        f"expected shape {(dyn.state_dim, dims[j])}, "
                        f"got {M.shape}")
                if not np.all(np.isfinite(M)):
                    raise _spec_error(ShapeMismatch, field, what,
                                      "entries must be finite")

    def _check_set(self, name: str, i: int, entry):
        """Check agent i's entry of the set family ``name``; return it as
        the spec keeps it (a finite family as a tuple of ``_key`` vectors)."""
        field, what = (name, i), f"{_SET_FAMILIES[name]} of agent {i}"
        dim = (self.state_dims[i] if name == "state_sets" else
               self.input_dims[i] if name == "input_sets" else
               sum(self.state_dims[j] for j in self.members(i)))
        if entry is None and name in _OPTIONAL_SETS:
            return None
        if self._backend == "affine":
            if name == "input_sets" and not dim:
                return entry  # an agent without inputs has no input set
            if not isinstance(entry, HPolytope):
                raise _spec_error(ValidationError, field, what,
                                  "expected a polytope")
            if entry.dim != dim:
                raise _spec_error(DimensionMismatch, field, what,
                                  f"dimension {entry.dim}, expected {dim}")
            return entry
        try:
            pts = tuple(_key(v) for v in entry)
        except (TypeError, ValueError):
            raise _spec_error(ValidationError, field, what,
                              "expected a list of points") from None
        if any(len(v) != dim for v in pts):
            raise _spec_error(DimensionMismatch, field, what,
                              f"points must have length {dim}")
        if not np.isfinite(np.reshape(pts, (len(pts), dim))).all():
            raise _spec_error(DimensionMismatch, field, what,
                              "point coordinates must be finite")
        if len(set(pts)) != len(pts):
            raise _spec_error(ValidationError, field, what, "duplicate points")
        if not pts and name in ("state_sets", "input_sets"):
            if not dim:
                return ((),)  # the one input vector of an agent without inputs
            raise _spec_error(ValidationError, field, what, "empty alphabet")
        return pts


# -- axis numbering -----------------------------------------------------------


@dataclass(frozen=True)
class AxisIndex:
    """Global numbering of every state/input coordinate over the horizon.

    The trajectory vector is laid out step by step: all states of step t
    (agents in index order), then all inputs of step t.  Labels are 1-based.
    ``members[i]`` is the communication neighbourhood used for the windowed
    ("nbhd") variants.  A :class:`NetworkSpec` builds its own, once, as
    ``spec.index``.
    """

    state_dims: tuple
    input_dims: tuple
    horizon: int
    members: tuple
    _state_offsets: tuple = field(init=False, repr=False)
    _input_offsets: tuple = field(init=False, repr=False)

    def __post_init__(self):
        so = np.concatenate([[0], np.cumsum(self.state_dims)])
        io = np.concatenate([[0], np.cumsum(self.input_dims)])
        object.__setattr__(self, "_state_offsets", tuple(int(v) for v in so))
        object.__setattr__(self, "_input_offsets", tuple(int(v) for v in io))

    # -- bookkeeping ---------------------------------------------------------

    @property
    def n_agents(self) -> int:
        return len(self.state_dims)

    @property
    def total_state_dim(self) -> int:
        return self._state_offsets[-1]

    @property
    def total_input_dim(self) -> int:
        return self._input_offsets[-1]

    @property
    def step_width(self) -> int:
        return self.total_state_dim + self.total_input_dim

    def _check(self, t: int, i: int):
        if not 0 <= i < self.n_agents:
            raise IndexOutOfRange(f"agent index {i} out of range")
        if not 0 <= t <= self.horizon:
            raise IndexOutOfRange(f"time {t} outside horizon 0..{self.horizon}")

    # -- per-agent blocks ------------------------------------------------------

    def own_state_axes(self, t: int, i: int) -> AxisSet:
        """Labels of agent i's own state coordinates at step t."""
        self._check(t, i)
        base = t * self.step_width + self._state_offsets[i]
        return AxisSet(range(base + 1, base + 1 + self.state_dims[i]))

    def own_input_axes(self, t: int, i: int) -> AxisSet:
        """Labels of agent i's own input coordinates at step t."""
        self._check(t, i)
        base = (t * self.step_width + self.total_state_dim
                + self._input_offsets[i])
        return AxisSet(range(base + 1, base + 1 + self.input_dims[i]))

    def own_axes(self, t: int, i: int) -> AxisSet:
        return self.own_state_axes(t, i) | self.own_input_axes(t, i)

    # -- neighbourhood windows -------------------------------------------------

    def nbhd_state_axes(self, t: int, i: int) -> AxisSet:
        self._check(t, i)
        return AxisSet.union_of(self.own_state_axes(t, j)
                                for j in self.members[i])

    def nbhd_input_axes(self, t: int, i: int) -> AxisSet:
        self._check(t, i)
        return AxisSet.union_of(self.own_input_axes(t, j)
                                for j in self.members[i])

    # -- whole-horizon windows ---------------------------------------------------

    def horizon_axes(self, i: int) -> AxisSet:
        return AxisSet.union_of(
            self.nbhd_state_axes(t, i) | self.nbhd_input_axes(t, i)
            for t in range(self.horizon + 1))

    # -- global views -------------------------------------------------------------

    @property
    def all_axes(self) -> AxisSet:
        return AxisSet(range(1, (self.horizon + 1) * self.step_width + 1))

    def global_state_axes(self, t: int) -> AxisSet:
        self._check(t, 0)
        return AxisSet.union_of(self.own_state_axes(t, j)
                                for j in range(self.n_agents))

    @property
    def global_input_axes(self) -> AxisSet:
        return AxisSet.union_of(self.own_input_axes(t, j)
                                for t in range(self.horizon + 1)
                                for j in range(self.n_agents))


# -- local systems -------------------------------------------------------------


@dataclass(frozen=True)
class LocalSolution:
    """One window's outcome, for both routes.

    ``trajectories``: the window's locally admissible trajectory set before
    the exchange; ``refined_trajectories``: the same window after the fixed
    point, i.e. the projection of the global trajectory set.  The
    centralized answer is the one-window case: ``node`` is None and both
    fields hold the global trajectory set.  The two shadows are projected
    when first read and then cached, along one chain: ``admissible_controls``
    on ``control_axes``, starts joined with their realizing inputs, and
    ``start_states``, those controls on ``start_axes``, the window's step-0
    states (the backward-reachable starts).
    """

    node: int | None
    trajectories: LabeledSet
    refined_trajectories: LabeledSet
    start_axes: AxisSet
    control_axes: AxisSet

    @cached_property
    def start_states(self) -> LabeledSet:
        return project_set(self.admissible_controls, self.start_axes)

    @cached_property
    def admissible_controls(self) -> LabeledSet:
        return project_set(self.refined_trajectories, self.control_axes)


def local_system_solution(spec: NetworkSpec, index: AxisIndex, i: int, *,
                          task: str = "pre",
                          disturbance_lag: str = "paper") -> LabeledSet:
    """All locally admissible trajectories of agent i over its window.

    The set collects every assignment of neighbourhood states (t = 0..H) and
    inputs that satisfies the agent's own dynamics, its coupling rows and
    the sets of :meth:`NetworkSpec.window_sets`.  The spec's backend decides
    the form: an affine spec gives a polytope, a finite one a point table.
    An empty result is a valid outcome, not an error.

    ``index`` must equal ``spec.index`` (else ValidationError); it stays
    because ``bench/tracing.py`` reads the agent from the third argument.
    """
    if index != spec.index:
        raise ValidationError("index must be the spec's own axis index")
    check_choice(task, "task", TASKS)
    check_choice(disturbance_lag, "disturbance_lag", _affine.DISTURBANCE_LAGS)
    if spec.backend == "finite":
        return _finite_local_solution(spec, i, task)
    system = _affine.assemble_robust_system(
        spec, i, task=task, disturbance_lag=disturbance_lag)
    return polytope_set(index.horizon_axes(i), system.polytope())


def _finite_local_solution(spec: NetworkSpec, i: int, task: str) -> LabeledSet:
    """Join of the window's target tables (goal first), transition tables
    and alphabets, less the rows that break a coupling row at some t < H.

    The filter takes the steps t < H in order and, at each, the agent's
    rows in order.  A linear row is one product of the table with its
    :func:`reachnet.affine.coupling_row_vector`.  A callable row is called,
    on per-agent ``_key`` tuples of the step's states and inputs, only for
    the table rows still kept, so it sees the (table row, step) pairs of a
    row-by-row scan that stops at a row's first failure."""
    index, H = spec.index, spec.horizon
    members = index.members[i]
    cols = index.horizon_axes(i)
    steps, targets = spec.window_sets(i, task)
    # label order within a step is states, then inputs, then next states
    transitions = [xs + us + nxt for xs, us, nxt in spec.dynamics[i].transitions]
    who = (i, *spec.dyn_neighbors[i])
    moves = [(AxisSet.union_of(index.own_axes(t, j) for j in who)
              | index.own_state_axes(t + 1, i), transitions) for t in range(H)]
    joined = join_extrusions([finite_set(*pair) for pair in (
        targets[-1], *targets[:-1], *moves, *steps)], cols)
    if not spec.couplings[i]:
        return joined
    z = joined.table().points
    keep = np.ones(len(z), dtype=bool)
    for t in range(H):
        xs_at = {j: cols.positions_of(index.own_state_axes(t, j)) for j in members}
        us_at = {j: cols.positions_of(index.own_input_axes(t, j)) for j in members}
        for row in spec.couplings[i]:
            if isinstance(row, CouplingRow):
                vec, bound = _affine.coupling_row_vector(row, index, t, cols)
                miss = z @ vec - bound
                keep &= (np.abs(miss) if row.relation == "=" else miss) <= ABS_TOL
                continue
            for k in np.flatnonzero(keep):
                keep[k] = bool(row({j: _key(z[k, p]) for j, p in xs_at.items()},
                                   {j: _key(z[k, p]) for j, p in us_at.items()}))
    return finite_set(cols, z[keep])


# -- distributed orchestration ---------------------------------------------------


def _recast(spec: NetworkSpec, task: str, disturbance_lag: str,
            tolerance: float = ABS_TOL) -> FixpointProblem:
    """The network problem as a FixpointProblem, the paper's exact recast:
    one node per agent, over the agent's whole-horizon window, starting
    from its local trajectory set.  Its fixed point is the projections of
    the join of those sets, the global trajectory set."""
    index = spec.index
    return FixpointProblem(
        [index.horizon_axes(i) for i in range(spec.n_agents)],
        [local_system_solution(spec, index, i, task=task,
                               disturbance_lag=disturbance_lag)
         for i in range(spec.n_agents)], tolerance)


def _solutions(index: AxisIndex, windows) -> list[LocalSolution]:
    """The solution of each ``(node, trajectories, refined)`` window.  One
    rule gives every window's shadow axes: its step-0 states, and those
    plus its inputs."""
    starts = index.global_state_axes(0)
    controls = starts | index.global_input_axes
    return [LocalSolution(node, trajectories, refined, refined.axes & starts,
                          refined.axes & controls)
            for node, trajectories, refined in windows]


def run_distributed_reachability(
        spec: NetworkSpec, *, task: str = "pre",
        disturbance_lag: str = "paper", max_rounds: int | None = None,
        tolerance: float = ABS_TOL) -> tuple[list[LocalSolution], IterationTrace]:
    """Solve every agent's local system and exchange windows to a fixed
    point; each returned solution projects its start states and admissible
    controls from its refined window when they are first read.

    Each agent's dynamics payload picks its backend.  The windows come from
    the communication neighbourhoods of the spec's influence graph; the
    exchange runs on the axis-overlap graph of those windows (two windows
    overlap exactly when their neighbourhoods share an agent), so
    information can travel between nodes that co-constrain a shared
    coordinate even without a direct link.

    A bad ``tolerance`` or ``max_rounds`` raises ValidationError before any
    local system is solved.  A failing shadow projection raises at the
    shadow's first read, not here: ``reachnet run`` reads every shadow
    before it writes a node file, so such a failure leaves ``error.json``
    and no node or result file.
    """
    tolerance = check_limits(tolerance, max_rounds)
    problem = _recast(spec, task, disturbance_lag, tolerance)
    for i, s in enumerate(problem.initial_sets):
        if s.empty:
            logger.warning(
                "agent %d: local trajectory system is empty; the global "
                "trajectory set (and every extracted set) will be empty", i)
    finals, trace = run_distributed(problem, max_rounds=max_rounds)
    return _solutions(spec.index, zip(range(spec.n_agents),
                                      problem.initial_sets, finals)), trace


# -- centralized route ------------------------------------------------------------


def centralized_reachability(
        spec: NetworkSpec, *, task: str = "pre",
        disturbance_lag: str = "paper") -> LocalSolution:
    """The global trajectory set over all coordinates at once (for
    cross-checks): the join of every agent's local system, which by the
    paper's equivalence is exactly the monolithic solution.  Each agent's
    dynamics payload picks its backend.  The answer is the one-window
    solution of the distributed route's recast: ``node`` is None and both
    trajectory fields hold the global set.

    Refuses, with DimensionCapExceeded and before any local system is
    solved, once the trajectory vector grows beyond DEFAULT_DIMENSION_CAP
    coordinates.  No shadow is projected here; a caller that never reads
    one pays only for the join.
    """
    check_choice(task, "task", TASKS)
    index = spec.index
    width = (spec.horizon + 1) * index.step_width
    if width > DEFAULT_DIMENSION_CAP:
        raise DimensionCapExceeded(f"monolithic system has {width} "
                                   f"coordinates (cap {DEFAULT_DIMENSION_CAP})")
    joined = centralized_join(_recast(spec, task, disturbance_lag))
    return _solutions(index, [(None, joined, joined)])[0]


def start_join(spec: NetworkSpec) -> LabeledSet | None:
    """The global start restriction induced by the per-agent start sets
    (agents without one contribute no constraint).  With no start set at
    all it is the universe for affine networks and None for finite ones."""
    index = spec.index
    target = index.global_state_axes(0)
    make = polytope_set if spec.backend == "affine" else finite_set
    parts = [make(index.nbhd_state_axes(0, i), start)
             for i, start in enumerate(spec.start_sets or
                                       (None,) * spec.n_agents)
             if start is not None]
    if parts:
        return join_extrusions(parts, target)
    return polytope_set(target, HPolytope.universe(len(target))) \
        if spec.backend == "affine" else None
