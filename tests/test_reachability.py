"""Networked reachability: axis numbering, local systems, both routes.

Every expected number here is either hand-derived (and frozen) or checked
against an independent oracle: forward simulation for affine dynamics,
exhaustive forward search for finite transition systems, raw LP gridding
for set membership.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools

import numpy as np
import pytest

from reachnet import lpsolve
from reachnet.affine import AffineAgent, CouplingRow
from reachnet.axisset import (
    AxisSet,
    finite_set,
    project_set,
    sets_equal,
)
from reachnet.errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    ReachnetError,
    ShapeMismatch,
    UnsupportedDynamics,
    ValidationError,
)
from reachnet.netgraph import graph_from_dynamics
from reachnet.polytope import (
    ABS_TOL,
    HPolytope,
    embed_columns,
    intersect,
    set_equal,
)
from reachnet.reachability import (
    DEFAULT_DIMENSION_CAP,
    TASKS,
    AxisIndex,
    FiniteDynamics,
    NetworkSpec,
    centralized_reachability,
    local_system_solution,
    run_distributed_reachability,
    start_join,
)

from .oracles import (
    finite_forward_trajectories,
    goal_join,
    row_by_row_coupling_filter,
    simulate_network,
    support_point,
)

# ---------------------------------------------------------------------------
# instance builders (shared with the acceptance suite)
# ---------------------------------------------------------------------------


INF, NAN = float("inf"), float("nan")


def box(lo, hi) -> HPolytope:
    return HPolytope.from_box(np.atleast_1d(lo), np.atleast_1d(hi))


def integrator_spec(horizon: int = 1, goal=(-1.0, 1.0), state=(-10.0, 10.0),
                    inp=(-1.0, 1.0), **kw) -> NetworkSpec:
    """x(t+1) = x(t) + u(t); one-step backward set of [-1,1] is [-2,2]."""
    return NetworkSpec(
        state_dims=(1,), input_dims=(1,),
        dyn_neighbors=((),), con_neighbors=((),),
        horizon=horizon,
        state_sets=(box(*state),), input_sets=(box(*inp),),
        goal_sets=(box(*goal),),
        dynamics=(AffineAgent(1, 1, A={0: [[1.0]]}, B={0: [[1.0]]}),), **kw)


def robust_integrator_spec(horizon: int = 1, half_width: float = 0.5,
                           **kw) -> NetworkSpec:
    """Integrator with an additive disturbance |d| <= half_width."""
    agent = AffineAgent(1, 1, A={0: [[1.0]]}, B={0: [[1.0]]}, E=[[1.0]],
                        disturbance_set=box(-half_width, half_width))
    return NetworkSpec(
        state_dims=(1,), input_dims=(1,),
        dyn_neighbors=((),), con_neighbors=((),),
        horizon=horizon,
        state_sets=(box(-10, 10),), input_sets=(box(-1, 1),),
        goal_sets=(box(-1, 1),), dynamics=(agent,), **kw)


def chain_spec(horizon: int = 2, coupled: bool = True) -> NetworkSpec:
    """Two scalar agents; agent 0 reads agent 1's state, optional joint cap."""
    agents = (AffineAgent(1, 1, A={0: [[1.0]], 1: [[0.5]]}, B={0: [[1.0]]}),
              AffineAgent(1, 1, A={1: [[1.0]]}, B={1: [[1.0]]}))
    couplings = None
    if coupled:
        couplings = ((CouplingRow({0: [1.0], 1: [1.0]}, {}, -6.0),), ())
    return NetworkSpec(
        state_dims=(1, 1), input_dims=(1, 1),
        dyn_neighbors=((1,), ()), con_neighbors=((1,) if coupled else (), ()),
        horizon=horizon,
        state_sets=(box(-5, 5), box(-5, 5)),
        input_sets=(box(-1, 1), box(-1, 1)),
        goal_sets=(box([-1.5, -2], [1.5, 2]),
                   embed_columns(box(-1, 1), 2, [1])),
        dynamics=agents, couplings=couplings)


def finite_toy_spec() -> NetworkSpec:
    """Two finite agents: a controlled counter reading an autonomous bit."""
    d1 = FiniteDynamics(frozenset({
        ((0, 0), (0,), (0,)), ((0, 0), (1,), (1,)),
        ((1, 0), (0,), (1,)), ((1, 0), (1,), (2,)),
        ((2, 0), (0,), (2,)), ((0, 1), (0,), (1,)),
        ((1, 1), (0,), (0,)), ((2, 1), (1,), (0,)),
    }))
    d2 = FiniteDynamics(frozenset({
        ((0,), (), (1,)), ((1,), (), (0,)), ((0,), (), (0,)),
    }))
    return NetworkSpec(
        state_dims=(1, 1), input_dims=(1, 0),
        dyn_neighbors=((1,), ()), con_neighbors=((), ()),
        horizon=1,
        state_sets=([(0,), (1,), (2,)], [(0,), (1,)]),
        input_sets=([(0,), (1,)], ()),
        goal_sets=([(0, 0), (0, 1), (1, 1)],
                   [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]),
        dynamics=(d1, d2))


def random_affine_spec(seed: int) -> NetworkSpec:
    """Seeded random 2-3 agent coupled affine system, horizon <= 3."""
    rng = np.random.default_rng(seed)
    n_agents = int(rng.integers(2, 4))
    dims = [int(rng.integers(1, 3)) for _ in range(n_agents)]
    input_dims = [int(rng.integers(0, 2)) for _ in range(n_agents)]
    if not any(input_dims):
        input_dims[0] = 1
    horizon = int(rng.integers(1, 4))
    dyn_nb = [set() for _ in range(n_agents)]
    for i in range(1, n_agents):
        dyn_nb[i].add(i - 1)
    if n_agents == 3 and rng.random() < 0.5:
        dyn_nb[0].add(2)

    def block(rows, cols, scale):
        return scale * rng.uniform(-1.0, 1.0, size=(rows, cols))

    agents = []
    for i in range(n_agents):
        A = {i: block(dims[i], dims[i], 0.8 / dims[i])}
        for j in dyn_nb[i]:
            A[j] = block(dims[i], dims[j], 0.3)
        B = {}
        if input_dims[i]:
            B[i] = block(dims[i], input_dims[i], 1.0)
        for j in dyn_nb[i]:
            if input_dims[j] and rng.random() < 0.4:
                B[j] = block(dims[i], input_dims[j], 0.4)
        K = 0.2 * rng.uniform(-1, 1, size=dims[i])
        agents.append(AffineAgent(dims[i], input_dims[i], A=A, B=B, K=K))

    con_nb = [set() for _ in range(n_agents)]
    couplings = [[] for _ in range(n_agents)]
    if rng.random() < 0.5 and n_agents >= 2:
        i, j = 0, 1
        con_nb[i].add(j)
        couplings[i].append(CouplingRow(
            {i: rng.uniform(-1, 1, size=dims[i]),
             j: rng.uniform(-1, 1, size=dims[j])}, {},
            -float(rng.uniform(2.0, 6.0))))

    spec_nb = [tuple(sorted(s)) for s in dyn_nb]
    graph_members = []
    influence = [set(dyn_nb[i]) | set(con_nb[i]) for i in range(n_agents)]
    for i in range(n_agents):
        m = {i} | influence[i]
        for j in range(n_agents):
            if i in influence[j]:
                m.add(j)
        graph_members.append(tuple(sorted(m)))

    goal_sets = []
    for i in range(n_agents):
        nd = sum(dims[j] for j in graph_members[i])
        w = rng.uniform(1.5, 3.0, size=nd)
        c = rng.uniform(-0.5, 0.5, size=nd)
        goal_sets.append(box(c - w, c + w))
    return NetworkSpec(
        state_dims=tuple(dims), input_dims=tuple(input_dims),
        dyn_neighbors=tuple(spec_nb),
        con_neighbors=tuple(tuple(sorted(s)) for s in con_nb),
        horizon=horizon,
        state_sets=tuple(box(-4 * np.ones(d), 4 * np.ones(d)) for d in dims),
        input_sets=tuple(box(-np.ones(m), np.ones(m)) if m else None
                         for m in input_dims),
        goal_sets=tuple(goal_sets), dynamics=tuple(agents),
        couplings=tuple(tuple(r) for r in couplings))


# ---------------------------------------------------------------------------
# axis numbering
# ---------------------------------------------------------------------------


class TestAxisIndex:
    def test_two_agent_full_coupling_golden(self):
        idx = AxisIndex((1, 1), (1, 1), 1, ((0, 1), (0, 1)))
        assert idx.own_state_axes(0, 0) == AxisSet([1])
        assert idx.own_state_axes(0, 1) == AxisSet([2])
        assert idx.own_input_axes(0, 0) == AxisSet([3])
        assert idx.own_input_axes(0, 1) == AxisSet([4])
        assert idx.own_state_axes(1, 0) == AxisSet([5])
        assert idx.all_axes == AxisSet(range(1, 9))
        assert idx.horizon_axes(0) == AxisSet(range(1, 9))
        assert idx.horizon_axes(1) == AxisSet(range(1, 9))

    def test_heterogeneous_block_offsets(self):
        # dims (2,1,3), inputs (1,0,2), chain 0-1-2, horizon 2
        members = ((0, 1), (0, 1, 2), (1, 2))
        idx = AxisIndex((2, 1, 3), (1, 0, 2), 2, members)
        assert idx.step_width == 9
        assert idx.own_state_axes(0, 0) == AxisSet([1, 2])
        assert idx.own_state_axes(0, 1) == AxisSet([3])
        assert idx.own_state_axes(0, 2) == AxisSet([4, 5, 6])
        assert idx.own_input_axes(0, 0) == AxisSet([7])
        assert idx.own_input_axes(0, 1) == AxisSet()
        assert idx.own_input_axes(0, 2) == AxisSet([8, 9])
        assert idx.own_state_axes(1, 2) == AxisSet([13, 14, 15])
        assert idx.own_input_axes(1, 0) == AxisSet([16])
        assert idx.nbhd_state_axes(0, 0) == AxisSet([1, 2, 3])
        assert idx.nbhd_state_axes(0, 1) == AxisSet([1, 2, 3, 4, 5, 6])
        assert idx.global_state_axes(2) == AxisSet([19, 20, 21, 22, 23, 24])
        assert len(idx.all_axes) == 27

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_structure_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        dims = tuple(int(rng.integers(1, 4)) for _ in range(n))
        input_dims = tuple(int(rng.integers(0, 3)) for _ in range(n))
        horizon = int(rng.integers(0, 4))
        members = []
        for i in range(n):
            extra = {int(j) for j in rng.choice(n, size=rng.integers(0, n),
                                                replace=False)}
            members.append(tuple(sorted(extra | {i})))
        idx = AxisIndex(dims, input_dims, horizon, tuple(members))

        width = sum(dims) + sum(input_dims)
        assert idx.all_axes == AxisSet(range(1, (horizon + 1) * width + 1))

        blocks = []
        for t in range(horizon + 1):
            for i in range(n):
                blocks.append(idx.own_state_axes(t, i))
                blocks.append(idx.own_input_axes(t, i))
        # own blocks are consecutive runs, pairwise disjoint, and cover
        seen = []
        for b in blocks:
            labs = list(b)
            assert labs == list(range(labs[0], labs[0] + len(labs))) if labs \
                else True
            seen.extend(labs)
        assert sorted(seen) == list(range(1, (horizon + 1) * width + 1))

        for t in range(horizon + 1):
            for i in range(n):
                want = AxisSet.union_of(
                    [idx.own_state_axes(t, j) for j in members[i]])
                assert idx.nbhd_state_axes(t, i) == want
            assert idx.global_state_axes(t) == AxisSet.union_of(
                [idx.own_state_axes(t, j) for j in range(n)])
        for i in range(n):
            assert idx.horizon_axes(i) == AxisSet.union_of(
                [idx.nbhd_axes(t, i) for t in range(horizon + 1)])

    def test_out_of_range_queries(self):
        idx = AxisIndex((1,), (1,), 1, ((0,),))
        with pytest.raises(IndexOutOfRange):
            idx.own_state_axes(2, 0)
        with pytest.raises(IndexOutOfRange):
            idx.own_state_axes(0, 1)
        with pytest.raises(IndexOutOfRange):
            idx.own_state_axes(-1, 0)

    def test_single_agent_window_is_everything(self):
        spec = integrator_spec(horizon=3)
        idx = spec.index
        assert idx.horizon_axes(0) == idx.all_axes

    def test_decoupled_agents_have_disjoint_windows(self):
        spec = NetworkSpec(
            state_dims=(1, 1), input_dims=(1, 1),
            dyn_neighbors=((), ()), con_neighbors=((), ()),
            horizon=1,
            state_sets=(box(-1, 1), box(-1, 1)),
            input_sets=(box(-1, 1), box(-1, 1)),
            goal_sets=(box(-1, 1), box(-1, 1)),
            dynamics=(AffineAgent(1, 1, A={0: [[1.0]]}, B={0: [[1.0]]}),
                      AffineAgent(1, 1, A={1: [[1.0]]}, B={1: [[1.0]]})))
        idx = spec.index
        assert not (idx.horizon_axes(0) & idx.horizon_axes(1))


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------


class TestNetworkSpecValidation:
    def test_horizon_must_be_nonnegative(self):
        with pytest.raises(ValidationError, match="horizon"):
            integrator_spec(horizon=-1)

    def test_neighbor_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            NetworkSpec(
                state_dims=(1,), input_dims=(1,),
                dyn_neighbors=((5,),), con_neighbors=((),),
                horizon=1, state_sets=(box(-1, 1),),
                input_sets=(box(-1, 1),), goal_sets=(box(-1, 1),),
                dynamics=(AffineAgent(1, 1, A={0: [[1.0]]}),))

    @pytest.mark.parametrize("field, value", [
        ("horizon", 1.5), ("horizon", True), ("horizon", "1"),
        ("state_dims", (1.5, 1)), ("input_dims", (1, 1.0)),
        ("dyn_neighbors", ((1.5,), ())), ("con_neighbors", ((1.0,), ())),
    ])
    def test_counts_must_be_integers(self, field, value):
        # int() used to truncate: horizon 1.5 solved horizon 1
        with pytest.raises(ValidationError, match=field[:-1]):
            dataclasses.replace(chain_spec(), **{field: value})

    def test_truncated_neighbour_out_of_range_stays_index_error(self):
        with pytest.raises(IndexOutOfRange):
            dataclasses.replace(chain_spec(), con_neighbors=((2.5,), ()))

    def test_numpy_integer_counts_accepted(self):
        spec = dataclasses.replace(
            integrator_spec(), state_dims=(np.int64(1),),
            input_dims=(np.int32(1),), horizon=np.int64(2),
            dyn_neighbors=((np.int64(0),),))
        assert (spec.state_dims, spec.input_dims, spec.horizon,
                spec.dyn_neighbors) == ((1,), (1,), 2, ((),))
        assert all(type(v) is int for v in (*spec.state_dims,
                                             *spec.input_dims, spec.horizon))

    def test_goal_dimension_checked_against_neighborhood(self):
        with pytest.raises(DimensionMismatch):
            chain = chain_spec()
            NetworkSpec(
                state_dims=chain.state_dims, input_dims=chain.input_dims,
                dyn_neighbors=chain.dyn_neighbors,
                con_neighbors=chain.con_neighbors,
                horizon=1, state_sets=chain.state_sets,
                input_sets=chain.input_sets,
                goal_sets=(box(-1, 1), box(-1, 1)),  # 1-D over a 2-D stack
                dynamics=chain.dynamics)

    def test_mixed_payload_kinds_rejected(self):
        fin = finite_toy_spec()
        with pytest.raises(ValidationError, match="payload kind"):
            NetworkSpec(
                state_dims=(1, 1), input_dims=(1, 0),
                dyn_neighbors=fin.dyn_neighbors, con_neighbors=fin.con_neighbors,
                horizon=1, state_sets=fin.state_sets, input_sets=fin.input_sets,
                goal_sets=fin.goal_sets,
                dynamics=(fin.dynamics[0],
                          AffineAgent(1, 0, A={1: [[1.0]]})))

    def test_dynamics_block_outside_neighbors(self):
        with pytest.raises(ValidationError, match="neighbour"):
            NetworkSpec(
                state_dims=(1, 1), input_dims=(1, 1),
                dyn_neighbors=((), ()), con_neighbors=((), ()),
                horizon=1,
                state_sets=(box(-1, 1), box(-1, 1)),
                input_sets=(box(-1, 1), box(-1, 1)),
                goal_sets=(box(-1, 1), box(-1, 1)),
                dynamics=(AffineAgent(1, 1, A={0: [[1.0]], 1: [[1.0]]}),
                          AffineAgent(1, 1, A={1: [[1.0]]})))

    def test_finite_coupling_row_outside_constraint_neighbors(self):
        # a third, isolated agent named by agent 0's coupling row; before
        # validation caught it the solve died with a bare KeyError
        fin = finite_toy_spec()
        with pytest.raises(ValidationError, match="constraint neighbours"):
            NetworkSpec(
                state_dims=(1, 1, 1), input_dims=(1, 0, 0),
                dyn_neighbors=fin.dyn_neighbors + ((),),
                con_neighbors=fin.con_neighbors + ((),),
                horizon=1,
                state_sets=fin.state_sets + ([(0,), (1,)],),
                input_sets=fin.input_sets + ((),),
                goal_sets=fin.goal_sets + ([(0,), (1,)],),
                dynamics=fin.dynamics + (fin.dynamics[1],),
                couplings=((CouplingRow({2: [1.0]}, {}, -5.0),), (), ()))

    @pytest.mark.parametrize("row", [
        CouplingRow({0: [1.0, 1.0]}, {}, -1.0),
        CouplingRow({0: [1.0]}, {0: [1.0, 0.0]}, -1.0),
    ], ids=["state", "input"])
    def test_finite_coupling_row_wrong_length(self, row):
        fin = finite_toy_spec()
        with pytest.raises(ValidationError, match="have length 2, expected 1"):
            NetworkSpec(
                state_dims=fin.state_dims, input_dims=fin.input_dims,
                dyn_neighbors=fin.dyn_neighbors,
                con_neighbors=fin.con_neighbors, horizon=1,
                state_sets=fin.state_sets, input_sets=fin.input_sets,
                goal_sets=fin.goal_sets, dynamics=fin.dynamics,
                couplings=((row,), ()))

    def test_finite_coupling_payload_must_be_evaluable(self):
        fin = finite_toy_spec()
        with pytest.raises(UnsupportedDynamics, match="not evaluable"):
            NetworkSpec(
                state_dims=fin.state_dims, input_dims=fin.input_dims,
                dyn_neighbors=fin.dyn_neighbors,
                con_neighbors=fin.con_neighbors, horizon=1,
                state_sets=fin.state_sets, input_sets=fin.input_sets,
                goal_sets=fin.goal_sets, dynamics=fin.dynamics,
                couplings=(("x0 <= 1",), ()))

    def test_goal_must_sit_inside_partition(self):
        with pytest.raises(ValidationError, match="partition"):
            integrator_spec(goal_partitions=(box(-0.5, 0.5),))

    def test_start_inside_partition_accepted(self):
        spec = integrator_spec(start_sets=(box(-1, 1),),
                               start_partitions=(box(-2, 2),))
        assert spec.start_sets[0].dim == 1

    @pytest.mark.parametrize("base, field, value, error", [
        (chain_spec, ("goal_sets", 1), None, ValidationError),
        (chain_spec, ("state_sets", 1), [(0.0,)], ValidationError),
        (chain_spec, ("goal_sets", 1), box(-1, 1), DimensionMismatch),
        (chain_spec, ("start_partitions", 1), box(-1, 1), DimensionMismatch),
        (chain_spec, ("dynamics", 1, "A", 1),
         AffineAgent(1, 1, A={1: [[INF]]}, B={1: [[1.0]]}), ShapeMismatch),
        (finite_toy_spec, ("goal_sets", 1), None, ValidationError),
        (finite_toy_spec, ("input_sets", 0), None, ValidationError),
        (finite_toy_spec, ("goal_sets", 1), box([0, 0], [1, 1]),
         ValidationError),
        (finite_toy_spec, ("goal_sets", 1), [(0.0,)], DimensionMismatch),
        (finite_toy_spec, ("start_sets", 1), [(0.0, 0.0, 0.0)],
         DimensionMismatch),
        (finite_toy_spec, ("goal_sets", 1), [(0.0, INF)], DimensionMismatch),
        (finite_toy_spec, ("state_sets", 1), [(0.0,), (NAN,)],
         DimensionMismatch),
        (finite_toy_spec, ("input_sets", 0), [(0.0,), (-INF,)],
         DimensionMismatch),
        (finite_toy_spec, ("start_partitions", 1), [(INF, 0.0)],
         DimensionMismatch),
        (finite_toy_spec, ("state_sets", 1), [], ValidationError),
        (finite_toy_spec, ("dynamics", 1),
         FiniteDynamics({((0,), (), (INF,))}), DimensionMismatch),
    ], ids=["affine-goal-none", "affine-state-points", "affine-goal-dim",
            "affine-partition-dim", "affine-block-inf", "finite-goal-none",
            "finite-input-none", "finite-goal-polytope", "finite-goal-dim",
            "finite-start-dim", "finite-goal-inf", "finite-state-nan",
            "finite-input-inf", "finite-partition-inf", "finite-state-empty",
            "finite-transition-inf"])
    def test_bad_entry_is_refused_naming_its_field(self, base, field, value,
                                                   error):
        spec = base()
        family, i = field[:2]
        entries = list(getattr(spec, family) or (None,) * spec.n_agents)
        entries[i] = value
        with pytest.raises(ReachnetError) as info:
            dataclasses.replace(spec, **{family: tuple(entries)})
        assert type(info.value) is error
        assert info.value.field == field

    def test_finite_alphabet_normalization(self):
        spec = finite_toy_spec()
        assert spec.input_sets[1] == ((),)
        assert spec.state_sets[0] == ((0.0,), (1.0,), (2.0,))

    def test_finite_transition_lengths_checked(self):
        # same total width as a valid row, split wrongly between the parts
        fin = finite_toy_spec()
        bad = FiniteDynamics(fin.dynamics[0].transitions
                             | {((0,), (0, 0), (0,))})
        with pytest.raises(DimensionMismatch, match="transition lengths"):
            NetworkSpec(
                state_dims=fin.state_dims, input_dims=fin.input_dims,
                dyn_neighbors=fin.dyn_neighbors, con_neighbors=fin.con_neighbors,
                horizon=1, state_sets=fin.state_sets, input_sets=fin.input_sets,
                goal_sets=fin.goal_sets, dynamics=(bad, fin.dynamics[1]))

    def test_finite_duplicate_points_rejected(self):
        fin = finite_toy_spec()
        with pytest.raises(ValidationError, match="duplicate"):
            NetworkSpec(
                state_dims=(1, 1), input_dims=(1, 0),
                dyn_neighbors=fin.dyn_neighbors, con_neighbors=fin.con_neighbors,
                horizon=1,
                state_sets=([(0,), (0,)], fin.state_sets[1]),
                input_sets=fin.input_sets, goal_sets=fin.goal_sets,
                dynamics=fin.dynamics)

    def test_members_come_from_symmetrized_influence(self):
        spec = chain_spec()
        assert spec.members(0) == (0, 1)
        assert spec.members(1) == (0, 1)
        # agent 1 reads nobody; it is in agent 0's neighbourhood and 0 in its
        # own only because agent 0 reads it
        assert spec.dyn_neighbors[1] == () and spec.con_neighbors[1] == ()
        for i in (2, -1):
            with pytest.raises(ValidationError, match="out of range"):
                spec.members(i)


# ---------------------------------------------------------------------------
# scalar integrator: hand-derived backward sets
# ---------------------------------------------------------------------------


class TestIntegratorPre:
    def test_one_step_backward_set_both_routes(self):
        spec = integrator_spec()
        want = box(-2, 2)
        cent = centralized_reachability(spec)
        assert set_equal(cent.start_states.poly(), want)
        sols, trace = run_distributed_reachability(spec)
        assert trace.converged
        assert set_equal(sols[0].start_states.poly(), want)

    def test_membership_matches_raw_lp_gridding(self):
        # independent oracle: |x0| <= 2 iff some u in [-1,1] lands in [-1,1]
        spec = integrator_spec()
        poly = centralized_reachability(spec).start_states.poly()
        for x0 in np.linspace(-2.5, 2.5, 101):
            if min(abs(x0 - 2.0), abs(x0 + 2.0)) <= 1e-3:
                continue
            assert poly.contains([x0]) == (abs(x0) <= 2.0)

    def test_zero_horizon_start_is_goal_cut_to_states(self):
        spec = integrator_spec(horizon=0, state=(-0.5, 10.0))
        cent = centralized_reachability(spec)
        assert set_equal(cent.start_states.poly(), box(-0.5, 1.0))
        sols, _ = run_distributed_reachability(spec)
        assert set_equal(sols[0].start_states.poly(), box(-0.5, 1.0))

    def test_unreachable_goal_gives_empty_sets_and_warns(self, caplog):
        spec = integrator_spec(goal=(20.0, 21.0))
        with caplog.at_level("WARNING", logger="reachnet.reachability"):
            sols, trace = run_distributed_reachability(spec)
        assert trace.converged
        assert sols[0].start_states.empty
        assert any("empty" in rec.message for rec in caplog.records)
        assert centralized_reachability(spec).start_states.empty

    def test_admissible_controls_project_to_start_states(self):
        spec = integrator_spec()
        sols, _ = run_distributed_reachability(spec)
        back = project_set(sols[0].admissible_controls,
                           sols[0].start_states.axes)
        assert sets_equal(back, sols[0].start_states, tol=1e-9)

    def test_control_realizes_goal_by_forward_simulation(self):
        spec = integrator_spec()
        sols, _ = run_distributed_reachability(spec)
        ctrl = sols[0].admissible_controls.poly()  # axes (x(0), u(0), u(1))
        for d in np.vstack([np.eye(3), -np.eye(3),
                            np.array([[1.0, 1.0, 0.0], [-1.0, 0.5, 0.2]])]):
            _, z = support_point(ctrl, d)
            states = simulate_network(spec, [z[:1]], [[z[1:2]], [z[2:3]]])
            assert -1.0 - 1e-9 <= states[1][0][0] <= 1.0 + 1e-9


class TestRobustIntegrator:
    def test_default_lag_one_step_sees_no_disturbance(self):
        # with the verbatim lag convention d(0) first hits x(2), so a
        # one-step problem is exactly the nominal one
        spec = robust_integrator_spec(horizon=1)
        nominal = integrator_spec(horizon=1)
        got = centralized_reachability(spec).start_states.poly()
        want = centralized_reachability(nominal).start_states.poly()
        assert set_equal(got, want)
        assert set_equal(got, box(-2, 2))

    def test_standard_lag_shrinks_by_worst_case(self):
        spec = robust_integrator_spec(horizon=1)
        want = box(-1.5, 1.5)
        cent = centralized_reachability(spec, disturbance_lag="standard")
        assert set_equal(cent.start_states.poly(), want)
        sols, _ = run_distributed_reachability(spec,
                                               disturbance_lag="standard")
        assert set_equal(sols[0].start_states.poly(), want)


# ---------------------------------------------------------------------------
# finite transition systems vs forward-search oracle
# ---------------------------------------------------------------------------


class TestFiniteNetwork:
    def test_toy_matches_forward_search(self):
        spec = finite_toy_spec()
        want = finite_forward_trajectories(spec)
        cent = centralized_reachability(spec)
        got = set(map(tuple, cent.trajectories.table().points))
        assert got == want

        idx = spec.index
        sols, trace = run_distributed_reachability(spec)
        assert trace.converged
        oracle = finite_set(idx.all_axes, sorted(want)) if want else None
        for sol in sols:
            expect = project_set(oracle, idx.horizon_axes(sol.node))
            assert sets_equal(sol.refined_trajectories, expect)

    def test_toy_start_states_golden(self):
        # hand-checked: starts that can hit the goal in one step
        spec = finite_toy_spec()
        sols, _ = run_distributed_reachability(spec)
        starts = set(map(tuple, sols[0].start_states.table().points))
        assert starts == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0)}

    def test_local_solution_matches_product_filter(self):
        # independent per-node oracle: enumerate the node's own window
        spec = finite_toy_spec()
        idx = spec.index
        sol = local_system_solution(spec, idx, 0)
        got = set(map(tuple, sol.table().points))
        want = set()
        # members of node 0 are (0, 1); window = both states and u1 per step
        for x10, x20, u10, x11, x21, u11 in itertools.product(
                (0, 1, 2), (0, 1), (0, 1), (0, 1, 2), (0, 1), (0, 1)):
            if ((x10, x20), (u10,), (x11,)) not in spec.dynamics[0].transitions:
                continue
            if (x11, x21) not in {(0, 0), (0, 1), (1, 1)}:
                continue
            want.add(tuple(map(float, (x10, x20, u10, x11, x21, u11))))
        assert got == want

    def test_reach_check_restricts_starts(self):
        base = finite_toy_spec()
        spec = NetworkSpec(
            state_dims=base.state_dims, input_dims=base.input_dims,
            dyn_neighbors=base.dyn_neighbors, con_neighbors=base.con_neighbors,
            horizon=base.horizon, state_sets=base.state_sets,
            input_sets=base.input_sets, goal_sets=base.goal_sets,
            dynamics=base.dynamics,
            start_sets=([(1, 0), (1, 1)],
                        [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]))
        sols, _ = run_distributed_reachability(spec, task="reach-check")
        starts = set(map(tuple, sols[0].start_states.table().points))
        assert starts == {(1.0, 0.0), (1.0, 1.0)}
        want = finite_forward_trajectories(spec, task="reach-check")
        cent = centralized_reachability(spec, task="reach-check")
        assert set(map(tuple, cent.trajectories.table().points)) == want

    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances_all_routes_agree(self, seed):
        _assert_routes_match_forward_search(_random_finite_spec(seed), "pre")

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("seed", range(43))
    def test_coupled_partitioned_instances_all_routes_agree(self, seed, task):
        _assert_routes_match_forward_search(_coupled_finite_spec(seed), task)


def _assert_routes_match_forward_search(spec: NetworkSpec, task: str):
    """Centralized and distributed routes both reproduce the forward-search
    oracle: the global trajectories, every refined window and its starts."""
    want = finite_forward_trajectories(spec, task=task)
    cent = centralized_reachability(spec, task=task)
    assert set(map(tuple, cent.trajectories.table().points)) == want
    idx = spec.index
    sols, trace = run_distributed_reachability(spec, task=task)
    assert trace.converged
    if not want:
        assert all(s.refined_trajectories.empty for s in sols)
        return
    oracle = finite_set(idx.all_axes, sorted(want))
    for sol in sols:
        expect = project_set(oracle, idx.horizon_axes(sol.node))
        assert sets_equal(sol.refined_trajectories, expect)
        assert sets_equal(sol.start_states,
                          project_set(oracle, idx.nbhd_state_axes(0, sol.node)))


def _set_bytes(s) -> tuple:
    """Axis labels and raw array bytes of a labeled set."""
    arrays = ((s.data.points,) if s.backend == "finite" else
              (s.data.A_ineq, s.data.b_ineq, s.data.A_eq, s.data.b_eq))
    return s.axes.labels, tuple(a.tobytes() for a in arrays)


def _random_finite_spec(seed: int) -> NetworkSpec:
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 4))
    horizon = int(rng.integers(1, 3))
    values = [0.0, 1.0]
    dyn_nb = [set() for _ in range(n)]
    for i in range(1, n):
        if rng.random() < 0.8:
            dyn_nb[i].add(i - 1)
    input_dims = [int(rng.integers(0, 2)) for _ in range(n)]

    dynamics = []
    for i in range(n):
        who = tuple(sorted(dyn_nb[i] | {i}))
        state_stacks = list(itertools.product(values, repeat=len(who)))
        input_stacks = list(itertools.product(
            values, repeat=sum(input_dims[j] for j in who)))
        rows = set()
        for xs in state_stacks:
            for us in input_stacks:
                for nxt in values:
                    if rng.random() < 0.45:
                        rows.add((xs, us, (nxt,)))
        if not rows:
            rows.add((state_stacks[0], input_stacks[0], (values[0],)))
        dynamics.append(FiniteDynamics(frozenset(rows)))

    influence = [set(dyn_nb[i]) for i in range(n)]
    members = []
    for i in range(n):
        m = {i} | influence[i]
        for j in range(n):
            if i in influence[j]:
                m.add(j)
        members.append(tuple(sorted(m)))
    goal_sets = []
    for i in range(n):
        stacks = list(itertools.product(values, repeat=len(members[i])))
        chosen = [s for s in stacks if rng.random() < 0.7] or stacks[:1]
        goal_sets.append(chosen)
    return NetworkSpec(
        state_dims=(1,) * n, input_dims=tuple(input_dims),
        dyn_neighbors=tuple(tuple(sorted(s)) for s in dyn_nb),
        con_neighbors=((),) * n,
        horizon=horizon,
        state_sets=tuple([(v,) for v in values] for _ in range(n)),
        input_sets=tuple([(v,) for v in values] if m else ()
                         for m in input_dims),
        goal_sets=tuple(goal_sets), dynamics=tuple(dynamics))


def _coupled_finite_spec(seed: int) -> NetworkSpec:
    """Finite chain with coupling rows, start sets and start partitions.

    Agent 0 has a 2-dimensional state.  Agent 1 owns a '<=' row over the
    states of agents 0 and 1, and on odd seeds an '=' row as well; the last
    agent owns a callable row.  Partitions and start sets are random
    subsets of the neighbourhood stacks, each start set inside its
    partition.  Three agents only for H <= 1 keeps the oracle's forward
    search small.
    """
    rng = np.random.default_rng(2000 + seed)
    horizon = seed % 3
    n = 3 if horizon < 2 and rng.random() < 0.5 else 2
    values = (0.0, 1.0)
    state_dims = (2,) + (1,) * (n - 1)
    input_dims = tuple(int(rng.integers(0, 2)) for _ in range(n))
    alphabets = [list(itertools.product(values, repeat=d)) for d in state_dims]
    inputs = [list(itertools.product(values, repeat=d)) for d in input_dims]
    dyn_nb = [()] + [(i - 1,) for i in range(1, n)]
    con_nb = [()] + [(0,)] + [(n - 2,)] * (n - 2)
    members = [graph_from_dynamics(dyn_nb, con_nb).neighborhood(i)
               for i in range(n)]

    def stacks(alpha, who):
        return [tuple(v for part in combo for v in part)
                for combo in itertools.product(*(alpha[j] for j in who))]

    def subset(items, p):
        return [v for v in items if rng.random() < p] or items[:1]

    dynamics = []
    for i in range(n):
        who = tuple(sorted(set(dyn_nb[i]) | {i}))
        rows = {(xs, us, nxt) for xs in stacks(alphabets, who)
                for us in stacks(inputs, who) for nxt in alphabets[i]
                if rng.random() < 0.45}
        dynamics.append(FiniteDynamics(frozenset(rows)))

    le_row = CouplingRow({0: [1.0, 1.0], 1: [1.0]},
                         {1: [1.0]} if input_dims[1] else {}, -2.0)
    eq_row = CouplingRow({0: [1.0, 0.0], 1: [-1.0]}, {}, 0.0, "=")
    last = n - 1

    def not_all_ones(xs, us):
        return sum(xs[last - 1]) + xs[last][0] < len(xs[last - 1]) + 1

    couplings = [[] for _ in range(n)]
    couplings[1].append(le_row)
    if seed % 2:
        couplings[1].append(eq_row)
    couplings[last].append(not_all_ones)

    partitions, starts = [], []
    for i in range(n):
        nbhd = stacks(alphabets, members[i])
        part = subset(nbhd, 0.8) if rng.random() < 0.6 else None
        partitions.append(part)
        starts.append(subset(part or nbhd, 0.6) if rng.random() < 0.7
                      else None)
    return NetworkSpec(
        state_dims=state_dims, input_dims=input_dims,
        dyn_neighbors=tuple(dyn_nb), con_neighbors=tuple(con_nb),
        horizon=horizon,
        state_sets=tuple(alphabets),
        input_sets=tuple(inp if d else () for inp, d in zip(inputs, input_dims)),
        goal_sets=tuple(subset(stacks(alphabets, members[i]), 0.7)
                        for i in range(n)),
        dynamics=tuple(dynamics), couplings=tuple(couplings),
        start_sets=tuple(starts), start_partitions=tuple(partitions))


def _logging_callables(spec: NetworkSpec) -> tuple[NetworkSpec, list]:
    """``spec`` with every callable coupling row wrapped to log the
    (states, inputs) it is called on, and the log."""
    calls = []

    def wrap(row):
        if isinstance(row, CouplingRow):
            return row

        def logged(xs, us):
            calls.append((tuple(xs.items()), tuple(us.items())))
            return row(xs, us)
        return logged

    return dataclasses.replace(spec, couplings=tuple(
        tuple(map(wrap, rows)) for rows in spec.couplings)), calls


class TestFiniteCouplingFilter:
    """The finite backend checks a linear coupling row through the affine
    row vector; a row-by-row scan is the reference."""

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("seed", range(60))
    def test_kept_table_and_callable_calls_match_oracle(self, seed, task):
        spec = _coupled_finite_spec(seed)
        idx = spec.index
        bare = dataclasses.replace(spec, couplings=None)
        for i in range(spec.n_agents):
            if not spec.couplings[i]:
                continue
            lib_spec, lib_calls = _logging_callables(spec)
            oracle_spec, oracle_calls = _logging_callables(spec)
            joined = local_system_solution(bare, idx, i, task=task).table().points
            got = local_system_solution(lib_spec, idx, i, task=task)
            want = finite_set(idx.horizon_axes(i), row_by_row_coupling_filter(
                oracle_spec, idx, i, joined))
            assert _set_bytes(got) == _set_bytes(want)
            assert collections.Counter(lib_calls) == \
                collections.Counter(oracle_calls)

    @pytest.mark.parametrize("relation", ["<=", "="])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_totals_at_the_tolerance(self, relation, sign):
        # one scalar agent, H = 1: the table rows are (v, 0), and the row
        # total sign * v * ABS_TOL / 2 is exactly (-)0, +-ABS_TOL/2,
        # +-ABS_TOL or +-2 ABS_TOL
        values = (0.0, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0)
        row = CouplingRow({0: [sign * ABS_TOL / 2]}, {}, sign * 0.0, relation)
        spec = NetworkSpec(
            state_dims=(1,), input_dims=(0,),
            dyn_neighbors=((),), con_neighbors=((),), horizon=1,
            state_sets=([(v,) for v in values],), input_sets=((),),
            goal_sets=([(0.0,)],),
            dynamics=(FiniteDynamics(frozenset(
                ((v,), (), (0.0,)) for v in values)),),
            couplings=((row,),))
        idx = spec.index
        bare = dataclasses.replace(spec, couplings=None)
        joined = local_system_solution(bare, idx, 0).table().points
        assert joined.tolist() == [[v, 0.0] for v in sorted(values)]
        got = local_system_solution(spec, idx, 0)
        want = row_by_row_coupling_filter(spec, idx, 0, joined)
        assert got.table().points.tobytes() == want.tobytes()
        # '<=' drops the total 2 ABS_TOL, '=' drops both totals +-2 ABS_TOL
        kept = [v for v in sorted(values)
                if (abs(v) if relation == "=" else sign * v) <= 2.0]
        assert got.table().points[:, 0].tolist() == kept


# ---------------------------------------------------------------------------
# affine network: distributed vs monolithic equivalence
# ---------------------------------------------------------------------------


def _support_gap_vs_global(local, cent_traj, all_axes, rng, n_dirs=8):
    """Max support gap between a local set and the matching projection of
    the global trajectory set, probed via embedded directions."""
    positions = all_axes.positions_of(local.axes)
    d = len(local.axes)
    dirs = np.vstack([np.eye(d), -np.eye(d), rng.standard_normal((n_dirs, d))])
    gap = 0.0
    for dd in dirs:
        full = np.zeros(len(all_axes))
        full[positions] = dd
        gap = max(gap, abs(lpsolve.support(local.poly(), dd)
                           - lpsolve.support(cent_traj.poly(), full)))
    return gap


class TestAffineDistributedEqualsCentralized:
    def test_chain_instance(self):
        spec = chain_spec()
        idx = spec.index
        sols, trace = run_distributed_reachability(spec)
        assert trace.converged
        cent = centralized_reachability(spec)
        rng = np.random.default_rng(0)
        for sol in sols:
            for local in (sol.refined_trajectories, sol.start_states,
                          sol.admissible_controls):
                gap = _support_gap_vs_global(local, cent.trajectories,
                                             idx.all_axes, rng)
                assert gap <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances(self, seed):
        spec = random_affine_spec(seed)
        idx = spec.index
        sols, trace = run_distributed_reachability(spec)
        assert trace.converged
        cent = centralized_reachability(spec)
        cent_empty = lpsolve.is_empty(cent.trajectories.poly())
        if cent_empty:
            assert all(s.refined_trajectories.empty for s in sols)
            return
        rng = np.random.default_rng(seed)
        for sol in sols:
            assert not sol.refined_trajectories.empty
            for local in (sol.refined_trajectories, sol.start_states,
                          sol.admissible_controls):
                gap = _support_gap_vs_global(local, cent.trajectories,
                                             idx.all_axes, rng)
                assert gap <= 1e-8

    def test_boundary_points_simulate_forward_admissibly(self):
        # soundness: support points of the global set, replayed through the
        # raw one-step recursion, satisfy dynamics, state boxes, coupling,
        # and the goals
        spec = chain_spec(horizon=1)
        cent = centralized_reachability(spec)
        poly = cent.trajectories.poly()
        rng = np.random.default_rng(5)
        width = 4  # (x1, x2, u1, u2) per step
        for _ in range(40):
            d = rng.standard_normal(poly.dim)
            _, z = support_point(poly, d)
            starts = [z[0:1], z[1:2]]
            inputs = [[z[2:3], z[3:4]], [z[width:width + 1] * 0,
                                         z[width:width + 1] * 0]]
            states = simulate_network(spec, starts, inputs)
            x1 = np.hstack(states[1])
            assert np.allclose(x1, z[width:width + 2], atol=1e-7)
            assert np.all(np.abs(np.hstack(states[0])) <= 5 + 1e-7)
            assert np.all(np.abs(np.hstack([z[2:4]])) <= 1 + 1e-7)
            assert z[0] + z[1] <= 6 + 1e-7               # coupling at t=0
            assert -1.5 - 1e-7 <= x1[0] <= 1.5 + 1e-7    # goal of agent 0
            assert -1.0 - 1e-7 <= x1[1] <= 1.0 + 1e-7    # both goals on x2
            assert -2.0 - 1e-7 <= x1[1] <= 2.0 + 1e-7


# ---------------------------------------------------------------------------
# window listing
# ---------------------------------------------------------------------------


class TestWindowSets:
    def test_listing_order_per_task(self):
        part, start = box([-3, -4], [3, 4]), box([-1, -1], [1, 1])
        spec = dataclasses.replace(chain_spec(horizon=2),
                                   start_sets=(start, None),
                                   start_partitions=(part, None))
        idx = spec.index
        steps, targets = spec.window_sets(0, "pre")
        assert steps == [
            (axes, s) for t in range(3) for j in (0, 1)
            for axes, s in ((idx.own_state_axes(t, j), spec.state_sets[j]),
                            (idx.own_input_axes(t, j), spec.input_sets[j]))]
        assert targets == [(idx.nbhd_state_axes(0, 0), part),
                           (idx.nbhd_state_axes(1, 0), part),
                           (idx.nbhd_state_axes(2, 0), spec.goal_sets[0])]
        assert spec.window_sets(0, "reach-check")[1] == \
            [(idx.nbhd_state_axes(0, 0), start)] + targets
        # agent 1 has neither a start set nor a partition: only its goal
        for task in TASKS:
            assert spec.window_sets(1, task)[1] == \
                [(idx.nbhd_state_axes(2, 1), spec.goal_sets[1])]

    @pytest.mark.parametrize("task", TASKS)
    def test_start_partition_on_one_agent_only(self, task):
        # agent 0 has a start partition, agent 1 none; both routes solve,
        # and every node's starts are the centralized starts' shadow
        spec = dataclasses.replace(
            chain_spec(), start_sets=(box([-2, -2], [2, 2]), None),
            start_partitions=(box([-3, -4.5], [3, 4.5]), None))
        sols, trace = run_distributed_reachability(spec, task=task)
        assert trace.converged
        cent = centralized_reachability(spec, task=task)
        for sol in sols:
            want = project_set(cent.start_states, sol.start_axes)
            assert set_equal(sol.start_states.poly(), want.poly())
        # the partition binds: agent 0's starts reach x0 = 3, not beyond
        assert lpsolve.support(sols[0].start_states.poly(), [1.0, 0.0]) \
            == pytest.approx(2.0 if task == "reach-check" else 3.0)


# ---------------------------------------------------------------------------
# joined target sets
# ---------------------------------------------------------------------------


class TestGoalAndStartJoins:
    def test_goal_join_equals_manual_embedding(self):
        spec = chain_spec()
        idx = spec.index
        joined = goal_join(spec, idx)
        assert joined.axes == idx.global_state_axes(spec.horizon)
        manual = intersect(embed_columns(spec.goal_sets[0], 2, [0, 1]),
                           embed_columns(spec.goal_sets[1], 2, [0, 1]))
        assert set_equal(joined.poly(), manual)

    def test_goal_join_decoupled_is_product(self):
        spec = NetworkSpec(
            state_dims=(1, 1), input_dims=(1, 1),
            dyn_neighbors=((), ()), con_neighbors=((), ()),
            horizon=1,
            state_sets=(box(-9, 9), box(-9, 9)),
            input_sets=(box(-1, 1), box(-1, 1)),
            goal_sets=(box(-1, 1), box(-3, 3)),
            dynamics=(AffineAgent(1, 1, A={0: [[1.0]]}, B={0: [[1.0]]}),
                      AffineAgent(1, 1, A={1: [[1.0]]}, B={1: [[1.0]]})))
        joined = goal_join(spec)
        assert set_equal(joined.poly(), box([-1, -3], [1, 3]))

    def test_start_join_defaults_to_universe(self):
        spec = integrator_spec()
        joined = start_join(spec)
        assert np.isinf(lpsolve.support(joined.poly(), [1.0]))

    def test_finite_goal_join_matches_brute(self):
        spec = finite_toy_spec()
        idx = spec.index
        joined = goal_join(spec, idx)
        # both agents share the (x1, x2) axes at t = H, so the join is the
        # plain intersection of the two goal families
        want = {(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)}
        assert set(map(tuple, joined.table().points)) == want


# ---------------------------------------------------------------------------
# guardrails
# ---------------------------------------------------------------------------


def _count_local_solves(monkeypatch) -> list:
    """The agents whose local systems are solved from now on, in order."""
    calls = []

    def counting(spec, index, i, **kw):
        calls.append(i)
        return local_system_solution(spec, index, i, **kw)

    monkeypatch.setattr("reachnet.reachability.local_system_solution",
                        counting)
    return calls


class TestGuardrails:
    def test_dimension_cap(self):
        # 33 steps of (x, u): 66 trajectory coordinates, over the cap of 64;
        # the width check refuses before any local system is solved
        spec = integrator_spec(horizon=32)
        with pytest.raises(DimensionCapExceeded, match="66 coordinates"):
            centralized_reachability(spec)
        # the distributed route has no such cap: one finite agent keeps its
        # bit for 64 steps (65 coordinates) and must end at 1
        keep = FiniteDynamics(frozenset({((0,), (), (0,)), ((1,), (), (1,))}))
        spec = NetworkSpec(
            state_dims=(1,), input_dims=(0,),
            dyn_neighbors=((),), con_neighbors=((),),
            horizon=DEFAULT_DIMENSION_CAP, state_sets=([(0,), (1,)],),
            input_sets=((),), goal_sets=([(1,)],), dynamics=(keep,))
        with pytest.raises(DimensionCapExceeded, match="65 coordinates"):
            centralized_reachability(spec)
        sols, _ = run_distributed_reachability(spec)
        assert sols[0].start_states.table().points.tolist() == [[1.0]]

    @pytest.mark.parametrize("make", [integrator_spec,
                                      lambda: _random_finite_spec(0)],
                             ids=["affine", "finite"])
    def test_shadows_are_projected_once_on_first_read(self, make,
                                                      monkeypatch):
        calls = []

        def counting(source, axes):
            calls.append(axes)
            return project_set(source, axes)

        monkeypatch.setattr("reachnet.reachability.project_set", counting)
        spec = make()
        sols, _ = run_distributed_reachability(spec)
        cent = centralized_reachability(spec)
        assert calls == []  # building either solution projects nothing
        for sol, source in [(s, s.refined_trajectories) for s in sols] \
                + [(cent, cent.trajectories)]:
            for name, axes in (("start_states", sol.start_axes),
                               ("admissible_controls", sol.control_axes)):
                before = len(calls)
                shadow = getattr(sol, name)
                assert calls[before:] == [axes]
                assert getattr(sol, name) is shadow
                assert len(calls) == before + 1
                assert _set_bytes(shadow) == _set_bytes(
                    project_set(source, axes))

    def test_backend_mismatch_raises(self):
        # the payload picks the backend, and a payload that matches neither
        # backend is refused when the spec is built
        spec = integrator_spec()
        assert local_system_solution(spec, spec.index, 0).backend \
            == "polytope"
        fin = finite_toy_spec()
        assert local_system_solution(fin, fin.index, 0).backend \
            == "finite"
        with pytest.raises(UnsupportedDynamics, match="str"):
            NetworkSpec(
                state_dims=(1,), input_dims=(0,),
                dyn_neighbors=((),), con_neighbors=((),),
                horizon=1, state_sets=(box(-1, 1),), input_sets=(None,),
                goal_sets=(box(-1, 1),), dynamics=("mystery",))

    @pytest.mark.parametrize("route", [run_distributed_reachability,
                                       centralized_reachability])
    def test_unknown_disturbance_lag_rejected_on_nominal_spec(self, route):
        with pytest.raises(ValidationError, match="disturbance_lag"):
            route(integrator_spec(), disturbance_lag="bogus")

    def test_unknown_payload_rejected_at_construction(self):
        # an unknown payload beside a valid one is refused as unknown, not
        # as a mix of kinds, so a spec never has an "unknown" backend
        chain = chain_spec()
        with pytest.raises(UnsupportedDynamics, match="agent 1: payload"):
            NetworkSpec(
                state_dims=chain.state_dims, input_dims=chain.input_dims,
                dyn_neighbors=chain.dyn_neighbors,
                con_neighbors=chain.con_neighbors, horizon=1,
                state_sets=chain.state_sets, input_sets=chain.input_sets,
                goal_sets=chain.goal_sets,
                dynamics=(chain.dynamics[0], "mystery"))

    @pytest.mark.parametrize("tol", [NAN, INF, -INF, 0.0, -1.0,
                                     True, "1e-9", None])
    def test_tolerance_must_be_finite_and_positive(self, tol, monkeypatch):
        calls = _count_local_solves(monkeypatch)
        with pytest.raises(ValidationError, match="tolerance"):
            run_distributed_reachability(chain_spec(), tolerance=tol)
        assert calls == []  # refused before the first local solve

    @pytest.mark.parametrize("rounds", [2.5, 3.0, True, "3"])
    def test_max_rounds_must_be_an_integer(self, rounds, monkeypatch):
        # 2.5 used to fail in range() after every local solve
        calls = _count_local_solves(monkeypatch)
        with pytest.raises(ValidationError, match="max_rounds"):
            run_distributed_reachability(chain_spec(), max_rounds=rounds)
        assert calls == []  # refused before the first local solve

    def test_numpy_integer_max_rounds_accepted(self):
        _, trace = run_distributed_reachability(chain_spec(),
                                                max_rounds=np.int64(10))
        assert trace.converged

    def test_max_rounds_propagates(self, monkeypatch):
        from reachnet.errors import MaxRoundsExceeded
        calls = _count_local_solves(monkeypatch)
        spec = chain_spec()
        with pytest.raises(ValidationError, match="max_rounds"):
            run_distributed_reachability(spec, max_rounds=0)
        assert calls == []  # refused before the first local solve
        with pytest.raises(MaxRoundsExceeded) as exc_info:
            run_distributed_reachability(spec, max_rounds=1)
        assert calls == [0, 1]
        assert exc_info.value.rounds == 1
        assert exc_info.value.trace is not None
