"""Affine constraint assembly: dynamics rows, stacked inequalities, and
disturbance tightening.

Dual-route policy: every assembled matrix is checked against an independent
reconstruction — closed-form rows against raw forward simulation, the
disturbance map against a unit-impulse response recursion, margins against
explicit vertex enumeration over the disturbance product.
"""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from scipy.optimize import linprog

from reachnet import lpsolve
from reachnet.affine import (
    AffineAgent,
    CouplingRow,
    assemble_robust_system,
    build_equalities,
    build_inequalities,
    disturbance_map,
    robust_margin,
)
from reachnet.axisset import project_set
from reachnet.errors import (
    DimensionMismatch,
    EmptySet,
    NonlinearConstraint,
    NumericalFailure,
    ShapeMismatch,
    UnboundedDisturbance,
    ValidationError,
)
from reachnet.polytope import HPolytope, set_equal, vertices
from reachnet.reachability import (
    NetworkSpec,
    centralized_reachability,
    local_system_solution,
    run_distributed_reachability,
)

from .oracles import (
    disturbance_response,
    monolithic_affine_system,
    pack_trajectory,
    simulate_network,
    support_point,
)
from .test_reachability import (
    box,
    chain_spec,
    integrator_spec,
    random_affine_spec,
    robust_integrator_spec,
)

# ---------------------------------------------------------------------------
# small builders
# ---------------------------------------------------------------------------


def scalar_spec(agent: AffineAgent, horizon: int, goal=(-1.0, 1.0)) -> NetworkSpec:
    return NetworkSpec(
        state_dims=(1,), input_dims=(1,),
        dyn_neighbors=((),), con_neighbors=((),),
        horizon=horizon,
        state_sets=(box(-10, 10),), input_sets=(box(-1, 1),),
        goal_sets=(box(*goal),), dynamics=(agent,))


def disturbed_pair_spec(seed: int, horizon: int = 2) -> NetworkSpec:
    """Two coupled scalar agents, both with box disturbances."""
    rng = np.random.default_rng(seed)
    a = [float(rng.uniform(-1, 1)) for _ in range(3)]
    e = [float(rng.uniform(0.3, 1.2)) for _ in range(2)]
    w = [float(rng.uniform(0.2, 0.8)) for _ in range(2)]
    agents = (
        AffineAgent(1, 1, A={0: [[a[0]]], 1: [[a[1]]]}, B={0: [[1.0]]},
                    E=[[e[0]]], disturbance_set=box(-w[0], w[0])),
        AffineAgent(1, 1, A={1: [[a[2]]]}, B={1: [[1.0]]},
                    E=[[e[1]]], disturbance_set=box(-w[1], w[1])),
    )
    return NetworkSpec(
        state_dims=(1, 1), input_dims=(1, 1),
        dyn_neighbors=((1,), ()), con_neighbors=((), ()),
        horizon=horizon,
        state_sets=(box(-5, 5), box(-5, 5)),
        input_sets=(box(-1, 1), box(-1, 1)),
        goal_sets=(box([-2, -2], [2, 2]), box([-2, -2], [2, 2])),
        dynamics=agents)


def _oracle_disturbance_matrix(spec, index, i: int, lag: str) -> np.ndarray:
    """Rebuild the disturbance-to-trajectory map column by column, driving a
    unit impulse through the raw response recursion."""
    H = spec.horizon
    v_dims = [spec.dynamics[j].disturbance_dim for j in range(spec.n_agents)]
    total_v = sum(v_dims)
    cols = index.horizon_axes(i)
    L = np.zeros((len(cols), H * total_v))
    col = 0
    for tau in range(H):
        for j in range(spec.n_agents):
            for k in range(v_dims[j]):
                d_seq = [[np.zeros(v_dims[a]) for a in range(spec.n_agents)]
                         for _ in range(H)]
                d_seq[tau][j][k] = 1.0
                resp = disturbance_response(spec, d_seq, lag)
                zeta = np.zeros(len(cols))
                for t in range(H + 1):
                    for a in index.members[i]:
                        pos = cols.positions_of(index.own_state_axes(t, a))
                        zeta[pos] = resp[t][a]
                L[:, col] = zeta
                col += 1
    return L


def _oracle_zeta(spec, index, i: int, d_flat: np.ndarray, lag: str) -> np.ndarray:
    """Trajectory perturbation for one stacked disturbance vector."""
    H = spec.horizon
    v_dims = [spec.dynamics[j].disturbance_dim for j in range(spec.n_agents)]
    total_v = sum(v_dims)
    d_seq = []
    for tau in range(H):
        block = d_flat[tau * total_v:(tau + 1) * total_v]
        offs = np.concatenate([[0], np.cumsum(v_dims)]).astype(int)
        d_seq.append([block[offs[j]:offs[j + 1]]
                      for j in range(spec.n_agents)])
    resp = disturbance_response(spec, d_seq, lag)
    cols = index.horizon_axes(i)
    zeta = np.zeros(len(cols))
    for t in range(H + 1):
        for a in index.members[i]:
            zeta[cols.positions_of(index.own_state_axes(t, a))] = resp[t][a]
    return zeta


# ---------------------------------------------------------------------------
# coupling rows and agent payloads
# ---------------------------------------------------------------------------


class TestCouplingRow:
    def test_participants(self):
        row = CouplingRow({0: [1.0], 2: [0.5]}, {1: [2.0]}, -3.0)
        assert row.participants() == {0, 1, 2}
        assert row.relation == "<="

    def test_relation_validated(self):
        with pytest.raises(ValidationError):
            CouplingRow({0: [1.0]}, {}, 0.0, relation="<")

    def test_offset_must_be_finite(self):
        with pytest.raises(ValidationError):
            CouplingRow({0: [1.0]}, {}, float("nan"))

    @pytest.mark.parametrize("key", [1.9, True, "x"])
    @pytest.mark.parametrize("family", ["state", "input"])
    def test_agent_keys_must_be_integers(self, key, family):
        # int() used to truncate 1.9 to agent 1 and raise a bare ValueError
        # on "x"
        coefs = ({key: [1.0]}, {}) if family == "state" else ({}, {key: [1.0]})
        with pytest.raises(ValidationError, match=f"{family}_coefs key"):
            CouplingRow(*coefs, 0.0)

    def test_numpy_integer_agent_keys_accepted(self):
        row = CouplingRow({np.int64(1): [1.0]}, {np.int32(0): [2.0]}, 0.0)
        assert row.participants() == {0, 1}
        assert all(type(j) is int for j in row.participants())


class TestAffineAgentValidation:
    def test_bad_offset_shape(self):
        with pytest.raises(ShapeMismatch, match="K"):
            AffineAgent(2, 1, A={0: np.eye(2)}, K=[1.0, 2.0, 3.0])

    def test_map_without_set(self):
        with pytest.raises(ValidationError, match="disturbance"):
            AffineAgent(1, 1, A={0: [[1.0]]}, E=[[1.0]])

    def test_set_without_map(self):
        with pytest.raises(ValidationError, match="disturbance"):
            AffineAgent(1, 1, A={0: [[1.0]]}, disturbance_set=box(-1, 1))

    def test_set_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            AffineAgent(1, 1, A={0: [[1.0]]}, E=[[1.0, 0.5]],
                        disturbance_set=box(-1, 1))

    def test_flat_map_is_not_a_column_for_two_states(self):
        # a flat E used to become the (2, 1) column [[1], [2]]
        with pytest.raises(ShapeMismatch, match=r"E: expected 2 rows, got "
                                                 r"shape \(2,\)"):
            AffineAgent(2, 1, A={0: np.eye(2)}, E=[1.0, 2.0],
                        disturbance_set=box(-1, 1))

    def test_flat_map_is_not_a_row_for_one_state(self):
        # a flat E used to become the (1, 2) row [[1, 2]]
        with pytest.raises(ShapeMismatch, match=r"E: expected 1 rows, got "
                                                 r"shape \(2,\)"):
            AffineAgent(1, 1, A={0: [[1.0]]}, E=[1.0, 2.0],
                        disturbance_set=box([-1, -1], [1, 1]))

    @pytest.mark.parametrize("dims", [(1.5, 1), (1, 1.0), (True, 1),
                                      ("1", 1), (0, 1), (1, -1),
                                      (2 ** 40, 1), (1, 2 ** 40)])
    def test_dims_must_be_integers_in_range(self, dims):
        # int() used to truncate: AffineAgent(1.5, 1) had state_dim 1
        with pytest.raises(ValidationError, match="_dim"):
            AffineAgent(*dims, A={0: [[1.0]]})

    @pytest.mark.parametrize("block", ["A", "B"])
    @pytest.mark.parametrize("key", [0.7, True, "x", -1])
    def test_agent_keys_must_be_integers(self, block, key):
        # int() used to store A={0.7: ...} as agent 0 and B={True: ...} as
        # agent 1, and to raise a bare ValueError on "x"
        blocks = {"A": {0: [[1.0]]}, "B": {0: [[1.0]]}}
        blocks[block] = {key: [[1.0]]}
        with pytest.raises(ValidationError, match=f"{block} key"):
            AffineAgent(1, 1, **blocks)

    def test_numpy_integer_agent_keys_accepted(self):
        ag = AffineAgent(1, 1, A={np.int64(0): [[1.0]], np.int32(1): [[0.5]]},
                         B={np.int16(0): [[1.0]]})
        assert list(ag.A) == [0, 1] and list(ag.B) == [0]
        assert all(type(j) is int for j in [*ag.A, *ag.B])

    def test_numpy_integer_dims_accepted(self):
        ag = AffineAgent(np.int64(2), np.int32(0), A={0: np.eye(2)})
        assert (ag.state_dim, ag.input_dim) == (2, 0)
        assert type(ag.state_dim) is int and type(ag.input_dim) is int

    def test_zero_map_counts_as_no_disturbance(self):
        ag = AffineAgent(1, 1, A={0: [[1.0]]}, E=[[0.0]],
                         disturbance_set=box(-1, 1))
        assert ag.disturbance_dim == 1
        assert not ag.has_disturbance()


# ---------------------------------------------------------------------------
# closed-form dynamics rows
# ---------------------------------------------------------------------------


class TestBuildEqualities:
    def test_integrator_single_step_row(self):
        spec = integrator_spec()
        idx = spec.index
        F, f = build_equalities(spec, 0)
        # columns ordered x(0), u(0), x(1), u(1)
        assert np.array_equal(F, [[-1.0, -1.0, 1.0, 0.0]])
        assert np.array_equal(f, [0.0])

    def test_scalar_affine_two_steps(self):
        # x(t+1) = 2 x(t) + u(t) + 1, horizon 2: hand-expanded rows
        spec = scalar_spec(AffineAgent(1, 1, A={0: [[2.0]]}, B={0: [[1.0]]},
                                       K=[1.0]), horizon=2)
        idx = spec.index
        F, f = build_equalities(spec, 0)
        want_F = np.array([[-2.0, -1.0, 1.0, 0.0, 0.0, 0.0],
                           [-4.0, -2.0, 0.0, -1.0, 1.0, 0.0]])
        assert np.array_equal(F, want_F)
        assert np.array_equal(f, [1.0, 3.0])

    def test_zero_horizon_has_no_rows(self):
        spec = integrator_spec(horizon=0)
        idx = spec.index
        F, f = build_equalities(spec, 0)
        assert F.shape == (0, 2) and f.shape == (0,)

    @pytest.mark.parametrize("seed", range(8))
    def test_rows_vanish_on_simulated_trajectories(self, seed):
        # oracle: any forward-simulated trajectory satisfies the closed form
        spec = random_affine_spec(seed)
        idx = spec.index
        rng = np.random.default_rng(seed + 77)
        all_axes = idx.all_axes
        for _ in range(5):
            starts = [rng.uniform(-2, 2, size=spec.state_dims[i])
                      for i in range(spec.n_agents)]
            inputs = [[rng.uniform(-1, 1, size=spec.input_dims[i])
                       for i in range(spec.n_agents)]
                      for _ in range(spec.horizon + 1)]
            states = simulate_network(spec, starts, inputs)
            z_full = pack_trajectory(states, inputs)
            assert z_full.shape == (len(all_axes),)
            for i in range(spec.n_agents):
                F, f = build_equalities(spec, i)
                z = z_full[all_axes.positions_of(idx.horizon_axes(i))]
                assert np.max(np.abs(F @ z - f), initial=0.0) <= 1e-9

    def test_bad_block_shape_surfaces(self):
        # the spec refuses a block whose shape disagrees with the declared
        # dimensions, so no builder ever sees it
        spec = chain_spec()
        broken = AffineAgent(1, 1, A={0: [[1.0]], 1: [[0.5, 0.5]]},
                             B={0: [[1.0]]})
        with pytest.raises(ShapeMismatch, match="A block for 1"):
            NetworkSpec(
                state_dims=spec.state_dims, input_dims=spec.input_dims,
                dyn_neighbors=spec.dyn_neighbors,
                con_neighbors=spec.con_neighbors,
                horizon=1, state_sets=spec.state_sets,
                input_sets=spec.input_sets,
                goal_sets=spec.goal_sets, dynamics=(broken, spec.dynamics[1]))


# ---------------------------------------------------------------------------
# stacked inequality rows
# ---------------------------------------------------------------------------


def _holds_directly(spec, idx, i, z, *, task) -> bool:
    """Independent membership evaluator for agent i's inequality system."""
    cols = idx.horizon_axes(i)
    H = spec.horizon

    def block(axes):
        return z[cols.positions_of(axes)]

    for t in range(H + 1):
        for j in idx.members[i]:
            if not spec.state_sets[j].contains(block(idx.own_state_axes(t, j))):
                return False
            if spec.input_dims[j] and not spec.input_sets[j].contains(
                    block(idx.own_input_axes(t, j))):
                return False
    for t in range(H):
        for row in spec.couplings[i]:
            val = row.offset
            for j, c in row.state_coefs.items():
                val += float(np.dot(c, block(idx.own_state_axes(t, j))))
            for j, c in row.input_coefs.items():
                val += float(np.dot(c, block(idx.own_input_axes(t, j))))
            if row.relation == "=" and abs(val) > 1e-9:
                return False
            if row.relation == "<=" and val > 1e-9:
                return False
    if task == "reach-check" and spec.start_sets is not None:
        if not spec.start_sets[i].contains(block(idx.nbhd_state_axes(0, i))):
            return False
    if spec.start_partitions is not None:
        for t in range(H):
            if not spec.start_partitions[i].contains(
                    block(idx.nbhd_state_axes(t, i))):
                return False
    return spec.goal_sets[i].contains(block(idx.nbhd_state_axes(H, i)))


class TestBuildInequalities:
    def test_membership_agrees_with_direct_evaluation(self):
        spec = chain_spec()
        idx = spec.index
        rng = np.random.default_rng(3)
        for i in range(spec.n_agents):
            G, g = build_inequalities(spec, i)
            width = len(idx.horizon_axes(i))
            inside = outside = 0
            for k in range(300):
                scale = 6.0 if k % 2 else 0.5
                z = rng.uniform(-scale, scale, size=width)
                lhs = bool(np.all(G @ z <= g + 1e-12))
                rhs = _holds_directly(spec, idx, i, z, task="pre")
                assert lhs == rhs
                inside += lhs
                outside += not lhs
            assert inside and outside  # the sample straddles the boundary

    def test_equality_coupling_adds_both_signs(self):
        base = chain_spec()
        eq_row = CouplingRow({0: [1.0], 1: [1.0]}, {}, -6.0, relation="=")
        spec = NetworkSpec(
            state_dims=base.state_dims, input_dims=base.input_dims,
            dyn_neighbors=base.dyn_neighbors, con_neighbors=base.con_neighbors,
            horizon=2, state_sets=base.state_sets, input_sets=base.input_sets,
            goal_sets=base.goal_sets, dynamics=base.dynamics,
            couplings=((eq_row,), ()))
        idx = spec.index
        G_le, _ = build_inequalities(base, 0)
        G_eq, g_eq = build_inequalities(spec, 0)
        assert G_eq.shape[0] == G_le.shape[0] + 2  # one extra sign per step
        # the flipped rows really are negations of each other
        z = np.random.default_rng(0).uniform(-1, 1, size=G_eq.shape[1])
        vals = G_eq @ z - g_eq
        pairs = [r for r in range(G_eq.shape[0] - 1)
                 if np.allclose(G_eq[r], -G_eq[r + 1])
                 and np.isclose(vals[r] + g_eq[r], -(vals[r + 1] + g_eq[r + 1]))]
        assert len(pairs) >= 2

    def test_start_rows_only_when_requested(self):
        spec = integrator_spec(start_sets=(box(-1.8, 1.8),))
        idx = spec.index
        G_no, _ = build_inequalities(spec, 0, task="pre")
        G_yes, g_yes = build_inequalities(spec, 0, task="reach-check")
        assert G_yes.shape[0] == G_no.shape[0] + 2
        # the added rows pin x(0) to the start interval
        z_in = np.array([1.7, 0.0, 0.9, 0.0])
        z_out = np.array([1.9, 0.0, 0.9, 0.0])
        assert np.all(G_yes @ z_in <= g_yes + 1e-12)
        assert not np.all(G_yes @ z_out <= g_yes + 1e-12)

    def test_nonlinear_coupling_payload_rejected(self):
        base = chain_spec()
        with pytest.raises(NonlinearConstraint):
            NetworkSpec(
                state_dims=base.state_dims, input_dims=base.input_dims,
                dyn_neighbors=base.dyn_neighbors,
                con_neighbors=base.con_neighbors,
                horizon=1, state_sets=base.state_sets,
                input_sets=base.input_sets,
                goal_sets=base.goal_sets, dynamics=base.dynamics,
                couplings=(("x*x <= 1",), ()))


# ---------------------------------------------------------------------------
# disturbance map
# ---------------------------------------------------------------------------


class TestDisturbanceMap:
    def test_integrator_two_step_goldens(self):
        spec = robust_integrator_spec(horizon=2)
        idx = spec.index
        # columns: d(0), d(1); rows ordered x0,u0,x1,u1,x2,u2
        delayed = np.zeros((6, 2))
        delayed[4, 0] = 1.0                      # x(2) sees d(0) only
        assert np.array_equal(
            disturbance_map(spec, 0, disturbance_lag="paper"), delayed)
        onestep = np.zeros((6, 2))
        onestep[2, 0] = 1.0                      # x(1) sees d(0)
        onestep[4, 0] = 1.0                      # x(2) sees d(0) + d(1)
        onestep[4, 1] = 1.0
        assert np.array_equal(
            disturbance_map(spec, 0, disturbance_lag="standard"), onestep)

    def test_bad_lag_label(self):
        spec = robust_integrator_spec()
        idx = spec.index
        with pytest.raises(ValidationError, match="disturbance_lag"):
            disturbance_map(spec, 0, disturbance_lag="delayed")

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("lag", ["paper", "standard"])
    def test_matches_unit_impulse_responses(self, seed, lag):
        spec = disturbed_pair_spec(seed)
        idx = spec.index
        for i in range(spec.n_agents):
            L = disturbance_map(spec, i, disturbance_lag=lag)
            want = _oracle_disturbance_matrix(spec, idx, i, lag)
            assert np.allclose(L, want, atol=1e-12)


# ---------------------------------------------------------------------------
# worst-case margins
# ---------------------------------------------------------------------------


class TestRobustMargin:
    def test_two_step_goal_row_goldens(self):
        spec = robust_integrator_spec(horizon=2, half_width=0.5)
        idx = spec.index
        G = np.zeros((1, 6))
        G[0, 4] = 1.0                            # the row "x(2) <= 1"
        assert robust_margin(spec, 0, G,
                             disturbance_lag="paper") == pytest.approx([0.5])
        assert robust_margin(spec, 0, G,
                             disturbance_lag="standard") == pytest.approx([1.0])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("lag", ["paper", "standard"])
    def test_matches_vertex_enumeration(self, seed, lag):
        spec = disturbed_pair_spec(seed)
        idx = spec.index
        rng = np.random.default_rng(seed)
        H, total_v = spec.horizon, 2
        widths = [spec.dynamics[j].disturbance_set.b_ineq[0]
                  for j in range(2)]  # boxes are [-w, w]
        corners = list(itertools.product(
            *[(-widths[j % 2], widths[j % 2]) for j in range(H * total_v)]))
        for i in range(spec.n_agents):
            G = rng.standard_normal((4, len(idx.horizon_axes(i))))
            got = robust_margin(spec, i, G, disturbance_lag=lag)
            zetas = np.array([_oracle_zeta(spec, idx, i, np.array(c), lag)
                              for c in corners])
            want = np.max(G @ zetas.T, axis=1)
            assert np.allclose(got, want, atol=1e-9)

    def test_simplex_disturbance_uses_support_route(self):
        # non-box admissible set: d1, d2 >= 0, d1 + d2 <= 1
        tri = HPolytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                        [0.0, 0.0, 1.0])
        agent = AffineAgent(1, 1, A={0: [[0.7]]}, B={0: [[1.0]]},
                            E=[[1.0, 0.5]], disturbance_set=tri)
        spec = scalar_spec(agent, horizon=2)
        idx = spec.index
        rng = np.random.default_rng(9)
        G = rng.standard_normal((5, 6))
        got = robust_margin(spec, 0, G, disturbance_lag="standard")
        verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        best = np.full(5, -np.inf)
        for c0, c1 in itertools.product(verts, verts):
            z = _oracle_zeta(spec, idx, 0, np.array(c0 + c1), "standard")
            best = np.maximum(best, G @ z)
        assert np.allclose(got, best, atol=1e-9)

    # worst-case margins need bounded disturbance sets, so an agent with an
    # unbounded one is refused when it is built

    def test_unbounded_disturbance_rejected(self):
        half_open = HPolytope([[1.0]], [1.0])     # d <= 1, no lower bound
        with pytest.raises(UnboundedDisturbance):
            AffineAgent(1, 1, A={0: [[1.0]]}, B={0: [[1.0]]},
                        E=[[1.0]], disturbance_set=half_open)

    def test_unbounded_non_box_rejected(self):
        cone = HPolytope([[1.0, -1.0], [-1.0, 1.0]], [0.0, 0.0])
        with pytest.raises(UnboundedDisturbance):
            AffineAgent(1, 1, A={0: [[1.0]]}, B={0: [[1.0]]},
                        E=[[1.0, 0.0]], disturbance_set=cone)

    # an empty disturbance set is refused before any boundedness probe, so
    # the verdict does not depend on which probes its rows cover

    @pytest.mark.parametrize("empty", [
        HPolytope([[1.0], [-1.0]], [1.0, -2.0]),
        HPolytope.from_box([2.0, 0.0], [1.0, 1.0]),
        HPolytope([[1.0, 0.0], [-1.0, 0.0]], [1.0, -2.0]),
        HPolytope([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0], [-1.0, 0.0],
                   [0.0, 1.0], [0.0, -1.0]], [1.0, -2.0, 5.0, 5.0, 5.0, 5.0]),
    ], ids=["empty-interval", "empty-box", "empty-box-free-coordinate",
            "empty-non-box"])
    def test_empty_disturbance_rejected(self, empty):
        with pytest.raises(EmptySet, match="disturbance set is empty"):
            AffineAgent(1, 1, A={0: [[1.0]]}, B={0: [[1.0]]},
                        E=np.eye(1, empty.dim), disturbance_set=empty)


# ---------------------------------------------------------------------------
# assembled systems
# ---------------------------------------------------------------------------


#: No disturbance, a box and a non-box (triangle) disturbance set.
_DISTURBANCES = [
    {},
    {"E": [[1.0]], "disturbance_set": box(-0.1, 0.1)},
    {"E": [[1.0, 0.5]],
     "disturbance_set": HPolytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                                  [0.0, 0.0, 0.1])},
]


class TestAssembledSystem:
    def test_zero_map_bitwise_equals_disturbance_free(self):
        with_zero = scalar_spec(
            AffineAgent(1, 1, A={0: [[1.0]]}, B={0: [[1.0]]}, E=[[0.0]],
                        disturbance_set=box(-0.5, 0.5)), horizon=2)
        without = scalar_spec(
            AffineAgent(1, 1, A={0: [[1.0]]}, B={0: [[1.0]]}), horizon=2)
        a = assemble_robust_system(with_zero, 0)
        b = assemble_robust_system(without, 0)
        for field in ("F", "f", "G", "g", "margins"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert not np.any(disturbance_map(with_zero, 0))

    def test_one_step_backward_interval_with_disturbance(self):
        spec = robust_integrator_spec(horizon=1, half_width=0.5)
        idx = spec.index
        local = local_system_solution(spec, idx, 0,
                                      disturbance_lag="standard")
        starts = project_set(local, idx.nbhd_state_axes(0, 0))
        assert set_equal(starts.poly(), box(-1.5, 1.5))

    def test_monte_carlo_soundness_and_tightness(self):
        # (a) any admissible disturbance applied to any robust-admissible
        #     trajectory keeps every nominal constraint satisfied
        # (b) rows whose margin is active are tight: some admissible
        #     disturbance exhausts the slack to within 1e-7
        spec = robust_integrator_spec(horizon=2, half_width=0.5)
        idx = spec.index
        sys0 = assemble_robust_system(spec, 0,
                                      disturbance_lag="standard")
        poly = sys0.polytope()
        verts = vertices(poly)
        rng = np.random.default_rng(12)
        weights = rng.dirichlet(np.ones(len(verts)), size=100)
        Z = weights @ verts
        D = rng.uniform(-0.5, 0.5, size=(100, 2))
        Zetas = np.array([_oracle_zeta(spec, idx, 0, d, "standard")
                          for d in D])
        # max over all 10^4 (z, d) pairs, row by row
        worst = (np.max(sys0.G @ Z.T, axis=1)
                 + np.max(sys0.G @ Zetas.T, axis=1))
        assert np.all(worst <= sys0.g + 1e-9)

        L_oracle = _oracle_disturbance_matrix(spec, idx, 0, "standard")
        checked = 0
        for r in np.nonzero(sys0.margins > 1e-9)[0]:
            val, z_star = support_point(poly, sys0.G[r])
            if abs(val - (sys0.g[r] - sys0.margins[r])) > 1e-7:
                continue  # row not active on the robust set
            c = sys0.G[r] @ L_oracle
            d_star = np.where(c > 0, 0.5, -0.5)
            slack = sys0.g[r] - sys0.G[r] @ (z_star + L_oracle @ d_star)
            assert abs(slack) <= 1e-7
            checked += 1
        assert checked >= 1

    @pytest.mark.parametrize("solve", [run_distributed_reachability,
                                       centralized_reachability],
                             ids=["distributed", "centralized"])
    @pytest.mark.parametrize("disturbance", _DISTURBANCES,
                             ids=["undisturbed", "box", "non-box"])
    def test_overflowing_dynamics_raise_numerical_failure(self, solve,
                                                          disturbance):
        # 1e120 is a valid coefficient, but its cube overflows; the margin
        # LPs of a non-box set would otherwise run on 1e120-scale rows
        spec = scalar_spec(AffineAgent(1, 1, A={0: [[1e120]]},
                                       B={0: [[1.0]]}, **disturbance),
                           horizon=3)
        with pytest.raises(NumericalFailure, match=re.escape(
                "agent 0: the closed-form dynamics overflow over horizon 3")):
            solve(spec)

    @pytest.mark.parametrize("solve", [run_distributed_reachability,
                                       centralized_reachability],
                             ids=["distributed", "centralized"])
    @pytest.mark.parametrize("disturbance", _DISTURBANCES[1:],
                             ids=["box", "non-box"])
    def test_overflowing_disturbance_response_raises_numerical_failure(
            self, solve, disturbance):
        # each agent's own block is zero, so its closed-form rows stay
        # finite, but the network's third power of A overflows
        agents = (AffineAgent(1, 1, A={1: [[1e120]]}, B={0: [[1.0]]},
                              **disturbance),
                  AffineAgent(1, 0, A={0: [[1e120]]}, **disturbance))
        spec = NetworkSpec(
            state_dims=(1, 1), input_dims=(1, 0),
            dyn_neighbors=((1,), (0,)), con_neighbors=((), ()),
            horizon=5,
            state_sets=(box(-10, 10), box(-10, 10)),
            input_sets=(box(-1, 1), None),
            goal_sets=(box([-1, -1], [1, 1]),) * 2, dynamics=agents)
        with pytest.raises(NumericalFailure, match=re.escape(
                "the disturbance response overflows over horizon 5")):
            solve(spec)


# ---------------------------------------------------------------------------
# the join of all local systems against the monolithic one-step system
# ---------------------------------------------------------------------------


def _simplex_disturbed_spec(horizon: int) -> NetworkSpec:
    tri = HPolytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
    return scalar_spec(AffineAgent(1, 1, A={0: [[0.7]]}, B={0: [[1.0]]},
                                   E=[[1.0, 0.5]], disturbance_set=tri),
                       horizon=horizon)


def _equality_coupled_spec() -> NetworkSpec:
    """Two integrators; u_1(t) = 0.5 - x_0(t) is imposed as a '=' row."""
    return NetworkSpec(
        state_dims=(1, 1), input_dims=(1, 1),
        dyn_neighbors=((), ()), con_neighbors=((1,), ()),
        horizon=2,
        state_sets=(box(-3, 3), box(-3, 3)),
        input_sets=(box(-1, 1), box(-1, 1)),
        goal_sets=(box([-1, -1], [1, 1]), box([-1, -2], [1, 2])),
        dynamics=(AffineAgent(1, 1, A={0: [[0.9]]}, B={0: [[1.0]]}),
                  AffineAgent(1, 1, A={1: [[1.1]]}, B={1: [[1.0]]})),
        couplings=((CouplingRow({0: [1.0]}, {1: [1.0]}, -0.5, "="),), ()))


MONOLITHIC_CASES = (
    [(f"random{s}", lambda s=s: random_affine_spec(s), "pre", "paper")
     for s in range(20)]
    + [(f"robust-integrator-H{h}-{lag}",
        lambda h=h: robust_integrator_spec(horizon=h), "pre", lag)
       for h in (1, 2, 3) for lag in ("paper", "standard")]
    + [(f"disturbed-pair{s}-H{h}-{lag}",
        lambda s=s, h=h: disturbed_pair_spec(s, horizon=h), "pre", lag)
       for s, h in ((0, 2), (1, 3)) for lag in ("paper", "standard")]
    + [(f"simplex-disturbance-{lag}", lambda: _simplex_disturbed_spec(3),
        "pre", lag) for lag in ("paper", "standard")]
    + [("chain", chain_spec, "pre", "paper"),
       ("equality-coupling", _equality_coupled_spec, "pre", "paper"),
       ("reach-check", lambda: integrator_spec(
           horizon=2, start_sets=(box(-1.5, 0.5),),
           start_partitions=(box(-3, 3),)), "reach-check", "paper")])


def _raw_support(A_ub, b_ub, A_eq, b_eq, direction):
    """max direction . z over the system, by a raw scipy LP (None if empty)."""
    res = linprog(-direction, A_ub=A_ub, b_ub=b_ub,
                  A_eq=A_eq if A_eq.size else None,
                  b_eq=b_eq if A_eq.size else None,
                  bounds=(None, None), method="highs")
    if res.status == 2:
        return None
    if res.status == 3:
        return np.inf
    assert res.status == 0, res.message
    return -res.fun


@pytest.mark.parametrize("name,make,task,lag", MONOLITHIC_CASES,
                         ids=[case[0] for case in MONOLITHIC_CASES])
def test_join_of_local_systems_matches_monolithic_system(name, make, task, lag):
    spec = make()
    joined = centralized_reachability(spec, task=task,
                                      disturbance_lag=lag).trajectories.poly()
    system = monolithic_affine_system(spec, task, lag)
    width = system[0].shape[1]
    assert joined.dim == width
    empty = _raw_support(*system, np.zeros(width)) is None
    assert lpsolve.is_empty(joined) == empty
    if empty:
        return
    rng = np.random.default_rng(0)
    dirs = np.vstack([np.eye(width), -np.eye(width),
                      rng.standard_normal((8, width))])
    for d in dirs:
        want = _raw_support(*system, d)
        got = lpsolve.support(joined, d)
        assert got == pytest.approx(want, rel=1e-7, abs=1e-7)
