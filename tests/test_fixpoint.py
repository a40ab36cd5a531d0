"""Distributed projection computation: goldens, trace semantics, oracles.

The five-node point example freezes the full iterate trace.  Round-2 for
node 5 keeps (7,-4): node 5's round-2 input is node 4's round-1 set, which
still contains (1,7,-4) (the information that kills it lives two hops away
at node 2 and needs one more round); the brute-force join oracle below
re-derives this.  The fixed point lands at round 3 and round 4 confirms it.

The five-node polytope example freezes hand-derived rational vertex lists;
an independent lifted-LP support oracle cross-checks them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from reachnet import fixpoint
from reachnet.affine import AffineAgent, CouplingRow
from reachnet.axisset import (
    AxisSet,
    LabeledSet,
    PointTable,
    empty_set,
    finite_set,
    polytope_set,
    project_set,
    sets_equal,
)
from reachnet.cli import load_spec
from reachnet.errors import MaxRoundsExceeded, ValidationError
from reachnet.fixpoint import (
    FixpointProblem,
    centralized_join,
    centralized_projections,
    local_update,
    run_distributed,
)
from reachnet.netgraph import graph_from_axis_overlap
from reachnet.polytope import HPolytope, from_vertices, vertices
from reachnet.reachability import (
    NetworkSpec,
    centralized_reachability,
    local_system_solution,
    run_distributed_reachability,
)

from .oracles import brute_join, hausdorff, lifted_support, per_node_fixpoint
from .test_axisset import AXES_5, JOIN_5, PROJ_5, as_tuple_set, five_node_sets
from .test_reachability import overlapping_finite_spec, random_affine_spec

# ---------------------------------------------------------------------------
# frozen iterates of the five-node point example
# ---------------------------------------------------------------------------

ROUND_1 = [
    {(5, -3), (0, 0)},
    {(-2, 6, 5), (5, 1, 0), (5, -1, 0)},
    {(6, -3), (1, 0), (-1, 0)},
    {(-2, 0, 1), (5, 3, -2), (1, 7, -4)},
    {(7, -4), (0, 1), (3, -2)},
]

ROUND_2 = [
    {(5, -3), (0, 0)},
    {(-2, 6, 5), (5, 1, 0), (5, -1, 0)},
    {(6, -3), (1, 0), (-1, 0)},
    {(-2, 0, 1), (5, 3, -2)},
    {(0, 1), (3, -2), (7, -4)},
]

# ---------------------------------------------------------------------------
# five-node polytope example: inputs and hand-derived projection goldens
# ---------------------------------------------------------------------------

POLY_AXES = [AxisSet(a) for a in [(1, 2), (3, 4), (5, 6), (1, 3, 5), (2, 7)]]

POLY_VERTS = [
    [(1, 2), (3, 2), (2, 4)],
    [(2, 4), (3, 3), (2, 0)],
    [(5, 5), (4, 0), (2, 0)],
    [(0, 1, 4), (3, 3, 0), (5, 0, 3), (5, 2, 5)],
    [(2, 1), (4, 1), (5, 3)],
]

# Exact projections (rational arithmetic, every vertex certified by explicit
# convex weights): the binding couplings are z1 in [1.5, 3], z3 <= 55/23,
# z5 <= 23/7, z2 <= 4, applied to the respective input sets.
POLY_PROJ = [
    [(1.5, 2), (3, 2), (2, 4), (1.5, 3)],
    [(2, 0), (2, 4), (55 / 23, 27 / 23), (55 / 23, 83 / 23)],
    [(2, 0), (23 / 7, 0), (23 / 7, 15 / 7)],
    [(1.5, 2, 2), (3, 2, 2), (3, 2, 23 / 7), (3, 55 / 23, 2)],
    [(2, 1), (4, 1), (4, 7 / 3)],
]


def five_node_problem() -> FixpointProblem:
    return FixpointProblem(AXES_5, five_node_sets())


def poly_problem() -> FixpointProblem:
    sets = [
        polytope_set(b, from_vertices(np.array(v, dtype=float)))
        for b, v in zip(POLY_AXES, POLY_VERTS)
    ]
    return FixpointProblem(POLY_AXES, sets, tolerance=1e-9)


# ---------------------------------------------------------------------------
# problem construction and centralized baseline
# ---------------------------------------------------------------------------


class TestProblemAndCentralized:
    def test_axes_must_match(self):
        with pytest.raises(ValidationError):
            FixpointProblem([AxisSet((1,))], [finite_set(AxisSet((2,)), [[1.0]])])
        with pytest.raises(ValidationError):
            FixpointProblem([], [])

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"),
                                     -float("inf"), 0.0, -1.0,
                                     True, "1e-9", None, [1e-9]])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # a NaN tolerance used to make every set compare equal, so round 0
        # passed for the fixed point
        s = finite_set(AxisSet((1,)), [[1.0]])
        with pytest.raises(ValidationError, match="tolerance"):
            FixpointProblem([s.axes], [s], tol)

    def test_real_tolerances_become_floats(self):
        s = finite_set(AxisSet((1,)), [[1.0]])
        for tol in (1, np.float32(0.5), np.int64(2)):
            got = FixpointProblem([s.axes], [s], tol).tolerance
            assert type(got) is float and got == float(tol)

    def test_centralized_join_golden(self):
        joined = centralized_join(five_node_problem())
        assert joined.axes == AxisSet((1, 2, 3, 4, 5, 6))
        assert as_tuple_set(joined) == JOIN_5

    def test_centralized_join_single_node(self):
        s = finite_set(AxisSet((2, 9)), [[1.0, 2.0], [3.0, 4.0]])
        prob = FixpointProblem([s.axes], [s])
        assert as_tuple_set(centralized_join(prob)) == {(1, 2), (3, 4)}

    def test_centralized_projections_golden(self):
        projs = centralized_projections(five_node_problem())
        for got, want in zip(projs, PROJ_5):
            assert as_tuple_set(got) == want


# ---------------------------------------------------------------------------
# single-node update
# ---------------------------------------------------------------------------


class TestLocalUpdate:
    def test_node4_first_update(self):
        sets = five_node_sets()
        received = {j: sets[j] for j in (1, 3, 4)}
        out = local_update(3, received)
        assert out.axes == AXES_5[3]
        assert as_tuple_set(out) == ROUND_1[3]

    def test_node4_second_update(self):
        round1 = [finite_set(b, sorted(pts)) for b, pts in zip(AXES_5, ROUND_1)]
        received = {j: round1[j] for j in (1, 3, 4)}
        out = local_update(3, received)
        assert as_tuple_set(out) == ROUND_2[3]

    def test_node5_second_update_keeps_two_hop_point(self):
        # Node 5 sees only node 4's round-1 set, which still carries
        # (1,7,-4); the exhaustive join oracle agrees the point survives.
        round1 = [finite_set(b, sorted(pts)) for b, pts in zip(AXES_5, ROUND_1)]
        received = {j: round1[j] for j in (3, 4)}
        out = local_update(4, received)
        assert as_tuple_set(out) == ROUND_2[4]

        oracle = brute_join(
            [(list(AXES_5[j]), np.array(sorted(ROUND_1[j]), dtype=float))
             for j in (3, 4)],
            target=list(AXES_5[4]),
        )
        assert {tuple(r) for r in oracle} == ROUND_2[4]

    def test_isolated_node_unchanged(self):
        s = finite_set(AxisSet((1, 2)), [[0.0, 1.0], [2.0, 3.0]])
        out = local_update(0, {0: s})
        assert sets_equal(out, s)

    def test_own_set_required(self):
        s = finite_set(AxisSet((1,)), [[0.0]])
        with pytest.raises(ValidationError):
            local_update(1, {0: s})

    def test_memo_reuses_a_join_only_for_the_very_same_sets(self, monkeypatch):
        sets = five_node_sets()
        round1 = [finite_set(b, sorted(pts)) for b, pts in zip(AXES_5, ROUND_1)]
        built = []
        join = fixpoint.join_extrusions
        monkeypatch.setattr(fixpoint, "join_extrusions",
                            lambda s, target: built.append(target) or join(s, target))
        joins = {}
        first = local_update(3, {j: sets[j] for j in (1, 3, 4)}, joins)
        assert as_tuple_set(first) == ROUND_1[3]
        local_update(3, {j: sets[j] for j in (1, 3, 4)}, joins)
        assert len(built) == 1
        # the same senders with other sets: a kept memo must not answer
        second = local_update(3, {j: round1[j] for j in (1, 3, 4)}, joins)
        assert as_tuple_set(second) == ROUND_2[3]
        assert len(built) == 2


# ---------------------------------------------------------------------------
# distributed run on the point example
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def outcome():
    final, trace = run_distributed(five_node_problem())
    return final, trace


class TestDistributedPointExample:
    def test_round_one_iterates(self, outcome):
        _, trace = outcome
        for got, want in zip(trace.sets_at(1), ROUND_1):
            assert as_tuple_set(got) == want

    def test_round_two_iterates(self, outcome):
        _, trace = outcome
        for got, want in zip(trace.sets_at(2), ROUND_2):
            assert as_tuple_set(got) == want

    def test_fixed_point_round_and_confirmation(self, outcome):
        _, trace = outcome
        assert trace.converged is True
        assert trace.rounds_executed == 4
        assert trace.fixed_point_round == 3
        # fixed point equals the centralized projections...
        for got, want in zip(trace.sets_at(3), PROJ_5):
            assert as_tuple_set(got) == want
        # ...and nothing changes afterwards
        assert trace.records[4].changed == (False,) * 5
        for got, want in zip(trace.sets_at(4), PROJ_5):
            assert as_tuple_set(got) == want

    def test_final_equals_centralized(self, outcome):
        final, _ = outcome
        cent = centralized_projections(five_node_problem())
        for got, want in zip(final, cent):
            assert sets_equal(got, want)

    def test_initial_record_convention(self, outcome):
        _, trace = outcome
        rec0 = trace.records[0]
        assert rec0.round_index == 0
        assert rec0.changed == (True,) * 5
        for got, want in zip(rec0.sets, five_node_sets()):
            assert sets_equal(got, want)

    def test_message_count(self, outcome):
        # neighbourhood sizes 3,4,3,3,2 -> 10 deliveries per round; the
        # axis-label exchange (round 0) costs one extra broadcast round.
        _, trace = outcome
        assert trace.messages_sent == 10 + 4 * 10



class TestRoundSchedule:
    def test_information_travels_one_hop_per_round(self):
        # A path of point tables: node k lies on labels (k+1, k+2) and
        # relates them by equality, and only node 0 pins its labels to 0.
        # Node k is k hops from the pin, so its set first changes in round k.
        n = 5
        axes = [AxisSet((k + 1, k + 2)) for k in range(n)]
        sets = [finite_set(axes[0], [[0.0, 0.0]])] + [
            finite_set(b, [[0.0, 0.0], [1.0, 1.0]]) for b in axes[1:]]
        final, trace = run_distributed(FixpointProblem(axes, sets))
        for rec in trace.records[1:]:
            assert rec.changed == tuple(k == rec.round_index for k in range(n))
        assert trace.rounds_executed == (n - 1) + 1  # hops + one confirming
        assert trace.fixed_point_round == n - 1
        assert all(as_tuple_set(s) == {(0, 0)} for s in final)


class TestDistributedEdgeCases:
    def test_already_fixed_converges_in_one_round(self):
        projs = centralized_projections(five_node_problem())
        prob = FixpointProblem(AXES_5, projs)
        final, trace = run_distributed(prob)
        assert trace.rounds_executed == 1
        assert trace.fixed_point_round == 0
        for got, want in zip(final, PROJ_5):
            assert as_tuple_set(got) == want

    def test_max_rounds_must_be_positive(self):
        with pytest.raises(ValidationError, match="max_rounds"):
            run_distributed(five_node_problem(), max_rounds=0)

    @pytest.mark.parametrize("rounds", [2.5, True, "3", np.float64(3.0)])
    def test_max_rounds_must_be_an_integer(self, rounds):
        with pytest.raises(ValidationError, match="max_rounds"):
            run_distributed(five_node_problem(), max_rounds=rounds)

    def test_max_rounds_exceeded_partial_trace(self):
        with pytest.raises(MaxRoundsExceeded) as exc_info:
            run_distributed(five_node_problem(), max_rounds=2)
        trace = exc_info.value.trace
        assert trace.converged is False
        assert trace.fixed_point_round is None
        assert trace.rounds_executed == 2
        for got, want in zip(trace.sets_at(2), ROUND_2):
            assert as_tuple_set(got) == want

    def test_empty_set_propagates_everywhere(self):
        axes = [AxisSet((1, 2)), AxisSet((2, 3)), AxisSet((3, 4))]
        sets = [
            finite_set(axes[0], [[0.0, 0.0], [1.0, 1.0]]),
            empty_set(axes[1]),
            finite_set(axes[2], [[0.0, 5.0]]),
        ]
        prob = FixpointProblem(axes, sets)
        final, trace = run_distributed(prob)
        assert trace.converged
        assert all(s.empty for s in final)
        assert centralized_join(prob).empty


# ---------------------------------------------------------------------------
# randomized equivalence and monotonicity properties (point backend)
# ---------------------------------------------------------------------------


def random_instance(rng: np.random.RandomState):
    n_labels = rng.randint(3, 8)
    labels = list(range(1, n_labels + 1))
    n_nodes = rng.randint(2, 6)
    axes, tables = [], []
    # plant a few shared global points so joins are often nonempty
    planted = rng.randint(-4, 5, size=(rng.randint(1, 4), n_labels)).astype(float)
    for _ in range(n_nodes):
        k = rng.randint(1, min(4, n_labels) + 1)
        chosen = sorted(rng.choice(labels, size=k, replace=False).tolist())
        b = AxisSet(chosen)
        cols = [labels.index(lab) for lab in chosen]
        own = rng.randint(-4, 5, size=(rng.randint(1, 10), k)).astype(float)
        pts = np.vstack([planted[:, cols], own])
        axes.append(b)
        tables.append(finite_set(b, pts))
    return FixpointProblem(axes, tables)


class TestRandomizedProperties:
    def test_distributed_equals_centralized(self):
        rng = np.random.RandomState(7)
        for _ in range(30):
            prob = random_instance(rng)
            final, trace = run_distributed(prob)
            cent = centralized_projections(prob)
            assert trace.converged
            for got, want in zip(final, cent):
                assert as_tuple_set(got) == as_tuple_set(want)

    def test_join_invariance_and_nesting_each_round(self):
        rng = np.random.RandomState(99)
        for _ in range(15):
            prob = random_instance(rng)
            _, trace = run_distributed(prob)
            base = as_tuple_set(centralized_join(prob))
            for rec in trace.records:
                # join of the round's iterates never moves
                round_prob = FixpointProblem(prob.axis_sets, rec.sets)
                assert as_tuple_set(centralized_join(round_prob)) == base
            for prev, rec in zip(trace.records, trace.records[1:]):
                for older, newer in zip(prev.sets, rec.sets):
                    assert as_tuple_set(newer) <= as_tuple_set(older)


# ---------------------------------------------------------------------------
# polytope example
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def poly_outcome():
    prob = poly_problem()
    final, trace = run_distributed(prob)
    cent = centralized_projections(prob)
    return prob, final, trace, cent


class TestPolytopeExample:
    def test_two_round_fixed_point(self, poly_outcome):
        _, _, trace, _ = poly_outcome
        assert trace.converged
        assert trace.fixed_point_round == 2
        assert trace.rounds_executed == 3
        assert trace.records[3].changed == (False,) * 5

    def test_vertices_match_frozen_goldens(self, poly_outcome):
        _, final, _, _ = poly_outcome
        for got, want in zip(final, POLY_PROJ):
            dist = hausdorff(vertices(got.poly()), np.array(want, dtype=float))
            assert dist <= 1e-6

    def test_distributed_equals_centralized_supports(self, poly_outcome):
        _, final, _, cent = poly_outcome
        rng = np.random.RandomState(5)
        for got, want in zip(final, cent):
            d = len(got.axes)
            dirs = np.vstack([np.eye(d), -np.eye(d),
                              rng.standard_normal((32, d))])
            from reachnet.lpsolve import support
            for dd in dirs:
                gap = abs(support(got.poly(), dd) - support(want.poly(), dd))
                assert gap <= 1e-6

    def test_supports_match_lifted_lp_oracle(self, poly_outcome):
        # fully independent route: one big LP over hull weights per node
        _, final, _, _ = poly_outcome
        hulls = [(list(b), np.array(v, dtype=float))
                 for b, v in zip(POLY_AXES, POLY_VERTS)]
        rng = np.random.RandomState(11)
        from reachnet.lpsolve import support
        for i, got in enumerate(final):
            d = len(got.axes)
            dirs = np.vstack([np.eye(d), -np.eye(d),
                              rng.standard_normal((8, d))])
            for dd in dirs:
                want = lifted_support(hulls, list(POLY_AXES[i]), dd)
                assert want is not None
                assert abs(support(got.poly(), dd) - want) <= 1e-7

    def test_deterministic_replay(self, poly_outcome):
        _, final, _, _ = poly_outcome
        final2, _ = run_distributed(poly_problem())
        from reachnet.polytope import to_text
        for a, b in zip(final, final2):
            assert to_text(a.poly()) == to_text(b.poly())


# ---------------------------------------------------------------------------
# shared joins: one join per distinct sender tuple per round
# ---------------------------------------------------------------------------


def affine_chain_spec(n: int, skips=()) -> NetworkSpec:
    """Scalar agents ``x_i(t+1) = 0.9 x_i + 0.4 x_{i-1} + u_i`` over one
    step, each capped jointly with the agent before it and each steering
    its neighbourhood's states into a box; every ``(i, j)`` in ``skips``
    also lets agent i read agent j's state."""
    reads = [{i - 1} if i else set() for i in range(n)]
    for i, j in skips:
        reads[i].add(j)
    talks = [{i} | reads[i] | {k for k in range(n) if i in reads[k]}
             for i in range(n)]
    return NetworkSpec(
        state_dims=(1,) * n, input_dims=(1,) * n,
        dyn_neighbors=tuple(tuple(sorted(r)) for r in reads),
        con_neighbors=tuple((i - 1,) if i else () for i in range(n)),
        horizon=1,
        state_sets=(HPolytope.from_box([-5.0], [5.0]),) * n,
        input_sets=(HPolytope.from_box([-1.0], [1.0]),) * n,
        goal_sets=tuple(HPolytope.from_box([-2.0] * len(m), [2.0] * len(m))
                        for m in talks),
        dynamics=tuple(
            AffineAgent(1, 1, A={i: [[0.9]], **{j: [[0.4]] for j in reads[i]}},
                        B={i: [[1.0]]}) for i in range(n)),
        couplings=tuple(
            (CouplingRow({i - 1: [0.5], i: [1.0]}, {}, -3.5),) if i else ()
            for i in range(n)))


def network_problem(spec: NetworkSpec) -> FixpointProblem:
    """A network's fixpoint problem: each agent's window and local system."""
    index = spec.index
    return FixpointProblem(
        [index.horizon_axes(i) for i in range(spec.n_agents)],
        [local_system_solution(spec, index, i) for i in range(spec.n_agents)])


def _bytes(s):
    """A set's axes and the exact bytes of its arrays."""
    d = s.data
    arrays = (d.points,) if isinstance(d, PointTable) else (
        d.A_ineq, d.b_ineq, d.A_eq, d.b_eq, np.array(d.trivially_empty))
    return s.axes, [(a.shape, a.tobytes()) for a in arrays]


FIXTURES = Path(__file__).parent / "fixtures"

#: Problems whose nodes receive the same sets, or not: in the five-node
#: point example nodes 1 and 3 receive the same sets, in the polytope one
#: no two nodes do, both nodes of ``two_agent_affine`` do, and on the chain
#: with a skip link nodes 1 and 2 do, as do nodes 3 and 4, but not node 5.
SAME_AS_PER_NODE_LOOP = {
    "five_node_points": lambda: load_spec(FIXTURES / "five_node_points.json"),
    "five_node_polytopes": lambda: load_spec(FIXTURES / "five_node_polytopes.json"),
    "integrator": lambda: network_problem(load_spec(FIXTURES / "integrator.json")),
    "two_agent_affine":
        lambda: network_problem(load_spec(FIXTURES / "two_agent_affine.json")),
    "five_agent_chain_with_a_skip":
        lambda: network_problem(affine_chain_spec(5, [(2, 0)])),
}


@pytest.mark.parametrize("name", list(SAME_AS_PER_NODE_LOOP))
def test_run_distributed_matches_a_per_node_loop_byte_for_byte(name):
    make = SAME_AS_PER_NODE_LOOP[name]
    final, trace = run_distributed(make())
    want = per_node_fixpoint(make())  # a fresh problem: no shared caches
    assert trace.converged
    assert trace.rounds_executed == len(want) - 1
    assert trace.fixed_point_round == len(want) - 2
    assert len(trace.records) == len(want)
    for rec, (sets, changed) in zip(trace.records, want):
        assert rec.changed == changed
        assert [_bytes(s) for s in rec.sets] == [_bytes(s) for s in sets]
    assert [_bytes(s) for s in final] == [_bytes(s) for s in want[-1][0]]


def _log_rounds(monkeypatch) -> list:
    """Per exchange (round 0 first): the nodes that ran ``local_update``
    and the number of joins built, as ``[nodes, joins]``."""
    log = []
    join, update, exchange = (fixpoint.join_extrusions, fixpoint.local_update,
                              fixpoint.exchange)

    def logged_join(sets, target):
        log[-1][1] += 1
        return join(sets, target)

    monkeypatch.setattr(fixpoint, "exchange",
                        lambda *args: log.append([[], 0]) or exchange(*args))
    monkeypatch.setattr(fixpoint, "join_extrusions", logged_join)
    monkeypatch.setattr(fixpoint, "local_update",
                        lambda i, *args: log[-1][0].append(i) or update(i, *args))
    return log


@pytest.mark.parametrize("make, distinct, settled", [
    (lambda: network_problem(affine_chain_spec(3)), 1, True),
    (lambda: network_problem(affine_chain_spec(5, [(2, 0)])), 3, False),
    (five_node_problem, 4, False),
    (poly_problem, 5, False),
    (lambda: network_problem(affine_chain_spec(5)), 5, False),
], ids=["three_agent_chain", "five_agent_chain_with_a_skip", "five_node_points",
        "five_node_polytopes", "five_agent_chain"])
def test_one_join_per_distinct_sender_tuple_per_round(monkeypatch, make, distinct,
                                                      settled):
    # the 3-agent chain's windows all overlap: every node updates in round 1
    # and no node after it
    problem = make()
    log = _log_rounds(monkeypatch)
    _, trace = run_distributed(problem)
    rounds = trace.rounds_executed
    assert rounds > 1  # so a memo kept from round to round would show
    every = [list(range(problem.n_nodes)), distinct]
    later = [[], 0] if settled else every
    assert log == [[[], 0], every] + [later] * (rounds - 1)


# ---------------------------------------------------------------------------
# settled nodes: a clique component does no work after round 1
# ---------------------------------------------------------------------------


def clique_beside_chain_problem() -> FixpointProblem:
    """The windows of a 3-agent chain, which all overlap, beside those of a
    5-agent chain, which do not, relabelled past the first's labels."""
    clique = network_problem(affine_chain_spec(3))
    chain = network_problem(affine_chain_spec(5))
    shift = max(clique.union_axes)
    moved = [LabeledSet(AxisSet(k + shift for k in s.axes), s.data)
             for s in chain.initial_sets]
    return FixpointProblem(clique.axis_sets + tuple(s.axes for s in moved),
                           clique.initial_sets + tuple(moved))


def test_a_clique_component_keeps_its_round_one_sets(monkeypatch):
    log = _log_rounds(monkeypatch)
    _, trace = run_distributed(clique_beside_chain_problem())
    monkeypatch.undo()
    want = per_node_fixpoint(clique_beside_chain_problem())
    assert trace.converged
    assert trace.rounds_executed == len(want) - 1 > 2
    assert trace.fixed_point_round == len(want) - 2
    assert [nodes for nodes, _ in log] == [[], list(range(8))] + [
        list(range(3, 8))] * (trace.rounds_executed - 1)
    first = trace.records[1].sets
    for rec, (sets, changed) in zip(trace.records, want):
        assert rec.changed == changed
        if rec.round_index > 1:
            assert all(a is b for a, b in zip(rec.sets[:3], first))
        assert all(sets_equal(a, b) for a, b in zip(rec.sets[:3], sets))
        assert [_bytes(s) for s in rec.sets[3:]] == [_bytes(s) for s in sets[3:]]


@pytest.mark.parametrize("make", [lambda: affine_chain_spec(3),
                                  lambda: random_affine_spec(2)],
                         ids=["three_agent_chain", "random_affine_spec_2"])
def test_a_settled_network_converges_at_a_tolerance_below_rounding(make):
    # recomputing a settled set re-rounds its last bits, which a check at
    # 1e-16 sees as a change in every round
    _, trace = run_distributed_reachability(make(), tolerance=1e-16)
    assert trace.converged
    assert trace.rounds_executed == 2
    assert trace.fixed_point_round == 1


@pytest.mark.parametrize("seed", range(16))
def test_a_network_whose_windows_all_overlap_is_exact_in_one_round(seed):
    spec = overlapping_finite_spec(seed)
    index = spec.index
    problem = network_problem(spec)
    graph = graph_from_axis_overlap(problem.axis_sets)
    nodes = tuple(range(spec.n_agents))
    assert all(graph.neighborhood(i) == nodes for i in nodes)
    sols, trace = run_distributed_reachability(spec)
    cent = centralized_reachability(spec).trajectories
    for sol in sols:
        want = project_set(cent, index.horizon_axes(sol.node))
        assert sol.refined_trajectories.table() == want.table()
    assert trace.fixed_point_round <= 1
    assert [rec.changed for rec in trace.records] == [
        changed for _, changed in per_node_fixpoint(problem)]
