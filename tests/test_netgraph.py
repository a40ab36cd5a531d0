"""Communication graph construction and the synchronous round engine."""

import pytest

from reachnet.axisset import AxisSet
from reachnet.errors import IndexOutOfRange, MaxRoundsExceeded, ValidationError
from reachnet.netgraph import (
    Graph,
    exchange,
    graph_from_axis_overlap,
    graph_from_dynamics,
    run_rounds,
)

# Axis sets of the five-node worked example (same as test_axisset.AXES_5).
AXES_5 = [
    AxisSet((3, 5)),
    AxisSet((1, 2, 3)),
    AxisSet((2, 5)),
    AxisSet((1, 4, 6)),
    AxisSet((4, 6)),
]

# Frozen neighbourhoods for those axis sets (0-based node ids).
NEIGHBORHOODS_5 = [
    (0, 1, 2),
    (0, 1, 2, 3),
    (0, 1, 2),
    (1, 3, 4),
    (3, 4),
]

# Axis sets of the five-node polytope example.
AXES_POLY = [
    AxisSet((1, 2)),
    AxisSet((3, 4)),
    AxisSet((5, 6)),
    AxisSet((1, 3, 5)),
    AxisSet((2, 7)),
]


class TestGraph:
    def test_bad_edge_rejected(self):
        with pytest.raises(ValidationError):
            Graph(3, frozenset({(2, 1)}))  # not i < j
        with pytest.raises(ValidationError):
            Graph(3, frozenset({(0, 3)}))  # out of range

    def test_neighborhood_contains_self_and_is_sorted(self):
        g = Graph(4, frozenset({(0, 2), (1, 2)}))
        assert g.neighborhood(2) == (0, 1, 2)
        assert g.neighborhood(3) == (3,)
        with pytest.raises(ValidationError):
            g.neighborhood(4)

    def test_neighborhoods_list(self):
        g = Graph(2, frozenset({(0, 1)}))
        assert g.neighborhoods() == [(0, 1), (0, 1)]


class TestAxisOverlapGraph:
    def test_five_node_example_neighbourhoods(self):
        g = graph_from_axis_overlap(AXES_5)
        assert g.neighborhoods() == NEIGHBORHOODS_5

    def test_disjoint_sets_give_edgeless_graph(self):
        g = graph_from_axis_overlap([AxisSet((1,)), AxisSet((2,)), AxisSet((3,))])
        assert g.edges == frozenset()
        assert g.neighborhoods() == [(0,), (1,), (2,)]

    def test_polytope_example_topology(self):
        g = graph_from_axis_overlap(AXES_POLY)
        assert g.edges == frozenset({(0, 3), (0, 4), (1, 3), (2, 3)})
        assert g.neighborhood(3) == (0, 1, 2, 3)
        assert g.neighborhood(4) == (0, 4)


class TestDynamicsGraph:
    def test_one_directed_influence_becomes_undirected_edge(self):
        g = graph_from_dynamics([[1], []])
        assert g.edges == frozenset({(0, 1)})
        assert g.neighborhood(0) == (0, 1)
        assert g.neighborhood(1) == (0, 1)

    def test_decoupled_agents(self):
        g = graph_from_dynamics([[], [], []])
        assert g.edges == frozenset()

    def test_chain_of_four_is_path_graph(self):
        g = graph_from_dynamics([[], [0], [1], [2]])
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_constraint_coupling_adds_edges(self):
        g = graph_from_dynamics([[], []], con_neighbors=[[1], []])
        assert g.edges == frozenset({(0, 1)})

    def test_unknown_node_reference(self):
        with pytest.raises(IndexOutOfRange):
            graph_from_dynamics([[2], []])

    def test_mismatched_lists(self):
        with pytest.raises(ValidationError):
            graph_from_dynamics([[], []], con_neighbors=[[]])


class TestExchange:
    def test_inboxes_follow_neighbourhoods(self):
        g = Graph(3, frozenset({(0, 1), (1, 2)}))
        inboxes, sent = exchange(g, ["a", "b", "c"])
        assert inboxes[0] == {0: "a", 1: "b"}
        assert inboxes[1] == {0: "a", 1: "b", 2: "c"}
        assert inboxes[2] == {1: "b", 2: "c"}
        assert sent == 4  # self-deliveries are free

    def test_payload_count_checked(self):
        g = Graph(2, frozenset())
        with pytest.raises(ValidationError):
            exchange(g, ["only one"])


class TestRunRounds:
    def test_identity_step_stops_after_one_round(self):
        g = Graph(3, frozenset({(0, 1), (1, 2)}))

        def step(i, state, inbox):
            return state, state, True

        log = run_rounds(g, [10, 20, 30], step, max_rounds=5)
        assert log.converged is True
        assert log.rounds_executed == 1
        assert log.states_history[-1] == [10, 20, 30]

    def test_max_rounds_exceeded_carries_partial_trace(self):
        g = Graph(2, frozenset({(0, 1)}))

        def never_done(i, state, inbox):
            return state + 1, state + 1, False

        with pytest.raises(MaxRoundsExceeded) as exc_info:
            run_rounds(g, [0, 0], never_done, max_rounds=3)
        exc = exc_info.value
        assert exc.rounds == 3
        assert exc.trace.rounds_executed == 3
        assert exc.states == [3, 3]

    def test_input_validation(self):
        g = Graph(2, frozenset())

        def step(i, state, inbox):
            return state, state, True

        with pytest.raises(ValidationError):
            run_rounds(g, [1, 2], step, max_rounds=0)
        with pytest.raises(ValidationError):
            run_rounds(g, [1], step, max_rounds=1)

    def test_information_travels_one_hop_per_round(self):
        # Token flooding on a path graph: the state at round r may only
        # depend on round-(r-1) neighbour messages, so a token starting at
        # node 0 reaches node k exactly at round k, never earlier.
        n = 5
        g = Graph(n, frozenset({(k, k + 1) for k in range(n - 1)}))

        def flood(i, state, inbox):
            new = max(state, max(inbox.values()))
            return new, new, new == state

        log = run_rounds(g, [1, 0, 0, 0, 0], flood, max_rounds=10)
        for rnd, states in enumerate(log.states_history):
            for node, value in enumerate(states):
                assert value == (1 if rnd >= node else 0)
        assert log.rounds_executed == n  # n-1 hops + one confirming round

    def test_messages_are_the_step_outbox_not_the_state(self):
        # The second return value of the step is what neighbours see next
        # round; keep state and outbox different to pin the contract.
        g = Graph(2, frozenset({(0, 1)}))
        seen = []

        def step(i, state, inbox):
            seen.append((i, dict(inbox)))
            return state, f"msg-from-{i}", len(seen) > 4

        run_rounds(g, ["s0", "s1"], step, max_rounds=5)
        # round 1 inboxes carry initial states, round 2 carries the outboxes
        assert seen[0] == (0, {0: "s0", 1: "s1"})
        assert seen[2] == (0, {0: "msg-from-0", 1: "msg-from-1"})

    def test_deterministic_replay(self):
        g = Graph(3, frozenset({(0, 1), (0, 2)}))

        def step(i, state, inbox):
            new = state + sum(inbox.values())
            return new, new, new > 100

        log1 = run_rounds(g, [1, 2, 3], step, max_rounds=20)
        log2 = run_rounds(g, [1, 2, 3], step, max_rounds=20)
        assert log1.states_history == log2.states_history
        assert log1.flags_history == log2.flags_history
        assert log1.messages_sent == log2.messages_sent
