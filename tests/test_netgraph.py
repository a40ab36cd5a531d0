"""Communication graph construction and the broadcast round."""

import pytest

from reachnet.axisset import AxisSet
from reachnet.errors import IndexOutOfRange, ValidationError
from reachnet.netgraph import (
    Graph,
    exchange,
    graph_from_axis_overlap,
    graph_from_dynamics,
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


def neighborhoods(g: Graph) -> list[tuple[int, ...]]:
    return [g.neighborhood(i) for i in range(g.n_nodes)]


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
        assert neighborhoods(g) == [(0, 1), (0, 1)]


class TestAxisOverlapGraph:
    def test_five_node_example_neighbourhoods(self):
        g = graph_from_axis_overlap(AXES_5)
        assert neighborhoods(g) == NEIGHBORHOODS_5

    def test_disjoint_sets_give_edgeless_graph(self):
        g = graph_from_axis_overlap([AxisSet((1,)), AxisSet((2,)), AxisSet((3,))])
        assert g.edges == frozenset()
        assert neighborhoods(g) == [(0,), (1,), (2,)]

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
