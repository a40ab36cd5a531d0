"""Communication topology and one synchronous broadcast round.

Nodes are indexed 0..n-1.  An undirected edge means the two nodes exchange
their sets every round; the neighbourhood of a node always includes the node
itself.  Two constructors cover the use cases: overlap of axis sets (two
nodes talk iff they share coordinate labels) and symmetrized influence
lists coming from dynamics and constraint coupling.  :func:`exchange` is one
broadcast round over a graph; the round loop itself lives in
:func:`reachnet.fixpoint.run_distributed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .axisset import AxisSet
from .errors import IndexOutOfRange, ValidationError


@dataclass(frozen=True)
class Graph:
    """Undirected communication graph with self-inclusive neighbourhoods."""

    n_nodes: int
    edges: frozenset  # of 2-tuples (i, j), i < j
    _neighborhoods: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        adjacent = [{i} for i in range(self.n_nodes)]
        for (i, j) in self.edges:
            if not (0 <= i < j < self.n_nodes):
                raise ValidationError(f"bad edge ({i}, {j})")
            adjacent[i].add(j)
            adjacent[j].add(i)
        object.__setattr__(self, "_neighborhoods",
                           tuple(tuple(sorted(m)) for m in adjacent))

    def neighborhood(self, i: int) -> tuple[int, ...]:
        """Sorted M_i, always containing i."""
        if not 0 <= i < self.n_nodes:
            raise ValidationError(f"node {i} out of range")
        return self._neighborhoods[i]


def graph_from_axis_overlap(axis_sets: Sequence[AxisSet]) -> Graph:
    """Edge (i, j) iff the two axis sets share at least one label."""
    n = len(axis_sets)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if axis_sets[i] & axis_sets[j]:
                edges.add((i, j))
    return Graph(n, frozenset(edges))


def graph_from_dynamics(
    dyn_neighbors: Sequence[Sequence[int]],
    con_neighbors: Sequence[Sequence[int]] | None = None,
) -> Graph:
    """Symmetrized influence graph.

    ``dyn_neighbors[i]`` lists the nodes whose state or input enters node
    i's dynamics; ``con_neighbors[i]`` the ones entering its coupling
    constraints.  An undirected edge appears when either node influences
    the other.
    """
    n = len(dyn_neighbors)
    if con_neighbors is None:
        con_neighbors = [[] for _ in range(n)]
    if len(con_neighbors) != n:
        raise ValidationError("neighbour lists must have equal length")
    edges = set()
    for i in range(n):
        for j in list(dyn_neighbors[i]) + list(con_neighbors[i]):
            if not 0 <= j < n:
                raise IndexOutOfRange(f"node {i} references unknown node {j}")
            if j != i:
                edges.add((min(i, j), max(i, j)))
    return Graph(n, frozenset(edges))


def exchange(graph: Graph, payloads: Sequence) -> tuple[list[dict], int]:
    """One broadcast round: node i receives {j: payloads[j] for j in M_i}.

    Returns the inboxes and the number of node-to-node deliveries (self
    deliveries are free and not counted).
    """
    if len(payloads) != graph.n_nodes:
        raise ValidationError("one payload per node required")
    inboxes = []
    sent = 0
    for i in range(graph.n_nodes):
        m = graph.neighborhood(i)
        inboxes.append({j: payloads[j] for j in m})
        sent += len(m) - 1
    return inboxes, sent
