"""Communication topology and a synchronous message-passing round engine.

Nodes are indexed 0..n-1.  An undirected edge means the two nodes exchange
their sets every round; the neighbourhood of a node always includes the node
itself.  Two constructors cover the use cases: overlap of axis sets (two
nodes talk iff they share coordinate labels) and symmetrized influence
lists coming from dynamics and constraint coupling.

The engine is deliberately sequential and deterministic: within a round
every node sees exactly the messages produced in the previous round, and
rounds are numbered from 1 (round 0 is the initial state / optional payload
exchange).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .axisset import AxisSet
from .errors import IndexOutOfRange, MaxRoundsExceeded, ValidationError


@dataclass(frozen=True)
class Graph:
    """Undirected communication graph with self-inclusive neighbourhoods."""

    n_nodes: int
    edges: frozenset  # of 2-tuples (i, j), i < j

    def __post_init__(self):
        for (i, j) in self.edges:
            if not (0 <= i < j < self.n_nodes):
                raise ValidationError(f"bad edge ({i}, {j})")

    def neighborhood(self, i: int) -> tuple[int, ...]:
        """Sorted M_i, always containing i."""
        if not 0 <= i < self.n_nodes:
            raise ValidationError(f"node {i} out of range")
        out = {i}
        for (a, b) in self.edges:
            if a == i:
                out.add(b)
            elif b == i:
                out.add(a)
        return tuple(sorted(out))

    def neighborhoods(self) -> list[tuple[int, ...]]:
        return [self.neighborhood(i) for i in range(self.n_nodes)]


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


#: step(node, state, inbox) -> (new_state, out_message, converged_flag)
StepFn = Callable[[int, object, Mapping[int, object]], tuple[object, object, bool]]


@dataclass
class RoundLog:
    """What the engine saw, round by round (index 0 = initial states)."""

    states_history: list[list]
    flags_history: list[list[bool]]
    wall_times: list[float]
    rounds_executed: int = 0
    converged: bool = False
    messages_sent: int = 0


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


def run_rounds(
    graph: Graph,
    initial_states: Sequence,
    step: StepFn,
    max_rounds: int,
) -> RoundLog:
    """Run synchronous rounds until every node reports converged.

    Each round, every node's message is its state from the end of the
    previous round, so information travels one hop per round.  If the
    budget runs out first, MaxRoundsExceeded is raised with the partial log
    attached.
    """
    if max_rounds < 1:
        raise ValidationError("max_rounds must be at least 1")
    states = list(initial_states)
    if len(states) != graph.n_nodes:
        raise ValidationError("one initial state per node required")
    messages = list(states)
    log = RoundLog(
        states_history=[list(states)],
        flags_history=[[False] * graph.n_nodes],
        wall_times=[0.0],
    )
    for rnd in range(1, max_rounds + 1):
        t0 = time.perf_counter()
        inboxes, sent = exchange(graph, messages)
        log.messages_sent += sent
        new_states, new_messages, flags = [], [], []
        for i in range(graph.n_nodes):
            new_state, out, ok = step(i, states[i], inboxes[i])
            new_states.append(new_state)
            new_messages.append(out)
            flags.append(bool(ok))
        states, messages = new_states, new_messages
        log.states_history.append(list(states))
        log.flags_history.append(flags)
        log.wall_times.append(time.perf_counter() - t0)
        log.rounds_executed = rnd
        if all(flags):
            log.converged = True
            return log
    raise MaxRoundsExceeded(max_rounds, trace=log, states=states)
