"""Distributed computation of the joined set's projections.

Each node holds a set over its own axis labels.  The global object of
interest is the join of all cylinder extensions over the union of labels;
every node wants the projection of that join onto its own labels without
anyone ever materializing the global set.

The update rule: join the neighbourhood's sets inside the neighbourhood's
label union, project back onto the node's own labels.  Iterates shrink
monotonically and settle, in finitely many rounds for point tables, on
exactly the global projections.  :func:`run_distributed` runs the
synchronous rounds over the axis-overlap graph.  Convergence is declared
when a whole round changes nothing anywhere; that confirming round stays in
the trace, and the fixed point is the round before it.  A node whose
component of that graph is a clique holds the projection of its
component's join after round 1 and does no work after it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from numbers import Real
from typing import Mapping, Optional, Sequence

from .axisset import (
    AxisSet,
    LabeledSet,
    join_extrusions,
    project_set,
    sets_equal,
)
from .errors import MaxRoundsExceeded, ValidationError, check_count
from .netgraph import exchange, graph_from_axis_overlap
from .polytope import ABS_TOL


def check_limits(tolerance: float, max_rounds: Optional[int] = None) -> float:
    """Check that ``tolerance`` is a real number, finite and > 0, and that
    ``max_rounds``, unless None, is an integer >= 1 (else ValidationError;
    a bool is neither); return the tolerance as a float."""
    if isinstance(tolerance, bool) or not isinstance(tolerance, Real) \
            or not 0.0 < float(tolerance) < float("inf"):
        raise ValidationError(
            f"tolerance must be a finite real number > 0, got {tolerance!r}")
    if max_rounds is not None:
        check_count(max_rounds, "max_rounds", 1)
    return float(tolerance)


@dataclass(frozen=True)
class FixpointProblem:
    """Per-node axis sets and initial sets, plus the comparison tolerance
    (finite and > 0, else ValidationError)."""

    axis_sets: tuple[AxisSet, ...]
    initial_sets: tuple[LabeledSet, ...]
    tolerance: float = ABS_TOL

    def __init__(self, axis_sets: Sequence[AxisSet], initial_sets: Sequence[LabeledSet],
                 tolerance: float = ABS_TOL):
        axis_sets = tuple(axis_sets)
        initial_sets = tuple(initial_sets)
        if len(axis_sets) != len(initial_sets) or not axis_sets:
            raise ValidationError("need one initial set per axis set")
        for b, s in zip(axis_sets, initial_sets):
            if s.axes != b:
                raise ValidationError(f"set over {s.axes} does not match {b}")
        object.__setattr__(self, "axis_sets", axis_sets)
        object.__setattr__(self, "initial_sets", initial_sets)
        object.__setattr__(self, "tolerance", check_limits(tolerance))

    @property
    def n_nodes(self) -> int:
        return len(self.axis_sets)

    @property
    def union_axes(self) -> AxisSet:
        return AxisSet.union_of(self.axis_sets)


@dataclass
class RoundRecord:
    round_index: int
    sets: tuple[LabeledSet, ...]
    changed: tuple[bool, ...]
    wall_time: float


@dataclass
class IterationTrace:
    """Complete record of a distributed run.

    ``records[k]`` holds the iterates after round k (k = 0: initial sets;
    its changed-flags are all True by convention).  On convergence the last
    record's flags are all False and ``fixed_point_round`` is the index of
    the first iterate equal to all later ones.
    """

    records: list[RoundRecord]
    converged: bool
    rounds_executed: int
    fixed_point_round: Optional[int]
    messages_sent: int

    def sets_at(self, round_index: int) -> tuple[LabeledSet, ...]:
        return self.records[round_index].sets


def centralized_join(problem: FixpointProblem) -> LabeledSet:
    """The joined set over the union of all labels, built in one place."""
    return join_extrusions(list(problem.initial_sets), problem.union_axes)


def centralized_projections(problem: FixpointProblem) -> list[LabeledSet]:
    """Projections of the centralized join onto every node's labels."""
    joined = centralized_join(problem)
    return [project_set(joined, b) for b in problem.axis_sets]


def local_update(node: int, received: Mapping[int, LabeledSet],
                 joins: Optional[dict] = None) -> LabeledSet:
    """One node's update: join the received sets, project to its own labels.

    ``received`` must contain the node's own set; the join target is the
    union of the received sets' labels.  ``joins`` maps a sorted sender
    tuple to the sets it joined and their join; a join is reused only when
    ``received`` holds the very same set objects, so nodes that receive the
    same sets share one join, and any other entry is rebuilt and replaced.
    """
    if node not in received:
        raise ValidationError("a node always receives its own set")
    senders = tuple(sorted(received))
    ordered = tuple(received[j] for j in senders)
    joins = {} if joins is None else joins
    hit = joins.get(senders)
    if hit is None or any(a is not b for a, b in zip(hit[0], ordered)):
        hit = joins[senders] = ordered, join_extrusions(
            ordered, AxisSet.union_of(s.axes for s in ordered))
    return project_set(hit[1], received[node].axes)


def run_distributed(
    problem: FixpointProblem,
    max_rounds: Optional[int] = None,
) -> tuple[list[LabeledSet], IterationTrace]:
    """Synchronous distributed iteration until nothing changes anywhere.

    The exchange runs on the axis-overlap graph, the one the convergence
    argument needs.  Round 0 exchanges the axis labels; in every later round
    each node receives its neighbours' sets from the end of the previous
    round, so information travels one hop per round.  Each node then
    updates and checks its set, in node order.  Within a round, nodes with
    the same senders receive the same sets, so they share one join (a memo
    keyed by the sorted sender tuple, fresh every round, that reuses a join
    only for the very same sets); each node still projects it in its own
    :func:`local_update`.  A projection that proves the join nonempty marks
    it so (see :func:`reachnet.polytope.eliminate`), and then a later node
    whose projection is the join itself checks it with no emptiness LP.
    The run stops after the first round in which no set changed.

    A node is *settled* when every node of its neighbourhood has the same
    neighbourhood, i.e. its component C is a clique.  From round 2 on a
    settled node keeps its set object and records no change, with no
    update and no check.  Proof that the update would give the same set:
    write ext for the cylinder extension to C's label union, P_j for the
    projection onto node j's labels, and J1 for the join of ext(S_j^0)
    over j in C.  In round 1 every node of C joins all of C's initial sets,
    so it gets J1 and keeps P_j(J1), a subset of S_j^0.  The round-2 join
    is then the intersection of ext(P_j(J1)), which contains J1 (each
    ext(P_j(J1)) does) and lies in the intersection of ext(S_j^0), which
    is J1.  So it equals J1, every round-2 set is the round-1 set, and by
    induction so is every later one.  Recomputing would only re-round it.

    Returns the fixed-point sets (equal to the centralized projections) and
    the full trace.  Raises MaxRoundsExceeded (partial trace attached) if
    the budget, defaulting to 10 * n_nodes, runs out first.
    """
    check_limits(problem.tolerance, max_rounds)
    if max_rounds is None:
        max_rounds = 10 * problem.n_nodes
    graph = graph_from_axis_overlap(problem.axis_sets)
    settled = [all(graph.neighborhood(j) == graph.neighborhood(i)
                   for j in graph.neighborhood(i)) for i in range(problem.n_nodes)]
    tol = problem.tolerance

    # round 0: neighbours learn each other's axis labels (carried by every
    # LabeledSet, so the exchange is bookkeeping, but it is a real round of
    # traffic and is counted as such)
    _, axis_messages = exchange(graph, list(problem.axis_sets))
    states = list(problem.initial_sets)
    trace = IterationTrace(
        records=[RoundRecord(0, tuple(states), (True,) * len(states), 0.0)],
        converged=False, rounds_executed=0, fixed_point_round=None,
        messages_sent=axis_messages)
    for rnd in range(1, max_rounds + 1):
        t0 = time.perf_counter()
        inboxes, sent = exchange(graph, states)
        trace.messages_sent += sent
        new_states, changed, joins = [], [], {}
        for i in range(problem.n_nodes):
            if rnd > 1 and settled[i]:
                new_states.append(states[i])
                changed.append(False)
                continue
            new = local_update(i, inboxes[i], joins)
            changed.append(not sets_equal(new, states[i], tol))
            new_states.append(new)
        states = new_states
        trace.records.append(RoundRecord(rnd, tuple(states), tuple(changed),
                                         time.perf_counter() - t0))
        trace.rounds_executed = rnd
        if not any(changed):
            trace.converged = True
            trace.fixed_point_round = rnd - 1
            return states, trace
    raise MaxRoundsExceeded(max_rounds, trace=trace)
