"""Spans around reachnet's layer boundaries, recorded from outside.

:func:`traced` replaces public functions at the names their callers look
them up under, records one :class:`Span` per call (name, start, end,
parent, a few attributes), and puts the originals back on exit.  The
program itself is not changed.  :func:`layer_metrics` turns the spans of one
pass, plus the ``IterationTrace`` objects the pass returned, into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from dataclasses import dataclass, field

from reachnet import affine, fixpoint, lpsolve, netgraph, polytope, reachability
from reachnet.axisset import LabeledSet, PointTable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(s: LabeledSet) -> int:
    return len(s.data) if isinstance(s.data, PointTable) else s.data.n_rows


def _prune_attrs(args, kw, out):
    return {"rows_in": args[0].n_rows, "rows_out": out.n_rows}


def _join_attrs(args, kw, out):
    return {"rows_out": _rows(out)}


def _update_attrs(args, kw, out):
    return {"node": args[0]}


def _local_attrs(args, kw, out):
    spec, i = args[0], args[2]
    return {"affine": isinstance(spec.dynamics[i], affine.AffineAgent)}


def _exchange_attrs(args, kw, out):
    graph, payloads = args[0], args[1]
    cells = 0
    for j, payload in enumerate(payloads):
        if isinstance(payload, LabeledSet):
            deliveries = len(graph.neighborhood(j)) - 1
            cells += deliveries * _rows(payload) * len(payload.axes)
    return {"cells": cells}


def _site(name):
    return lambda args, kw, out: {"site": name}


#: (module, attribute, span name, attribute function).  Functions imported
#: by name into another module are wrapped there too, so every call site
#: that the solvers use is seen.
WRAPPED = (
    (lpsolve, "solve", "lpsolve.solve", None),
    (lpsolve, "is_empty", "lpsolve.is_empty", None),
    (polytope, "prune", "polytope.prune", _prune_attrs),
    (polytope, "eliminate", "polytope.eliminate", None),
    (polytope, "includes", "polytope.includes", None),
    (fixpoint, "join_extrusions", "axisset.join", _join_attrs),
    (reachability, "join_extrusions", "axisset.join", _join_attrs),
    (fixpoint, "project_set", "axisset.project", _site("fixpoint")),
    (reachability, "project_set", "axisset.project", _site("reachability")),
    (fixpoint, "local_update", "fixpoint.update", _update_attrs),
    (fixpoint, "sets_equal", "fixpoint.check", None),
    (reachability, "run_distributed", "fixpoint.run", None),
    (netgraph, "exchange", "netgraph.exchange", _exchange_attrs),
    (fixpoint, "exchange", "netgraph.exchange", _exchange_attrs),
    (reachability, "local_system_solution", "reachability.local", _local_attrs),
)


class Tracer:
    """Keeps the spans of one pass in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kw):
            span = Span(name, 0.0, parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kw)
            finally:
                span.end = clock()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kw, out)
            return out

        return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in WRAPPED]
    try:
        for (mod, attr, name, attrs), (_, _, fn) in zip(WRAPPED, originals):
            setattr(mod, attr, tracer.wrap(name, fn, attrs))
        yield tracer
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)


# -- metrics ------------------------------------------------------------------------

#: The innermost wrapped caller an LP is charged to.
_LP_PURPOSE = {"polytope.prune": "prune", "polytope.includes": "includes",
               "lpsolve.is_empty": "empty"}

COUNT_METRICS = (
    "lpsolve.calls", "lpsolve.calls.prune", "lpsolve.calls.includes",
    "lpsolve.calls.empty", "lpsolve.calls.other",
    "polytope.eliminate.calls", "polytope.prune.calls", "polytope.prune.rows_in",
    "polytope.prune.rows_out", "polytope.includes.calls",
    "axisset.join.calls", "axisset.join.rows_out", "axisset.project.calls",
    "fixpoint.rounds", "fixpoint.update.calls",
    "netgraph.messages", "netgraph.message_cells",
)


#: Units of the metrics that are neither counts nor seconds.
UNITS = {"lpsolve.us_per_call": "us", "polytope.prune.removed_per_lp": "rows/LP",
         "fixpoint.changed_ratio": "ratio"}


def unit(name: str) -> str:
    return "count" if name in COUNT_METRICS else UNITS.get(name, "s")


def _busy(spans, name, keep=lambda s: True) -> float:
    """Time inside spans called ``name``, outermost ones only."""
    total = 0.0
    for s in spans:
        if s.name != name or not keep(s):
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            total += s.duration
    return total


def _self_by_layer(spans) -> dict:
    """Per layer (span-name prefix): span time not covered by child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    out = {}
    for s, c in zip(spans, child):
        layer = s.name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + s.duration - c
    return out


def _makespan(spans) -> float:
    """Sum over rounds of the slowest node's update plus check."""
    total = 0.0
    for k, run in enumerate(spans):
        if run.name != "fixpoint.run":
            continue
        per_round: list[dict] = []
        node = None
        for s in spans[k + 1:]:
            if s.start >= run.end:
                break
            if s.parent != k:
                continue
            if s.name == "netgraph.exchange":
                per_round.append({})
            elif s.name == "fixpoint.update":
                node = s.attrs["node"]
                per_round[-1][node] = per_round[-1].get(node, 0.0) + s.duration
            elif s.name == "fixpoint.check":
                per_round[-1][node] = per_round[-1].get(node, 0.0) + s.duration
        total += sum(max(r.values()) for r in per_round if r)
    return total


def layer_metrics(spans, traces) -> dict:
    """The per-layer metrics of one pass: ``spans`` from its tracer,
    ``traces`` the IterationTrace of each solved instance."""
    count = {name: 0 for name in COUNT_METRICS}
    for s in spans:
        if s.name == "lpsolve.solve":
            count["lpsolve.calls"] += 1
            parent = spans[s.parent].name if s.parent >= 0 else None
            count["lpsolve.calls." + _LP_PURPOSE.get(parent, "other")] += 1
        elif s.name == "polytope.prune":
            count["polytope.prune.calls"] += 1
            count["polytope.prune.rows_in"] += s.attrs["rows_in"]
            count["polytope.prune.rows_out"] += s.attrs["rows_out"]
        elif s.name == "axisset.join":
            count["axisset.join.calls"] += 1
            count["axisset.join.rows_out"] += s.attrs["rows_out"]
        elif s.name == "netgraph.exchange":
            count["netgraph.message_cells"] += s.attrs["cells"]
        elif s.name in ("polytope.eliminate", "polytope.includes",
                        "axisset.project", "fixpoint.update"):
            count[s.name + ".calls"] += 1
    updates = changed = 0
    for tr in traces:
        count["fixpoint.rounds"] += tr.rounds_executed
        count["netgraph.messages"] += tr.messages_sent
        for rec in tr.records[1:]:
            updates += len(rec.changed)
            changed += sum(rec.changed)

    lp_busy = _busy(spans, "lpsolve.solve")
    self_time = _self_by_layer(spans)
    m = dict(count)
    m.update({
        "lpsolve.busy_s": lp_busy,
        "lpsolve.us_per_call": 1e6 * lp_busy / count["lpsolve.calls"]
        if count["lpsolve.calls"] else 0.0,
        "polytope.eliminate.busy_s": _busy(spans, "polytope.eliminate"),
        "polytope.prune.busy_s": _busy(spans, "polytope.prune"),
        "polytope.prune.removed_per_lp":
            (count["polytope.prune.rows_in"] - count["polytope.prune.rows_out"])
            / count["lpsolve.calls.prune"] if count["lpsolve.calls.prune"] else 0.0,
        "polytope.includes.busy_s": _busy(spans, "polytope.includes"),
        "axisset.join.busy_s": _busy(spans, "axisset.join"),
        "axisset.project.busy_s": _busy(spans, "axisset.project"),
        "fixpoint.update.busy_s": _busy(spans, "fixpoint.update"),
        "fixpoint.check.busy_s": _busy(spans, "fixpoint.check"),
        "fixpoint.changed_ratio": changed / updates if updates else 0.0,
        "fixpoint.makespan_s": _makespan(spans),
        "netgraph.exchange.busy_s": _busy(spans, "netgraph.exchange"),
        "affine.assemble.busy_s":
            _busy(spans, "reachability.local", lambda s: s.attrs["affine"]),
        "reachability.local.busy_s": _busy(spans, "reachability.local"),
        "reachability.extract.busy_s":
            _busy(spans, "axisset.project",
                  lambda s: s.attrs["site"] == "reachability"),
    })
    for layer in ("lpsolve", "polytope", "axisset", "fixpoint", "netgraph",
                  "reachability"):
        m[layer + ".self_s"] = self_time.get(layer, 0.0)
    return m


def summarize(passes: list[dict]) -> dict:
    """One value per metric over the traced passes: counts from the first
    pass (they repeat exactly; a difference is reported on stderr), all
    other metrics as medians."""
    out = {}
    for name, value in passes[0].items():
        if name in COUNT_METRICS:
            out[name] = value
            if any(p[name] != value for p in passes):
                print(f"bench: count {name} differs between passes", file=sys.stderr)
        else:
            out[name] = statistics.median(p[name] for p in passes)
    return out
