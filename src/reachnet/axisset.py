"""Axis-labeled sets and the projection / cylinder-extension algebra.

An :class:`AxisSet` is a finite set of positive integer coordinate labels,
kept strictly increasing.  A :class:`LabeledSet` pairs an axis set with a
concrete set of vectors over exactly those coordinates, stored either as a
finite point table or as an :class:`~reachnet.polytope.HPolytope`.

The three moves everything else builds on:

* ``project_set``  - drop coordinates (keep the labels in the target);
* ``extrude``      - embed into a larger label set, new coordinates free;
* ``join_extrusions`` - intersect the extrusions of several sets inside a
  common label set.  For point tables this is a relational natural join on
  the shared coordinates; extrusions are never materialized.

Projection onto the empty axis set yields the empty set by convention (not
a zero-dimensional point).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from . import polytope as _poly
from .errors import (
    BackendMismatch,
    DimensionMismatch,
    NotSubset,
    UncoveredAxes,
    UnsupportedMaterialization,
    ValidationError,
)
from .polytope import ABS_TOL, HPolytope, _starts_run

#: Decimal places used when quantizing coordinates for exact-match joins;
#: matches the 1e-9 membership tolerance used everywhere else.
QUANT_DECIMALS = 9


@dataclass(frozen=True)
class AxisSet:
    """Strictly increasing tuple of positive integer coordinate labels."""

    labels: tuple[int, ...]

    def __init__(self, labels: Iterable[int] = ()):
        seen = sorted(set(int(x) for x in labels))
        if seen and seen[0] < 1:
            raise ValidationError("axis labels must be positive integers")
        object.__setattr__(self, "labels", tuple(seen))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label: int) -> bool:
        return label in set(self.labels)

    def __bool__(self) -> bool:
        return bool(self.labels)

    def __or__(self, other: "AxisSet") -> "AxisSet":
        return AxisSet(self.labels + other.labels)

    def __and__(self, other: "AxisSet") -> "AxisSet":
        return AxisSet(set(self.labels) & set(other.labels))

    def __sub__(self, other: "AxisSet") -> "AxisSet":
        return AxisSet(set(self.labels) - set(other.labels))

    def issubset(self, other: "AxisSet") -> bool:
        return set(self.labels) <= set(other.labels)

    def positions_of(self, sub: "AxisSet") -> list[int]:
        """Column positions of ``sub``'s labels inside this axis set."""
        if not sub.issubset(self):
            raise NotSubset(f"{sub} is not nested in {self}")
        pos = {lab: k for k, lab in enumerate(self.labels)}
        return [pos[lab] for lab in sub.labels]

    @staticmethod
    def union_of(parts: Iterable["AxisSet"]) -> "AxisSet":
        labels: list[int] = []
        for p in parts:
            labels.extend(p.labels)
        return AxisSet(labels)

    def __repr__(self) -> str:
        return "AxisSet(" + ", ".join(str(x) for x in self.labels) + ")"


class PointTable:
    """Finite set of vectors, one per row; duplicates removed within 1e-9.

    Rows are kept sorted lexicographically so equal sets compare equal as
    arrays and serialize identically.
    """

    __slots__ = ("points",)

    def __init__(self, points, dim: int | None = None):
        arr = np.asarray(points, dtype=float)
        if arr.size == 0:
            if dim is None:
                dim = arr.shape[1] if arr.ndim == 2 else 0
            arr = np.zeros((0, dim))
        if arr.ndim != 2:
            raise DimensionMismatch("point table must be a 2-d array")
        if not np.all(np.isfinite(arr)):
            raise DimensionMismatch("point coordinates must be finite")
        if arr.shape[0]:
            key = np.round(arr, QUANT_DECIMALS)
            key += 0.0  # normalize -0.0
            key = key[np.lexsort(key.T[::-1])]
            arr = key[_starts_run(key)]
        self.points = arr
        self.points.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def row_keys(self) -> list[tuple]:
        return [tuple(row) for row in self.points]

    def __eq__(self, other) -> bool:
        return (isinstance(other, PointTable) and self.points.shape == other.points.shape
                and bool(np.array_equal(self.points, other.points)))

    def __repr__(self) -> str:  # pragma: no cover
        return f"PointTable({len(self)} x {self.dim})"


Backend = Union[PointTable, HPolytope]

FINITE = "finite"
POLYTOPE = "polytope"


@dataclass(frozen=True)
class LabeledSet:
    """A set of vectors over the coordinates named by ``axes``."""

    axes: AxisSet
    data: Backend

    def __post_init__(self):
        if isinstance(self.data, PointTable):
            if self.data.dim != len(self.axes):
                raise DimensionMismatch(
                    f"table dim {self.data.dim} != {len(self.axes)} axes")
        elif isinstance(self.data, HPolytope):
            if self.data.dim != len(self.axes):
                raise DimensionMismatch(
                    f"polytope dim {self.data.dim} != {len(self.axes)} axes")
            if len(self.axes) == 0:
                raise DimensionMismatch("polytope backend needs at least one axis")
        else:
            raise BackendMismatch(f"unsupported backend {type(self.data).__name__}")

    @property
    def backend(self) -> str:
        return FINITE if isinstance(self.data, PointTable) else POLYTOPE

    @cached_property
    def empty(self) -> bool:
        if isinstance(self.data, PointTable):
            return len(self.data) == 0
        return self.data.is_empty()

    def table(self) -> PointTable:
        if not isinstance(self.data, PointTable):
            raise BackendMismatch("expected a finite point table")
        return self.data

    def poly(self) -> HPolytope:
        if not isinstance(self.data, HPolytope):
            raise BackendMismatch("expected a polytope backend")
        return self.data


def finite_set(labels: Iterable[int], points) -> LabeledSet:
    axes = labels if isinstance(labels, AxisSet) else AxisSet(labels)
    return LabeledSet(axes, PointTable(points, dim=len(axes)))


def polytope_set(labels: Iterable[int], poly: HPolytope) -> LabeledSet:
    axes = labels if isinstance(labels, AxisSet) else AxisSet(labels)
    return LabeledSet(axes, poly)


def empty_set(labels: Iterable[int] = ()) -> LabeledSet:
    """Canonical empty set (finite backend) over the given labels."""
    axes = labels if isinstance(labels, AxisSet) else AxisSet(labels)
    return LabeledSet(axes, PointTable(np.zeros((0, len(axes)))))


# -- vector-level projection -------------------------------------------------


def project_vector(v, source: AxisSet, target: AxisSet) -> np.ndarray:
    """Components of ``v`` (over ``source``) at the labels in ``target``.

    ``target`` must be nested in ``source``; an empty target returns an empty
    array, standing for the empty set per the projection convention.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape[0] != len(source):
        raise DimensionMismatch("vector length does not match its axes")
    if not target.issubset(source):
        raise NotSubset(f"{target} is not nested in {source}")
    return v[source.positions_of(target)]


# -- set-level operations -----------------------------------------------------


def project_set(s: LabeledSet, target: AxisSet) -> LabeledSet:
    """Orthogonal projection of ``s`` onto the coordinates in ``target``."""
    if not target.issubset(s.axes):
        raise NotSubset(f"{target} is not nested in {s.axes}")
    if len(target) == 0:
        return empty_set(())
    if target == s.axes:
        return s
    keep = s.axes.positions_of(target)
    if isinstance(s.data, PointTable):
        return LabeledSet(target, PointTable(s.data.points[:, keep], dim=len(target)))
    return LabeledSet(target, _poly.project_to(s.data, keep))


def extrude(s: LabeledSet, target: AxisSet) -> LabeledSet:
    """Cylinder extension of ``s`` into ``target``; new coordinates are free.

    A finite table cannot materialize a strict extension (it would need
    infinitely many points) unless the set is empty, whose extension is
    empty again.
    """
    if not s.axes.issubset(target):
        raise NotSubset(f"{s.axes} is not nested in {target}")
    if target == s.axes:
        return s
    if isinstance(s.data, PointTable):
        if len(s.data) == 0:
            return LabeledSet(target, PointTable(np.zeros((0, len(target)))))
        raise UnsupportedMaterialization(
            "finite tables cannot materialize a strict cylinder extension")
    positions = target.positions_of(s.axes)
    return LabeledSet(target, _poly.embed_columns(s.data, len(target), positions))


def _natural_join(axes_a: AxisSet, ta: PointTable, axes_b: AxisSet, tb: PointTable):
    """Sort-merge natural join of two point tables on their shared axes.

    The shared-key columns of both tables are coded as integers (equal keys,
    equal codes), B's rows are sorted by code, and each A row is paired with
    the run of B rows holding its code.  Without a shared axis every code is
    the same, and the result is the cross product.
    """
    axes_u = axes_a | axes_b
    shared = axes_a & axes_b
    a, b = ta.points, tb.points
    keys = np.concatenate([a[:, axes_a.positions_of(shared)],
                           b[:, axes_b.positions_of(shared)]])
    order = np.lexsort(keys.T[::-1]) if shared else np.arange(len(keys))
    codes = np.empty(len(keys), dtype=np.intp)
    codes[order] = np.cumsum(_starts_run(keys[order]))
    code_a, code_b = codes[:len(a)], codes[len(a):]
    by_b = np.argsort(code_b)
    sorted_b = code_b[by_b]
    lo = np.searchsorted(sorted_b, code_a, side="left")
    counts = np.searchsorted(sorted_b, code_a, side="right") - lo
    # A row i pairs with the B rows at sorted positions lo[i] .. lo[i] + counts[i] - 1
    at = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
    out = np.empty((len(at), len(axes_u)))
    out[:, axes_u.positions_of(axes_b)] = b[by_b[at]]
    out[:, axes_u.positions_of(axes_a)] = np.repeat(a, counts, axis=0)
    return axes_u, PointTable(out, dim=len(axes_u))


def join_extrusions(sets: Sequence[LabeledSet], target: AxisSet) -> LabeledSet:
    """Intersection of the cylinder extensions of ``sets`` inside ``target``.

    Finite backend: a relational natural join on shared coordinates; the
    sets must jointly cover ``target`` (UncoveredAxes otherwise).  Polytope
    backend: constraint rows are embedded and stacked, free coordinates are
    allowed.
    """
    sets = list(sets)
    if not sets:
        raise ValidationError("join of an empty collection")
    backends = {s.backend for s in sets}
    if len(backends) > 1:
        raise BackendMismatch("cannot join finite tables with polytopes")
    for s in sets:
        if not s.axes.issubset(target):
            raise NotSubset(f"{s.axes} is not nested in {target}")
    if backends == {FINITE}:
        covered = AxisSet.union_of(s.axes for s in sets)
        if covered != target:
            missing = target - covered
            raise UncoveredAxes(f"labels {missing} not covered by any set")
        if any(s.empty for s in sets):
            return LabeledSet(target, PointTable(np.zeros((0, len(target)))))
        axes_acc, table_acc = sets[0].axes, sets[0].table()
        pending = sets[1:]
        while pending:
            # a set sharing no axis with the accumulated table would make a
            # cross product; join the first set that does share one instead
            k = next((k for k, s in enumerate(pending) if s.axes & axes_acc), 0)
            s = pending.pop(k)
            axes_acc, table_acc = _natural_join(axes_acc, table_acc, s.axes, s.table())
            if len(table_acc) == 0:
                return LabeledSet(target, PointTable(np.zeros((0, len(target)))))
        return LabeledSet(target, table_acc)
    acc = _poly.HPolytope.universe(len(target))
    for s in sets:
        positions = target.positions_of(s.axes)
        acc = _poly.intersect(acc, _poly.embed_columns(s.poly(), len(target), positions))
    return LabeledSet(target, acc)


def sets_equal(a: LabeledSet, b: LabeledSet, tol: float = ABS_TOL) -> bool:
    """Equality as sets: exact for point tables, support-gap for polytopes."""
    if a.axes != b.axes:
        return False
    if a.empty or b.empty:
        return a.empty and b.empty
    if a.backend != b.backend:
        raise BackendMismatch("cannot compare finite tables with polytopes")
    if a.backend == FINITE:
        return a.table() == b.table()
    return _poly.set_equal(a.poly(), b.poly(), tol)


def set_includes(a: LabeledSet, b: LabeledSet, tol: float = ABS_TOL) -> bool:
    """True when ``b`` is a subset of ``a`` (same axes required)."""
    if a.axes != b.axes:
        raise DimensionMismatch("inclusion needs identical axes")
    if b.empty:
        return True
    if a.empty:
        return False
    if a.backend != b.backend:
        raise BackendMismatch("cannot compare finite tables with polytopes")
    if a.backend == FINITE:
        keys = set(a.table().row_keys())
        return all(k in keys for k in b.table().row_keys())
    return _poly.includes(a.poly(), b.poly(), tol)
