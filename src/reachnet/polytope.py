"""Convex polytopes in halfspace representation, possibly unbounded.

A set is stored as ``{z : A_ineq z <= b_ineq, A_eq z == b_eq}``.  Equality
rows are kept explicit instead of being split into inequality pairs: they
encode degenerate (lower-dimensional) sets exactly and they let coordinate
elimination substitute variables instead of combining rows.

Coordinate elimination is Fourier-Motzkin on the inequality rows (equality
rows are used as pivots first), one coordinate at a time from the highest
column down, with duplicate/dominated-row filtering and redundancy pruning
after every step to keep the row count from exploding.  Only the rows a step
creates are normalized; rows that come out of a set already are taken as
they are.

Pruning (:func:`prune`) asks one LP per row whether the row is implied by
the rows kept so far.  Most rows are not, so before those LPs it shoots rays
from an interior point (redundancy removal by ray shooting: Fukuda,
*Polyhedral Computation FAQ*; Clarkson, FOCS 1994).  The first hyperplane a
ray crosses belongs to a needed row whenever the point where it crosses the
next one satisfies every other row and the equalities, and lies beyond the
first row by more than the tolerance: that point is a witness, and the row
skips its LP.  The same centre LP settles emptiness: a ball of positive
radius inside the set is a point of it, so the emptiness LP is left out.
A projection of that point lies in the projection of the set, so
:func:`eliminate` hands each column's centre, minus the eliminated
coordinate, to the next column's prune, which checks it in numpy against
the same bound and solves the centre LP only when the check fails.
The LPs that remain run warm on one HiGHS model (:class:`lpsolve.RowLps`);
a warm optimum decides only with a certificate for its verdict (the same
witness test for a needed row, a dual bound for a redundant one), and any
other LP is solved cold as before.  Both certificates keep a margin from
the threshold, so where the solver's rounding could tip a verdict the cold
LP decides, as it did alone.
A projection of a nonempty set is nonempty, so :func:`eliminate` records
that on its result.

Inclusion (:func:`includes`) asks one support LP per face of the outer set,
but a face whose normal is also a row normal of the inner set is capped by
that row's right-hand side already: the inner set lies in that halfspace.
Such a face skips its LP; so do the boundedness probes of
:func:`is_bounded` along a coordinate axis that a row bounds.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from . import lpsolve
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    EliminationBlowup,
    EmptySet,
    NumericalFailure,
    ParseError,
    UnboundedSet,
)

#: Default absolute tolerance for membership, inclusion and redundancy tests.
ABS_TOL = 1e-9

#: Coefficients below this are treated as exact zeros during elimination.
ZERO_COEF_TOL = 1e-11

#: Cap on the inequality rows one Fourier-Motzkin step may produce.
ELIMINATION_ROW_CAP = 20_000

#: Vertex enumeration / hull recovery cluster radius.
VERTEX_TOL = 1e-7

#: Relative margin, on top of ``tol``, by which a ray-shooting witness must
#: violate the row it certifies (scaled by the witness's largest coordinate);
#: it keeps the LP solver's rounding from ever deciding otherwise.
CERTIFY_MARGIN = 1e-7

#: Seeded random rays shot per inequality row, besides one along each normal.
_RAYS_PER_ROW = 4

#: Entries of the rows-by-rays hit-distance matrix evaluated at once.
_RAY_CHUNK = 1 << 16

_MAX_VERTEX_DIM = 8
_MAX_VERTEX_COMBOS = 400_000


def _starts_run(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows of a lexsorted array that differ from their
    predecessor (the first row always does)."""
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return first


def _normalize_system(A, b, eq: bool):
    """Unit-norm rows; returns (A, b, infeasible_flag) after dropping trivia."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if A.size == 0 and A.shape[0] != b.shape[0]:
        A = A.reshape(0, A.shape[1] if A.ndim == 2 else 0)
    if A.shape[0] != b.shape[0]:
        raise DimensionMismatch("row count does not match right-hand side")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise DimensionMismatch("polytope data must be finite")
    norms = np.linalg.norm(A, axis=1)
    zero = norms <= ZERO_COEF_TOL
    infeasible = False
    if np.any(zero):
        bz = b[zero]
        if eq:
            infeasible = bool(np.any(np.abs(bz) > ABS_TOL))
        else:
            infeasible = bool(np.any(bz < -ABS_TOL))
        A, b, norms = A[~zero], b[~zero], norms[~zero]
    if A.shape[0]:
        # skip rows that are unit-norm already (up to accumulated rounding)
        # so that normalizing is idempotent and serialized rows round-trip
        # byte for byte
        norms = np.where(np.abs(norms - 1.0) <= 1e-12, 1.0, norms)
        A = A / norms[:, None]
        b = b / norms
        if eq:
            # canonical sign: first nonzero coefficient positive
            for r in range(A.shape[0]):
                nz = np.nonzero(np.abs(A[r]) > ZERO_COEF_TOL)[0]
                if nz.size and A[r, nz[0]] < 0:
                    A[r] = -A[r]
                    b[r] = -b[r]
        # drop exact duplicates (after rounding; -0.0 equals 0.0), keeping
        # the first of each in input order: the sort is stable
        key = np.round(np.hstack([A, b[:, None]]), 12)
        order = np.lexsort(key.T[::-1])
        idx = np.sort(order[_starts_run(key[order])])
        A, b = A[idx], b[idx]
    return A, b, infeasible


class HPolytope:
    """Halfspace-represented convex set; rows normalized to unit norm.

    Attributes
    ----------
    A_ineq, b_ineq : inequality system ``A_ineq z <= b_ineq``
    A_eq, b_eq     : equality system ``A_eq z == b_eq``
    dim            : ambient dimension
    trivially_empty: an all-zero row demanded the impossible
    """

    __slots__ = ("A_ineq", "b_ineq", "A_eq", "b_eq", "dim", "trivially_empty",
                 "_empty_cache", "_centre")

    def __init__(self, A_ineq=None, b_ineq=None, A_eq=None, b_eq=None,
                 dim: int | None = None):
        mats = [m for m in (A_ineq, A_eq) if m is not None]
        if dim is None:
            for m in mats:
                m = np.atleast_2d(np.asarray(m, dtype=float))
                if m.size or m.ndim == 2:
                    dim = m.shape[1]
                    break
        if dim is None:
            raise DimensionMismatch("cannot infer dimension of empty system")
        if A_ineq is None:
            A_ineq = np.zeros((0, dim))
            b_ineq = np.zeros(0)
        if A_eq is None:
            A_eq = np.zeros((0, dim))
            b_eq = np.zeros(0)
        gi, hi, bad1 = _normalize_system(A_ineq, b_ineq, eq=False)
        ge, he, bad2 = _normalize_system(A_eq, b_eq, eq=True)
        if gi.shape[1] not in (dim,) or ge.shape[1] not in (dim,):
            if gi.size or ge.size:
                raise DimensionMismatch("inconsistent column counts")
            gi = gi.reshape(0, dim)
            ge = ge.reshape(0, dim)
        self.A_ineq, self.b_ineq = gi, hi
        self.A_eq, self.b_eq = ge, he
        self.dim = int(dim)
        self.trivially_empty = bool(bad1 or bad2)
        self._empty_cache = True if self.trivially_empty else None
        self._centre = None
        for arr in (self.A_ineq, self.b_ineq, self.A_eq, self.b_eq):
            arr.setflags(write=False)

    @classmethod
    def _normalized(cls, A_ineq, b_ineq, A_eq, b_eq, dim: int,
                    centre: np.ndarray | None = None) -> "HPolytope":
        """A set from rows that came out of an HPolytope: unit-norm,
        sign-canonical, deduped and none all-zero, so they are taken as
        they are.  ``centre`` is a point that may lie deep inside the set;
        :func:`prune` checks it before it uses it."""
        p = object.__new__(cls)
        p.A_ineq, p.b_ineq, p.A_eq, p.b_eq = A_ineq, b_ineq, A_eq, b_eq
        p.dim = int(dim)
        p.trivially_empty = False
        p._empty_cache = None
        p._centre = centre
        for arr in (A_ineq, b_ineq, A_eq, b_eq):
            arr.setflags(write=False)
        return p

    # -- constructors -----------------------------------------------------

    @staticmethod
    def universe(dim: int) -> "HPolytope":
        return HPolytope(dim=dim)

    @staticmethod
    def empty(dim: int) -> "HPolytope":
        p = HPolytope(np.zeros((1, dim)), np.array([-1.0]), dim=dim)
        return p

    @staticmethod
    def from_box(lo, hi) -> "HPolytope":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape:
            raise DimensionMismatch("box bounds must have equal length")
        d = lo.shape[0]
        eye = np.eye(d)
        return HPolytope(np.vstack([eye, -eye]), np.hstack([hi, -lo]))

    # -- basic queries ----------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.A_ineq.shape[0] + self.A_eq.shape[0]

    def is_empty(self) -> bool:
        if self._empty_cache is None:
            self._empty_cache = lpsolve.is_empty(self)
        return self._empty_cache

    def contains(self, z, tol: float = ABS_TOL) -> bool:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if z.shape[0] != self.dim:
            raise DimensionMismatch("point dimension mismatch")
        if self.trivially_empty:
            return False
        ok_i = not self.A_ineq.size or np.all(self.A_ineq @ z <= self.b_ineq + tol)
        ok_e = not self.A_eq.size or np.all(np.abs(self.A_eq @ z - self.b_eq) <= tol)
        return bool(ok_i and ok_e)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"HPolytope(dim={self.dim}, ineq={self.A_ineq.shape[0]}, "
                f"eq={self.A_eq.shape[0]})")


# -- set operations -------------------------------------------------------


def intersect(p: HPolytope, q: HPolytope) -> HPolytope:
    """Row-stacked intersection (no pruning; use :func:`prune` if needed)."""
    if p.dim != q.dim:
        raise DimensionMismatch("intersection of different dimensions")
    if p.trivially_empty or q.trivially_empty:
        return HPolytope.empty(p.dim)
    return HPolytope(
        np.vstack([p.A_ineq, q.A_ineq]), np.hstack([p.b_ineq, q.b_ineq]),
        np.vstack([p.A_eq, q.A_eq]), np.hstack([p.b_eq, q.b_eq]),
        dim=p.dim,
    )


def _row_bounds(p: HPolytope) -> dict:
    """The smallest right-hand side of each row normal of ``p``, keyed by
    :func:`_row_bound`; an equality row counts with both signs.  Each entry
    is an upper bound on p's support along its normal, since p lies in the
    halfspace of the row."""
    bounds: dict = {}
    rows = itertools.chain(zip(p.A_ineq, p.b_ineq), zip(p.A_eq, p.b_eq),
                           zip(-p.A_eq, -p.b_eq))
    for a, b in rows:
        key = (a + 0.0).tobytes()  # + 0.0 turns -0.0 into 0.0
        bounds[key] = min(b, bounds.get(key, math.inf))
    return bounds


def _row_bound(bounds: dict, a: np.ndarray) -> float:
    """The bound :func:`_row_bounds` holds for normal ``a``, else +inf."""
    return bounds.get((a + 0.0).tobytes(), math.inf)


def is_bounded(p: HPolytope) -> bool:
    """Whether every coordinate of ``p`` is bounded both ways: one support LP
    per probe ``+-e_k``, unless a row of ``p`` along the probe bounds it."""
    bounds = _row_bounds(p)
    return not any(math.isinf(_row_bound(bounds, probe))
                   and math.isinf(lpsolve.support(p, probe))
                   for e in np.eye(p.dim) for probe in (e, -e))


def includes(p: HPolytope, q: HPolytope, tol: float = ABS_TOL) -> bool:
    """True when q is a subset of p, via support evaluations of q.

    Every face constraint of p must cap q's support in that direction; the
    empty set is included in everything.  A face ``a z <= b`` whose normal
    is also a row normal of q, with right-hand side at most ``b + tol``,
    needs no LP: q lies in that row's halfspace, so its support along ``a``
    is at most ``b + tol`` and the LP could not reject the face.  The other
    faces keep their LPs, in the same order.
    """
    if p.dim != q.dim:
        raise DimensionMismatch("inclusion test of different dimensions")
    if q.is_empty():
        return True
    if p.is_empty():
        return False
    directions = [(a, b) for a, b in zip(p.A_ineq, p.b_ineq)]
    for a, b in zip(p.A_eq, p.b_eq):
        directions.append((a, b))
        directions.append((-a, -b))
    bounds = _row_bounds(q)
    for a, b in directions:
        if _row_bound(bounds, a) <= b + tol:
            continue
        try:
            s = lpsolve.support(q, a)
        except EmptySet:
            return True
        if s > b + tol:
            return False
    return True


def set_equal(p: HPolytope, q: HPolytope, tol: float = ABS_TOL) -> bool:
    return includes(p, q, tol) and includes(q, p, tol)


def _gram_schmidt(F: np.ndarray):
    """``F = L Q`` with orthonormal rows ``Q`` and lower-triangular ``L``.

    A row whose remainder falls below 1e-10 (the rows have unit norm) counts
    as dependent and adds no row to ``Q``, as in the rank cut of
    :func:`_affine_basis`.  Also returns the rows that did add one.
    """
    Q = np.zeros((0, F.shape[1]))
    L = np.zeros((F.shape[0], F.shape[0]))
    lead = []
    for k, a in enumerate(F):
        for _ in range(2):  # the second pass restores orthogonality
            coef = Q @ a
            L[k, :coef.size] += coef
            a = a - coef @ Q
        n = np.linalg.norm(a)
        if n > 1e-10:
            L[k, len(lead)] = n
            lead.append(k)
            Q = np.vstack([Q, a / n])
    return Q, L[:, :len(lead)], lead


def _equality_gap(F, f, L, lead, x) -> np.ndarray:
    """Per point (row of ``x``): the length of the least move within the
    row space of ``F`` that makes the independent rows hold exactly, or the
    largest miss left on a dependent row, whichever is larger.

    Near-dependent rows make the move long, so a point that misses
    ``F x = f`` by little but sits far from that affine set is not close.
    """
    miss = F @ x.T - f[:, None]
    y = np.zeros((len(lead), x.shape[0]))
    for j, k in enumerate(lead):
        y[j] = (miss[k] - L[k, :j] @ y[:j]) / L[k, j]
    return np.maximum(np.linalg.norm(y, axis=0),
                      np.abs(miss - L @ y).max(axis=0))


def _witnesses(G, g, F, f, L, lead, x, first, tol: float) -> np.ndarray:
    """Per point ``x[k]`` (a row of ``x``): whether it proves row
    ``first[k]`` of ``G z <= g`` irredundant.  It must satisfy every other
    row within ``tol``, lie within ``tol`` of ``F z = f`` (see
    :func:`_equality_gap`; ``L`` and ``lead`` come from :func:`_gram_schmidt`)
    and exceed row ``first[k]`` by more than ``tol`` plus
    :data:`CERTIFY_MARGIN`."""
    cols = np.arange(x.shape[0])
    resid = G @ x.T - g[:, None]
    excess = resid[first, cols]
    resid[first, cols] = -np.inf
    ok = ((resid.max(axis=0) <= tol)
          & (excess > tol + CERTIFY_MARGIN * np.maximum(1.0, np.abs(x).max(axis=1))))
    if F.shape[0]:
        ok &= _equality_gap(F, f, L, lead, x) <= tol
    return ok


def _radius_floor(c: np.ndarray, tol: float) -> float:
    """The ball radius a centre c must exceed to count as inside the set:
    ``tol`` plus :data:`CERTIFY_MARGIN` scaled by c's largest coordinate."""
    return tol + CERTIFY_MARGIN * max(1.0, np.abs(c).max(initial=0.0))


def _chebyshev_centre(G, g, F, f, norms, tol: float):
    """The centre LP: the centre of the largest ball inside ``G z <= g``
    within its affine hull ``F z = f`` (``norms`` are the rows' lengths in
    that hull), or None when it fails or its radius does not exceed
    :func:`_radius_floor`."""
    dim = G.shape[1]
    # the cap keeps the LP bounded when the set is unbounded
    radius_row = np.eye(1, dim + 1, dim)
    lp = lpsolve.LinearProgram(
        radius_row[0], np.vstack([np.column_stack([G, norms]), radius_row]),
        np.append(g, 1.0 + np.abs(g).max()),
        np.column_stack([F, np.zeros(F.shape[0])]), f)
    try:
        res = lpsolve.solve(lp)
    except NumericalFailure:
        return None
    if res.status != lpsolve.OPTIMAL:
        return None
    c = res.point[:dim]
    if res.point[dim] <= _radius_floor(c, tol):
        return None  # no interior: implicit equalities, or empty
    return c


def _deep_inside(G, g, F, f, L, lead, norms, c, tol: float) -> bool:
    """Whether c meets the bound :func:`_chebyshev_centre` puts on its
    centre: the ball around c that fits by the rows of nonzero ``norms``
    has a radius above :func:`_radius_floor`, the other rows hold, and c
    lies within ``tol`` of ``F z = f`` (see :func:`_equality_gap`)."""
    slack = g - G @ c
    live = norms > 0.0
    radius = (slack[live] / norms[live]).min(initial=math.inf)
    return bool(radius > _radius_floor(c, tol) and np.all(slack[~live] >= 0.0)
                and (not F.shape[0] or _equality_gap(F, f, L, lead, c[None])[0] <= tol))


def _certify_irredundant(G, g, F, f, tol: float, centre=None):
    """Mask of the rows of ``G z <= g`` that ray shooting proves irredundant,
    the point inside the set the rays start from (None if there is none),
    and the factors ``L`` and ``lead`` of ``F`` (see :func:`_gram_schmidt`).

    The rays start from ``centre`` when it passes :func:`_deep_inside`;
    otherwise one Chebyshev-centre LP gives the point c, at the centre of
    the largest ball within the set's affine hull ``F z = f``
    (:func:`_chebyshev_centre`).  A ray from c, in the null space of ``F``,
    first crosses the hyperplane of some row i and next that of another
    row; the point x at that second crossing satisfies every row but i, and
    ``F x = f``.  Row i is certified when x, checked explicitly by
    :func:`_witnesses`, does so within ``tol`` and exceeds row i by more
    than ``tol`` plus :data:`CERTIFY_MARGIN`.

    A point is returned only when its ball's radius exceeds that same
    bound; it then satisfies every row with room to spare, so the set is
    nonempty.  With fewer than two rows, or a single point, no LP is solved
    and no point is returned.
    """
    m, dim = G.shape
    certified = np.zeros(m, dtype=bool)
    Q, L, lead = _gram_schmidt(F)
    if m < 2:  # the centre LP would cost as much as it could save
        return certified, None, L, lead
    if Q.shape[0] == dim:
        return certified, None, L, lead  # a single point
    norms = np.linalg.norm(G - (G @ Q.T) @ Q, axis=1)
    c = centre
    if c is None or not _deep_inside(G, g, F, f, L, lead, norms, c, tol):
        c = _chebyshev_centre(G, g, F, f, norms, tol)
        if c is None:
            return certified, None, L, lead
    slack = g - G @ c
    live = norms > ZERO_COEF_TOL
    rng = np.random.default_rng(0)  # a fixed seed keeps LP counts repeatable
    n_random = _RAYS_PER_ROW * m
    step = max(1, _RAY_CHUNK // m)
    normals = G[live]
    batches = itertools.chain(
        (normals[lo:lo + step] for lo in range(0, normals.shape[0], step)),
        (rng.standard_normal((min(step, n_random - lo), dim))
         for lo in range(0, n_random, step)))
    for dirs in batches:
        dirs = dirs - (dirs @ Q.T) @ Q
        rays = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        cols = np.arange(rays.shape[0])
        speed = G @ rays.T
        dist = np.divide(slack[:, None], speed, out=np.full(speed.shape, np.inf),
                         where=speed > ZERO_COEF_TOL)
        first = np.argmin(dist, axis=0)
        d1 = dist[first, cols]
        dist[first, cols] = np.inf
        d2 = dist.min(axis=0)
        hit = np.isfinite(d1)
        # with no second crossing every point past the first is a witness
        t = np.where(np.isfinite(d2), d2, 2.0 * d1)
        x = c + np.where(hit, t, 0.0)[:, None] * rays
        ok = hit & _witnesses(G, g, F, f, L, lead, x, first, tol)
        certified[first[ok]] = True
        if certified.all():
            break
    return certified, c, L, lead


def prune(p: HPolytope, merge_equalities: bool = False) -> HPolytope:
    """Minimal representation: drop inequality rows implied by the rest.

    With ``merge_equalities`` opposite inequality pairs that pin a hyperplane
    are rewritten as a single equality row (useful before vertex work).

    Rows are visited in order; row i is dropped when maximizing its normal
    over the rows still kept (without i) and the equalities gives at most
    ``g_i + ABS_TOL``.  Rows that ray shooting certifies (see
    :func:`_certify_irredundant`) skip that LP.  A certified row has a
    witness x that satisfies every other row and the equalities and exceeds
    ``g_i`` by more than ``ABS_TOL`` plus :data:`CERTIFY_MARGIN`; the rows kept
    at its turn are a subset of the others, so its LP maximizes over a
    superset containing x and would keep it too.  The margin absorbs the LP
    solver's rounding, so the result is the same system, row for row, as
    with an LP for every row; only an LP that would have failed with
    NumericalFailure on a certified row is no longer solved.

    The LPs left share one HiGHS model (:class:`lpsolve.RowLps`), each
    warm-started from the basis of the one before.  A warm optimum decides
    only with a certificate for its verdict, checked explicitly by
    :func:`_settles`.  To keep row i, the optimum must be a witness as above,
    for the rows in force, so the cold LP keeps the row too.  To drop it,
    the duals ``y >= 0`` and ``w`` must give ``y G + w F = G_i`` up to a
    residual r within ``ABS_TOL``; then the cold LP's maximum is at most
    ``y g + w f + |r|_1 s`` plus its rounding, with s = ``max(1, |x|)`` at
    the warm optimum x.  That bound must lie below ``g_i + ABS_TOL`` by
    :data:`CERTIFY_MARGIN` times s, the same margin as for a witness, so a
    drop near the threshold (a weakly redundant row, whose maximum is
    ``g_i``) is left to the cold LP.  Any other outcome (no optimum, a
    failed check of :func:`lpsolve.solve`, or no certificate) solves the LP
    cold by :func:`lpsolve.solve`, as before.  Warm and cold optima can
    differ by HiGHS's tolerances on near-parallel rows and near-dependent
    equalities; the certificates fail there, so the cold LP decides.

    The centre of the ray shooting also settles emptiness: when it is found
    (a ball of radius above ``ABS_TOL`` plus the margin fits inside the set), it
    is a point of the set, so ``p`` is recorded as nonempty and its
    emptiness LP is not solved.  After merging the centre proves nothing
    about ``p``: a merged pair may lie up to ``ABS_TOL`` apart the wrong way,
    which leaves ``p`` empty and its merged form not.  Whenever no centre
    proves it, the emptiness LP decides, as before.

    A set built inside :func:`eliminate` carries a point that may serve as
    the centre; it is used only when it meets the centre LP's bound (see
    :func:`_deep_inside`), and never with ``merge_equalities``.  Any point
    inside the set certifies soundly, so the kept rows do not depend on
    which centre the rays start from.  Without a merge the result's rows
    are a subset of ``p``'s, so they are not normalized again, and the
    result carries the centre used.
    """
    if p._empty_cache:
        return HPolytope.empty(p.dim)
    G, g, F, f = p.A_ineq, p.b_ineq, p.A_eq, p.b_eq
    centre = None if merge_equalities else p._centre
    merged = False
    if merge_equalities and G.shape[0]:
        used = np.zeros(G.shape[0], dtype=bool)
        eq_rows, eq_rhs = [], []
        for i in range(G.shape[0]):
            if used[i]:
                continue
            opposite = np.all(np.abs(G + G[i]) <= 1e-10, axis=1) & ~used
            opposite[i] = False
            hit = np.nonzero(opposite & (np.abs(g + g[i]) <= ABS_TOL))[0]
            if hit.size:
                used[i] = used[hit[0]] = True
                eq_rows.append(G[i])
                eq_rhs.append(g[i])
        if eq_rows:
            G, g = G[~used], g[~used]
            F = np.vstack([F, np.array(eq_rows)])
            f = np.hstack([f, np.array(eq_rhs)])
            merged = True
    certified, centre, L, lead = _certify_irredundant(G, g, F, f, ABS_TOL, centre)
    if centre is not None and not merged:
        p._empty_cache = False
    elif p.is_empty():
        return HPolytope.empty(p.dim)
    if not certified.all():
        lps = lpsolve.RowLps(G, g, F, f)
        for i in np.flatnonzero(~certified):
            res = lps.warm(i)
            if res is None or not _settles(res, i, lps, L, lead, ABS_TOL):
                res = lps.cold(i)
            if res.status == lpsolve.OPTIMAL and res.value <= g[i] + ABS_TOL:
                lps.drop(i)
            # unbounded or (numerically) infeasible: keep the row
        G, g = G[lps.kept], g[lps.kept]
    if merged:  # the merged rows are not sign-canonical or deduped yet
        return HPolytope(G, g, F, f, dim=p.dim)
    return HPolytope._normalized(G, g, F, f, p.dim, centre)


def _settles(res: lpsolve.LpResult, i: int, lps: lpsolve.RowLps, L, lead,
             tol: float) -> bool:
    """Whether the warm optimum ``res`` of row i's redundancy LP carries a
    certificate for its verdict (see :func:`prune`)."""
    G, g, F, f = lps.G, lps.g, lps.F, lps.f
    if res.value > g[i] + tol:  # kept: the optimum must be a witness
        pos = np.count_nonzero(lps.kept[:i])
        return bool(_witnesses(G[lps.kept], g[lps.kept], F, f, L, lead,
                               res.point[None], [pos], tol)[0])
    rows = lps.others(i)  # dropped: the duals must bound row i
    y, w = res.ineq_duals, res.eq_duals
    miss = np.abs(G[i] - y @ G[rows] - w @ F)
    scale = max(1.0, np.abs(res.point).max(initial=0.0))
    bound = y @ g[rows] + w @ f + miss.sum() * scale
    return bool(y.min(initial=0.0) >= 0.0 and miss.max(initial=0.0) <= tol
                and bound <= g[i] + tol - CERTIFY_MARGIN * scale)


def _filter_dominated(G: np.ndarray, g: np.ndarray):
    """Drop duplicate rows and rows dominated by an identical normal.

    Rows sort by their normal rounded to 10 decimals; a run of rows whose
    rounded normals are equal byte for byte keeps its smallest right-hand
    side, the first of equals in sorted order.
    """
    if not G.shape[0]:
        return G, g
    key = np.round(G, 10)
    order = np.lexsort(key.T[::-1])
    starts = _starts_run(key[order].view(np.int64))  # bytes: -0.0 is not 0.0
    run = np.cumsum(starts) - 1
    gs = g[order]
    lowest = np.flatnonzero(gs == np.minimum.reduceat(gs, np.flatnonzero(starts))[run])
    keep = np.sort(order[lowest[_starts_run(run[lowest, None])]])
    return G[keep], g[keep]


def eliminate(p: HPolytope, positions: Sequence[int]) -> HPolytope:
    """Project away the given coordinate positions (orthogonal projection).

    Positions refer to columns of ``p``; they are eliminated from the highest
    column down.  Equality rows are used as substitution pivots when they
    involve the coordinate; otherwise Fourier-Motzkin combines the sign
    classes of the inequality rows.  After each coordinate the system is
    deduplicated and LP-pruned; a Fourier-Motzkin step that would produce
    more than :data:`ELIMINATION_ROW_CAP` rows raises EliminationBlowup.  A
    projection of a nonempty set is nonempty, so the result records that and
    its emptiness check solves no LP.

    Only each step's new rows are normalized; the prune input and output and
    the result are built from rows that are normalized already.  The centre
    of one column's prune, with the next eliminated coordinate deleted, goes
    to the next column's prune as a candidate centre (see :func:`prune`), so
    a run of columns usually solves one centre LP, not one per column.
    """
    positions = sorted(set(int(c) for c in positions), reverse=True)
    if not positions:
        return p
    if any(c < 0 or c >= p.dim for c in positions):
        raise DimensionMismatch("elimination position out of range")
    remaining_dim = p.dim - len(positions)
    if p.is_empty():
        return HPolytope.empty(remaining_dim)
    G, g, F, f = p.A_ineq, p.b_ineq, p.A_eq, p.b_eq
    centre = None  # a point of the current set, from the last prune
    for col in positions:
        pivoted = False
        if F.shape[0]:
            coefs = np.abs(F[:, col])
            r = int(np.argmax(coefs))
            if coefs[r] > ZERO_COEF_TOL:
                pivot_row, pivot_rhs, c = F[r], f[r], F[r, col]
                if G.shape[0]:
                    w = G[:, col] / c
                    G = G - np.outer(w, pivot_row)
                    g = g - w * pivot_rhs
                if F.shape[0] > 1:
                    mask = np.ones(F.shape[0], dtype=bool)
                    mask[r] = False
                    Fr, fr = F[mask], f[mask]
                    w = Fr[:, col] / c
                    F = Fr - np.outer(w, pivot_row)
                    f = fr - w * pivot_rhs
                else:
                    F, f = F[:0], f[:0]
                pivoted = True
        if not pivoted and G.shape[0]:
            coef = G[:, col]
            pos = np.nonzero(coef > ZERO_COEF_TOL)[0]
            neg = np.nonzero(coef < -ZERO_COEF_TOL)[0]
            zero = np.nonzero(np.abs(coef) <= ZERO_COEF_TOL)[0]
            n_new = zero.size + pos.size * neg.size
            if n_new > ELIMINATION_ROW_CAP:
                raise EliminationBlowup(int(n_new), ELIMINATION_ROW_CAP)
            if pos.size and neg.size:
                cp = coef[pos][:, None, None]
                cn = coef[neg][None, :, None]
                combo = (-cn) * G[pos][:, None, :] + cp * G[neg][None, :, :]
                combo_rhs = (-coef[neg])[None, :] * g[pos][:, None] \
                    + coef[pos][:, None] * g[neg][None, :]
                G = np.vstack([G[zero], combo.reshape(-1, G.shape[1])])
                g = np.hstack([g[zero], combo_rhs.reshape(-1)])
            else:
                # one-sided rows leave the remaining coordinates unconstrained
                G, g = G[zero], g[zero]
        G = np.delete(G, col, axis=1)
        F = np.delete(F, col, axis=1)
        if centre is not None:
            centre = np.delete(centre, col)
        step = HPolytope(G, g, F, f, dim=G.shape[1])
        if step.trivially_empty:
            return HPolytope.empty(remaining_dim)
        G, g = _filter_dominated(step.A_ineq, step.b_ineq)
        F, f = step.A_eq, step.b_eq
        if G.shape[0] > G.shape[1] + 1:
            pruned = prune(HPolytope._normalized(G, g, F, f, G.shape[1], centre))
            if pruned.trivially_empty:
                return HPolytope.empty(remaining_dim)
            G, g, F, f = pruned.A_ineq, pruned.b_ineq, pruned.A_eq, pruned.b_eq
            centre = pruned._centre
    out = HPolytope._normalized(G, g, F, f, remaining_dim)
    out._empty_cache = False  # the projection of a nonempty set
    return out


def project_to(p: HPolytope, keep_positions: Sequence[int]) -> HPolytope:
    """Eliminate everything except ``keep_positions`` (order preserved).

    ``keep_positions`` must be strictly increasing; the result's column k is
    the input's column ``keep_positions[k]``.
    """
    keep = list(keep_positions)
    if keep != sorted(set(keep)):
        raise DimensionMismatch("keep positions must be strictly increasing")
    drop = [c for c in range(p.dim) if c not in set(keep)]
    return eliminate(p, drop)


# -- vertex enumeration and hulls -----------------------------------------


def _affine_basis(F: np.ndarray, f: np.ndarray, dim: int):
    """Particular solution and orthonormal null-space basis of F z = f."""
    if not F.shape[0]:
        return np.zeros(dim), np.eye(dim)
    z0, *_ = np.linalg.lstsq(F, f, rcond=None)
    u, s, vt = np.linalg.svd(F, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * max(1.0, s[0] if s.size else 1.0)))
    basis = vt[rank:].T
    return z0, basis


def vertices(p: HPolytope) -> np.ndarray:
    """All vertices of a bounded nonempty polytope, one per row.

    Basic-solution enumeration on the equality-reduced system; intended for
    the low dimensions this package works in (reduced dimension <= 8).
    Duplicates from degenerate corners are clustered within ``VERTEX_TOL``.
    """
    q = prune(p, merge_equalities=True)
    if p.is_empty():  # settled by prune, by its centre or its emptiness LP
        raise EmptySet("vertex enumeration of an empty set")
    z0, basis = _affine_basis(q.A_eq, q.b_eq, q.dim)
    r = basis.shape[1]
    if r == 0:
        return z0[None, :]
    if r > _MAX_VERTEX_DIM:
        raise NumericalFailure(f"vertex enumeration limited to {_MAX_VERTEX_DIM} dims")
    G = q.A_ineq @ basis
    g = q.b_ineq - q.A_ineq @ z0
    reduced = HPolytope(G, g, dim=r)
    if not is_bounded(reduced):
        raise UnboundedSet("polytope is unbounded; vertices undefined")
    G, g = reduced.A_ineq, reduced.b_ineq
    m = G.shape[0]
    if m < r:
        raise UnboundedSet("too few constraints to pin vertices")
    if math.comb(m, r) > _MAX_VERTEX_COMBOS:
        raise NumericalFailure("too many row combinations for enumeration")
    found: list[np.ndarray] = []
    for rows in itertools.combinations(range(m), r):
        sub = G[list(rows)]
        if abs(np.linalg.det(sub)) <= 1e-10:
            continue
        y = np.linalg.solve(sub, g[list(rows)])
        if np.all(G @ y <= g + 1e-7):
            found.append(y)
    pts = []
    for y in found:
        z = z0 + basis @ y
        for existing in pts:
            if np.linalg.norm(existing - z) <= VERTEX_TOL:
                break
        else:
            pts.append(z)
    if not pts:
        raise NumericalFailure("no basic feasible solutions found")
    out = np.array(sorted(pts, key=tuple))
    return out


def from_vertices(points) -> HPolytope:
    """Convex hull of a finite point list as an HPolytope.

    Lower-dimensional hulls come out with explicit equality rows for the
    affine hull plus facet inequalities inside it.  Every input point
    satisfies the result within 1e-9.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0 or pts.shape[0] == 0:
        raise DegenerateInput("hull of an empty point list")
    if not np.all(np.isfinite(pts)):
        raise DegenerateInput("hull input must be finite")
    k, d = pts.shape
    center = pts.mean(axis=0)
    spread = pts - center
    u, s, vt = np.linalg.svd(spread, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > 1e-10 * max(1.0, smax)))
    eq_rows, eq_rhs = [], []
    for j in range(rank, d):
        n = vt[j]
        vals = pts @ n
        eq_rows.append(n)
        eq_rhs.append(0.5 * (vals.min() + vals.max()))
    A_eq = np.array(eq_rows) if eq_rows else np.zeros((0, d))
    b_eq = np.array(eq_rhs) if eq_rhs else np.zeros(0)
    if rank == 0:
        return HPolytope(A_eq=np.eye(d), b_eq=pts[0], dim=d)
    basis = vt[:rank].T
    y = spread @ basis
    if rank == 1:
        rows = np.array([[1.0], [-1.0]])
        rhs = np.array([y[:, 0].max(), -y[:, 0].min()])
    else:
        from scipy.spatial import ConvexHull, QhullError

        try:
            hull = ConvexHull(y)
        except QhullError:
            hull = ConvexHull(y, qhull_options="QJ")
        rows = hull.equations[:, :-1]
        rhs = -hull.equations[:, -1]
    A = rows @ basis.T
    b = rhs + rows @ (basis.T @ center)
    # guarantee membership of every input point despite hull epsilon
    slack = (A @ pts.T).max(axis=1)
    b = np.maximum(b, slack)
    return HPolytope(A, b, A_eq, b_eq, dim=d)


# -- embedding -------------------------------------------------------------


def embed_columns(p: HPolytope, dim: int, positions: Sequence[int]) -> HPolytope:
    """Place p's coordinates at ``positions`` of a ``dim``-dimensional space.

    The new coordinates are unconstrained; this is the cylinder extension in
    plain column form.
    """
    positions = list(positions)
    if len(positions) != p.dim:
        raise DimensionMismatch("need one position per column")
    if positions != sorted(set(positions)) or (positions and positions[-1] >= dim):
        raise DimensionMismatch("positions must be strictly increasing and fit")
    if p.trivially_empty:
        return HPolytope.empty(dim)
    G = np.zeros((p.A_ineq.shape[0], dim))
    G[:, positions] = p.A_ineq
    F = np.zeros((p.A_eq.shape[0], dim))
    F[:, positions] = p.A_eq
    return HPolytope(G, p.b_ineq, F, p.b_eq, dim=dim)


# -- text serialization -----------------------------------------------------


def to_text(p: HPolytope) -> str:
    """Serialize: header ``dim k`` then ``I a1..ak b`` / ``E a1..ak b`` rows."""
    lines = [f"dim {p.dim}"]
    for a, b in zip(p.A_eq, p.b_eq):
        lines.append("E " + " ".join(repr(float(v)) for v in a) + " " + repr(float(b)))
    for a, b in zip(p.A_ineq, p.b_ineq):
        lines.append("I " + " ".join(repr(float(v)) for v in a) + " " + repr(float(b)))
    if p.trivially_empty:
        lines.append("I " + " ".join(["0.0"] * p.dim) + " -1.0")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> HPolytope:
    """Parse the :func:`to_text` format; raises ParseError on bad input."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty polytope block")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "dim":
        raise ParseError(f"expected 'dim k' header, got {lines[0]!r}")
    try:
        d = int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad dimension {head[1]!r}") from exc
    if d < 0:
        raise ParseError("dimension must be nonnegative")
    gi, hi, ge, he = [], [], [], []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] not in ("I", "E") or len(parts) != d + 2:
            raise ParseError(f"bad row {ln!r} for dim {d}")
        try:
            vals = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"bad number in row {ln!r}") from exc
        if parts[0] == "I":
            gi.append(vals[:-1])
            hi.append(vals[-1])
        else:
            ge.append(vals[:-1])
            he.append(vals[-1])
    return HPolytope(
        np.array(gi) if gi else None, np.array(hi) if hi else None,
        np.array(ge) if ge else None, np.array(he) if he else None,
        dim=d,
    )
