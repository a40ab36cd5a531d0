"""Dense linear programming layer used by every set computation.

All geometry in this package reduces to small dense LPs: emptiness checks,
support function evaluations, redundancy pruning and worst-case disturbance
margins.  They are solved with the HiGHS dual revised simplex (Huangfu &
Hall, Math. Prog. Comp. 2018), which is deterministic for fixed input,
detects infeasibility and unboundedness exactly, and reports dual
multipliers (used by the duality self-check in the test suite).

:func:`solve` solves one LP.  It drives the HiGHS binding that scipy
bundles (``scipy.optimize._highspy._core``) directly, with the options
``linprog(method="highs-ds")`` would pass; on every LP the test suite
issues the two give bit-identical answers.  The direct path exists because
these LPs are tiny: on scipy 1.17.1, ``linprog`` spends about five times as
long per call (2-3 ms against 0.4-0.6 ms on a 2-CPU x86-64 host), mostly on
input conversion and option validation.  It is the only backend, so scipy
must ship that module (``pyproject.toml`` states the floor).

:class:`RowLps` serves redundancy pruning: a run of LPs over one matrix,
each maximizing one row's normal over the other rows still kept.  They
share one HiGHS model, built by the same helper as :func:`solve`'s.  A row
out of force has the bounds ``(-inf, inf)``, the same LP as one without it,
so each LP changes only costs and bounds and the dual simplex restarts from
the last basis.  A warm answer counts only as an optimum that passes
:func:`solve`'s checks; any other LP is solved cold by :func:`solve`, so
infeasible and unbounded verdicts, NumericalFailure and the pivot cap come
from there.  Warm and cold optima agree to rounding on well-conditioned LPs
but may differ within the solver's tolerances on ill-conditioned ones, so
:func:`polytope.prune` also asks each warm optimum for a certificate of its
verdict.

Conventions: variables are free (no implicit sign restriction), the objective
is MAXIMIZED, inequalities are ``A_ineq @ z <= b_ineq`` and equalities
``A_eq @ z == b_eq``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np
from scipy.optimize._highspy._core import (
    HighsLp, HighsModelStatus, HighsStatus, MatrixFormat, _Highs)

from .errors import DimensionMismatch, EmptySet, NumericalFailure

if TYPE_CHECKING:  # pragma: no cover
    from .polytope import HPolytope

#: Hard cap on simplex iterations of one LP before giving up with
#: NumericalFailure; read when a HiGHS model is built.
DEFAULT_PIVOT_CAP = 50_000

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: linprog's post-solve check: an "optimal" point whose rows miss their
#: right-hand sides by more than this is a numerical failure, not a verdict.
_RESIDUAL_TOL = 10 * math.sqrt(1e-9)


def _as_matrix(a, n: int, name: str) -> np.ndarray:
    if a is None:
        return np.zeros((0, n))
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != n:
        raise DimensionMismatch(f"{name} must be a matrix with {n} columns")
    return a


@dataclass(frozen=True)
class LinearProgram:
    """max  objective @ z  s.t.  A_ineq z <= b_ineq,  A_eq z == b_eq."""

    objective: np.ndarray
    A_ineq: np.ndarray
    b_ineq: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray

    def __init__(self, objective, A_ineq=None, b_ineq=None, A_eq=None, b_eq=None):
        c = np.atleast_1d(np.asarray(objective, dtype=float))
        n = c.shape[0]
        gi = _as_matrix(A_ineq, n, "A_ineq")
        ge = _as_matrix(A_eq, n, "A_eq")
        hi = np.zeros(0) if b_ineq is None else np.atleast_1d(np.asarray(b_ineq, dtype=float))
        he = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
        if hi.shape[0] != gi.shape[0] or he.shape[0] != ge.shape[0]:
            raise DimensionMismatch("right-hand sides do not match row counts")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(gi))
                and np.all(np.isfinite(hi)) and np.all(np.isfinite(ge))
                and np.all(np.isfinite(he))):
            raise DimensionMismatch("LP data must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "A_ineq", gi)
        object.__setattr__(self, "b_ineq", hi)
        object.__setattr__(self, "A_eq", ge)
        object.__setattr__(self, "b_eq", he)

    @property
    def dim(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpResult:
    """Outcome of :func:`solve`.

    ``value``/``point`` are set only when ``status == OPTIMAL``; the duals
    follow the convention of the docstring above (multipliers of the
    maximization problem, nonnegative for inequalities).
    """

    status: str
    value: Optional[float] = None
    point: Optional[np.ndarray] = None
    ineq_duals: Optional[np.ndarray] = None
    eq_duals: Optional[np.ndarray] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL

    def dual_value(self, lp: LinearProgram) -> float:
        """Dual objective g'y + f'w; equals ``value`` at an optimum."""
        if not self.is_optimal:
            raise NumericalFailure("dual value only defined at an optimum")
        return float(lp.b_ineq @ self.ineq_duals + lp.b_eq @ self.eq_duals)


def solve(lp: LinearProgram) -> LpResult:
    """Solve ``lp`` by HiGHS dual simplex; return OPTIMAL/INFEASIBLE/UNBOUNDED.

    Raises NumericalFailure if HiGHS hits :data:`DEFAULT_PIVOT_CAP`, rejects
    the model or reports numerical trouble instead of a clean verdict.
    """
    highs = _highs_model(lp)
    highs.run()
    return _highs_result(highs, lp)


def _highs_model(lp: LinearProgram) -> _Highs:
    """A HiGHS instance holding ``lp`` as a row-wise model, with the options
    ``linprog(method="highs-ds")`` would pass."""
    m, n = lp.A_ineq.shape
    A = np.vstack((lp.A_ineq, lp.A_eq))
    rows, cols = np.nonzero(A)
    model = HighsLp()
    model.num_col_ = n
    model.num_row_ = A.shape[0]
    model.col_cost_ = -lp.objective
    model.col_lower_ = np.full(n, -np.inf)
    model.col_upper_ = np.full(n, np.inf)
    model.row_lower_ = np.concatenate((np.full(m, -np.inf), lp.b_eq))
    model.row_upper_ = np.concatenate((lp.b_ineq, lp.b_eq))
    matrix = model.a_matrix_
    matrix.format_ = MatrixFormat.kRowwise
    matrix.num_col_ = n
    matrix.num_row_ = A.shape[0]
    matrix.start_ = np.searchsorted(rows, np.arange(A.shape[0] + 1))
    matrix.index_ = cols
    matrix.value_ = A[rows, cols]

    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "on")
    highs.setOptionValue("solver", "simplex")
    highs.setOptionValue("simplex_strategy", 1)  # dual
    highs.setOptionValue("simplex_iteration_limit", int(DEFAULT_PIVOT_CAP))
    if highs.passModel(model) == HighsStatus.kError:
        raise NumericalFailure("LP backend rejected the model")
    return highs


def _highs_result(highs: _Highs, lp: LinearProgram, rows=slice(None)) -> LpResult:
    """The verdict of the last ``highs.run()`` on ``lp`` with only the
    inequality rows ``rows`` in force (an index or mask; all by default).

    Raises NumericalFailure when HiGHS gave no verdict, or an optimal point
    that is NaN or misses a row in force by more than :data:`_RESIDUAL_TOL`.
    """
    status = highs.getModelStatus()
    if status == HighsModelStatus.kInfeasible:
        return LpResult(INFEASIBLE)
    if status == HighsModelStatus.kUnbounded:
        return LpResult(UNBOUNDED)
    if status != HighsModelStatus.kOptimal:
        raise NumericalFailure("LP backend stopped without a verdict: "
                               f"{highs.modelStatusToString(status)}")
    m = lp.b_ineq.shape[0]
    solution = highs.getSolution()
    point = np.array(solution.col_value, dtype=float)
    row_value = np.array(solution.row_value, dtype=float)
    value = -highs.getInfo().objective_function_value
    miss = np.concatenate((row_value[:m][rows] - lp.b_ineq[rows],
                           np.abs(row_value[m:] - lp.b_eq)))
    if math.isnan(value) or np.isnan(point).any() or not np.all(miss <= _RESIDUAL_TOL):
        raise NumericalFailure("LP backend stopped without a verdict: the "
                               "optimal point violates its constraints")
    duals = -np.array(solution.row_dual, dtype=float)
    return LpResult(OPTIMAL, value=float(value), point=point,
                    ineq_duals=duals[:m][rows], eq_duals=duals[m:])


class RowLps:
    """The LPs ``max G[i] @ z`` over the rows of ``G z <= g`` still kept,
    without row i, and ``F z == f``: the redundancy test of row i.

    :meth:`warm` and :meth:`cold` solve one; :meth:`drop` takes a row out
    of every later one.  The warm LPs share one HiGHS model, which skips
    presolve while its basis is valid; the pivot cap counts each run alone.
    """

    def __init__(self, G, g, F, f):
        self._lp = lp = LinearProgram(np.zeros(np.shape(G)[1]), G, g, F, f)
        self.G, self.g, self.F, self.f = lp.A_ineq, lp.b_ineq, lp.A_eq, lp.b_eq
        self.kept = np.ones(self.g.shape[0], dtype=bool)
        self._cols = np.arange(lp.dim, dtype=np.int32)
        self._highs = None

    def warm(self, i: int) -> Optional[LpResult]:
        """LP i on the shared model, if HiGHS finds an optimum that passes
        the checks of :func:`solve` on the rows in force; else None.  Row i
        must be kept.  The duals are those of the rows in force, as in
        :meth:`cold`."""
        if self._highs is None:
            self._highs = _highs_model(self._lp)
        highs = self._highs
        highs.changeColsCost(self._cols.size, self._cols, -self.G[i])
        highs.changeRowBounds(i, -math.inf, math.inf)
        try:
            highs.run()
            if highs.getModelStatus() != HighsModelStatus.kOptimal:
                return None
            return _highs_result(highs, self._lp, self.others(i))
        except NumericalFailure:
            return None
        finally:
            highs.changeRowBounds(i, -math.inf, self.g[i])

    def cold(self, i: int) -> LpResult:
        """LP i, built afresh and solved by :func:`solve`."""
        rows = self.others(i)
        return solve(LinearProgram(self.G[i], self.G[rows], self.g[rows], self.F, self.f))

    def others(self, i: int) -> np.ndarray:
        """Mask of the rows in force in LP i: the kept ones but row i."""
        rows = self.kept.copy()
        rows[i] = False
        return rows

    def drop(self, i: int) -> None:
        """Take row i out of every later LP."""
        self.kept[i] = False
        if self._highs is not None:
            self._highs.changeRowBounds(i, -math.inf, math.inf)


def _poly_lp(poly: "HPolytope", objective: np.ndarray) -> LinearProgram:
    return LinearProgram(objective, poly.A_ineq, poly.b_ineq, poly.A_eq, poly.b_eq)


def is_empty(poly: "HPolytope") -> bool:
    """Feasibility check via a zero-objective LP; a set with no columns has
    no rows left but all-zero ones, so those decide."""
    if poly.trivially_empty or poly.dim == 0:
        return poly.trivially_empty
    res = solve(_poly_lp(poly, np.zeros(poly.dim)))
    return res.status == INFEASIBLE


def support(poly: "HPolytope", direction) -> float:
    """Support function max{d'z : z in poly}; +inf when unbounded that way.

    Raises EmptySet on an empty polytope (the supremum over nothing).
    """
    d = np.atleast_1d(np.asarray(direction, dtype=float))
    if d.shape[0] != poly.dim:
        raise DimensionMismatch("direction dimension does not match polytope")
    if poly.trivially_empty:
        raise EmptySet("support of an empty set")
    res = solve(_poly_lp(poly, d))
    if res.status == INFEASIBLE:
        raise EmptySet("support of an empty set")
    if res.status == UNBOUNDED:
        return math.inf
    return res.value
