"""Constraint assembly for linear-affine networked agents.

For one agent, the admissible local trajectories -- the states and inputs of
its whole communication neighbourhood over the horizon -- form a polytope:

* equality rows pin the agent's own state evolution, written in closed form
  so that every state ``x_i(t)`` is expressed directly in terms of the
  initial state, the neighbour states, and the inputs;
* inequality rows stack the per-time state and input sets, the agent's linear
  coupling rows, and the start/goal restrictions;
* additive bounded disturbances tighten every inequality row by its
  worst-case margin, so a nominal trajectory that satisfies the tightened
  rows stays feasible under any admissible disturbance realization.

Columns follow the global labels of the agent's horizon axes (see
:mod:`reachnet.reachability`).  The builders trust the network spec, whose
construction checked the block shapes, coupling rows and disturbance sets.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import lpsolve
from .axisset import AxisSet
from .errors import (
    MAX_COORDINATES,
    DimensionMismatch,
    EmptySet,
    NumericalFailure,
    ShapeMismatch,
    UnboundedDisturbance,
    ValidationError,
    check_choice,
    check_count,
)
from .polytope import HPolytope, is_bounded

logger = logging.getLogger("reachnet.affine")

DISTURBANCE_LAGS = ("paper", "standard")


@dataclass(frozen=True)
class CouplingRow:
    """One linear joint constraint: sum of per-agent terms compared to zero.

    ``state_coefs[j] . x_j(t) + input_coefs[j] . u_j(t) + offset  <=  0``
    (or ``== 0``), enforced at every step ``t = 0 .. H-1``.
    """

    state_coefs: Mapping[int, Sequence[float]] = field(default_factory=dict)
    input_coefs: Mapping[int, Sequence[float]] = field(default_factory=dict)
    offset: float = 0.0
    relation: str = "<="

    def __post_init__(self):
        check_choice(self.relation, "coupling relation", ("<=", "="))
        for name in ("state_coefs", "input_coefs"):
            object.__setattr__(self, name, {
                check_count(j, f"{name} key", 0):
                    np.atleast_1d(np.asarray(v, dtype=float))
                for j, v in dict(getattr(self, name)).items()})
        for coefs in (self.state_coefs, self.input_coefs):
            for j, v in coefs.items():
                if not np.all(np.isfinite(v)):
                    raise ValidationError(
                        f"coupling coefficients for agent {j} must be finite")
        offset = float(self.offset)
        if not math.isfinite(offset):
            raise ValidationError("coupling offset must be finite")
        object.__setattr__(self, "offset", offset)

    def participants(self) -> set[int]:
        return set(self.state_coefs) | set(self.input_coefs)


@dataclass(frozen=True)
class AffineAgent:
    """Affine dynamics of one agent:

    ``x_i(t+1) = sum_j A[j] x_j(t) + sum_j B[j] u_j(t) + K + E d(t)``,
    with ``d(t)`` ranging over the nonempty, bounded polytope
    ``disturbance_set`` (an empty one raises EmptySet here, an unbounded one
    UnboundedDisturbance).  Blocks for agents outside the declared neighbour
    lists are implicitly zero and must not appear in ``A``/``B``; their
    shapes are checked by the network spec.
    """

    state_dim: int
    input_dim: int
    A: Mapping[int, object] = field(default_factory=dict)
    B: Mapping[int, object] = field(default_factory=dict)
    K: object = None
    E: object = None
    disturbance_set: HPolytope | None = None

    def __post_init__(self):
        n = check_count(self.state_dim, "state_dim", 1, MAX_COORDINATES)
        m = check_count(self.input_dim, "input_dim", 0, MAX_COORDINATES)
        object.__setattr__(self, "state_dim", n)
        object.__setattr__(self, "input_dim", m)
        for name in ("A", "B"):
            object.__setattr__(self, name, {
                check_count(j, f"{name} key", 0): np.asarray(v, dtype=float)
                for j, v in dict(getattr(self, name)).items()})
        K = np.zeros(n) if self.K is None else np.atleast_1d(
            np.asarray(self.K, dtype=float))
        if K.shape != (n,):
            raise ShapeMismatch(f"offset K: expected shape ({n},), got {K.shape}")
        object.__setattr__(self, "K", K)
        if self.E is not None:
            E = np.asarray(self.E, dtype=float)
            if E.ndim != 2 or E.shape[0] != n:
                raise ShapeMismatch(
                    f"disturbance map E: expected {n} rows, got shape {E.shape}")
            object.__setattr__(self, "E", E)
            if self.disturbance_set is None:
                raise ValidationError("agent has a disturbance map but no "
                                      "disturbance set")
            if self.disturbance_set.dim != E.shape[1]:
                raise DimensionMismatch(
                    "disturbance set dimension does not match the map")
            if self.disturbance_set.is_empty():
                raise EmptySet("disturbance set is empty")
            if not is_bounded(self.disturbance_set):
                raise UnboundedDisturbance("disturbance set is unbounded")
        elif self.disturbance_set is not None:
            raise ValidationError("disturbance set given without a map E")

    @property
    def disturbance_dim(self) -> int:
        return 0 if self.E is None else self.E.shape[1]

    def has_disturbance(self) -> bool:
        return self.E is not None and bool(np.any(self.E))


@dataclass(frozen=True)
class RobustLocalSystem:
    """Assembled constraint system of one agent over its horizon axes.

    ``F z = f`` pins the agent's own dynamics; ``G z <= g - margins`` is the
    disturbance-tightened inequality system.
    """

    F: np.ndarray
    f: np.ndarray
    G: np.ndarray
    g: np.ndarray
    margins: np.ndarray

    def polytope(self) -> HPolytope:
        return HPolytope(self.G, self.g - self.margins, self.F, self.f,
                         dim=self.G.shape[1])


# -- helpers ----------------------------------------------------------------


def _as_inequalities(poly: HPolytope) -> tuple[np.ndarray, np.ndarray]:
    """Rewrite a polytope as pure inequality rows (equalities become pairs)."""
    blocks_A = [poly.A_ineq, poly.A_eq, -poly.A_eq]
    blocks_b = [poly.b_ineq, poly.b_eq, -poly.b_eq]
    A = np.vstack([b for b in blocks_A if b.shape[0]] or
                  [np.zeros((0, poly.dim))])
    b = np.hstack([v for v in blocks_b if v.shape[0]] or [np.zeros(0)])
    if poly.trivially_empty:
        A = np.vstack([A, np.zeros((1, poly.dim))])
        b = np.hstack([b, [-1.0]])
    return A, b


# -- equality assembly -------------------------------------------------------


def build_equalities(spec, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form dynamics rows of agent ``i`` over its horizon axes.

    For every ``t = 1 .. H`` the block row states
    ``x_i(t) = A_ii^t x_i(0) + sum_{j != i} sum_tau A_ii^{t-tau-1} A_ij x_j(tau)
    + sum_j sum_tau A_ii^{t-tau-1} B_ij u_j(tau) + sum_tau A_ii^{t-tau-1} K``.
    """
    agent: AffineAgent = spec.dynamics[i]
    index, H = spec.index, spec.horizon
    n_i = agent.state_dim
    cols = index.horizon_axes(i)
    width = len(cols)

    A_ii = agent.A.get(i, np.zeros((n_i, n_i)))
    powers = [np.eye(n_i)]
    for _ in range(H):
        powers.append(A_ii @ powers[-1])

    own_state_pos = {t: cols.positions_of(index.own_state_axes(t, i))
                     for t in range(H + 1)}
    rows = []
    rhs = []
    for t in range(1, H + 1):
        R = np.zeros((n_i, width))
        R[:, own_state_pos[t]] += np.eye(n_i)
        R[:, own_state_pos[0]] -= powers[t]
        for j, A_ij in agent.A.items():
            if j == i:
                continue
            for tau in range(t):
                pos = cols.positions_of(index.own_state_axes(tau, j))
                R[:, pos] -= powers[t - tau - 1] @ A_ij
        for j, B_ij in agent.B.items():
            for tau in range(t):
                pos = cols.positions_of(index.own_input_axes(tau, j))
                R[:, pos] -= powers[t - tau - 1] @ B_ij
        rows.append(R)
        rhs.append(sum(powers[t - tau - 1] for tau in range(t)) @ agent.K)

    if not rows:
        return np.zeros((0, width)), np.zeros(0)
    return np.vstack(rows), np.hstack(rhs)


# -- inequality assembly ------------------------------------------------------


def coupling_row_vector(row: CouplingRow, index, t: int,
                        cols: AxisSet) -> tuple[np.ndarray, float]:
    """``row`` at step ``t`` as ``vec . z <= bound`` (``=`` for an equality
    row) over a trajectory ``z`` on ``cols``.  The affine assembler stacks
    ``vec``; the finite backend multiplies its point table by it."""
    vec = np.zeros(len(cols))
    for j, c in row.state_coefs.items():
        vec[cols.positions_of(index.own_state_axes(t, j))] = c
    for j, c in row.input_coefs.items():
        vec[cols.positions_of(index.own_input_axes(t, j))] = c
    return vec, -row.offset


def build_inequalities(spec, i: int, *, task: str = "pre"):
    """Stacked inequality rows ``G z <= g`` of agent ``i``: the per-time
    state/input sets of :meth:`~reachnet.reachability.NetworkSpec.window_sets`,
    then the agent's own coupling rows for ``t = 0 .. H-1``, then the
    window's targets for ``task`` (start, start partition, goal).

    Omitted partitions add no rows: the per-time state-set rows already
    enforce the default product of state sets.
    """
    cols = spec.index.horizon_axes(i)
    width = len(cols)
    steps, targets = spec.window_sets(i, task)

    G_blocks: list[np.ndarray] = []
    g_blocks: list[np.ndarray] = []

    def add(placed):
        for axes, poly in placed:
            A, b = _as_inequalities(poly)
            if not A.shape[0]:
                continue
            block = np.zeros((A.shape[0], width))
            block[:, cols.positions_of(axes)] = A
            G_blocks.append(block)
            g_blocks.append(b)

    add(steps)
    for t in range(spec.horizon):
        for row in spec.couplings[i]:
            vec, bound = coupling_row_vector(row, spec.index, t, cols)
            G_blocks.append(vec[None, :])
            g_blocks.append(np.array([bound]))
            if row.relation == "=":
                G_blocks.append(-vec[None, :])
                g_blocks.append(np.array([-bound]))

    add(targets)

    G = np.vstack(G_blocks) if G_blocks else np.zeros((0, width))
    g = np.hstack(g_blocks) if g_blocks else np.zeros(0)
    return G, g


# -- disturbance margins ------------------------------------------------------


def _box_bounds(poly: HPolytope):
    """Per-coordinate (lo, hi) if the polytope is a pure coordinate box."""
    if poly.A_eq.shape[0] or poly.trivially_empty:
        return None
    lo = np.full(poly.dim, -math.inf)
    hi = np.full(poly.dim, math.inf)
    for a, b in zip(poly.A_ineq, poly.b_ineq):
        nz = np.nonzero(a)[0]
        if nz.shape[0] != 1:
            return None
        k = nz[0]
        if a[k] > 0:
            hi[k] = min(hi[k], b / a[k])
        else:
            lo[k] = max(lo[k], b / a[k])
    return lo, hi


def _global_blocks(spec):
    """Global one-step state matrix and block-diagonal disturbance map."""
    dims = spec.state_dims
    offs = np.concatenate([[0], np.cumsum(dims)])
    n = int(offs[-1])
    v_dims = [spec.dynamics[j].disturbance_dim for j in range(spec.n_agents)]
    v_offs = np.concatenate([[0], np.cumsum(v_dims)])
    total_v = int(v_offs[-1])
    A = np.zeros((n, n))
    E = np.zeros((n, total_v))
    for k in range(spec.n_agents):
        ag = spec.dynamics[k]
        rows = slice(offs[k], offs[k + 1])
        for j, blk in ag.A.items():
            A[rows, offs[j]:offs[j + 1]] = blk
        if ag.disturbance_dim:
            E[rows, v_offs[k]:v_offs[k + 1]] = ag.E
    return A, E, offs, total_v


def disturbance_map(spec, i: int, *,
                    disturbance_lag: str = "paper") -> np.ndarray:
    """Matrix sending the stacked disturbance sequence ``d(0) .. d(H-1)`` to
    the perturbation of agent ``i``'s trajectory vector.

    State coordinates ``x_j(t)`` receive the accumulated network response;
    with the default lag convention the sum stops at ``tau = t-2`` (so the
    most recent disturbance does not yet show), while ``standard`` uses the
    one-step propagation ``tau <= t-1``.  Input coordinates stay zero.
    """
    check_choice(disturbance_lag, "disturbance_lag", DISTURBANCE_LAGS)
    index, H = spec.index, spec.horizon
    cols = index.horizon_axes(i)
    A, E, offs, total_v = _global_blocks(spec)
    L = np.zeros((len(cols), H * total_v))
    if not total_v or not H:
        return L
    shift = 2 if disturbance_lag == "paper" else 1
    max_pow = H - shift
    pow_E = []
    if max_pow >= 0:
        pow_E.append(E)
        for _ in range(max_pow):
            pow_E.append(A @ pow_E[-1])
    for t in range(H + 1):
        for j in index.members[i]:
            row_pos = cols.positions_of(index.own_state_axes(t, j))
            block_rows = slice(offs[j], offs[j + 1])
            for tau in range(t - shift + 1):
                L[row_pos, tau * total_v:(tau + 1) * total_v] \
                    += pow_E[t - tau - shift][block_rows, :]
    return L


def robust_margin(spec, i: int, G: np.ndarray, *,
                  disturbance_lag: str = "paper") -> np.ndarray:
    """Worst-case increase of every inequality row under admissible
    disturbances: ``margins[r] = max_d (G[r] . L d)`` with ``d`` ranging over
    the per-agent disturbance sets repeated over the horizon.

    The maximization is separable across (agent, step) blocks; coordinate
    boxes use the closed form (sum of positive parts at the upper bound and
    negative parts at the lower bound), anything else one small LP per block.
    """
    L = disturbance_map(spec, i, disturbance_lag=disturbance_lag)
    H = spec.horizon
    n_rows = G.shape[0]
    margins = np.zeros(n_rows)
    if not np.any(L):
        return margins
    C = G @ L
    if not np.isfinite(C).all():  # before any LP, which refuses inf data
        raise NumericalFailure(f"agent {i}: the disturbance response "
                               f"overflows over horizon {H}")
    v_dims = [spec.dynamics[j].disturbance_dim for j in range(spec.n_agents)]
    v_offs = np.concatenate([[0], np.cumsum(v_dims)])
    total_v = int(v_offs[-1])
    boxes = [None if not v_dims[j] else _box_bounds(spec.dynamics[j].disturbance_set)
             for j in range(spec.n_agents)]
    for r in range(n_rows):
        total = 0.0
        for tau in range(H):
            for j in range(spec.n_agents):
                if not v_dims[j]:
                    continue
                c = C[r, tau * total_v + v_offs[j]:tau * total_v + v_offs[j + 1]]
                if not np.any(c):
                    continue
                if boxes[j] is not None:
                    lo, hi = boxes[j]
                    total += float(np.sum(np.where(c > 0, c * hi, c * lo)))
                else:
                    total += lpsolve.support(spec.dynamics[j].disturbance_set, c)
        margins[r] = total
    return margins


# -- full assembly ------------------------------------------------------------


def assemble_robust_system(spec, i: int, *, task: str = "pre",
                           disturbance_lag: str = "paper") -> RobustLocalSystem:
    """Build the complete (possibly disturbance-tightened) local system of
    agent ``i`` for ``task`` (see ``NetworkSpec.window_sets``).  Matrix
    powers that overflow raise NumericalFailure before any margin LP."""
    G, g = build_inequalities(spec, i, task=task)
    margins = np.zeros(G.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        F, f = build_equalities(spec, i)
        if not (np.isfinite(F).all() and np.isfinite(f).all()):
            raise NumericalFailure(f"agent {i}: the closed-form dynamics "
                                   f"overflow over horizon {spec.horizon}")
        if any(agent.has_disturbance() for agent in spec.dynamics):
            margins = robust_margin(spec, i, G,
                                    disturbance_lag=disturbance_lag)
    if np.any(margins):
        logger.info("agent %d: disturbance margins tighten %d of %d rows",
                    i, int(np.count_nonzero(margins)), G.shape[0])
    return RobustLocalSystem(F, f, G, g, margins)
