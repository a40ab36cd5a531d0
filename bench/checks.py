"""Answer checks that do not go through reachnet.

Each reference is computed from the generated instance data alone: the
affine workload assembles the monolithic trajectory LP itself and solves
it with ``scipy.optimize.linprog``; the finite workload searches the global
state space backwards.

Answers arrive as plain data (see ``run.answer_of``): for every reported
set its axis labels and either its rows ``(A_ineq, b_ineq, A_eq, b_eq)``
(polytopes) or a set of point tuples (finite sets).  Each check returns a list of
error strings, empty when the answer is right.  Labels follow reachnet's
documented layout: coordinates are numbered from 1 step by step, states of
every agent first, then inputs; every agent here has one state and one
input, so agent ``j``'s step-0 state is label ``j + 1``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog

from workloads import FINITE_INPUTS, FINITE_STATES, chain_members

RANDOM_DIRECTIONS = 4
#: A support value may differ from the reference by this share of
#: max(1, |reference|).
SUPPORT_RTOL = 1e-6


def _max_linear(c, A_ub, b_ub, A_eq, b_eq, bounds):
    """max c.z by linprog: (status, value); status 0 optimal, 2 infeasible,
    3 unbounded."""
    res = linprog(-np.asarray(c, dtype=float), A_ub=A_ub, b_ub=b_ub,
                  A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    return res.status, (-res.fun if res.status == 0 else math.nan)


# -- affine workload ------------------------------------------------------------------


def monolithic_lp(inst):
    """The whole network's trajectory polytope over
    ``x_j(t), t = 0..H`` then ``u_j(t), t = 0..H-1``, as linprog arrays.

    Inputs at step H constrain nothing and are left out.
    """
    n, H = inst.n, inst.horizon
    nx = (H + 1) * n
    nvar = nx + H * n

    def x(t, j):
        return t * n + j

    def u(t, j):
        return nx + t * n + j

    eq_rows, eq_rhs, ub_rows, ub_rhs = [], [], [], []
    for t in range(H):
        for i in range(n):
            row = np.zeros(nvar)
            row[x(t + 1, i)] = 1.0
            row[x(t, i)] -= inst.a[i]
            if i > 0:
                row[x(t, i - 1)] -= inst.c[i]
            row[u(t, i)] -= inst.b[i]
            eq_rows.append(row)
            eq_rhs.append(inst.k[i])
            if i > 0:
                row = np.zeros(nvar)
                row[x(t, i - 1)] = inst.p[i]
                row[x(t, i)] = inst.q[i]
                ub_rows.append(row)
                ub_rhs.append(inst.r[i])
    for i in range(n):
        cols = [x(H, j) for j in chain_members(n, i)]
        for a, b in zip(inst.goal_A[i], inst.goal_b[i]):
            row = np.zeros(nvar)
            row[cols] = a
            ub_rows.append(row)
            ub_rhs.append(b)
    bounds = ([(-inst.xmax[j], inst.xmax[j]) for _ in range(H + 1) for j in range(n)]
              + [(-inst.umax[j], inst.umax[j]) for _ in range(H) for j in range(n)])
    A_eq = np.array(eq_rows) if eq_rows else None
    b_eq = np.array(eq_rhs) if eq_rhs else None
    return np.array(ub_rows), np.array(ub_rhs), A_eq, b_eq, bounds


def affine_reference(inst, rng: np.random.Generator) -> list:
    """Per agent: its neighbourhood, the directions to probe and the
    monolithic support values of the neighbourhood's step-0 states in them."""
    A_ub, b_ub, A_eq, b_eq, bounds = monolithic_lp(inst)
    nvar = len(bounds)
    out = []
    for view in (chain_members(inst.n, i) for i in range(inst.n)):
        d = len(view)
        eye = np.eye(d)
        rand = rng.normal(size=(RANDOM_DIRECTIONS, d))
        dirs = np.vstack([eye, -eye, rand / np.linalg.norm(rand, axis=1)[:, None]])
        values = []
        for direction in dirs:
            c = np.zeros(nvar)
            c[list(view)] = direction  # x_j(0) sits in column j
            status, value = _max_linear(c, A_ub, b_ub, A_eq, b_eq, bounds)
            if status != 0:
                raise RuntimeError(f"reference LP failed with status {status}")
            values.append(value)
        out.append((view, dirs, np.array(values)))
    return out


def check_affine(reference, answer) -> list[str]:
    """Every reported start set must be nonempty and bounded, and match the
    monolithic support values within :data:`SUPPORT_RTOL`."""
    errors = []
    if len(answer) != len(reference):
        return [f"{len(answer)} start sets reported, {len(reference)} expected"]
    for k, ((view, dirs, ref), (labels, A, b, F, f)) in enumerate(zip(reference, answer)):
        want = tuple(j + 1 for j in view)
        if tuple(labels) != want:
            errors.append(f"set {k}: axes {tuple(labels)}, expected {want}")
            continue
        A_eq = F if len(F) else None
        b_eq = f if len(f) else None
        A_ub = A if len(A) else None
        b_ub = b if len(b) else None
        free = [(None, None)] * len(view)
        for direction, expected in zip(dirs, ref):
            status, value = _max_linear(direction, A_ub, b_ub, A_eq, b_eq, free)
            if status == 2:
                errors.append(f"set {k}: empty")
                break
            if status == 3:
                errors.append(f"set {k}: unbounded in direction {direction}")
                break
            if status != 0:
                errors.append(f"set {k}: support LP failed with status {status}")
                break
            if abs(value - expected) > SUPPORT_RTOL * max(1.0, abs(expected)):
                errors.append(f"set {k}: support {value!r} in direction "
                              f"{direction}, monolithic LP gives {expected!r}")
    return errors


# -- finite workload -------------------------------------------------------------------


def finite_reference(inst) -> list:
    """Per node: the labels and the set of step-0 neighbourhood state stacks
    from which some trajectory meets every goal at step H."""
    n = inst.n
    states = list(itertools.product(FINITE_STATES, repeat=n))
    members = [chain_members(n, i) for i in range(n)]

    def reachable_next(x, i):
        return {inst.step[i][(x[i], u) if i == 0 else (x[i - 1], x[i], u)]
                for u in FINITE_INPUTS}

    good = {x for x in states
            if all(tuple(x[j] for j in members[i]) in inst.goal[i] for i in range(n))}
    for _ in range(inst.horizon):
        good = {x for x in states
                if _some_successor(good, [reachable_next(x, i) for i in range(n)])}
    return [(tuple(j + 1 for j in members[i]),
             {tuple(float(x[j]) for j in members[i]) for x in good})
            for i in range(n)]


def _some_successor(good, allowed) -> bool:
    return any(all(y[i] in allowed[i] for i in range(len(allowed))) for y in good)


def check_finite(reference, answer) -> list[str]:
    """Every reported start set must hold exactly the reference points."""
    if len(answer) != len(reference):
        return [f"{len(answer)} sets reported, {len(reference)} expected"]
    errors = []
    for k, ((want_labels, want), (labels, got)) in enumerate(zip(reference, answer)):
        if tuple(labels) != tuple(want_labels):
            errors.append(f"set {k}: axes {tuple(labels)}, expected {want_labels}")
        elif got != want:
            errors.append(f"set {k}: {len(got - want)} extra rows, "
                          f"{len(want - got)} missing rows")
    return errors


def reference(workload: str, inst, rng: np.random.Generator):
    if workload == "affine-distributed":
        return affine_reference(inst, rng)
    return finite_reference(inst)


def check(workload: str, ref, answer) -> list[str]:
    if workload == "affine-distributed":
        return check_affine(ref, answer)
    return check_finite(ref, answer)
