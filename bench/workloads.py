"""Seeded instance generators for the two benchmark workloads.

Every generator returns plain data (numbers, tuples, numpy arrays) that the
answer checks in :mod:`checks` read directly; :func:`build` turns that data
into reachnet inputs and :func:`solve` calls their public entry point,
``run_distributed_reachability``.  All networks are chains: agent ``i``
reads agent ``i - 1`` and talks to ``i - 1`` and ``i + 1``.  The README
explains why rings and grids are left out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from reachnet import reachability
from reachnet.affine import AffineAgent, CouplingRow
from reachnet.polytope import HPolytope

WORKLOADS = ("affine-distributed", "finite-distributed")

#: (agents, horizon) of each instance, in solve order.
AFFINE_DISTRIBUTED_SIZES = ((3, 1), (3, 1), (2, 2))
FINITE_SIZES = ((3, 1), (3, 1))
FINITE_STATES = (0, 1, 2)
FINITE_INPUTS = (0, 1)
FINITE_GOAL_DENSITY = 0.35


def chain_members(n: int, i: int) -> tuple[int, ...]:
    """Communication neighbourhood of agent ``i`` on a chain of ``n``."""
    return tuple(j for j in (i - 1, i, i + 1) if 0 <= j < n)


# -- affine chains ---------------------------------------------------------------


@dataclass(frozen=True)
class AffineChain:
    """Scalar agents ``x_i(t+1) = a_i x_i + c_i x_{i-1} + b_i u_i + k_i``.

    ``x_i`` ranges over ``[-xmax_i, xmax_i]`` and ``u_i`` over
    ``[-umax_i, umax_i]`` at every step.  Agent ``i >= 1`` owns the coupling
    row ``p_i x_{i-1} + q_i x_i <= r_i`` at steps ``0 .. H-1``.  Agent i's
    goal ``goal_A[i] z <= goal_b[i]`` holds at step ``H`` on the stacked
    states ``z`` of :func:`chain_members`.  The all-zero state is inside
    every set, so each instance is feasible.
    """

    n: int
    horizon: int
    a: np.ndarray
    c: np.ndarray
    b: np.ndarray
    k: np.ndarray
    xmax: np.ndarray
    umax: np.ndarray
    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    goal_A: tuple
    goal_b: tuple


def affine_chain(rng: np.random.Generator, n: int, horizon: int) -> AffineChain:
    goal_A, goal_b = [], []
    for i in range(n):
        d = len(chain_members(n, i))
        half = rng.uniform(1.5, 2.5, size=d)
        eye = np.eye(d)
        signs = np.vstack([np.ones(d), (-1.0) ** np.arange(d)])
        mix = signs * rng.uniform(0.5, 1.0, size=(2, d))
        goal_A.append(np.vstack([eye, -eye, mix]))
        goal_b.append(np.hstack([half, half, rng.uniform(1.0, 2.0, size=2)]))
    return AffineChain(
        n=n, horizon=horizon,
        a=rng.uniform(0.9, 1.1, size=n),
        c=np.where(np.arange(n) > 0, rng.uniform(0.3, 0.6, size=n), 0.0),
        b=rng.uniform(0.8, 1.2, size=n),
        k=rng.uniform(-0.05, 0.05, size=n),
        xmax=rng.uniform(4.5, 5.5, size=n),
        umax=rng.uniform(0.9, 1.1, size=n),
        p=rng.uniform(0.5, 1.0, size=n),
        q=rng.uniform(0.5, 1.0, size=n),
        r=rng.uniform(3.0, 4.0, size=n),
        goal_A=tuple(goal_A), goal_b=tuple(goal_b),
    )


def affine_spec(inst: AffineChain):
    n = inst.n
    agents, couplings = [], []
    for i in range(n):
        A = {i: [[inst.a[i]]]}
        if i > 0:
            A[i - 1] = [[inst.c[i]]]
        agents.append(AffineAgent(1, 1, A=A, B={i: [[inst.b[i]]]}, K=[inst.k[i]]))
        couplings.append(() if i == 0 else (CouplingRow(
            {i - 1: [inst.p[i]], i: [inst.q[i]]}, {}, -inst.r[i]),))
    return reachability.NetworkSpec(
        state_dims=(1,) * n, input_dims=(1,) * n,
        dyn_neighbors=tuple(() if i == 0 else (i - 1,) for i in range(n)),
        con_neighbors=tuple(() if i == 0 else (i - 1,) for i in range(n)),
        horizon=inst.horizon,
        state_sets=tuple(HPolytope.from_box([-x], [x]) for x in inst.xmax),
        input_sets=tuple(HPolytope.from_box([-u], [u]) for u in inst.umax),
        goal_sets=tuple(HPolytope(A, b) for A, b in zip(inst.goal_A, inst.goal_b)),
        dynamics=tuple(agents), couplings=tuple(couplings))


# -- finite chains ---------------------------------------------------------------


@dataclass(frozen=True)
class FiniteChain:
    """Finite agents over the states :data:`FINITE_STATES` and the inputs
    :data:`FINITE_INPUTS`.

    ``step[i]`` maps ``(x_{i-1}, x_i, u_i)`` (``(x_0, u_0)`` for agent 0) to
    agent ``i``'s next state; the neighbour's input does not matter.
    ``goal[i]`` is the set of allowed step-``H`` state stacks over
    :func:`chain_members`.  One random trajectory is planted in the goals,
    so every start set is nonempty.
    """

    n: int
    horizon: int
    step: tuple
    goal: tuple


def finite_chain(rng: np.random.Generator, n: int, horizon: int) -> FiniteChain:
    states = len(FINITE_STATES)
    steps, goals = [], []
    for i in range(n):
        arity = 2 if i == 0 else 3
        keys = itertools.product(*([FINITE_STATES] * (arity - 1) + [FINITE_INPUTS]))
        steps.append({key: int(rng.integers(states)) for key in keys})
        stacks = itertools.product(FINITE_STATES, repeat=len(chain_members(n, i)))
        goals.append({s for s in stacks if rng.random() < FINITE_GOAL_DENSITY})
    x = [int(v) for v in rng.integers(states, size=n)]
    for _ in range(horizon):
        u = rng.integers(len(FINITE_INPUTS), size=n)
        x = [steps[i][(x[i], int(u[i])) if i == 0 else (x[i - 1], x[i], int(u[i]))]
             for i in range(n)]
    for i in range(n):
        goals[i].add(tuple(x[j] for j in chain_members(n, i)))
    return FiniteChain(n, horizon, tuple(steps), tuple(frozenset(g) for g in goals))


def finite_spec(inst: FiniteChain):
    n = inst.n
    dynamics = []
    for i in range(n):
        rows = set()
        for key, nxt in inst.step[i].items():
            if i == 0:
                rows.add(((key[0],), (key[1],), (nxt,)))
            else:
                rows.update(((key[0], key[1]), (u_prev, key[2]), (nxt,))
                            for u_prev in FINITE_INPUTS)
        dynamics.append(reachability.FiniteDynamics(frozenset(rows)))
    return reachability.NetworkSpec(
        state_dims=(1,) * n, input_dims=(1,) * n,
        dyn_neighbors=tuple(() if i == 0 else (i - 1,) for i in range(n)),
        con_neighbors=((),) * n,
        horizon=inst.horizon,
        state_sets=tuple([(v,) for v in FINITE_STATES] for _ in range(n)),
        input_sets=tuple([(v,) for v in FINITE_INPUTS] for _ in range(n)),
        goal_sets=tuple(sorted(g) for g in inst.goal),
        dynamics=tuple(dynamics))


# -- workload level -------------------------------------------------------------------


def make(workload: str, seed: int) -> list:
    """The workload's instances as plain data; the same seed gives the same
    instances."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "affine-distributed":
        return [affine_chain(rng, n, h) for n, h in AFFINE_DISTRIBUTED_SIZES]
    if workload == "finite-distributed":
        return [finite_chain(rng, n, h) for n, h in FINITE_SIZES]
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, inst):
    """The reachnet input for one instance."""
    if workload == "affine-distributed":
        return affine_spec(inst)
    return finite_spec(inst)


def solve(problem):
    """Solve one instance through the public entry point."""
    return reachability.run_distributed_reachability(problem)
