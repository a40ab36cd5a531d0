"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the dumbest correct way and avoids
the package's own geometry code paths: hulls by gift wrapping, extremeness
by raw scipy LPs, joins by exhaustive pair checks.  The exceptions are
:func:`lp_only_prune` and :func:`lp_only_includes`, frozen copies of the
package's LP-per-row pruning and LP-per-face inclusion loops, kept to show
that the certificates in front of those LPs change no answer,
:func:`unique_rows` and :func:`loop_filter_dominated`, the row dedupes the
package used before its lexsort kernels, :func:`row_by_row_coupling_filter`,
the finite backend's coupling-row scan from before it multiplied the table
by the affine row vectors, and two small helpers built on
the package that tests compare against hand-built answers:
:func:`support_point` and :func:`goal_join`.  :func:`linprog_solve`
solves an ``lpsolve.LinearProgram`` through ``scipy.optimize.linprog``, the
public route to the HiGHS solver that :func:`lpsolve.solve` drives directly.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog

from reachnet import lpsolve
from reachnet.affine import CouplingRow
from reachnet.axisset import (
    QUANT_DECIMALS,
    finite_set,
    join_extrusions,
    polytope_set,
)
from reachnet.errors import EmptySet, NumericalFailure
from reachnet.polytope import ABS_TOL, HPolytope


def gift_wrap_2d(points) -> np.ndarray:
    """Convex hull vertices of a 2-D point cloud, counter-clockwise.

    Classic Jarvis march; collinear points on the hull boundary are skipped
    (only true corners are returned).
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if pts.shape[0] <= 2:
        return pts
    start = min(range(pts.shape[0]), key=lambda k: (pts[k, 0], pts[k, 1]))
    hull = [start]
    while True:
        cur = hull[-1]
        cand = (cur + 1) % pts.shape[0]
        for k in range(pts.shape[0]):
            if k == cur:
                continue
            u = pts[cand] - pts[cur]
            w = pts[k] - pts[cur]
            cross = u[0] * w[1] - u[1] * w[0]
            if cross < -1e-12 or (abs(cross) <= 1e-12
                                  and np.linalg.norm(pts[k] - pts[cur])
                                  > np.linalg.norm(pts[cand] - pts[cur])):
                cand = k
        if cand == start:
            break
        hull.append(cand)
        if len(hull) > pts.shape[0]:
            raise RuntimeError("gift wrapping failed to close")
    return pts[hull]


def extreme_points(points, tol: float = 1e-9) -> np.ndarray:
    """Extreme points of conv(points) by LP: p extreme iff p not in hull(rest)."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    keep = []
    for i in range(pts.shape[0]):
        rest = np.delete(pts, i, axis=0)
        if rest.shape[0] == 0:
            keep.append(i)
            continue
        # feasibility of p = sum l_j q_j, sum l_j = 1, l >= 0
        k = rest.shape[0]
        A_eq = np.vstack([rest.T, np.ones((1, k))])
        b_eq = np.hstack([pts[i], 1.0])
        res = linprog(np.zeros(k), A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                      method="highs")
        if res.status != 0:
            keep.append(i)
    return pts[keep]


def brute_join(labeled_points: list[tuple[list[int], np.ndarray]], target: list[int]):
    """Exhaustive natural join: try every combination of one row per table.

    ``labeled_points`` is a list of (axis labels, table) pairs; returns the
    joined rows over the sorted ``target`` labels.
    """
    target = sorted(target)
    out = set()
    tables = [np.atleast_2d(np.asarray(t, dtype=float)) for _, t in labeled_points]
    axes = [list(a) for a, _ in labeled_points]
    for combo in itertools.product(*[range(t.shape[0]) for t in tables]):
        assignment: dict[int, float] = {}
        ok = True
        for (labs, tab, ridx) in zip(axes, tables, combo):
            for lab, val in zip(labs, tab[ridx]):
                v = round(float(val), 9)
                if lab in assignment and assignment[lab] != v:
                    ok = False
                    break
                assignment[lab] = v
            if not ok:
                break
        if ok and all(lab in assignment for lab in target):
            out.add(tuple(assignment[lab] for lab in target))
    return np.array(sorted(out)) if out else np.zeros((0, len(target)))


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two finite point sets."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.inf
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def box_vertices(lo, hi) -> np.ndarray:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    corners = list(itertools.product(*[(l, h) for l, h in zip(lo, hi)]))
    return np.array(corners)


def support_of_points(points, direction) -> float:
    return float(np.max(np.asarray(points) @ np.asarray(direction)))


def support_point(poly: HPolytope, direction) -> tuple[float, np.ndarray]:
    """The support value of ``poly`` in ``direction`` and a maximizer, from
    one :func:`reachnet.lpsolve.solve` call (bounded nonempty sets only)."""
    d = np.atleast_1d(np.asarray(direction, dtype=float))
    if poly.trivially_empty:
        raise EmptySet("support of an empty set")
    res = lpsolve.solve(lpsolve.LinearProgram(d, poly.A_ineq, poly.b_ineq,
                                              poly.A_eq, poly.b_eq))
    if res.status == lpsolve.INFEASIBLE:
        raise EmptySet("support of an empty set")
    if res.status == lpsolve.UNBOUNDED:
        raise NumericalFailure("no maximizer: unbounded direction")
    return res.value, res.point


def goal_join(spec, index=None):
    """The global goal set induced by the per-agent goals: the join of their
    cylinder extensions over the step-H state coordinates."""
    if index is None:
        index = spec.index
    H = spec.horizon
    parts = []
    for i in range(spec.n_agents):
        axes = index.nbhd_state_axes(H, i)
        if spec.backend == "affine":
            parts.append(polytope_set(axes, spec.goal_sets[i]))
        else:
            parts.append(finite_set(axes, [list(p) for p in spec.goal_sets[i]]))
    return join_extrusions(parts, index.global_state_axes(H))


def lifted_support(hulls, target, direction):
    """Support of the joined set in one direction, by one big raw LP.

    ``hulls`` is a list of (labels, vertex array) pairs; the joined set
    lives over the union of all labels and its projection onto ``target``
    is probed.  Variables: one z per union label plus one convex-weight
    vector per hull, tied by V_i' lam_i = z[labels_i].  Entirely
    independent of the package's half-space machinery.
    """
    union = sorted({lab for labs, _ in hulls for lab in labs})
    pos = {lab: k for k, lab in enumerate(union)}
    n_z = len(union)
    sizes = [np.asarray(v, dtype=float).shape[0] for _, v in hulls]
    n_var = n_z + sum(sizes)

    A_eq, b_eq = [], []
    off = n_z
    for (labs, verts), k in zip(hulls, sizes):
        verts = np.asarray(verts, dtype=float)
        for col, lab in enumerate(labs):
            row = np.zeros(n_var)
            row[pos[lab]] = -1.0
            row[off:off + k] = verts[:, col]
            A_eq.append(row)
            b_eq.append(0.0)
        row = np.zeros(n_var)
        row[off:off + k] = 1.0
        A_eq.append(row)
        b_eq.append(1.0)
        off += k

    c = np.zeros(n_var)
    for d_val, lab in zip(direction, target):
        c[pos[lab]] = -float(d_val)  # linprog minimizes
    bounds = [(None, None)] * n_z + [(0, None)] * sum(sizes)
    res = linprog(c, A_eq=np.array(A_eq), b_eq=np.array(b_eq),
                  bounds=bounds, method="highs")
    if res.status == 2:
        return None  # joined set is empty
    assert res.status == 0, f"oracle LP failed: {res.message}"
    return float(-res.fun)


def simulate_network(spec, starts, inputs):
    """Forward-simulate coupled affine dynamics step by step.

    ``starts[i]`` is agent i's initial state vector; ``inputs[t][i]`` its
    input vector at step t.  Returns ``states`` with ``states[t][i]``.
    Implements the one-step update directly (x_i' = sum_j A_ij x_j +
    sum_j B_ij u_j + K_i) rather than any closed form.
    """
    states = [[np.atleast_1d(np.asarray(x, dtype=float)) for x in starts]]
    n_agents = len(starts)
    for t in range(len(inputs) - 1):
        nxt = []
        for i in range(n_agents):
            ag = spec.dynamics[i]
            x = np.array(ag.K, dtype=float)
            for j, block in ag.A.items():
                x = x + np.asarray(block, dtype=float) @ states[t][j]
            for j, block in ag.B.items():
                x = x + np.asarray(block, dtype=float) @ np.atleast_1d(
                    np.asarray(inputs[t][j], dtype=float))
            nxt.append(x)
        states.append(nxt)
    return states


def pack_trajectory(states, inputs):
    """Stack [x(0) all agents, u(0) all agents, x(1), ...] into one vector."""
    parts = []
    for t in range(len(states)):
        parts.extend(states[t])
        parts.extend(np.atleast_1d(np.asarray(u, dtype=float))
                     for u in inputs[t])
    return np.hstack(parts)


def _coupling_holds(row, xs, us, tol=1e-9):
    if callable(row):
        return bool(row(dict(enumerate(xs)), dict(enumerate(us))))
    val = float(row.offset)
    for j, c in row.state_coefs.items():
        val += float(np.dot(c, xs[j]))
    for j, c in row.input_coefs.items():
        val += float(np.dot(c, us[j]))
    return abs(val) <= tol if row.relation == "=" else val <= tol


def row_by_row_coupling_filter(spec, index, i: int, points) -> np.ndarray:
    """Rows of ``points``, a table over agent i's window, that meet every
    coupling row of agent i at every t < H, scanned one table row and one
    step at a time.  Each table row stops at its first failing (step, row),
    steps first; a callable row gets per-agent dicts of quantized tuples.
    """
    cols = index.horizon_axes(i)
    steps = [tuple({j: axes(t, j).labels for j in index.members[i]}
                   for axes in (index.own_state_axes, index.own_input_axes))
             for t in range(spec.horizon)]

    def holds(row, states: dict, inputs: dict) -> bool:
        if not isinstance(row, CouplingRow):
            return bool(row(states, inputs))
        return _coupling_holds(row, states, inputs, ABS_TOL)

    def admissible(z) -> bool:
        quantized = np.round(np.asarray(z, dtype=float), QUANT_DECIMALS) + 0.0
        at = dict(zip(cols.labels, map(float, quantized)))
        for state_labels, input_labels in steps:
            xs = {j: tuple(at[k] for k in labs) for j, labs in state_labels.items()}
            us = {j: tuple(at[k] for k in labs) for j, labs in input_labels.items()}
            if not all(holds(row, xs, us) for row in spec.couplings[i]):
                return False
        return True

    kept = [z for z in np.asarray(points, dtype=float) if admissible(z)]
    return np.reshape(kept, (len(kept), len(cols)))


def finite_forward_trajectories(spec, task="pre"):
    """All admissible global trajectories of a finite-transition network,
    found by forward depth-first search over the transition relations.

    Completely independent route: instead of filtering a constraint system,
    it grows trajectories step by step and checks goals/partitions/couplings
    as it goes.  Returns the set of stacked trajectory tuples in the order
    [x(0) all agents, u(0) all agents, x(1), ...].
    """
    n = spec.n_agents
    H = spec.horizon
    members = [spec.members(i) for i in range(n)]
    dyn_members = [tuple(sorted(set(spec.dyn_neighbors[i]) | {i}))
                   for i in range(n)]

    def stacked(vals, who):
        return tuple(v for j in who for v in vals[j])

    def allowed(i, xs, us, nxt):
        key = (stacked(xs, dyn_members[i]), stacked(us, dyn_members[i]),
               tuple(nxt))
        return key in spec.dynamics[i].transitions

    def family_ok(fam, t_range, xs_by_t):
        if fam is None:
            return True
        for i in range(n):
            if fam[i] is None:
                continue
            for t in t_range:
                if stacked(xs_by_t[t], members[i]) not in set(fam[i]):
                    return False
        return True

    out = set()
    state_alpha = [list(spec.state_sets[i]) for i in range(n)]
    input_alpha = [list(spec.input_sets[i]) for i in range(n)]

    def extend(t, xs_by_t, us_by_t):
        if t == H:
            for us in itertools.product(*input_alpha):
                traj_us = us_by_t + [list(us)]
                ok = all(stacked(xs_by_t[H], members[i])
                         in set(spec.goal_sets[i]) for i in range(n))
                if ok and task == "reach-check" and spec.start_sets is not None:
                    ok = family_ok(spec.start_sets, [0], xs_by_t)
                if ok:
                    ok = family_ok(spec.start_partitions, range(H), xs_by_t)
                if ok:
                    states = [[np.array(x) for x in step] for step in xs_by_t]
                    inputs = [[np.array(u) for u in step] for step in traj_us]
                    out.add(tuple(pack_trajectory(states, inputs)))
            return
        for us in itertools.product(*input_alpha):
            xs = xs_by_t[t]
            if not all(_coupling_holds(row, xs, list(us))
                       for i in range(n) for row in spec.couplings[i]):
                continue
            for nxts in itertools.product(*state_alpha):
                if all(allowed(i, xs, list(us), nxts[i]) for i in range(n)):
                    extend(t + 1, xs_by_t + [list(nxts)],
                           us_by_t + [list(us)])

    for x0 in itertools.product(*state_alpha):
        extend(0, [list(x0)], [])
    return out


def disturbance_response(spec, d_seq, lag="paper"):
    """Trajectory perturbation caused by a disturbance sequence.

    ``d_seq[t][i]`` is agent i's disturbance vector at step t (t = 0..H-1).
    Runs the raw recursion resp(t+1) = sum_j A_ij resp_j(t) + E_i d_i(s)
    with s = t under the one-step ("standard") convention and s = t-1
    (d(-1) = 0) under the delayed ("paper") convention.  Returns
    ``resp[t][i]`` for t = 0..H, with resp(0) = 0.
    """
    n_agents = spec.n_agents
    horizon = len(d_seq)
    resp = [[np.zeros(spec.state_dims[i]) for i in range(n_agents)]]
    for t in range(horizon):
        s = t if lag == "standard" else t - 1
        nxt = []
        for i in range(n_agents):
            ag = spec.dynamics[i]
            x = np.zeros(spec.state_dims[i])
            for j, block in ag.A.items():
                x = x + np.asarray(block, dtype=float) @ resp[t][j]
            if ag.E is not None and s >= 0:
                x = x + np.asarray(ag.E, dtype=float) @ np.atleast_1d(
                    np.asarray(d_seq[s][i], dtype=float))
            nxt.append(x)
        resp.append(nxt)
    return resp


def monolithic_affine_system(spec, task="pre", lag="paper"):
    """The global trajectory system of an affine network, in one piece.

    Writes ``(A_ub, b_ub, A_eq, b_eq)`` over the whole trajectory vector
    [x(0) all agents, u(0) all agents, x(1), ...] straight from the one-step
    recursion ``x_i(t+1) - sum_j A_ij x_j(t) - sum_j B_ij u_j(t) = K_i``,
    with the state/input sets, coupling rows, start sets (reach-check),
    start partitions and goals as inequality rows.  Every inequality row is
    tightened by its worst-case disturbance response, built column by column
    from :func:`disturbance_response` unit impulses and maximized over each
    (step, agent) disturbance set by one raw scipy LP.
    """
    n, H = spec.n_agents, spec.horizon
    s_off = np.concatenate([[0], np.cumsum(spec.state_dims)]).astype(int)
    u_off = np.concatenate([[0], np.cumsum(spec.input_dims)]).astype(int)
    step = int(s_off[-1] + u_off[-1])
    width = (H + 1) * step

    def xs(t, j):
        return list(range(t * step + s_off[j], t * step + s_off[j + 1]))

    def us(t, j):
        base = t * step + s_off[-1]
        return list(range(base + u_off[j], base + u_off[j + 1]))

    def stack(t, i):
        return [p for j in spec.members(i) for p in xs(t, j)]

    A_eq, b_eq = [], []
    for i in range(n):
        ag = spec.dynamics[i]
        for t in range(H):
            R = np.zeros((spec.state_dims[i], width))
            R[:, xs(t + 1, i)] = np.eye(spec.state_dims[i])
            for j, blk in ag.A.items():
                R[:, xs(t, j)] -= blk
            for j, blk in ag.B.items():
                R[:, us(t, j)] -= blk
            A_eq.extend(R)
            b_eq.extend(ag.K)

    A_ub, b_ub = [], []

    def add(poly, positions):
        rows = [(a, b) for a, b in zip(poly.A_ineq, poly.b_ineq)]
        rows += [(s * a, s * b) for a, b in zip(poly.A_eq, poly.b_eq)
                 for s in (1.0, -1.0)]
        if poly.trivially_empty:
            rows.append((np.zeros(poly.dim), -1.0))
        for a, b in rows:
            row = np.zeros(width)
            row[positions] = a
            A_ub.append(row)
            b_ub.append(b)

    for t in range(H + 1):
        for j in range(n):
            add(spec.state_sets[j], xs(t, j))
            if spec.input_dims[j]:
                add(spec.input_sets[j], us(t, j))
    for i in range(n):
        for row in spec.couplings[i]:
            for t in range(H):
                vec = np.zeros(width)
                for j, c in row.state_coefs.items():
                    vec[xs(t, j)] = c
                for j, c in row.input_coefs.items():
                    vec[us(t, j)] = c
                signs = (1.0, -1.0) if row.relation == "=" else (1.0,)
                for s in signs:
                    A_ub.append(s * vec)
                    b_ub.append(-s * row.offset)
    for i in range(n):
        if task == "reach-check" and spec.start_sets is not None \
                and spec.start_sets[i] is not None:
            add(spec.start_sets[i], stack(0, i))
        if spec.start_partitions is not None \
                and spec.start_partitions[i] is not None:
            for t in range(H):
                add(spec.start_partitions[i], stack(t, i))
        add(spec.goal_sets[i], stack(H, i))

    A_ub = np.array(A_ub).reshape(-1, width)
    b_ub = np.array(b_ub, dtype=float)
    v_dims = [spec.dynamics[j].disturbance_dim for j in range(n)]
    for tau in range(H):
        for j in range(n):
            if not v_dims[j]:
                continue
            # response of the trajectory to each coordinate of d_j(tau)
            L = np.zeros((width, v_dims[j]))
            for k in range(v_dims[j]):
                d_seq = [[np.zeros(v_dims[a]) for a in range(n)]
                         for _ in range(H)]
                d_seq[tau][j][k] = 1.0
                resp = disturbance_response(spec, d_seq, lag)
                for t in range(H + 1):
                    for a in range(n):
                        L[xs(t, a), k] = resp[t][a]
            dset = spec.dynamics[j].disturbance_set
            for r, c in enumerate(A_ub @ L):
                if not np.any(c):
                    continue
                res = linprog(-c, A_ub=dset.A_ineq, b_ub=dset.b_ineq,
                              A_eq=dset.A_eq if dset.A_eq.size else None,
                              b_eq=dset.b_eq if dset.A_eq.size else None,
                              bounds=(None, None), method="highs")
                assert res.status == 0, f"oracle LP failed: {res.message}"
                b_ub[r] += res.fun  # minus the worst-case increase
    A_eq = np.array(A_eq).reshape(-1, width)
    return A_ub, b_ub, A_eq, np.array(b_eq, dtype=float)


def linprog_solve(lp, pivot_cap: int = lpsolve.DEFAULT_PIVOT_CAP) -> lpsolve.LpResult:
    """``lpsolve.solve`` through ``scipy.optimize.linprog(method="highs-ds")``,
    with the same verdicts, duals and NumericalFailure."""
    res = linprog(
        -lp.objective,
        A_ub=lp.A_ineq if lp.A_ineq.size else None,
        b_ub=lp.b_ineq if lp.b_ineq.size else None,
        A_eq=lp.A_eq if lp.A_eq.size else None,
        b_eq=lp.b_eq if lp.b_eq.size else None,
        bounds=(None, None),
        method="highs-ds",
        options={"maxiter": pivot_cap},
    )
    if res.status == 0:
        ineq_duals = (-res.ineqlin.marginals if lp.A_ineq.size else np.zeros(0))
        eq_duals = (-res.eqlin.marginals if lp.A_eq.size else np.zeros(0))
        return lpsolve.LpResult(
            lpsolve.OPTIMAL,
            value=float(-res.fun),
            point=np.asarray(res.x, dtype=float),
            ineq_duals=np.asarray(ineq_duals, dtype=float),
            eq_duals=np.asarray(eq_duals, dtype=float),
        )
    # status 2 also covers a model HiGHS rejects; only its infeasible
    # verdict says so in the message
    if res.status == 2 and "infeasible" in res.message.lower():
        return lpsolve.LpResult(lpsolve.INFEASIBLE)
    if res.status == 3:
        return lpsolve.LpResult(lpsolve.UNBOUNDED)
    raise NumericalFailure(f"linprog stopped without a verdict: {res.message}")


def lp_only_prune(p, tol: float = 1e-9, merge_equalities: bool = False):
    """``polytope.prune`` as it was before ray-shooting certificates: one LP
    per inequality row, in order, each against the rows still kept."""
    if p.is_empty():
        return HPolytope.empty(p.dim)
    G, g = [np.array(m) for m in (p.A_ineq, p.b_ineq)]
    F, f = [np.array(m) for m in (p.A_eq, p.b_eq)]
    if merge_equalities and G.shape[0]:
        used = np.zeros(G.shape[0], dtype=bool)
        eq_rows, eq_rhs = [], []
        for i in range(G.shape[0]):
            if used[i]:
                continue
            opposite = np.all(np.abs(G + G[i]) <= 1e-10, axis=1) & ~used
            opposite[i] = False
            hit = np.nonzero(opposite & (np.abs(g + g[i]) <= tol))[0]
            if hit.size:
                used[i] = used[hit[0]] = True
                eq_rows.append(G[i])
                eq_rhs.append(g[i])
        if eq_rows:
            G, g = G[~used], g[~used]
            F = np.vstack([F, np.array(eq_rows)])
            f = np.hstack([f, np.array(eq_rhs)])
    active = list(range(G.shape[0]))
    for i in list(active):
        others = [j for j in active if j != i]
        trial = lpsolve.LinearProgram(G[i], G[others], g[others], F, f)
        res = lpsolve.solve(trial)
        if res.status == lpsolve.OPTIMAL and res.value <= g[i] + tol:
            active.remove(i)
        # unbounded or (numerically) infeasible: keep the row
    return HPolytope(G[active], g[active], F, f, dim=p.dim)


def lp_only_includes(p, q, tol: float = 1e-9) -> bool:
    """``polytope.includes`` as it was before row-match bounds: one support
    LP of q per face of p, in order, stopping at the first face q crosses."""
    if q.is_empty():
        return True
    if p.is_empty():
        return False
    directions = list(zip(p.A_ineq, p.b_ineq))
    for a, b in zip(p.A_eq, p.b_eq):
        directions += [(a, b), (-a, -b)]
    for a, b in directions:
        try:
            s = lpsolve.support(q, a)
        except EmptySet:
            return True
        if s > b + tol:
            return False
    return True


def unique_rows(A, b):
    """The rows of ``A z <= b`` without those equal to an earlier row after
    rounding to 12 decimals, by ``np.unique(axis=0)``: the dedupe step of
    ``polytope._normalize_system`` before its lexsort kernel."""
    key = np.round(np.hstack([A, b[:, None]]), 12)
    _, idx = np.unique(key, axis=0, return_index=True)
    idx = np.sort(idx)
    return A[idx], b[idx]


def loop_filter_dominated(G, g):
    """``polytope._filter_dominated`` as a Python loop over the rows in
    sorted order, as it was before its vectorized kernel."""
    if not G.shape[0]:
        return G, g
    key = np.round(G, 10)
    keep = []
    last_key = None
    for idx in np.lexsort(key.T[::-1]):
        k = key[idx].tobytes()
        if k == last_key:
            if g[idx] < g[keep[-1]]:
                keep[-1] = idx
        else:
            keep.append(idx)
            last_key = k
    keep = sorted(keep)
    return G[keep], g[keep]
