"""Polytope geometry: hulls, vertex enumeration, elimination, serialization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reachnet import lpsolve
from reachnet import polytope as pl
from reachnet.errors import (
    DegenerateInput,
    EliminationBlowup,
    EmptySet,
    NumericalFailure,
    ParseError,
    UnboundedSet,
)

from .oracles import (
    extreme_points,
    gift_wrap_2d,
    hausdorff,
    loop_filter_dominated,
    lp_only_includes,
    lp_only_prune,
    per_column_eliminate,
    unique_rows,
)


def support_gap(p, q, extra_dirs=()):
    """Max absolute support difference over both row systems plus extras."""
    dirs = [a for a in p.A_ineq] + [a for a in q.A_ineq] + list(extra_dirs)
    for a in list(p.A_eq) + list(q.A_eq):
        dirs.extend([a, -a])
    gap = 0.0
    for a in dirs:
        gap = max(gap, abs(lpsolve.support(p, a) - lpsolve.support(q, a)))
    return gap


# ---- construction and membership -------------------------------------------


def test_from_box_contains_corners():
    box = pl.HPolytope.from_box([-1, 0], [2, 3])
    for z in [(-1, 0), (2, 3), (0.5, 1.5)]:
        assert box.contains(z)
    assert not box.contains((2.1, 0))


def test_from_vertices_contains_all_inputs():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        pts = rng.normal(size=(12, d)) * 3
        hull = pl.from_vertices(pts)
        for z in pts:
            assert hull.contains(z, tol=1e-9)


def test_from_vertices_rejects_empty():
    with pytest.raises(DegenerateInput):
        pl.from_vertices(np.zeros((0, 2)))


def test_single_point_hull_is_all_equalities():
    hull = pl.from_vertices([[2.0, -1.0, 3.0]])
    assert hull.A_eq.shape[0] == 3
    assert hull.contains([2, -1, 3])
    assert not hull.contains([2, -1, 3.1])


def test_degenerate_hull_gets_equality_rows():
    # four coplanar points in 3-D: one equality row plus a 2-D polygon
    pts = np.array([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1.0]])
    hull = pl.from_vertices(pts)
    assert hull.A_eq.shape[0] == 1
    n, c = hull.A_eq[0], hull.b_eq[0]
    assert np.allclose(np.abs(n), [0, 0, 1]) and abs(abs(c) - 1) <= 1e-9
    assert hull.contains([0.5, 0.5, 1.0])
    assert not hull.contains([0.5, 0.5, 1.1])


def test_collinear_points_give_segment():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    seg = pl.from_vertices(pts)
    assert seg.A_eq.shape[0] == 1
    assert seg.contains([1.5, 1.5]) and not seg.contains([3.0, 3.0])
    v = pl.vertices(seg)
    assert hausdorff(v, [[0, 0], [2, 2]]) <= 1e-7


# ---- vertex round trips against oracles -------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_vertices_round_trip_2d_gift_wrap(seed):
    rng = np.random.default_rng(seed)
    pts = rng.integers(-6, 7, size=(rng.integers(4, 10), 2)).astype(float)
    hull = pl.from_vertices(pts)
    got = pl.vertices(hull)
    expect = gift_wrap_2d(pts)
    assert hausdorff(got, expect) <= 1e-7


@pytest.mark.parametrize("seed", range(5))
def test_vertices_round_trip_3d_lp_extremes(seed):
    rng = np.random.default_rng(100 + seed)
    pts = rng.integers(-4, 5, size=(9, 3)).astype(float)
    hull = pl.from_vertices(pts)
    got = pl.vertices(hull)
    expect = extreme_points(pts)
    assert hausdorff(got, expect) <= 1e-7


def test_vertices_unbounded_raises():
    halfspace = pl.HPolytope([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    with pytest.raises(UnboundedSet):
        pl.vertices(halfspace)


def test_vertices_empty_raises():
    with pytest.raises(EmptySet):
        pl.vertices(pl.HPolytope.empty(2))


# ---- inclusion / equality ----------------------------------------------------


def test_includes_nested_boxes():
    outer = pl.HPolytope.from_box([-2, -2], [2, 2])
    inner = pl.HPolytope.from_box([-1, 0], [1, 1])
    assert pl.includes(outer, inner)
    assert not pl.includes(inner, outer)
    assert pl.set_equal(outer, pl.HPolytope.from_box([-2, -2], [2, 2]))


def test_includes_empty_cases():
    box = pl.HPolytope.from_box([0], [1])
    assert pl.includes(box, pl.HPolytope.empty(1))
    assert not pl.includes(pl.HPolytope.empty(1), box)


def test_includes_within_tolerance():
    box = pl.HPolytope.from_box([0, 0], [1, 1])
    slightly_bigger = pl.HPolytope.from_box([0, 0], [1 + 5e-10, 1])
    assert pl.includes(box, slightly_bigger, tol=1e-9)
    assert not pl.includes(box, pl.HPolytope.from_box([0, 0], [1 + 1e-6, 1]))


def test_intersect_by_membership_sampling():
    rng = np.random.default_rng(17)
    p = pl.from_vertices(rng.normal(size=(8, 3)) * 2)
    q = pl.HPolytope.from_box([-1, -1, -1], [1, 1, 1])
    inter = pl.intersect(p, q)
    for _ in range(300):
        z = rng.uniform(-1.5, 1.5, size=3)
        assert inter.contains(z) == (p.contains(z) and q.contains(z))


# ---- elimination -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_eliminate_matches_vertex_projection(seed):
    # project a bounded 4-D hull to its first two coordinates; the oracle
    # projects the vertex cloud and re-hulls it
    rng = np.random.default_rng(40 + seed)
    pts = rng.integers(-5, 6, size=(10, 4)).astype(float)
    hull = pl.from_vertices(pts)
    proj = pl.project_to(hull, [0, 1])
    oracle = pl.from_vertices(pts[:, :2])
    assert support_gap(proj, oracle) <= 1e-8


def test_eliminate_uses_equality_pivots():
    # x + y + z = 1 inside a box; eliminating z must substitute, not combine
    box = pl.HPolytope.from_box([0, 0, 0], [1, 1, 1])
    plane = pl.HPolytope(A_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0], dim=3)
    p = pl.intersect(box, plane)
    proj = pl.eliminate(p, [2])
    # {(x,y) : 0<=x,y<=1, 0 <= 1-x-y <= 1}
    expect = pl.HPolytope(
        [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [-1, -1]],
        [1, 1, 0, 0, 1, 0],
    )
    assert pl.set_equal(proj, expect, tol=1e-9)


def test_eliminate_records_that_its_projection_is_nonempty(emptiness_checks):
    # the final prune's centre proves the projection nonempty, and with it
    # the input: neither takes an emptiness LP, now or later
    box = pl.HPolytope.from_box([-1.0, 0.0, 2.0], [1.0, 5.0, 2.5])
    out = pl.eliminate(box, [1])
    assert out.is_empty() is False and box.is_empty() is False
    assert emptiness_checks == []


def test_eliminate_of_empty_is_empty():
    empty = pl.HPolytope.empty(3)
    out = pl.eliminate(empty, [2, 1])
    assert out.is_empty() and out.dim == 1


#: x <= -1 and x >= 1 over (x, y, z): empty, yet no row is all zero.
_CLASH = ([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [-1.0, -1.0])


def _clash_with(rows, rhs):
    return pl.HPolytope(_CLASH[0] + rows, _CLASH[1] + rhs)


def _same_as_empty(p, dim):
    want = pl.HPolytope.empty(dim)
    return (p.trivially_empty and p.dim == dim
            and all(np.array_equal(getattr(p, a), getattr(want, a))
                    for a in ("A_ineq", "b_ineq", "A_eq", "b_eq")))


def test_eliminate_of_empty_input_without_a_prune_asks_its_input(emptiness_checks):
    # two rows are left over two columns, too few to prune
    p = _clash_with([[0.0, 0.0, 1.0]], [1.0])
    assert _same_as_empty(pl.eliminate(p, [2]), 2)
    assert emptiness_checks == [p]


def test_eliminate_of_empty_input_with_a_final_prune(emptiness_checks):
    # five rows over two columns: the prune finds no centre, and its own
    # emptiness LP, on the projection, decides
    p = _clash_with([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [1.0, 1.0, 0.0],
                     [0.0, 0.0, 1.0]], [1.0, 1.0, 5.0, 1.0])
    assert _same_as_empty(pl.eliminate(p, [2]), 2)
    assert len(emptiness_checks) == 1 and emptiness_checks[0] is not p


def test_eliminate_of_empty_input_that_blows_up(monkeypatch, emptiness_checks):
    # eliminating z would make 2 + 2 * 2 rows; the input's emptiness LP runs
    # before the blowup is raised, and an empty input gives the empty set
    monkeypatch.setattr(pl, "ELIMINATION_ROW_CAP", 5)
    z_rows = [[0.0, 1.0, 1.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0], [0.0, -1.0, -1.0]]
    p = _clash_with(z_rows, [1.0] * 4)
    assert _same_as_empty(pl.eliminate(p, [2]), 2)
    assert emptiness_checks == [p]
    nonempty = pl.HPolytope([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]] + z_rows,
                            [1.0, 1.0] + [1.0] * 4)
    with pytest.raises(EliminationBlowup):
        pl.eliminate(nonempty, [2])
    assert emptiness_checks == [p, nonempty]


def test_eliminate_of_empty_input_whose_gap_cancels_below_tolerance(emptiness_checks):
    # y <= -1e-8 x and y >= 0.05 - 1e-8 x clash by 0.05, but eliminating x
    # leaves the zero row 0 <= -5e-10, which the build takes as met; the
    # final prune's centre then proves only the projection nonempty
    p = pl.HPolytope([[1e-8, 1.0, 0.0], [-1e-8, -1.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
                     [0.0, -0.05, 1.0, 1.0, 1.0, 1.0])
    assert _same_as_empty(pl.eliminate(p, [0]), 2)
    assert emptiness_checks == [p] and p.is_empty()


def test_eliminate_unbounded_cylinder_recovers_base():
    base = pl.from_vertices([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    cyl = pl.embed_columns(base, 4, [0, 2])
    back = pl.project_to(cyl, [0, 2])
    assert pl.set_equal(back, base, tol=1e-9)


def test_elimination_blowup_cap(monkeypatch):
    rng = np.random.default_rng(5)
    # many generic rows all touching the last coordinate
    A = rng.normal(size=(40, 3))
    A[:, 2] = np.where(np.abs(A[:, 2]) < 0.2, 0.5, A[:, 2])
    p = pl.HPolytope(A, np.ones(40))
    monkeypatch.setattr(pl, "ELIMINATION_ROW_CAP", 30)
    with pytest.raises(EliminationBlowup):
        pl.eliminate(p, [2])


def test_prune_drops_redundant_rows():
    # unit box plus a slack row
    A = [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]]
    b = [1, 1, 0, 0, 5]
    p = pl.prune(pl.HPolytope(A, b))
    assert p.A_ineq.shape[0] == 4


def test_prune_merges_opposite_rows_to_equality():
    A = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    b = [0.5, -0.5, 1.0, 0.0]
    p = pl.prune(pl.HPolytope(A, b), merge_equalities=True)
    assert p.A_eq.shape[0] == 1 and p.A_ineq.shape[0] == 2


# ---- pruning: ray-shooting certificates against the LP-only loop -------------


def same_system(p, q):
    return all(np.array_equal(getattr(p, name), getattr(q, name))
               for name in ("A_ineq", "b_ineq", "A_eq", "b_eq"))


def rotation(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q


def rotated_cube(rng, d, half_width, center):
    Q = rotation(rng, d)
    return (np.vstack([Q, -Q]),
            np.hstack([half_width + Q @ center, half_width - Q @ center]))


def cube_case(rng):
    d = int(rng.integers(1, 6))
    scale = 10.0 ** rng.integers(-2, 7)
    return pl.HPolytope(*rotated_cube(rng, d, scale, rng.normal(size=d) * scale))


def near_parallel_case(rng):
    """A rotated cube plus copies of its facets, exact or tilted by up to
    1e-6, shifted outward or inward by about ``tol``."""
    d = int(rng.integers(1, 6))
    A, b = rotated_cube(rng, d, 10.0 ** rng.integers(0, 7), np.zeros(d))
    extra, rhs = [], []
    for _ in range(int(rng.integers(1, 6))):
        i = int(rng.integers(0, 2 * d))
        a = A[i] + rng.normal(size=d) * rng.choice([0.0, 1e-13, 1e-10, 1e-8, 1e-6])
        extra.append(a / np.linalg.norm(a))
        rhs.append(b[i] + rng.choice([-1, 1]) * pl.ABS_TOL * rng.uniform(0.3, 3.0))
    A, b = np.vstack([A, extra]), np.hstack([b, rhs])
    order = rng.permutation(A.shape[0])
    return pl.HPolytope(A[order], b[order])


def pinned_case(rng):
    """A rotated cube cut down to an affine subspace by equality rows, plus
    random inequality rows through it."""
    d = int(rng.integers(2, 6))
    A, b = rotated_cube(rng, d, 10.0, np.zeros(d))
    F = rng.normal(size=(int(rng.integers(1, d)), d))
    z = rng.uniform(-5.0, 5.0, size=d)
    extra = rng.normal(size=(int(rng.integers(0, 6)), d))
    return pl.HPolytope(np.vstack([A, extra]),
                        np.hstack([b, extra @ z + rng.uniform(0.0, 8.0, len(extra))]),
                        F, F @ z, dim=d)


def unbounded_case(rng):
    """Halfspaces, slabs and wedges: a few random rows, sometimes a slab."""
    d = int(rng.integers(1, 5))
    A = rng.normal(size=(int(rng.integers(1, 5)), d))
    if rng.random() < 0.5:
        A = np.vstack([A, -A[:1]])
    return pl.HPolytope(A, rng.uniform(0.0, 3.0, A.shape[0]))


def inequality_pair_case(rng):
    """A rotated cube flattened in some directions by opposite inequality
    pairs of width zero or below ``tol``, so it has no interior."""
    d = int(rng.integers(1, 5))
    A, b = rotated_cube(rng, d, 2.0, rng.normal(size=d))
    k = int(rng.integers(1, d + 1))
    b[d:d + k] = -b[:k] + rng.choice([0.0, 0.5 * pl.ABS_TOL])
    return pl.HPolytope(A, b)


def empty_case(rng):
    d = int(rng.integers(1, 5))
    A, b = rotated_cube(rng, d, 1.0, np.zeros(d))
    b[d] = -1.0 - rng.choice([1e-6, 1.0])
    return pl.HPolytope(A, b)


PRUNE_CASES = (cube_case, near_parallel_case, pinned_case, unbounded_case,
               inequality_pair_case, empty_case)


@pytest.mark.parametrize("merge", [False, True])
@pytest.mark.parametrize("make", PRUNE_CASES, ids=lambda f: f.__name__)
def test_prune_matches_lp_only_loop(make, merge, capfd):
    for seed in range(30):
        p = make(np.random.default_rng(seed))
        got = pl.prune(p, merge_equalities=merge)
        expect = lp_only_prune(p, merge_equalities=merge)
        assert same_system(got, expect), (make.__name__, seed)
    assert capfd.readouterr().out == ""  # HiGHS stays quiet


def test_prune_keeps_one_of_two_rows_implied_by_each_other():
    # x <= 1 and x <= 1 + 5e-10 each imply the other within tol, too close
    # to dedupe or to certify by rays.  The first is dropped; the second is
    # then needed, since with the first out of force x reaches 4 on
    # x + y <= 3 (which the second then makes redundant).
    p = pl.HPolytope([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                      [1.0, 0.0], [1.0, 1.0]],
                     [1.0, 1.0, 1.0, 1.0, 1.0 + 5e-10, 3.0])
    assert p.A_ineq.shape[0] == 6
    assert not {0, 4} & set(certified_rows(p))
    got = pl.prune(p)
    assert same_system(got, lp_only_prune(p))
    assert np.array_equal(got.b_ineq, [1.0, 1.0, 1.0, 1.0 + 5e-10])


@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_prune_decides_a_drop_near_its_threshold_cold(scale, monkeypatch):
    # Row 0 copies a cube facet shifted inward by 0.9 tol, so its maximum
    # (the facet) sits 0.1 tol below g_0 + tol.  Warm and cold optima may
    # differ by the solver's tolerances there, so the warm duals do not
    # settle the drop and the cold LP decides, as in lp_only_prune.
    cold = []
    row_cold = lpsolve.RowLps.cold

    def record(self, i):
        cold.append(int(i))
        return row_cold(self, i)

    monkeypatch.setattr(lpsolve.RowLps, "cold", record)
    for seed in range(10):
        A, b = rotated_cube(np.random.default_rng(seed), 3, scale, np.zeros(3))
        p = pl.HPolytope(np.vstack([A[:1], A]), np.append(b[0] - 0.9 * pl.ABS_TOL, b))
        cold.clear()
        got = pl.prune(p)
        assert same_system(got, lp_only_prune(p)), seed
        assert got.A_ineq.shape[0] == 6 and 0 in cold, seed


def near_dependent_equality_case(rng):
    """A small rotated cube on an affine set given by two equality rows
    1e-9 apart in angle: a point can miss them by less than ``tol`` yet lie
    far from the set they define."""
    d = int(rng.integers(3, 6))
    A, b = rotated_cube(rng, d, 0.1, np.zeros(d))
    F = rng.normal(size=(2, d))
    F[1] = F[0] + rng.normal(size=d) * 1e-9
    z = rng.normal(size=d) * 0.01
    extra = rng.normal(size=(int(rng.integers(0, 6)), d))
    return pl.HPolytope(np.vstack([A, extra]),
                        np.hstack([b, extra @ z + rng.uniform(0.0, 0.1, len(extra))]),
                        F, F @ z, dim=d)


@pytest.mark.parametrize("merge", [False, True])
def test_prune_matches_lp_only_loop_near_dependent_equalities(merge):
    compared = 0
    for seed in range(60):
        p = near_dependent_equality_case(np.random.default_rng(seed))
        try:
            expect = lp_only_prune(p, merge_equalities=merge)
        except NumericalFailure:
            continue  # the LP-only loop has no answer to compare with
        assert same_system(pl.prune(p, merge_equalities=merge), expect), seed
        compared += 1
    assert compared >= 40


def certified_rows(p):
    certified, *_ = pl._certify_irredundant(p.A_ineq, p.b_ineq, p.A_eq, p.b_eq)
    return np.flatnonzero(certified)


def test_certificate_witness_must_satisfy_slowly_crossed_rows():
    # Along row 0's normal, row 1 is crossed at speed 5e-12: too slowly to
    # count as a hit, so row 0 comes first, at 8e11.  But with y >= -1, row 1
    # caps x at 4e11, so row 0 is redundant and no witness for it exists;
    # the candidate behind row 0 violates row 1.  (HiGHS cannot resolve that
    # slope and keeps row 0 anyway, so only the certificate is checked here.)
    # The rotation keeps every coefficient far from zero.
    turn = np.array([[np.cos(0.5), -np.sin(0.5)], [np.sin(0.5), np.cos(0.5)]])
    A = np.array([[1.0, 0.0], [5e-12, 1.0], [0.0, -1.0], [-1.0, 0.0]]) @ turn.T
    p = pl.HPolytope(A, [8e11, 1.0, 1.0, 1.0])
    assert list(certified_rows(p)) == [1, 2, 3]


def test_certificate_witness_must_satisfy_the_equalities():
    # Two equality rows 1e-11 apart in angle pin the single point (0, 100),
    # so both inequality rows are redundant.  The null-space basis keeps the
    # near-null direction (the rank cut is 1e-10), and every candidate
    # witness along it misses the second equality by more than tol.
    p = pl.HPolytope([[0.0, 1.0], [0.0, -1.0]], [1e4, 1e4],
                     [[1.0, 0.0], [1.0, 1e-11]], [0.0, 1e-9], dim=2)
    assert certified_rows(p).size == 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_prune_matches_lp_only_loop_random(data):
    d = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 9))
    coef = st.integers(-3, 3).map(float)
    A = np.array(data.draw(st.lists(st.lists(coef, min_size=d, max_size=d),
                                    min_size=m, max_size=m)))
    b = np.array(data.draw(st.lists(st.integers(-4, 6).map(float),
                                    min_size=m, max_size=m)))
    # copies of some rows shifted by a few tolerances either way
    shifts = data.draw(st.lists(st.tuples(st.integers(0, m - 1),
                                          st.floats(-3.0, 3.0)), max_size=3))
    for i, k in shifts:
        A = np.vstack([A, A[i]])
        b = np.append(b, b[i] + k * pl.ABS_TOL * np.linalg.norm(A[i]))
    F = f = None
    if data.draw(st.booleans()):
        F = np.array([data.draw(st.lists(coef, min_size=d, max_size=d))])
        f = np.array([float(data.draw(st.integers(-2, 2)))])
    p = pl.HPolytope(A, b, F, f, dim=d)
    merge = data.draw(st.booleans())
    try:
        expect = lp_only_prune(p, merge_equalities=merge)
    except NumericalFailure:
        assume(False)
    assert same_system(pl.prune(p, merge_equalities=merge), expect)


@pytest.fixture
def lp_calls(monkeypatch):
    """Every LP ``lpsolve.solve`` is given while the test runs."""
    calls = []
    solve = lpsolve.solve

    def counted(lp):
        calls.append(lp)
        return solve(lp)

    monkeypatch.setattr(lpsolve, "solve", counted)
    return calls


@pytest.fixture
def emptiness_checks(monkeypatch):
    """Every set ``lpsolve.is_empty`` is asked about while the test runs."""
    checked = []
    is_empty = lpsolve.is_empty

    def counted(poly):
        checked.append(poly)
        return is_empty(poly)

    monkeypatch.setattr(lpsolve, "is_empty", counted)
    return checked


def test_prune_of_hypercube_solves_at_most_two_lps(lp_calls):
    # one Chebyshev-centre LP, which also shows the cube is nonempty; every
    # row is certified
    d = 6
    cube = pl.HPolytope.from_box(-np.ones(d), np.ones(d))
    out = pl.prune(cube)
    assert len(lp_calls) <= 2
    assert same_system(out, cube)


def test_prune_of_full_dimensional_box_solves_no_emptiness_lp(emptiness_checks):
    box = pl.HPolytope.from_box([-1.0, 0.0, 2.0], [1.0, 5.0, 2.5])
    assert same_system(pl.prune(box), lp_only_prune(box))
    assert box.is_empty() is False
    assert emptiness_checks == []


@pytest.mark.parametrize("make", [empty_case, inequality_pair_case],
                         ids=lambda f: f.__name__)
def test_prune_of_empty_or_flat_set_still_solves_its_emptiness_lp(
        make, emptiness_checks):
    # no ball of positive radius fits, so the emptiness LP decides
    for seed in range(15):
        p = make(np.random.default_rng(seed))
        got = pl.prune(p)
        assert emptiness_checks == [p], (make.__name__, seed)
        assert same_system(got, lp_only_prune(p)), (make.__name__, seed)
        emptiness_checks.clear()


def test_prune_after_merging_still_solves_its_emptiness_lp(emptiness_checks):
    # x <= 0 and x >= 5e-10 lie within tol, so they merge into x = 0, where
    # the centre LP finds a ball of radius 1; but that centre misses
    # x >= 5e-10, so it proves nothing about p
    p = pl.HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                     [0.0, -5e-10, 1.0, 1.0])
    got = pl.prune(p, merge_equalities=True)
    assert emptiness_checks == [p]
    assert same_system(got, lp_only_prune(p, merge_equalities=True))


# ---- elimination: one prune per projection -----------------------------------


def is_centre_lp(lp):
    """The Chebyshev-centre LP of ``_certify_irredundant``: maximize the
    radius, its last variable, which a cap row bounds."""
    radius = np.eye(1, lp.dim, lp.dim - 1)[0]
    return (np.array_equal(lp.objective, radius) and lp.A_ineq.shape[0] > 0
            and np.array_equal(lp.A_ineq[-1], radius))


def eliminated(p, batches, eliminate=pl.eliminate):
    """``eliminate`` applied for each batch of columns in turn: the set it
    leaves, or the type of the error it raised."""
    try:
        for cols in batches:
            p = eliminate(p, cols)
    except (EliminationBlowup, NumericalFailure) as exc:
        return type(exc)
    return p


def same_outcome(a, b):
    """Two outcomes of :func:`eliminated` agree as sets: the same error
    type, or the same dimension and emptiness verdict and, when nonempty,
    equal sets at ``ABS_TOL`` (no LP when the rows are the same)."""
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    if a.dim != b.dim or a.is_empty() != b.is_empty():
        return False
    return a.is_empty() or same_system(a, b) or pl.set_equal(a, b)


def random_body_case(rng):
    d = int(rng.integers(2, 6))
    return pl.HPolytope(*random_body(rng, d, rng.normal(size=d)))


ELIMINATE_CASES = (cube_case, near_parallel_case, pinned_case, random_body_case)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(ELIMINATE_CASES), st.integers(0, 2**32 - 1), st.data())
def test_eliminate_matches_one_column_at_a_time(make, seed, data):
    # one call prunes once per projection, one-column calls and the oracle
    # after every column: the rows may round differently, the set may not
    p = make(np.random.default_rng(seed))
    assume(p.dim >= 2)
    cols = data.draw(st.lists(st.integers(0, p.dim - 1), min_size=2,
                              max_size=p.dim, unique=True))
    one_call = eliminated(p, [cols])
    by_column = eliminated(p, [[c] for c in sorted(cols, reverse=True)])
    oracle = eliminated(p, [cols], per_column_eliminate)
    where = (make.__name__, seed, cols)
    assert same_outcome(one_call, by_column), where
    assert same_outcome(one_call, oracle), where
    if not isinstance(oracle, type):  # the same schedule, so the same rows
        assert same_system(by_column, oracle), where


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(ELIMINATE_CASES), st.integers(0, 2**32 - 1), st.data())
def test_eliminate_leaves_no_redundant_row(make, seed, data):
    # the prunes skipped before the last column leave nothing behind: the
    # LP-only loop drops no row of the result
    p = make(np.random.default_rng(seed))
    assume(p.dim >= 2)
    cols = data.draw(st.lists(st.integers(0, p.dim - 1), min_size=1,
                              max_size=p.dim - 1, unique=True))
    out = eliminated(p, [cols])
    assume(not isinstance(out, type) and not out.is_empty())
    assume(out.A_ineq.shape[0] > out.dim + 1)  # smaller systems are not pruned
    assert lp_only_prune(out).A_ineq.shape[0] == out.A_ineq.shape[0], \
        (make.__name__, seed, cols)


def test_eliminate_prunes_once_rows_double_and_after_the_last_column(
        lp_calls, monkeypatch):
    # every step's rows, and each prune with the centre LPs it solved
    steps, prunes = [], []
    filter_dominated, prune = pl._filter_dominated, pl.prune

    def counted_filter(G, g):
        out = filter_dominated(G, g)
        steps.append((out[0].shape[0], G.shape[1]))
        return out

    def counted_prune(p, *args, **kwargs):
        before = len(lp_calls)
        out = prune(p, *args, **kwargs)
        prunes.append((p.A_ineq.shape[0], out.A_ineq.shape[0],
                       sum(map(is_centre_lp, lp_calls[before:]))))
        return out

    monkeypatch.setattr(pl, "_filter_dominated", counted_filter)
    monkeypatch.setattr(pl, "prune", counted_prune)
    rng = np.random.default_rng(7)
    p = pl.HPolytope(*rotated_cube(rng, 5, 1.0, rng.normal(size=5)))
    out = pl.eliminate(p, [4, 3, 2])
    expect, limit = [], 2 * p.A_ineq.shape[0]
    for k, (rows, cols) in enumerate(steps):
        if rows > cols + 1 and (k == len(steps) - 1 or rows > limit):
            expect.append(rows)
            limit = 2 * prunes[len(expect) - 1][1]
    assert len(steps) == 3
    assert [rows for rows, _, _ in prunes] == expect
    assert 0 < len(prunes) < len(steps)  # the rule skips a prune here
    assert all(centre_lps == 1 for _, _, centre_lps in prunes)
    assert out.dim == 2 and out.is_empty() is False


def test_prune_after_merging_matches_lp_only_loop():
    # x <= 0 and x >= 5e-10 lie within tol, so they merge into x = 0
    p = pl.HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]],
                     [0.0, -5e-10, 1.0, 1.0, 3.0])
    assert same_system(pl.prune(p, merge_equalities=True),
                       lp_only_prune(p, merge_equalities=True))


# ---- inclusion: row-match bounds against the LP-only loop ---------------------


#: Right-hand side shifts: none, a few tolerances either way, and the
#: row-match threshold ``b + tol`` missed by 1e-12 either way.
SHIFTS = (0.0, 0.0, -3 * pl.ABS_TOL, 3 * pl.ABS_TOL,
          pl.ABS_TOL - 1e-12, pl.ABS_TOL + 1e-12)


def random_body(rng, d, center):
    """A rotated cube around ``center`` with a few random rows that leave
    ``center`` inside."""
    A, b = rotated_cube(rng, d, 2.0, center)
    extra = rng.normal(size=(int(rng.integers(0, 4)), d))
    return (np.vstack([A, extra]),
            np.hstack([b, extra @ center + rng.uniform(0.5, 3.0, len(extra))]))


def shared_rows_pair(rng):
    """q keeps some of p's (normalized) rows, each shifted by one of
    :data:`SHIFTS`, and adds rows of its own."""
    d = int(rng.integers(1, 5))
    center = rng.normal(size=d)
    p = pl.HPolytope(*random_body(rng, d, center))
    keep = rng.random(p.A_ineq.shape[0]) < 0.7
    own_A, own_b = random_body(rng, d, center)
    own = rng.random(own_A.shape[0]) < 0.3
    q = pl.HPolytope(np.vstack([p.A_ineq[keep], own_A[own]]),
                     np.hstack([p.b_ineq[keep] + rng.choice(SHIFTS, keep.sum()),
                                own_b[own]]),
                     dim=d)
    return p, q


def intersection_pair(rng):
    """q is p cut by extra rows."""
    d = int(rng.integers(1, 5))
    p = pl.HPolytope(*random_body(rng, d, rng.normal(size=d)))
    cut = pl.HPolytope(*random_body(rng, d, rng.normal(size=d)))
    return p, pl.intersect(p, cut)


def pinned_pair(rng):
    """p and q lie on affine sets given by the same equality rows, with
    right-hand sides equal or shifted by one of :data:`SHIFTS`."""
    d = int(rng.integers(2, 5))
    z = rng.normal(size=d)
    A, b = random_body(rng, d, z)
    F = rng.normal(size=(int(rng.integers(1, d)), d))
    p = pl.HPolytope(A, b, F, F @ z, dim=d)
    q = pl.HPolytope(p.A_ineq[::-1], p.b_ineq[::-1] + rng.choice(SHIFTS),
                     p.A_eq, p.b_eq + rng.choice(SHIFTS, p.b_eq.shape[0]), dim=d)
    return p, q


def negative_zero_pair(rng):
    """Boxes whose zero coefficients are -0.0 in p and 0.0 in q."""
    d = int(rng.integers(2, 5))
    lo = rng.uniform(-2.0, -1.0, d)
    hi = rng.uniform(1.0, 2.0, d)
    p = pl.HPolytope.from_box(lo, hi)  # its rows -e_k carry -0.0
    eye = np.eye(d)
    q = pl.HPolytope(np.vstack([eye, -eye]) + 0.0,
                     np.hstack([hi, -lo]) + rng.choice(SHIFTS, 2 * d))
    assert negative_zeros(p.A_ineq) and not negative_zeros(q.A_ineq)
    return p, q


def negative_zeros(A) -> int:
    return int(np.signbit(A[A == 0.0]).sum())


INCLUDES_CASES = (shared_rows_pair, intersection_pair, pinned_pair,
                  negative_zero_pair)


@pytest.mark.parametrize("make", INCLUDES_CASES, ids=lambda f: f.__name__)
def test_includes_matches_lp_only_loop(make):
    verdicts = set()
    for seed in range(40):
        p, q = make(np.random.default_rng(seed))
        for outer, inner in ((p, q), (q, p)):
            got = pl.includes(outer, inner)
            assert got == lp_only_includes(outer, inner), (make.__name__, seed)
            verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("make", [cube_case, pinned_case, unbounded_case],
                         ids=lambda f: f.__name__)
def test_includes_of_a_set_in_itself_solves_no_lp(make, lp_calls):
    for seed in range(10):
        p = make(np.random.default_rng(seed))
        p.is_empty()  # the emptiness LP is cached before counting
        lp_calls.clear()
        assert pl.includes(p, p)
        assert lp_calls == [], (make.__name__, seed)


def test_includes_matches_rows_across_signed_zeros(lp_calls):
    p = pl.HPolytope.from_box([-1.0, -1.0], [1.0, 1.0])
    q = pl.HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                     [1.0, 1.0, 1.0, 1.0])
    assert negative_zeros(p.A_ineq) and not negative_zeros(q.A_ineq)
    for poly in (p, q):
        poly.is_empty()  # the emptiness LPs are cached before counting
    lp_calls.clear()
    assert pl.includes(p, q) and pl.includes(q, p)
    assert lp_calls == []


def test_vertices_of_a_box_solve_no_emptiness_lp(emptiness_checks):
    # prune's centre shows the box is nonempty
    pl.vertices(pl.HPolytope.from_box([-1.0, 0.0, 2.0], [1.0, 5.0, 2.5]))
    assert emptiness_checks == []


@pytest.mark.parametrize("seed", range(5))
def test_vertices_of_an_empty_set_raise(seed, emptiness_checks):
    p = empty_case(np.random.default_rng(seed))
    with pytest.raises(EmptySet):
        pl.vertices(p)
    assert emptiness_checks == [p]


def test_vertices_after_merging_still_ask_the_emptiness_lp(emptiness_checks):
    # x <= 0 and x >= 5e-10 merge into x = 0; y <= 1 and y >= 1 + 1e-6 do not
    # merge and leave the set empty, which only the emptiness LP can tell
    p = pl.HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                     [0.0, -5e-10, 1.0, -1.0 - 1e-6])
    with pytest.raises(EmptySet):
        pl.vertices(p)
    assert emptiness_checks == [p]


def test_vertices_of_a_box_probe_boundedness_without_lps(monkeypatch):
    probes = []
    support = lpsolve.support
    monkeypatch.setattr(lpsolve, "support",
                        lambda poly, d: probes.append(d) or support(poly, d))
    got = pl.vertices(pl.HPolytope.from_box([-1.0, 0.0, 2.0], [1.0, 5.0, 2.5]))
    assert got.shape == (8, 3)
    assert probes == []


def test_is_bounded_solves_an_lp_only_for_probes_no_row_bounds(monkeypatch):
    probes = []
    support = lpsolve.support
    monkeypatch.setattr(lpsolve, "support",
                        lambda poly, d: probes.append(tuple(d)) or support(poly, d))
    assert pl.is_bounded(pl.HPolytope.from_box([-1.0, 0.0], [1.0, 5.0]))
    assert probes == []
    # x >= 0 and y >= 0 bound the -e_k probes; each +e_k probe needs an LP
    triangle = pl.HPolytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                            [0.0, 0.0, 1.0])
    assert pl.is_bounded(triangle)
    assert probes == [(1.0, 0.0), (0.0, 1.0)]
    probes.clear()
    assert not pl.is_bounded(pl.HPolytope([[1.0]], [1.0]))  # x <= 1 only
    assert probes == [(-1.0,)]


# ---- text format --------------------------------------------------------------


def test_text_round_trip():
    p = pl.intersect(
        pl.HPolytope.from_box([-1.5, 0], [2.25, 1]),
        pl.HPolytope(A_eq=[[1.0, 1.0]], b_eq=[0.75], dim=2),
    )
    q = pl.from_text(pl.to_text(p))
    assert pl.set_equal(p, q, tol=1e-12)
    assert pl.to_text(p) == pl.to_text(q)


def test_text_round_trip_preserves_emptiness():
    q = pl.from_text(pl.to_text(pl.HPolytope.empty(2)))
    assert q.is_empty()


def test_text_round_trip_of_the_empty_zero_dimensional_set():
    text = pl.to_text(pl.HPolytope.empty(0))
    q = pl.from_text(text)
    assert q.dim == 0 and q.trivially_empty and q.is_empty()
    assert pl.to_text(q) == text
    assert pl.from_text("dim 0\nI -1.0\n").trivially_empty
    assert not pl.from_text("dim 0\nI 1.0\n").is_empty()


@pytest.mark.parametrize(
    "bad",
    ["", "dim x\n", "dim 2\nI 1 0\n", "dim 2\nQ 1 0 3\n", "dim 2\nI 1 zero 3\n"],
)
def test_text_parse_errors(bad):
    with pytest.raises(ParseError):
        pl.from_text(bad)


# ---- normalization -------------------------------------------------------------


def test_rows_are_unit_norm_and_deduped():
    p = pl.HPolytope([[2.0, 0.0], [4.0, 0.0], [0.0, 1.0]], [2.0, 4.0, 1.0])
    assert p.A_ineq.shape[0] == 2
    assert np.allclose(np.linalg.norm(p.A_ineq, axis=1), 1.0)


def test_zero_row_trivial_infeasibility():
    p = pl.HPolytope([[0.0, 0.0]], [-1.0])
    assert p.trivially_empty and p.is_empty()
    ok = pl.HPolytope([[0.0, 0.0]], [1.0])
    assert not ok.trivially_empty and ok.A_ineq.shape[0] == 0


# ---- zero-dimensional sets -------------------------------------------------------


def test_zero_dimensional_sets_need_no_lp(lp_calls):
    # all-zero rows decide them: {()} or nothing
    empty, point = pl.HPolytope.empty(0), pl.HPolytope.universe(0)
    assert empty.trivially_empty and empty.is_empty()
    assert point.is_empty() is False
    assert pl.includes(point, point) and pl.includes(point, empty)
    assert not pl.includes(empty, point)
    assert lpsolve.support(point, []) == 0.0
    with pytest.raises(EmptySet):
        lpsolve.support(empty, [])
    assert lp_calls == []


def test_projection_onto_no_columns():
    box = pl.HPolytope.from_box([-1.0, 0.0, 2.0], [1.0, 5.0, 2.5])
    for out in (pl.project_to(box, []), pl.eliminate(box, range(box.dim))):
        assert out.dim == 0 and out.n_rows == 0 and out.is_empty() is False
    empty = pl.HPolytope(np.vstack([np.eye(2), -np.eye(2)]), [1.0, 1.0, -2.0, 0.0])
    assert pl.project_to(empty, []).is_empty()


# ---- row dedupes against the kernels they replaced -------------------------------


#: Coordinates of the base rows; -0.0 and 0.0 both occur.
COORDS = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0)


def unit_rows(data, d):
    """Unit-norm rows, some repeated, some moved by 1e-14 (equal after
    rounding to 12 decimals), some with their zeros signed the other way,
    with right-hand sides that repeat, differ or are -0.0."""
    base = data.draw(st.lists(st.lists(st.sampled_from(COORDS), min_size=d, max_size=d)
                              .filter(lambda r: any(r)), min_size=1, max_size=4))
    base = np.array(base)
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    rows, rhs = [], []
    for _ in range(data.draw(st.integers(1, 10))):
        a = base[data.draw(st.integers(0, len(base) - 1))].copy()
        kind = data.draw(st.sampled_from(["same", "nudged", "signed zeros"]))
        if kind == "nudged":
            a[data.draw(st.integers(0, d - 1))] += 1e-14
        elif kind == "signed zeros":
            a[a == 0.0] = -np.copysign(0.0, a[a == 0.0])
        rows.append(a)
        rhs.append(data.draw(st.sampled_from([0.0, -0.0, 1.0, 1.0 + 1e-14, 2.5])))
    return np.array(rows), np.array(rhs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_normalize_dedupe_matches_np_unique(data):
    A, b = unit_rows(data, data.draw(st.integers(1, 4)))
    got_A, got_b, bad = pl._normalize_system(A, b, eq=False)
    want_A, want_b = unique_rows(A, b)
    assert not bad
    assert got_A.shape == want_A.shape
    assert got_A.tobytes() == want_A.tobytes() and got_b.tobytes() == want_b.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_filter_dominated_matches_the_row_loop(data):
    G, g = unit_rows(data, data.draw(st.integers(1, 4)))
    got, want = pl._filter_dominated(G, g), loop_filter_dominated(G, g)
    assert got[0].shape == want[0].shape
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
