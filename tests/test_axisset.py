"""Axis algebra: projection, cylinder extension, joins.

Golden values for the worked five-node example are frozen here once and
reused by the acceptance suite; they were verified against the exhaustive
pair-check oracle in tests/oracles.py.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachnet import (
    AxisSet,
    LabeledSet,
    PointTable,
    empty_set,
    extrude,
    finite_set,
    join_extrusions,
    polytope_set,
    project_set,
    project_vector,
    set_includes,
    sets_equal,
)
from reachnet import axisset
from reachnet import polytope as pl
from reachnet.errors import (
    BackendMismatch,
    DimensionMismatch,
    NotSubset,
    UncoveredAxes,
    UnsupportedMaterialization,
    ValidationError,
)

from .oracles import brute_join

# ---- five-node worked example, used across the suite ----------------------

AXES_5 = [AxisSet(a) for a in ([3, 5], [1, 2, 3], [2, 5], [1, 4, 6], [4, 6])]

POINTS_5 = [
    [(6, 7), (-5, -3), (5, -3), (0, 0)],
    [(-2, 6, 5), (1, 7, -5), (5, 1, 0), (5, -1, 0)],
    [(6, -3), (1, 0), (-1, 0), (7, 6)],
    [(-2, 0, 1), (5, 3, -2), (4, 3, -2), (1, 7, -4)],
    [(7, -4), (0, 1), (3, -2)],
]

JOIN_5 = {
    (-2, 6, 5, 0, -3, 1),
    (5, 1, 0, 3, 0, -2),
    (5, -1, 0, 3, 0, -2),
}

# Projections of JOIN_5 onto the five axis sets.  Every point of JOIN_5
# carries z3 in {5, 0}, so the first projection (axes {3, 5}) can only be
# {(5,-3), (0,0)}; the oracle below re-derives all five mechanically.
PROJ_5 = [
    {(5, -3), (0, 0)},
    {(-2, 6, 5), (5, 1, 0), (5, -1, 0)},
    {(6, -3), (1, 0), (-1, 0)},
    {(-2, 0, 1), (5, 3, -2)},
    {(0, 1), (3, -2)},
]


def five_node_sets() -> list[LabeledSet]:
    return [finite_set(a, p) for a, p in zip(AXES_5, POINTS_5)]


def as_tuple_set(s: LabeledSet) -> set[tuple]:
    return set(map(tuple, s.table().points))


# ---- AxisSet basics --------------------------------------------------------


def test_axis_set_is_sorted_and_deduped():
    a = AxisSet([7, 3, 3, 6])
    assert a.labels == (3, 6, 7)
    assert len(a) == 3 and 6 in a and 4 not in a


def test_axis_set_rejects_nonpositive():
    with pytest.raises(ValidationError):
        AxisSet([0, 1])


@pytest.mark.parametrize("labels", [[1.7, 2], [True, 2], ["3", 3],
                                    [np.float64(2.0)], [np.True_]])
def test_axis_set_rejects_non_integer_labels(labels):
    # a float, bool or string label is refused, not coerced to an integer
    with pytest.raises(ValidationError, match="positive integers"):
        AxisSet(labels)


def test_axis_set_accepts_numpy_integers_and_ranges():
    assert AxisSet(np.array([4, 2, 4])).labels == (2, 4)
    assert AxisSet([np.int64(3), np.uint8(1), 3]).labels == (1, 3)
    assert type(AxisSet(np.arange(1, 3)).labels[0]) is int
    assert AxisSet(range(1, 4)) == AxisSet([3, 2, 1])


def test_axis_set_ops():
    a, b = AxisSet([1, 3, 5]), AxisSet([3, 4])
    assert (a | b).labels == (1, 3, 4, 5)
    assert (a & b).labels == (3,)
    assert (a - b).labels == (1, 5)
    assert AxisSet([3]).issubset(a) and not b.issubset(a)
    assert a.positions_of(AxisSet([3, 5])) == [1, 2]


# ---- vector projection (worked example 1) ----------------------------------


def test_project_vector_golden():
    b1, b2 = AxisSet([3, 6, 7]), AxisSet([1, 3, 4, 6, 7])
    v = np.array([-4.0, 6.0, np.pi, 0.0, 3.2])
    out = project_vector(v, b2, b1)
    assert np.array_equal(out, np.array([6.0, 0.0, 3.2]))


def test_project_vector_empty_target_is_empty_set():
    out = project_vector([1.0, 2.0], AxisSet([1, 2]), AxisSet())
    assert out.shape == (0,)


def test_project_vector_requires_nesting():
    with pytest.raises(NotSubset):
        project_vector([1.0, 2.0], AxisSet([1, 2]), AxisSet([3]))
    with pytest.raises(DimensionMismatch):
        project_vector([1.0], AxisSet([1, 2]), AxisSet([1]))


# ---- cylinder extension (worked example 2) ----------------------------------


def test_extrude_point_golden():
    b1, b2 = AxisSet([3, 5]), AxisSet([2, 3, 4, 5, 9])
    w = polytope_set(b1, pl.from_vertices([[5.0, -1.0]]))
    cyl = extrude(w, b2)
    assert cyl.axes == b2
    p = cyl.poly()
    # coordinates 3 and 5 pinned, the rest free
    pinned = {}
    for k, lab in enumerate(b2):
        e = np.zeros(5)
        e[k] = 1.0
        from reachnet import lpsolve

        up = lpsolve.support(p, e)
        lo = lpsolve.support(p, -e)
        if np.isfinite(up) and np.isfinite(lo):
            assert abs(up + lo) <= 1e-9
            pinned[lab] = up
    assert pinned == {3: 5.0, 5: -1.0}


def test_extrude_finite_strict_raises():
    s = finite_set([3, 5], [(1, 2), (3, 4), (5, 6)])
    with pytest.raises(UnsupportedMaterialization):
        extrude(s, AxisSet([2, 3, 5]))


def test_extrude_identity_and_empty():
    s = finite_set([3, 5], [(1, 2)])
    assert extrude(s, AxisSet([3, 5])) is s
    e = empty_set([3, 5])
    out = extrude(e, AxisSet([1, 3, 5]))
    assert out.empty and out.axes == AxisSet([1, 3, 5])


def test_extrude_requires_nesting():
    s = finite_set([3, 5], [(1, 2)])
    with pytest.raises(NotSubset):
        extrude(s, AxisSet([3, 4]))


# ---- finite projections -----------------------------------------------------


def test_project_set_selects_columns_and_dedups():
    s = finite_set([1, 2, 3], [(1, 9, 2), (1, 8, 2), (0, 0, 0)])
    out = project_set(s, AxisSet([1, 3]))
    assert as_tuple_set(out) == {(1, 2), (0, 0)}


def test_project_set_empty_target():
    s = finite_set([1, 2], [(1, 2)])
    assert project_set(s, AxisSet()).empty


# ---- joins ------------------------------------------------------------------


def test_join_golden_five_node():
    joined = join_extrusions(five_node_sets(), AxisSet(range(1, 7)))
    assert as_tuple_set(joined) == JOIN_5


def test_join_golden_matches_brute_oracle():
    labeled = [(list(a), np.array(p, dtype=float)) for a, p in zip(AXES_5, POINTS_5)]
    oracle = brute_join(labeled, list(range(1, 7)))
    joined = join_extrusions(five_node_sets(), AxisSet(range(1, 7)))
    assert as_tuple_set(joined) == set(map(tuple, oracle))


def test_projections_of_golden_join():
    joined = join_extrusions(five_node_sets(), AxisSet(range(1, 7)))
    for axes, expect in zip(AXES_5, PROJ_5):
        assert as_tuple_set(project_set(joined, axes)) == expect


def test_join_uncovered_axes():
    s = finite_set([1, 2], [(0, 0)])
    with pytest.raises(UncoveredAxes):
        join_extrusions([s], AxisSet([1, 2, 3]))


def test_join_backend_mismatch():
    a = finite_set([1], [(0,)])
    b = polytope_set([2], pl.HPolytope.from_box([0], [1]))
    with pytest.raises(BackendMismatch):
        join_extrusions([a, b], AxisSet([1, 2]))


def test_join_polytope_allows_free_axes():
    b = polytope_set([1], pl.HPolytope.from_box([0], [1]))
    out = join_extrusions([b], AxisSet([1, 2]))
    from reachnet import lpsolve

    assert np.isinf(lpsolve.support(out.poly(), [0.0, 1.0]))


def _join_one_at_a_time(sets, target):
    """The polytope join as it was: normalize each zero-padded set again,
    and intersect one at a time."""
    acc, dim = pl.HPolytope.universe(len(target)), len(target)
    for s in sets:
        p, cols = s.poly(), target.positions_of(s.axes)
        G, F = np.zeros((len(p.A_ineq), dim)), np.zeros((len(p.A_eq), dim))
        G[:, cols], F[:, cols] = p.A_ineq, p.A_eq
        placed = pl.HPolytope(G, p.b_ineq, F, p.b_eq, dim=dim)
        acc = pl.HPolytope(np.vstack([acc.A_ineq, placed.A_ineq]),
                           np.hstack([acc.b_ineq, placed.b_ineq]),
                           np.vstack([acc.A_eq, placed.A_eq]),
                           np.hstack([acc.b_eq, placed.b_eq]), dim=dim)
    return acc


@pytest.mark.parametrize("seed", range(8))
def test_polytope_join_has_the_bytes_of_one_set_at_a_time(seed):
    # overlapping windows with equality rows and rows repeated across sets
    rng = np.random.default_rng(seed)
    windows = [(1, 2, 3), (2, 3, 4), (1, 4), (3,)]
    shared = rng.normal(size=(2, 3))
    sets = []
    for labs in windows:
        d = len(labs)
        A = np.vstack([rng.normal(size=(3, d)), np.eye(d), -np.eye(d),
                       shared[:, :d]])
        F = rng.normal(size=(int(rng.integers(0, 2)), d))
        b = np.hstack([rng.uniform(1.0, 2.0, size=3), np.full(2 * d, 1.5),
                       rng.uniform(1.0, 2.0, size=2)])  # box rows repeat
        sets.append(polytope_set(labs, pl.HPolytope(
            A, b, F, rng.normal(size=len(F)), dim=d)))
    target = AxisSet([1, 2, 3, 4])
    got, want = join_extrusions(sets, target).poly(), _join_one_at_a_time(sets, target)
    assert got.A_ineq.shape[0] < sum(s.poly().A_ineq.shape[0] for s in sets)
    for attr in ("A_ineq", "b_ineq", "A_eq", "b_eq"):
        assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), attr
        assert getattr(got, attr).shape == getattr(want, attr).shape, attr
    assert not got.trivially_empty


def test_polytope_join_with_a_trivially_empty_input_is_empty():
    box = polytope_set([1], pl.HPolytope.from_box([0], [1]))
    clash = polytope_set([2], pl.HPolytope([[0.0]], [-1.0]))
    out = join_extrusions([box, clash], AxisSet([1, 2])).poly()
    empty = pl.HPolytope.empty(2)
    assert out.trivially_empty and out.dim == 2
    assert np.array_equal(out.A_ineq, empty.A_ineq)
    assert np.array_equal(out.b_ineq, empty.b_ineq)


def test_join_disjoint_tables_is_product():
    a = finite_set([1], [(0,), (1,)])
    b = finite_set([2], [(5,)])
    out = join_extrusions([a, b], AxisSet([1, 2]))
    assert as_tuple_set(out) == {(0, 5), (1, 5)}


def test_grid_inbox_join_never_forms_a_cross_product(monkeypatch):
    # 4x4 grid, one table per node over the labels of its incident edges;
    # node 5's inbox in index order is 1, 4, 5, 6, 9, and nodes 1 and 4
    # share no edge
    edges = [((r, c), (r, c + 1)) for r in range(4) for c in range(3)] + \
            [((r, c), (r + 1, c)) for r in range(3) for c in range(4)]
    rng = np.random.default_rng(4)
    inbox = []
    for node in (1, 4, 5, 6, 9):
        cell = divmod(node, 4)
        labs = [k + 1 for k, e in enumerate(edges) if cell in e]
        inbox.append(finite_set(labs, rng.integers(0, 3, size=(20, len(labs)))))
    target = AxisSet.union_of(s.axes for s in inbox)

    index_order = (inbox[0].axes, inbox[0].table().points)
    for s in inbox[1:]:
        index_order = axisset._natural_join(*index_order, s.axes, s.table().points)

    shared = []
    natural_join = axisset._natural_join

    def recording(axes_a, ta, axes_b, tb):
        shared.append(len(axes_a & axes_b))
        return natural_join(axes_a, ta, axes_b, tb)

    monkeypatch.setattr(axisset, "_natural_join", recording)
    joined = join_extrusions(inbox, target)
    assert len(shared) == 4 and min(shared) >= 1
    assert index_order[0] == target
    assert joined.table() == PointTable(index_order[1])


# ---- randomized join vs oracle ---------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_join_matches_brute_oracle_random(data):
    rng_seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(rng_seed)
    n_sets = data.draw(st.integers(2, 4))
    universe = list(range(1, data.draw(st.integers(3, 6)) + 1))
    labeled = []
    sets = []
    covered = set()
    for k in range(n_sets):
        size = int(rng.integers(1, min(3, len(universe)) + 1))
        labs = sorted(rng.choice(universe, size=size, replace=False).tolist())
        covered.update(labs)
        pts = rng.integers(-2, 3, size=(int(rng.integers(1, 6)), len(labs))).astype(float)
        labeled.append((labs, pts))
        sets.append(finite_set(labs, pts))
    target = sorted(covered)
    joined = join_extrusions(sets, AxisSet(target))
    oracle = brute_join(labeled, target)
    assert as_tuple_set(joined) == set(map(tuple, oracle))


# ---- both point-table kernels, byte for byte against oracles ---------------

# signed zeros and values one quantization step away from 1 collide as keys
NEAR_EQUAL = [0.0, -0.0, 1.0, 1.0 + 1e-12, 1.0 - 1e-12, 2.0, -1.5]


def assert_same_bytes(table: PointTable, expected: np.ndarray):
    assert table.points.shape == expected.shape
    assert table.points.tobytes() == expected.tobytes()


def assert_join_matches_oracle(labeled):
    target = sorted(set().union(*(labs for labs, _ in labeled)))
    joined = join_extrusions([finite_set(labs, pts) for labs, pts in labeled],
                             AxisSet(target))
    oracle = PointTable(brute_join(labeled, target), dim=len(target))
    assert joined.table() == oracle
    assert_same_bytes(joined.table(), oracle.points)


@pytest.mark.parametrize("labeled", [
    [([1, 2], [(0, 0), (0, 1), (1, 0), (2, 2)]),
     ([2, 3], [(0, 5), (0, 6), (1, 7), (3, 9)])],
    [([1], [(0,), (1,), (2,)]), ([2, 3], [(5, 6), (7, 8)])],
    [([1, 2], [(0, 0), (1, 0)]), ([2, 3], [(1, 5), (2, 6)])],
    [([1, 2, 3], [(4, 5, 6)]), ([3, 4], [(6, 0), (6, 1), (7, 2)])],
    [([1, 3, 5], [(0, 1, 2), (1, 1, 2), (2, 2, 2)]),
     ([3, 4, 5], [(1, 9, 2), (2, 8, 2), (1, 7, 3)])],
    [([2, 4], [(0, 1), (1, 1)]), ([1, 2], [(5, 0), (6, 1), (7, 0)])],
    [([1, 2], [(-0.0, 1 + 1e-12), (0.0, 2)]),
     ([1, 3], [(0.0, 7), (1 - 1e-12, 8)]), ([2, 3], [(1, 7), (2, 8)])],
    [([1, 2, 3], [(0, 1, 2), (0, 1, 3), (1, 1, 2), (2, 0, 0)]),
     ([2, 3], [(1, 2), (0, 0), (5, 5)])],
    [([2], [(1,), (0,), (4,)]),
     ([1, 2, 3], [(0, 1, 2), (0, 1, 3), (1, 2, 2), (2, 0, 0)])],
    [([1, 2], [(0, 0), (1, 0), (2, 1)]), ([2, 3], [(0, 5), (1, 6)]),
     ([4], [(7,), (8,)])],
    [([1, 2], [(0, 0), (1, 1)]), ([2, 3], [(5, 5)]), ([3, 4], [(5, 0)])],
    [([1, 3], [(1, 1 + 1e-12), (-0.0, 2), (0.0, 1)])],
], ids=["many-to-many", "cross-product", "no-matching-key", "one-row-side",
        "shared-at-other-positions", "shared-first-in-a-last-in-b",
        "equal-after-quantization", "semijoin-b-axes-in-a",
        "semijoin-a-axes-in-b", "cross-product-after-keyed-join",
        "empty-intermediate", "single-set"])
def test_join_matches_oracle_byte_for_byte(labeled):
    assert_join_matches_oracle(
        [(labs, np.array(pts, dtype=float)) for labs, pts in labeled])


def draw_tables(data, max_tables: int, max_rows: int,
                value=st.sampled_from(NEAR_EQUAL)):
    """2 to ``max_tables`` (labels, rows) pairs over labels 1..5; a table
    may take a subset of an earlier table's labels, so that the chain holds
    semijoins."""
    labeled = []
    for _ in range(data.draw(st.integers(2, max_tables))):
        if labeled and data.draw(st.booleans()):
            earlier = data.draw(st.sampled_from([labs for labs, _ in labeled]))
            labs = sorted(data.draw(st.sets(st.sampled_from(earlier), min_size=1)))
        else:
            labs = sorted(data.draw(st.sets(st.integers(1, 5), min_size=1,
                                            max_size=3)))
        rows = data.draw(st.lists(
            st.lists(value, min_size=len(labs), max_size=len(labs)),
            min_size=1, max_size=max_rows))
        labeled.append((labs, np.array(rows)))
    return labeled


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_join_matches_oracle_byte_for_byte_random(data):
    assert_join_matches_oracle(draw_tables(data, max_tables=5, max_rows=6))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sorted_constructor_matches_point_table_on_join_outputs(data):
    value = st.one_of(st.sampled_from(NEAR_EQUAL),
                      st.floats(-1e3, 1e3, allow_nan=False))
    sets = [finite_set(labs, rows) for labs, rows in draw_tables(data, 4, 6, value)]
    axes, rows = sets[0].axes, sets[0].table().points
    for s in sets[1:]:
        axes, rows = axisset._natural_join(axes, rows, s.axes, s.table().points)
    assert_same_bytes(PointTable._sorted(rows), PointTable(rows, dim=len(axes)).points)


def test_join_sorts_once_and_builds_no_table_in_between(monkeypatch):
    # a semijoin each way, a keyed join and a cross product, in that order
    sets = [finite_set([1, 2], [(0, 0), (1, 0), (2, 1), (3, 1)]),
            finite_set([1, 2, 3], [(0, 0, 5), (1, 0, 6), (2, 1, 7), (9, 9, 9)]),
            finite_set([3], [(5,), (7,)]),
            finite_set([3, 4], [(5, 1), (5, 2), (7, 3)]),
            finite_set([5], [(8,), (9,)])]
    target = AxisSet([1, 2, 3, 4, 5])
    expected = join_extrusions(sets, target).table().points
    inits, sorts = [], []
    init, sorted_ = PointTable.__init__, PointTable._sorted.__func__

    def counting_init(self, *args, **kwargs):
        inits.append(args)
        init(self, *args, **kwargs)

    def counting_sorted(cls, rows):
        sorts.append(rows.shape)
        return sorted_(cls, rows)

    monkeypatch.setattr(PointTable, "__init__", counting_init)
    monkeypatch.setattr(PointTable, "_sorted", classmethod(counting_sorted))
    joined = join_extrusions(sets, target)
    assert sorts == [(6, 5)] and inits == []
    assert_same_bytes(joined.table(), expected)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_point_table_matches_sorted_distinct_rows(data):
    dim = data.draw(st.integers(1, 4))
    value = st.one_of(st.sampled_from(NEAR_EQUAL),
                      st.floats(-1e3, 1e3, allow_nan=False))
    rows = data.draw(st.lists(st.lists(value, min_size=dim, max_size=dim),
                              min_size=1, max_size=12))
    repeats = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=12))
    arr = np.array(rows + [rows[k] for k in repeats])
    expected = np.array(sorted(set(map(tuple, np.round(arr, 9) + 0.0))))
    assert_same_bytes(PointTable(arr), expected)


# ---- tightest-generator properties (finite, exact) --------------------------


def test_join_of_projections_reconstructs_join():
    target = AxisSet(range(1, 7))
    joined = join_extrusions(five_node_sets(), target)
    projections = [project_set(joined, a) for a in AXES_5]
    again = join_extrusions(projections, target)
    assert sets_equal(again, joined)


def test_projections_are_tightest_generators():
    # dropping any point of any projection loses part of the joined set
    target = AxisSet(range(1, 7))
    joined = join_extrusions(five_node_sets(), target)
    projections = [project_set(joined, a) for a in AXES_5]
    for i, proj in enumerate(projections):
        rows = proj.table().points
        if rows.shape[0] < 2:
            continue
        smaller = finite_set(proj.axes, rows[1:])
        modified = projections.copy()
        modified[i] = smaller
        shrunk = join_extrusions(modified, target)
        assert set_includes(joined, shrunk)
        assert not sets_equal(shrunk, joined)


# ---- polytope round trip -----------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_polytope_project_extrude_round_trip(seed):
    rng = np.random.default_rng(seed)
    pts = rng.integers(-4, 5, size=(6, 2)).astype(float)
    s = polytope_set([2, 5], pl.from_vertices(pts))
    big = AxisSet([1, 2, 5, 9])
    back = project_set(extrude(s, big), s.axes)
    assert sets_equal(back, s, tol=1e-8)


def test_set_includes_polytopes():
    big = polytope_set([1, 2], pl.HPolytope.from_box([0, 0], [2, 2]))
    small = polytope_set([1, 2], pl.HPolytope.from_box([0.5, 0.5], [1, 1]))
    wider = polytope_set([1, 2], pl.HPolytope.from_box([0, 0], [2.001, 2]))
    assert set_includes(big, small) and not set_includes(small, big)
    # the tolerance reaches the polytope test: 1e-3 outside is inside at 1e-2
    assert not set_includes(big, wider)
    assert set_includes(big, wider, tol=1e-2)


def test_labeled_set_dimension_checks():
    with pytest.raises(DimensionMismatch):
        finite_set([1, 2], [(1, 2, 3)])
    with pytest.raises(DimensionMismatch):
        polytope_set([1, 2], pl.HPolytope.from_box([0], [1]))


def test_point_table_checks_its_width_against_dim():
    with pytest.raises(DimensionMismatch, match="2 coordinates, expected 3"):
        PointTable([[1.0, 2.0]], dim=3)
    assert PointTable([[1.0, 2.0]], dim=2).dim == 2
    assert PointTable([], dim=3).dim == 3


def test_point_table_dedup_and_order():
    t = PointTable([(1, 2), (1, 2 + 1e-12), (0, 0)])
    assert len(t) == 2
    assert t.points[0].tolist() == [0, 0]
