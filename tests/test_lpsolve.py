"""LP layer: statuses, support functions, duality, vertex-oracle agreement."""

from __future__ import annotations

import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from reachnet import lpsolve
from reachnet.errors import DimensionMismatch, EmptySet, NumericalFailure
from reachnet.polytope import HPolytope

from .oracles import box_vertices, linprog_solve


def test_optimal_on_box():
    lp = lpsolve.LinearProgram(
        [1.0, 1.0],
        A_ineq=[[1, 0], [0, 1], [-1, 0], [0, -1]],
        b_ineq=[1, 2, 0, 0],
    )
    res = lpsolve.solve(lp)
    assert res.is_optimal
    assert res.value == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(res.point, [1.0, 2.0], atol=1e-9)


def test_infeasible():
    lp = lpsolve.LinearProgram([1.0], A_ineq=[[1], [-1]], b_ineq=[0, -1])
    assert lpsolve.solve(lp).status == lpsolve.INFEASIBLE


def test_unbounded():
    lp = lpsolve.LinearProgram([1.0], A_ineq=[[-1]], b_ineq=[0])
    assert lpsolve.solve(lp).status == lpsolve.UNBOUNDED


def test_equalities_handled_directly():
    # max x + y on the segment x + y = 1, 0 <= x <= 1
    lp = lpsolve.LinearProgram(
        [2.0, 1.0],
        A_ineq=[[1, 0], [-1, 0]],
        b_ineq=[1, 0],
        A_eq=[[1, 1]],
        b_eq=[1],
    )
    res = lpsolve.solve(lp)
    assert res.is_optimal and res.value == pytest.approx(2.0, abs=1e-9)


def test_pivot_cap_raises_numerical_failure(monkeypatch):
    # generic rows so presolve cannot finish the job before the cap bites
    rng = np.random.default_rng(0)
    lp = lpsolve.LinearProgram(
        np.ones(6),
        A_ineq=rng.normal(size=(30, 6)),
        b_ineq=np.abs(rng.normal(size=30)) + 1,
    )
    monkeypatch.setattr(lpsolve, "DEFAULT_PIVOT_CAP", 1)
    with pytest.raises(NumericalFailure):
        lpsolve.solve(lp)


def test_dimension_validation():
    with pytest.raises(DimensionMismatch):
        lpsolve.LinearProgram([1.0, 2.0], A_ineq=[[1.0]], b_ineq=[0.0])
    with pytest.raises(DimensionMismatch):
        lpsolve.LinearProgram([np.nan])


def test_support_box_and_unbounded():
    box = HPolytope.from_box([-1, -2], [3, 4])
    assert lpsolve.support(box, [1, 0]) == pytest.approx(3.0, abs=1e-9)
    assert lpsolve.support(box, [-1, -1]) == pytest.approx(3.0, abs=1e-9)
    halfspace = HPolytope([[1.0, 0.0]], [0.0])
    assert math.isinf(lpsolve.support(halfspace, [0.0, 1.0]))
    with pytest.raises(EmptySet):
        lpsolve.support(HPolytope.empty(2), [1.0, 0.0])


def test_is_empty():
    assert lpsolve.is_empty(HPolytope.empty(3))
    assert not lpsolve.is_empty(HPolytope.from_box([0], [1]))
    squeezed = HPolytope([[1.0], [-1.0]], [0.0, -1.0])
    assert lpsolve.is_empty(squeezed)


def test_box_objective_matches_vertex_enumeration():
    # worst case of a linear functional over a box sits at a corner
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        lo = rng.uniform(-3, 0, size=d)
        hi = lo + rng.uniform(0.1, 3, size=d)
        c = rng.normal(size=d)
        box = HPolytope.from_box(lo, hi)
        val = lpsolve.support(box, c)
        oracle = max(float(v @ c) for v in box_vertices(lo, hi))
        assert val == pytest.approx(oracle, abs=1e-9)


def _random_bounded_lp(rng):
    """Random LP over a bounded polytope with known vertex set (a box cut
    by a few extra halfspaces through it)."""
    d = int(rng.integers(2, 4))
    lo = rng.uniform(-2, -0.5, size=d)
    hi = rng.uniform(0.5, 2, size=d)
    G = [np.eye(d), -np.eye(d)]
    g = [hi, -lo]
    for _ in range(int(rng.integers(0, 3))):
        a = rng.normal(size=d)
        a /= np.linalg.norm(a)
        G.append(a[None, :])
        g.append(np.array([float(rng.uniform(0.2, 1.5))]))
    return np.vstack(G), np.hstack(g), rng.normal(size=d)


def test_duality_gap_and_vertex_oracle_agreement():
    from reachnet import polytope as pl

    rng = np.random.default_rng(2024)
    for _ in range(120):
        G, g, c = _random_bounded_lp(rng)
        lp = lpsolve.LinearProgram(c, A_ineq=G, b_ineq=g)
        res = lpsolve.solve(lp)
        assert res.is_optimal
        assert abs(res.value - res.dual_value(lp)) <= 1e-7
        verts = pl.vertices(pl.HPolytope(G, g))
        assert res.value == pytest.approx(float((verts @ c).max()), abs=1e-7)


def _outcome(solver, *args):
    try:
        return solver(*args)
    except NumericalFailure:
        return NumericalFailure


def test_solve_agrees_with_linprog(monkeypatch):
    # the criterion-11 instances, then one case per verdict, the pivot cap,
    # and a model HiGHS rejects (x = 0 is feasible, so it is not infeasible)
    rng = np.random.default_rng(7777)
    cases = []
    for _ in range(500):
        G, g, c = _random_bounded_lp(rng)
        cases.append((lpsolve.LinearProgram(c, A_ineq=G, b_ineq=g),
                      lpsolve.DEFAULT_PIVOT_CAP))
    cases.append((lpsolve.LinearProgram([1.0], A_ineq=[[1], [-1]], b_ineq=[0, -1]),
                  lpsolve.DEFAULT_PIVOT_CAP))
    cases.append((lpsolve.LinearProgram([1.0], A_ineq=[[-1]], b_ineq=[0]),
                  lpsolve.DEFAULT_PIVOT_CAP))
    cases.append((lpsolve.LinearProgram([2.0, 1.0], A_ineq=[[1, 0], [-1, 0]],
                                        b_ineq=[1, 0], A_eq=[[1, 1]], b_eq=[1]),
                  lpsolve.DEFAULT_PIVOT_CAP))
    cap_rng = np.random.default_rng(0)
    cases.append((lpsolve.LinearProgram(np.ones(6), A_ineq=cap_rng.normal(size=(30, 6)),
                                        b_ineq=np.abs(cap_rng.normal(size=30)) + 1),
                  1))
    cases.append((lpsolve.LinearProgram([1.0], A_ineq=[[1e16], [-1.0]],
                                        b_ineq=[1.0, 1.0]),
                  lpsolve.DEFAULT_PIVOT_CAP))

    direct, reference = [], []
    for lp, cap in cases:
        monkeypatch.setattr(lpsolve, "DEFAULT_PIVOT_CAP", cap)
        direct.append(_outcome(lpsolve.solve, lp))
        reference.append(_outcome(linprog_solve, lp, cap))

    tail = [r if r is NumericalFailure else r.status for r in direct[-5:]]
    assert tail == [lpsolve.INFEASIBLE, lpsolve.UNBOUNDED, lpsolve.OPTIMAL,
                    NumericalFailure, NumericalFailure]
    for a, b in zip(direct, reference):
        if a is NumericalFailure or b is NumericalFailure:
            assert a is b
            continue
        assert a.status == b.status
        if a.is_optimal:
            assert abs(a.value - b.value) <= 1e-9
            for x, y in ((a.point, b.point), (a.ineq_duals, b.ineq_duals),
                         (a.eq_duals, b.eq_duals)):
                assert x.shape == y.shape
                assert np.all(np.abs(x - y) <= 1e-9)


# ---- RowLps: redundancy LPs on one warm-started model --------------------------


def test_row_lps_warm_answers_match_cold_ones():
    # a random bounded body; every LP is answered warm, and agrees with the
    # same LP built afresh
    rng = np.random.default_rng(3)
    G = rng.normal(size=(40, 4))
    G /= np.linalg.norm(G, axis=1, keepdims=True)
    g = rng.uniform(1.0, 2.0, size=40)
    lps = lpsolve.RowLps(G, g, np.zeros((0, 4)), np.zeros(0))
    for i in range(40):
        warm, cold = lps.warm(i), lps.cold(i)
        assert warm is not None and warm.is_optimal and cold.is_optimal
        assert abs(warm.value - cold.value) <= 1e-9
        assert warm.ineq_duals.shape == cold.ineq_duals.shape == (39,)


def test_row_lps_dropped_row_is_out_of_force():
    # box [-1, 1]^2 and x + y <= 3; with x <= 1 dropped, maximizing x over
    # the rest reaches (4, -1), not x = 1
    G = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    g = np.array([1.0, 1.0, 1.0, 1.0, 3.0])
    lps = lpsolve.RowLps(np.vstack([G, [[1.0, 0.0]]]), np.append(g, 2.5),
                         np.zeros((0, 2)), np.zeros(0))
    assert lps.warm(5).value == pytest.approx(1.0, abs=1e-9)  # row 0 binds
    lps.drop(0)
    for res in (lps.warm(5), lps.cold(5)):
        assert res.value == pytest.approx(4.0, abs=1e-9)
    assert list(lps.kept) == [False, True, True, True, True, True]


def test_row_lps_pivot_cap_applies_to_each_lp(monkeypatch):
    # the session pivots far more often than the cap in total, yet every LP
    # is answered warm: the cap counts one LP's pivots, not the session's
    rng = np.random.default_rng(0)
    G = rng.normal(size=(60, 6))
    g = np.abs(rng.normal(size=60)) + 1
    cap = 30
    monkeypatch.setattr(lpsolve, "DEFAULT_PIVOT_CAP", cap)
    lps = lpsolve.RowLps(G, g, np.zeros((0, 6)), np.zeros(0))
    points = []
    for i in range(60):
        res = lps.warm(i)
        assert res is not None and res.is_optimal, i
        points.append(res.point)
    moves = sum(not np.allclose(a, b) for a, b in zip(points, points[1:]))
    assert moves > cap  # each move from one optimal vertex to another pivots


# ---- loading the HiGHS binding ----------------------------------------------
#
# Each check runs in a fresh interpreter, because this process has imported
# scipy.optimize already (the linprog oracle).

SRC = Path(__file__).resolve().parents[1] / "src"

#: max x + y over the unit box, solved through lpsolve; prints the JSON of
#: the optimum, whether scipy.optimize got imported, and whether lpsolve
#: drives the module registered under the binding's dotted name.
_SOLVE_AND_REPORT = """
from reachnet import lpsolve
res = lpsolve.solve(lpsolve.LinearProgram(
    [1.0, 1.0], A_ineq=[[1, 0], [0, 1], [-1, 0], [0, -1]], b_ineq=[1, 1, 0, 0]))
core = sys.modules["scipy.optimize._highspy._core"]
print(json.dumps({"value": res.value,
                  "optimize_loaded": "scipy.optimize" in sys.modules,
                  "registered": lpsolve._Highs is core._Highs}))
"""


def _run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter with ``src`` first on the path; it
    prints one JSON object on its last line, which is returned."""
    prelude = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
    proc = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_reachnet_runs_no_scipy_package_init():
    out = _run_fresh("""
        import reachnet, reachnet.cli
        print(json.dumps(sorted(m for m in sys.modules
                                if m.startswith("scipy") and "._core" not in m)))
    """)
    # only the extension and the submodules it registers itself
    assert out == []


def test_binding_loaded_by_scipy_optimize_is_reused():
    # CPython hands back the registered module even when asked to load the
    # file again, so count the loads the loader asks for
    out = _run_fresh("""
        import importlib.util
        import scipy.optimize
        core = scipy.optimize._highspy._core
        loads, load = [], importlib.util.spec_from_file_location
        def counted(*args, **kwargs):
            loads.append(args)
            return load(*args, **kwargs)
        importlib.util.spec_from_file_location = counted
        from reachnet import lpsolve
        print(json.dumps({"loads": len(loads),
                          "same": lpsolve._Highs is core._Highs
                                  and sys.modules[core.__name__] is core}))
    """)
    assert out == {"loads": 0, "same": True}


def test_later_linprog_reuses_the_loaded_binding():
    out = _run_fresh("""
        from reachnet import lpsolve
        core = sys.modules["scipy.optimize._highspy._core"]
        from scipy.optimize import linprog
        from scipy.optimize._highspy._core import _Highs
        res = linprog([-1.0, -1.0], bounds=[(0, 1), (0, 2)], method="highs-ds")
        print(json.dumps({"status": res.status, "value": -res.fun,
                          "same": _Highs is lpsolve._Highs
                                  and sys.modules[core.__name__] is core}))
    """)
    assert out == {"status": 0, "value": 3.0, "same": True}


@pytest.mark.parametrize("hide, fallback", [
    ("", False),
    # a suffix list that finds no file
    ("import importlib.machinery\n"
     "importlib.machinery.EXTENSION_SUFFIXES = []\n", True),
    # scipy's spec names a directory with no binding in it; the import
    # system still finds scipy's modules through scipy.__path__
    ("import copy, scipy\n"
     "scipy.__spec__ = copy.copy(scipy.__spec__)\n"
     "scipy.__spec__.submodule_search_locations = [{empty!r}]\n", True),
], ids=["file", "no-suffix", "no-file"])
def test_binding_loads_from_its_file_else_by_the_plain_import(
        hide, fallback, tmp_path):
    # only the plain import runs scipy.optimize's __init__
    out = _run_fresh(hide.format(empty=str(tmp_path)) + _SOLVE_AND_REPORT)
    assert out == {"value": 2.0, "optimize_loaded": fallback, "registered": True}
