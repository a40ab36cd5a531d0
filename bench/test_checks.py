"""The answer checks accept reachnet's answers and reject perturbed ones.

Run from the repository root: ``python3 -m pytest bench/test_checks.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def solved(workload, inst, seed=0):
    ref = checks.reference(workload, inst, np.random.default_rng(seed))
    out = workloads.solve(workloads.build(workload, inst))
    return ref, run.answer_of(workload, out)


@pytest.fixture(scope="module")
def affine_case():
    inst = workloads.affine_chain(np.random.default_rng(3), 2, 1)
    return "affine-distributed", solved("affine-distributed", inst)


@pytest.fixture(scope="module")
def finite_case():
    inst = workloads.finite_chain(np.random.default_rng(4), 3, 1)
    return "finite-distributed", solved("finite-distributed", inst)


def translated(entry, delta):
    """The reported polytope moved by ``delta``."""
    labels, A, b, F, f = entry
    return labels, A, b + A @ delta, F, f + F @ delta


def test_affine_answer_passes(affine_case):
    workload, (ref, answer) = affine_case
    assert checks.check(workload, ref, answer) == []


def test_affine_support_shift_past_tolerance_is_rejected(affine_case):
    workload, (ref, answer) = affine_case
    delta = np.zeros(len(answer[0][0]))
    delta[0] = 1e-3  # support values here are below 10, so past SUPPORT_RTOL
    bad = [translated(answer[0], delta)] + answer[1:]
    errors = checks.check(workload, ref, bad)
    assert errors and "monolithic LP gives" in errors[0]


def test_affine_shift_within_tolerance_passes(affine_case):
    workload, (ref, answer) = affine_case
    delta = np.zeros(len(answer[0][0]))
    delta[0] = checks.SUPPORT_RTOL / 100
    assert checks.check(workload, ref, [translated(answer[0], delta)] + answer[1:]) == []


def test_affine_empty_and_unbounded_sets_are_rejected(affine_case):
    workload, (ref, answer) = affine_case
    labels, A, b, F, f = answer[0]
    empty = (labels, np.vstack([A, A[:1], -A[:1]]),
             np.hstack([b, b[:1], -b[:1] - 1.0]), F, f)
    assert "empty" in checks.check(workload, ref, [empty] + answer[1:])[0]
    unbounded = (labels, A[:0], b[:0], F[:0], f[:0])
    assert "unbounded" in checks.check(workload, ref, [unbounded] + answer[1:])[0]


def test_affine_wrong_axes_are_rejected(affine_case):
    workload, (ref, answer) = affine_case
    labels, *rows = answer[0]
    shifted = (tuple(x + 1 for x in labels), *rows)
    assert "axes" in checks.check(workload, ref, [shifted] + answer[1:])[0]


def test_finite_answer_passes(finite_case):
    workload, (ref, answer) = finite_case
    assert any(rows for _, rows in answer)
    assert checks.check(workload, ref, answer) == []


def test_dropped_point_is_rejected(finite_case):
    workload, (ref, answer) = finite_case
    k = next(k for k, (_, rows) in enumerate(answer) if rows)
    labels, rows = answer[k]
    bad = list(answer)
    bad[k] = (labels, set(sorted(rows)[1:]))
    assert "1 missing rows" in checks.check(workload, ref, bad)[0]


def test_added_point_is_rejected(finite_case):
    workload, (ref, answer) = finite_case
    labels, rows = answer[0]
    bad = [(labels, rows | {tuple(99.0 for _ in labels)})] + answer[1:]
    assert "1 extra rows" in checks.check(workload, ref, bad)[0]
