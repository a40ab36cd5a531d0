"""Every name a library or test module imports is used in that module.

``__init__.py`` files re-export names on purpose and are skipped, as are
``__future__`` imports.  A name that appears only inside a string annotation
(``poly: "HPolytope"``) counts as used.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "reachnet"
MODULES = sorted(p for p in [*SRC.glob("*.py"), *TESTS.glob("*.py")]
                 if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        if ann is None:
            continue
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((name, line) for name, line in _imported(tree).items()
                  if name not in used)


@pytest.mark.parametrize(
    "path", MODULES,
    ids=[p.name if p.parent == SRC else f"tests/{p.name}" for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_string_annotations_and_skips_future():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from typing import Iterable, Sequence\n"
              "from .polytope import HPolytope\n"
              "def f(p: 'HPolytope', xs: Sequence[int]) -> float:\n"
              "    return math.pi\n")
    assert unused_imports(source) == [("Iterable", 3)]
