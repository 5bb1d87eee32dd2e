"""Import hygiene of the package source, checked with the standard ``ast``.

A module may import a name only if it reads it or re-exports it through
``__all__``.  ``from __future__`` imports are compiler directives and exempt.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "baerlab"


def imported_names(tree: ast.Module) -> dict:
    """Bound name -> line for every import statement in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def read_names(tree: ast.Module) -> set:
    """Names the module reads, including those inside quoted annotations."""
    out = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                out.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return out


def exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = read_names(tree) | exported_names(tree)
    return sorted(
        (line, name) for name, line in imported_names(tree).items() if name not in used
    )


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from .group import Group, Subgroup as S, closure\n"
        "__all__ = ['closure']\n"
        "def f(x: 'S') -> int:\n"
        "    return math.prod(x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "Group")]
