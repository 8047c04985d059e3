"""Every import in a ``scenesel`` module or a test module is used by that module.

The package ``__init__`` re-exports names and is not checked. A name the
module itself does not use may stay only with its reason in ``ALLOWED``.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scenesel"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(
    (ROOT / "tests").glob("*.py")
)

ALLOWED = {
    ("sampler", "marginalized_kernel"): "bench/spans.py patches it at this name "
    "(tests/test_bench_hooks.py checks that it exists)",
}


def imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports (``from __future__`` excluded)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names the module looks up (an attribute chain counts as its root)."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = imported_names(tree) - used_names(tree)
    assert sorted(unused - {name for mod, name in ALLOWED if mod == path.stem}) == []


def test_allowed_names_are_still_imported():
    for mod, name in ALLOWED:
        assert name in imported_names(ast.parse((SRC / f"{mod}.py").read_text())), (mod, name)
