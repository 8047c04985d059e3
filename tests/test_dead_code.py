"""Every module-level function and class in ``scenesel``, and every method
and property of those classes, is used by the system.

A definition counts as used when a module of ``src/scenesel`` or ``bench/``
refers to its name (a bare name or an attribute) outside the definition
itself. The package ``__init__`` only re-exports names, so neither its
definitions nor its references count; tests do not count either. Dunder
methods are called by Python, so they are not checked. A module-level name
nothing refers to may stay only with its reason in ``ALLOWED``; a method or
property may not.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scenesel"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
REFERRING = MODULES + sorted((ROOT / "bench").glob("*.py"))

_REFERENCE_FOR_ACCEPTANCE = (
    "reference moment that acceptance checks 03/04 and TestOnePassUncertainty "
    "compare the array scoring of scene_uncertainties against"
)
ALLOWED = {
    ("uncertainty", "mixture_mean"): _REFERENCE_FOR_ACCEPTANCE,
    ("uncertainty", "mixture_au"): _REFERENCE_FOR_ACCEPTANCE,
    ("uncertainty", "mixture_eu"): _REFERENCE_FOR_ACCEPTANCE,
    ("uncertainty", "scene_uncertainty"): (
        "public one-scene call of scene_uncertainties, which every program path "
        "calls once per list; the golden digests and the tests score one scene with it"
    ),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(path: Path) -> set[str]:
    """Names of the module's top-level functions and classes."""
    return {node.name for node in ast.parse(path.read_text()).body if isinstance(node, _DEFS)}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def members(path: Path) -> set[tuple[str, str]]:
    """(class, name) of the non-dunder methods and properties of the
    module's top-level classes."""
    return {
        (top.name, node.name)
        for top in ast.parse(path.read_text()).body
        if isinstance(top, ast.ClassDef)
        for node in top.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(node.name)
    }


def _names(node: ast.AST, own: set[str], found: set[str]) -> None:
    """Add the names ``node`` refers to, skipping those of the definitions
    it sits in (``own``), so that recursion does not count."""
    if isinstance(node, _DEFS):
        own = own | {node.name}
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        name = None
    if name is not None and name not in own:
        found.add(name)
    for child in ast.iter_child_nodes(node):
        _names(child, own, found)


def references(path: Path) -> set[str]:
    """Names the module refers to; a definition's references to its own
    name (recursion) do not count."""
    found = set()
    _names(ast.parse(path.read_text()), set(), found)
    return found


def test_every_definition_is_referenced():
    used = set().union(*(references(p) for p in REFERRING))
    unused = sorted(
        (path.stem, name)
        for path in MODULES
        for name in definitions(path) - used
        if (path.stem, name) not in ALLOWED
    )
    assert unused == []


def test_every_method_and_property_is_referenced():
    used = set().union(*(references(p) for p in REFERRING))
    unused = sorted(
        (path.stem, f"{cls}.{name}")
        for path in MODULES
        for cls, name in members(path)
        if name not in used
    )
    assert unused == []


def test_allowed_names_are_defined_and_unreferenced():
    used = set().union(*(references(p) for p in REFERRING))
    for (mod, name), reason in ALLOWED.items():
        assert reason
        assert name in definitions(SRC / f"{mod}.py"), (mod, name)
        assert name not in used, (mod, name)
