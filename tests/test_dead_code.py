"""Every module-level function and class in ``scenesel``, and every method
and property of those classes, is used by the system.

A definition counts as used when a module of ``src/scenesel`` or ``bench/``
refers to its name (a bare name or an attribute) outside the definition
itself. The package ``__init__`` only re-exports names, so neither its
definitions nor its references count; tests do not count either. Dunder
methods are called by Python, so they are not checked. A module-level name
nothing refers to may stay only with its reason in ``ALLOWED``; a method or
property may not. Every field of a dataclass must be read as an attribute
(``x.field``) by a module of ``src/scenesel`` or ``bench/``, unless
``ALLOWED`` holds ``(module, "Class.field")`` with its reason.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scenesel"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
REFERRING = MODULES + sorted((ROOT / "bench").glob("*.py"))

ALLOWED = {}

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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if (target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)) == "dataclass":
            return True
    return False


def fields(path: Path) -> set[tuple[str, str]]:
    """(class, field) of the module's top-level dataclasses."""
    return {
        (top.name, node.target.id)
        for top in ast.parse(path.read_text()).body
        if isinstance(top, ast.ClassDef) and _is_dataclass(top)
        for node in top.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    }


def attribute_reads(path: Path) -> set[str]:
    """Attribute names the module reads."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
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


def test_every_dataclass_field_is_read():
    read = set().union(*(attribute_reads(p) for p in REFERRING))
    unread = sorted(
        (path.stem, f"{cls}.{name}")
        for path in MODULES
        for cls, name in fields(path)
        if name not in read and (path.stem, f"{cls}.{name}") not in ALLOWED
    )
    assert unread == []


def test_the_field_check_sees_a_field_nothing_reads(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Log:\n"
        "    sizes: tuple\n"
        "    degraded: bool = False\n"
        "def sizes(log):\n"
        "    log.degraded = True\n"  # a write is not a read
        "    return log.sizes\n"
    )
    assert fields(module) == {("Log", "sizes"), ("Log", "degraded")}
    assert {name for _, name in fields(module)} - attribute_reads(module) == {"degraded"}


def test_allowed_names_are_defined_and_unreferenced():
    used = set().union(*(references(p) for p in REFERRING))
    read = set().union(*(attribute_reads(p) for p in REFERRING))
    for (mod, name), reason in ALLOWED.items():
        assert reason
        if "." in name:
            assert tuple(name.split(".")) in fields(SRC / f"{mod}.py"), (mod, name)
            assert name.split(".")[1] not in read, (mod, name)
        else:
            assert name in definitions(SRC / f"{mod}.py"), (mod, name)
            assert name not in used, (mod, name)
