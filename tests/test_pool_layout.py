"""``scenesel.kitti`` alone spells out the layout of a pool directory: no
other module of ``src/scenesel`` holds ``"labels"`` or ``"sidecars"`` as a
string constant, nor as a component of a ``/``-separated one. Other modules
build a pool file's path with ``kitti.label_path`` and ``kitti.sidecar_path``.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scenesel"
LAYOUT = {"labels", "sidecars"}


def layout_constants(path: Path) -> list[tuple[int, str]]:
    """(line, value) of each string constant in the module that names a
    pool subdirectory."""
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and LAYOUT & set(node.value.split("/"))
    )


def test_only_kitti_spells_out_the_pool_layout():
    found = {
        path.stem: layout_constants(path)
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "kitti" and layout_constants(path)
    }
    assert found == {}


def test_the_check_sees_a_layout_constant(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        '"""Reads labels/ and sidecars/ of a pool."""\n'  # prose is not a path
        'a = "labels"\n'
        'b = f"{root}/sidecars/{sid}.mdn"\n'
        'c = "sidecars/x.mdn"\n'
        'd = "labeled"\n'
    )
    assert layout_constants(module) == [(2, "labels"), (3, "/sidecars/"), (4, "sidecars/x.mdn")]
    assert layout_constants(SRC / "kitti.py")
