"""``kitti.parse_label_file`` against an independent oracle.

``reference_parse`` is the parser as it was when every kept line became a
``Box3D`` and a ``ScoredDetection``, written out here with those checks,
so that the oracle shares no check with the package. On random and
hand-made files the two must give the same id, labels, ``float.hex`` of all
eight columns and warnings; on a faulty file, the same ``ParseError`` text
and line number, and the same warnings before it.
"""
import logging
import math
import random
from pathlib import Path

import pytest

from scenesel.core import DEFAULT_CATALOG, ParseError, read_text
from scenesel.kitti import parse_label_file

LOGGER = "scenesel.kitti"


def _reference_row(values: tuple, where: str, line_no: int) -> tuple:
    """The parent's ``Box3D`` and ``ScoredDetection`` checks of one kept line."""
    h, w, l, x, y, z, theta = values[7:14]
    confidence = values[14] if len(values) == 15 else 1.0
    if not (0 < w < math.inf and 0 < l < math.inf and 0 < h < math.inf):
        raise ParseError(f"box dimensions must be positive and finite, got w={w} l={l} h={h}", where, line_no)
    if not math.isfinite(theta):
        raise ParseError("yaw must be finite", where, line_no)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ParseError(f"box center must be finite, got x={x} y={y} z={z}", where, line_no)
    if not (0.0 <= confidence <= 1.0):
        raise ParseError(f"confidence must be in [0, 1], got {confidence}", where, line_no)
    return (x, y, z, w, l, h, theta, confidence)


def reference_parse(path, catalog):
    """(id, labels, rows) of a label file, one line at a time."""
    path = Path(path)
    where = str(path)
    labels, rows = [], []
    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        if len(fields) not in (15, 16):
            raise ParseError(f"expected 15 or 16 fields, got {len(fields)}", where, line_no)
        try:
            values = tuple(map(float, fields[1:]))
        except ValueError as exc:
            raise ParseError(f"bad numeric field: {exc}", where, line_no) from exc
        if not math.isfinite(values[1]):
            raise ParseError(f"occluded must be finite, got {fields[2]}", where, line_no)
        label = fields[0]
        if label == "DontCare":
            continue
        if label not in catalog:
            logging.getLogger(LOGGER).warning("%s:%d: skipping unknown class %r", path, line_no, label)
            continue
        labels.append(label)
        rows.append(_reference_row(values, where, line_no))
    return path.stem, labels, rows


def _outcome(parse, path, caplog):
    """What a parse returns or raises, with the warnings it logs, with
    every float as ``float.hex``."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger=LOGGER):
        try:
            result = parse(path)
        except ParseError as exc:
            result = ("ParseError", str(exc), exc.path, exc.line_no)
    return result, [r.getMessage() for r in caplog.records]


def _columns(scene):
    return scene.id, list(scene.labels), [tuple(map(float.hex, row)) for row in scene.boxes.tolist()]


def _hexed(reference):
    if reference[0] == "ParseError":
        return reference
    sid, labels, rows = reference
    return sid, labels, [tuple(map(float.hex, row)) for row in rows]


def assert_matches_oracle(path, caplog):
    got, got_logs = _outcome(lambda p: _columns(parse_label_file(p, DEFAULT_CATALOG)), path, caplog)
    want, want_logs = _outcome(lambda p: reference_parse(p, DEFAULT_CATALOG), path, caplog)
    assert got == _hexed(want)
    assert got_logs == want_logs
    return got


# A valid line's fields: type, truncated, occluded, alpha, bbox (4), h w l, x y z, rotation_y, score.
def _line(label="car", h="1.5", w="1.6", l="3.9", x="5.0", y="1.0", z="0.5", ry="0.1", score="0.8", occluded="0"):
    fields = [label, "0.0", occluded, "0.0", "0", "0", "0", "0", h, w, l, x, y, z, ry]
    return " ".join(fields if score is None else [*fields, score])


def _number(rng: random.Random, lo: float, hi: float) -> str:
    """A number in [lo, hi] written one of the ways a label file may hold it."""
    v = rng.uniform(lo, hi)
    form = rng.randrange(7)
    if form == 0:
        return repr(v)
    if form == 1:
        return f"{v:.6f}"
    if form == 2:
        return f"{v:.3e}"
    if form == 3:
        return f"{v:+.2f}"
    if form == 4:
        return f"{v:.9E}"
    if form == 5 and lo <= 0 <= hi:
        return rng.choice(["-0.0", "0", "-0", "+0.0", "0e0"])
    return str(round(v, rng.randrange(1, 5)))


def _random_line(rng: random.Random) -> str:
    label = rng.choice(["car", "car", "pedestrian", "cyclist", "DontCare", "Van", "Misc"])
    line = _line(
        label,
        h=_number(rng, 0.3, 3.0),
        w=_number(rng, 0.3, 3.0),
        l=_number(rng, 0.3, 6.0),
        x=_number(rng, -80, 80),
        y=_number(rng, -80, 80),
        z=_number(rng, -2, 2),
        ry=_number(rng, -math.pi, math.pi),
        score=rng.choice([None, _number(rng, 0.0, 1.0), "1", "0", "-0.0", "1.0"]),
        occluded=rng.choice(["0", "1", "2", "3", "-1"]),
    )
    sep = rng.choice([" ", "  ", "\t", " \t "])
    return sep.join(line.split(" "))


def _random_file(rng: random.Random) -> list[str]:
    lines = []
    for _ in range(rng.randrange(0, 25)):
        lines.append(rng.choice(["", "   ", "\t"]) if rng.random() < 0.1 else _random_line(rng))
    return lines


def _write(tmp_path, lines, name="scene_000001.txt", end="\n"):
    path = tmp_path / name
    path.write_text(end.join(lines) + (end if lines else ""))
    return path


@pytest.mark.parametrize("seed", range(40))
def test_random_files_match_the_oracle(tmp_path, caplog, seed):
    rng = random.Random(seed)
    for i in range(10):
        path = _write(tmp_path, _random_file(rng), f"scene_{i:06d}.txt", rng.choice(["\n", "\r\n"]))
        assert_matches_oracle(path, caplog)


HAND_MADE = {
    "empty": [],
    "only blank lines": ["", "   ", "\t"],
    "15 fields": [_line(score=None)],
    "15 and 16 fields": [_line(score=None), _line("pedestrian", score="0.25"), _line(score=None)],
    "DontCare only": [_line("DontCare"), _line("DontCare", score=None)],
    "unknown classes": [_line("Van"), _line(), "", _line("Truck", score=None), _line("cyclist")],
    "negative zeros": [_line(x="-0.0", y="-0", z="-0.000000", ry="-0.0", score="-0.0")],
    "scores at the bounds": [_line(score="0"), _line(score="1"), _line(score="1.000000")],
    "no trailing newline": [_line(), _line("cyclist")],
}


@pytest.mark.parametrize("case", HAND_MADE)
def test_hand_made_files_match_the_oracle(tmp_path, caplog, case):
    got = assert_matches_oracle(_write(tmp_path, HAND_MADE[case]), caplog)
    assert got[0] == "scene_000001"


def test_negative_zero_is_kept_bit_for_bit(tmp_path, caplog):
    _, _, rows = assert_matches_oracle(_write(tmp_path, HAND_MADE["negative zeros"]), caplog)
    assert rows[0][:3] == ("-0x0.0p+0",) * 3


def test_unknown_classes_warn_with_their_lines(tmp_path, caplog):
    path = _write(tmp_path, HAND_MADE["unknown classes"])
    caplog.set_level(logging.WARNING, logger=LOGGER)
    scene = parse_label_file(path, DEFAULT_CATALOG)
    assert scene.labels == ("car", "cyclist")
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}:1: skipping unknown class 'Van'",
        f"{path}:4: skipping unknown class 'Truck'",
    ]


# fault kind: lines that each hold it once.
FAULTS = {
    "14 fields": [" ".join(_line().split()[:14])],
    "17 fields": [_line() + " 0.5"],
    "bad number": [_line(w="wide"), _line(x="1.2.3"), _line(score="0.5x")],
    "bad number on a DontCare line": [_line("DontCare", h="tall")],
    "non-finite occluded": [_line(occluded="inf"), _line(occluded="nan"), _line("Van", occluded="-inf")],
    "zero size": [_line(h="0"), _line(w="-0.0")],
    "negative size": [_line(w="-1.6"), _line(l="-3.9", h="-1")],
    "inf size": [_line(l="inf"), _line(h="1e400"), _line(w="nan")],
    "non-finite yaw": [_line(ry="nan"), _line(ry="-inf")],
    "non-finite center": [_line(x="nan"), _line(y="inf"), _line(z="-1e999")],
    "confidence outside [0, 1]": [_line(score="1.5"), _line(score="-0.25"), _line(score="nan"), _line(score="inf")],
}
VALID = [_line(), "", _line("Van"), _line("pedestrian", score=None), _line("DontCare")]


@pytest.mark.parametrize("kind", FAULTS)
def test_a_fault_raises_as_the_oracle_does(tmp_path, caplog, kind):
    for bad in FAULTS[kind]:
        for at in range(len(VALID) + 1):
            lines = VALID[:at] + [bad] + VALID[at:]
            got = assert_matches_oracle(_write(tmp_path, lines), caplog)
            assert got[0] == "ParseError", (kind, bad, at)
            assert got[3] == at + 1


@pytest.mark.parametrize("second", FAULTS)
@pytest.mark.parametrize("first", FAULTS)
def test_the_first_of_two_faults_is_reported(tmp_path, caplog, first, second):
    lines = [_line("Van"), FAULTS[first][0], _line(), FAULTS[second][-1], _line("cyclist")]
    got = assert_matches_oracle(_write(tmp_path, lines), caplog)
    assert got[0] == "ParseError"
    assert got[3] == 2


def test_a_box_fault_on_a_skipped_line_is_no_fault(tmp_path, caplog):
    lines = [_line("DontCare", h="0"), _line("Van", score="1.5"), _line()]
    got = assert_matches_oracle(_write(tmp_path, lines), caplog)
    assert got[1] == ["car"]
