import ast
import dataclasses
import math
import os
import random
import re
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from scenesel import core
from scenesel.core import (
    Anchor,
    BOX_COLUMNS,
    Box3D,
    ClassCatalog,
    DataError,
    MixtureError,
    MixtureParams,
    ParseError,
    RESIDUAL_DIMS,
    Scene,
    ScoredDetection,
    WEIGHT_SUM_TOL,
    read_bytes,
    read_text,
    write_atomic,
    write_text_atomic,
)
from conftest import mixture_from_rows, scene_of, stack_mixtures, uniform_mixture


class TestAnchorDiagonal:
    def test_three_four_five(self):
        assert Anchor(length=4.0, width=3.0, height=1.0).diagonal == pytest.approx(5.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["length", "width", "height"])
    def test_a_dimension_that_is_no_positive_finite_float_is_rejected(self, field, bad):
        dims = {"length": 3.9, "width": 1.6, "height": 1.56, field: bad}
        with pytest.raises(ValueError, match="anchor dimensions must be positive and finite"):
            Anchor(**dims)

    @pytest.mark.parametrize("dims", [(1e200, 1.6, 1.56), (3.9, 1e200, 1.56), (3.9, 1.6, 1e200)])
    def test_a_dimension_whose_square_overflows_is_rejected(self, dims):
        # ``1e200 ** 2`` raises OverflowError where the uncertainty terms
        # square the anchor's diagonal and height.
        with pytest.raises(ValueError, match="anchor diagonal and height must have finite squares"):
            Anchor(*dims)

    def test_kitti_car_anchor(self):
        # sqrt(1.6^2 + 3.9^2), computed directly
        assert Anchor(length=3.9, width=1.6, height=1.56).diagonal == pytest.approx(4.215447781671598, abs=1e-12)


class TestCatalog:
    def test_reserved_labels_excluded(self):
        with pytest.raises(ValueError):
            ClassCatalog(classes=("car", "__ego__"))

    def test_duplicate_classes_rejected(self):
        with pytest.raises(ValueError):
            ClassCatalog(classes=("car", "car"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ClassCatalog(classes=())


class TestBox3D:
    def test_positive_dims_enforced(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, w=-1.0, l=1.0, h=1.0, theta=0.0)

    @pytest.mark.parametrize("dims", [(math.inf, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, math.nan)])
    def test_nonfinite_dims_rejected(self, dims):
        with pytest.raises(ValueError, match="box dimensions must be positive and finite"):
            Box3D(0, 0, 0, *dims, theta=0.0)

    def test_nonfinite_yaw_rejected(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, w=1.0, l=1.0, h=1.0, theta=math.inf)

    @pytest.mark.parametrize("center", [(math.nan, 0, 0), (0, math.inf, 0), (0, 0, -math.inf)])
    def test_nonfinite_center_rejected(self, center):
        with pytest.raises(ValueError, match="box center must be finite"):
            Box3D(*center, w=1.0, l=1.0, h=1.0, theta=0.0)


class TestMixtureParams:
    def test_weight_sum_tolerance(self):
        with pytest.raises(ValueError):
            mixture_from_rows((0.5, 0.5 + 1e-6), (0.0, 0.0), (1.0, 1.0))

    def test_valid_simplex_accepted(self):
        m = mixture_from_rows((0.5, 0.3, 0.2), (0.0, 1.0, 2.0), (1.0, 1.0, 1.0))
        assert m.block.shape[3] == 3

    def test_uneven_component_count_rejected(self):
        rows_w = tuple([(1.0,)] * 6 + [(0.5, 0.5)])
        rows_m = tuple([(0.0,)] * 6 + [(0.0, 0.0)])
        rows_v = tuple([(1.0,)] * 6 + [(1.0, 1.0)])
        with pytest.raises(ValueError, match="all dimensions must share the same component count"):
            MixtureParams.from_rows([(rows_w, rows_m, rows_v)])

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            uniform_mixture(var=-0.1)

    def test_zero_variance_allowed(self):
        # Exact certainty is representable; the NLL path rejects it separately.
        assert uniform_mixture(var=0.0).block.shape[3] == 1

    @pytest.mark.parametrize(
        "weights, variances, message",
        [
            ((math.nan, 1.0), (1.0, 1.0), "mixture weights must be finite"),
            ((0.5, 0.5), (math.nan, 1.0), "mixture variances must be finite"),
            ((0.5, 0.5), (1.0, math.inf), "mixture variances must be finite"),
        ],
    )
    def test_nonfinite_weights_and_variances_rejected(self, weights, variances, message):
        # A NaN weight passes the sum check (NaN compares false) and a NaN or
        # +inf variance the sign check; both must still be rejected.
        with pytest.raises(ValueError, match=message):
            mixture_from_rows(weights, (0.0, 0.0), variances)


def reference_post_init(self):
    """The row-by-row ``MixtureParams.__post_init__`` of one detection's
    tuples that the block check replaced, verbatim: the block check must
    accept and reject the same rows with the same first message."""
    n = len(RESIDUAL_DIMS)
    if not (len(self.weights) == len(self.means) == len(self.variances) == n):
        raise ValueError(f"mixture needs {n} residual dimensions")
    k = len(self.weights[0])
    if k < 1:
        raise ValueError("mixture needs at least one component")
    isfinite = math.isfinite
    for row_w, row_m, row_v in zip(self.weights, self.means, self.variances):
        if not (len(row_w) == len(row_m) == len(row_v) == k):
            raise ValueError("all dimensions must share the same component count")
        total = sum(row_w)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"mixture weights must sum to 1, got {total!r}")
        if not all(map(isfinite, row_w)):
            raise ValueError("mixture weights must be finite")
        if min(row_w) < 0:
            raise ValueError("mixture weights must be non-negative")
        if not all(map(isfinite, row_v)):
            raise ValueError("mixture variances must be finite")
        if min(row_v) < 0:
            raise ValueError("mixture variances must be non-negative")
        if not all(map(isfinite, row_m)):
            raise ValueError("mixture means must be finite")


NONFINITE = (math.nan, math.inf, -math.inf)


def _mutate(rng: random.Random, fields: dict) -> None:
    """Break one entry, row or field of a mixture in one of many ways."""
    name = rng.choice(("weights", "means", "variances"))
    rows = fields[name]
    if not rows:
        return
    d = rng.randrange(len(rows))
    row = list(rows[d])
    kind = rng.choice(("dims", "length", "sum", "negative", "nonfinite", "nonfinite", "shift"))
    if kind == "dims":
        fields[name] = rows[:-1] if rng.random() < 0.5 else rows + [rows[0]]
        return
    if kind == "length" or not row:
        row = row[:-1] if (rng.random() < 0.5 and len(row) > 1) else row + [0.5]
    elif kind == "sum":
        row[rng.randrange(len(row))] += rng.choice((1e-6, -1e-6, 1e-10, 0.5))
    elif kind == "negative":
        row[rng.randrange(len(row))] = -rng.choice((1e-12, 0.1, 2.0))
    elif kind == "nonfinite":
        row[rng.randrange(len(row))] = rng.choice(NONFINITE)
    elif len(row) > 1:  # shift: a weight row still sums to 1, one entry < 0
        i, j = rng.sample(range(len(row)), 2)
        row[i], row[j] = row[i] + 0.75, row[j] - 0.75
    rows[d] = tuple(row)


def _generated_scenes(n_cases: int, seed: int = 0):
    """Lists of 1-4 one-detection field dicts sharing one K, of which about
    one in three is broken in one to three ways."""
    rng = random.Random(seed)
    for case in range(n_cases):
        k = rng.randint(1, 5)
        entries = []
        for _ in range(rng.randint(1, 4)):
            raw = [[rng.random() + 0.01 for _ in range(k)] for _ in RESIDUAL_DIMS]
            fields = {
                "weights": [tuple(x / sum(r) for x in r) for r in raw],
                "means": [tuple(rng.uniform(-3, 3) for _ in range(k)) for _ in RESIDUAL_DIMS],
                "variances": [tuple(rng.choice((0.0, rng.random())) for _ in range(k)) for _ in RESIDUAL_DIMS],
            }
            if case % 10 == 0:
                fields = {name: [()] * len(RESIDUAL_DIMS) for name in fields}  # no components
            if rng.random() < 0.35:
                for _ in range(rng.choice((1, 1, 2, 3))):
                    _mutate(rng, fields)
            entries.append({name: tuple(rows) for name, rows in fields.items()})
        yield entries


def _outcome(validate) -> str:
    try:
        validate()
    except ValueError as exc:
        return str(exc)
    return "accepted"


def _reference_outcome(entries) -> tuple[int | None, str]:
    for idx, fields in enumerate(entries):
        outcome = _outcome(lambda: reference_post_init(SimpleNamespace(**fields)))
        if outcome != "accepted":
            return idx, outcome
    return None, "accepted"


def _block_outcome(entries) -> tuple[int | None, str]:
    rows = [(f["weights"], f["means"], f["variances"]) for f in entries]
    try:
        MixtureParams.from_rows(rows)
    except MixtureError as exc:
        return exc.entry, str(exc)
    return None, "accepted"


class TestValidationEquivalence:
    def test_same_verdicts_and_messages_as_the_replaced_validator(self):
        # Each generated scene goes through ``MixtureParams.from_rows``: the
        # block check when its entries form one (D, 3, 7, K) array, the
        # entry-by-entry path when they do not. Either way the first failing
        # entry and its message are the row-by-row validator's.
        seen, blocks = set(), 0
        for entries in _generated_scenes(6000):
            expected = _reference_outcome(entries)
            assert _block_outcome(entries) == expected, entries
            seen.add(expected[1].split(", got")[0])
            try:
                block = np.array([[f["weights"], f["means"], f["variances"]] for f in entries], dtype=float)
            except ValueError:
                continue
            if block.ndim == 4 and block.shape[1:3] == (3, 7) and block.shape[3]:
                blocks += 1
                assert _outcome(lambda: MixtureParams(block)) == expected[1]
        # The generator reaches every verdict of the replaced validator, and
        # most scenes are whole blocks.
        assert seen == {
            "accepted",
            "mixture needs 7 residual dimensions",
            "mixture needs at least one component",
            "all dimensions must share the same component count",
            "mixture weights must sum to 1",
            "mixture weights must be finite",
            "mixture weights must be non-negative",
            "mixture variances must be finite",
            "mixture variances must be non-negative",
            "mixture means must be finite",
        }
        assert blocks > 3000


class TestMixtureBlock:
    def test_entries_of_one_scene_share_one_k(self):
        one, two = uniform_mixture(k=1), uniform_mixture(k=2)
        rows = [m.block[0].tolist() for m in (two, two, one)]
        with pytest.raises(MixtureError, match="mixture has 1 components but entry 0 has 2") as err:
            MixtureParams.from_rows(rows)
        assert err.value.entry == 2

    def test_block_is_read_only(self):
        # ``core`` types are immutable values: the block cannot be written,
        # and one built from a caller's array does not share its memory.
        source = uniform_mixture(k=2).block.copy()
        mixtures = MixtureParams(source)
        with pytest.raises(ValueError, match="read-only"):
            mixtures.block[0, 1, 0, 0] = 5.0
        source[0, 1, 0, 0] = 5.0
        assert mixtures.block[0, 1, 0, 0] == 0.0
        scene = scene_of("s", (ScoredDetection("car", 0.9, Box3D(0, 0, 0, 1, 1, 1, 0)),), mixtures)
        with pytest.raises(ValueError, match="read-only"):
            scene.mixtures.block[0, 2] = 1.0

    def test_scene_needs_one_mixture_per_detection(self):
        det = ScoredDetection("car", 0.9, Box3D(0, 0, 0, 1, 1, 1, 0))
        with pytest.raises(ValueError, match="2 detections but 1 mixtures"):
            scene_of("s", (det, det), uniform_mixture())

    def test_equal_blocks_are_equal_values(self):
        a, b = uniform_mixture(k=3, var=0.5), uniform_mixture(k=3, var=0.5)
        assert a == b and hash(a) == hash(b)
        assert a != uniform_mixture(k=3, var=0.25)
        assert a != uniform_mixture(k=1, var=0.5)
        # A signed zero is equal to zero, so it must hash alike.
        assert uniform_mixture(k=3, mean=-0.0, var=0.5) == a
        assert hash(uniform_mixture(k=3, mean=-0.0, var=0.5)) == hash(a)


class TestSceneAndDetection:
    def test_confidence_bounds(self):
        box = Box3D(0, 0, 0, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            ScoredDetection("car", 1.5, box)

    def test_empty_scene_id_rejected(self):
        with pytest.raises(ValueError):
            Scene(id="")


class TestSceneColumns:
    ROWS = [(1.0, 2.0, 0.0, 1.6, 3.9, 1.56, 0.1, 0.9), (-4.0, 0.5, 0.2, 0.6, 0.8, 1.73, -2.0, 0.3)]

    def test_columns_of_labels_and_boxes(self):
        scene = Scene("s", ["car", "pedestrian"], self.ROWS)
        assert scene.labels == ("car", "pedestrian")
        assert scene.boxes.dtype == np.float64 and scene.boxes.shape == (2, len(BOX_COLUMNS)) == (2, 8)
        assert scene.boxes.tolist() == [list(row) for row in self.ROWS]

    def test_equal_scenes_treat_negative_zero_as_zero(self):
        zero = Scene("s", ["car"], [(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.5)])
        negative = Scene("s", ["car"], [(-0.0, -0.0, -0.0, 1.0, 1.0, 1.0, -0.0, 0.5)])
        assert zero == negative and hash(zero) == hash(negative)
        assert zero != Scene("t", ["car"], zero.boxes)
        assert zero != Scene("s", ["cyclist"], zero.boxes)
        assert zero != Scene("s", ["car"], [(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.6)])
        assert zero != Scene("s", ["car"], zero.boxes, uniform_mixture())

    def test_boxes_are_read_only_and_not_the_callers(self):
        source = np.array(self.ROWS)
        scene = Scene("s", ["car", "pedestrian"], source)
        with pytest.raises(ValueError, match="read-only"):
            scene.boxes[0, 0] = 5.0
        source[0, 0] = 5.0
        assert scene.boxes[0, 0] == 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            scene.boxes = source

    @pytest.mark.parametrize("boxes", [(), [], np.empty((0, 8))])
    def test_an_empty_scene_has_shape_0_by_8(self, boxes):
        scene = Scene("s", (), boxes)
        assert scene.boxes.shape == (0, 8) and scene.labels == () and scene.detections == ()
        assert scene == Scene("s") == Scene("s", detections=())

    def test_mixture_count_is_checked(self):
        with pytest.raises(ValueError, match="2 detections but 1 mixtures"):
            Scene("s", ["car", "pedestrian"], self.ROWS, uniform_mixture())

    @pytest.mark.parametrize(
        "labels, boxes, message",
        [
            (["car"], ROWS, "has 1 labels but 2 boxes"),
            (["car"], [ROWS[0][:7]], r"boxes must have shape \(D, 8\), got \(1, 7\)"),
            (["car"], ROWS[0], r"got \(8,\)"),
        ],
    )
    def test_shape_faults(self, labels, boxes, message):
        with pytest.raises(ValueError, match=message):
            Scene("s", labels, boxes)

    @pytest.mark.parametrize(
        "column, value",
        [("w", 0.0), ("l", -1.0), ("h", math.inf), ("w", math.nan), ("theta", math.nan), ("x", math.inf),
         ("z", -math.inf), ("y", math.nan), ("confidence", 1.5), ("confidence", -1e-300), ("confidence", math.nan)],
    )
    @pytest.mark.parametrize("later_fault", [False, True])
    def test_a_bad_row_raises_what_its_objects_raise(self, column, value, later_fault):
        rows = [list(row) for row in self.ROWS] * 2
        rows[1][BOX_COLUMNS.index(column)] = value
        if later_fault:  # not the one reported
            rows[3][BOX_COLUMNS.index("w")] = -5.0
        with pytest.raises(ValueError) as expected:
            ScoredDetection("car", rows[1][7], Box3D(*rows[1][:7]))
        with pytest.raises(ValueError) as got:
            Scene("s", ["car"] * 4, rows)
        assert str(got.value) == str(expected.value)

    def test_detections_hold_python_floats(self):
        # ``repr`` of a box is what the golden predictions digest reads; an
        # np.float64 field would print as ``np.float64(...)`` under numpy 2.
        scene = Scene("s", ["car", "pedestrian"], self.ROWS)
        dets = scene.detections
        assert dets == (
            ScoredDetection("car", 0.9, Box3D(1.0, 2.0, 0.0, 1.6, 3.9, 1.56, 0.1)),
            ScoredDetection("pedestrian", 0.3, Box3D(-4.0, 0.5, 0.2, 0.6, 0.8, 1.73, -2.0)),
        )
        for det in dets:
            assert type(det.confidence) is float
            assert all(type(getattr(det.box, f)) is float for f in BOX_COLUMNS[:7])
        assert repr(dets[0].box) == "Box3D(x=1.0, y=2.0, z=0.0, w=1.6, l=3.9, h=1.56, theta=0.1)"

    def test_no_module_of_the_package_reads_the_detections_view(self):
        # The view serves callers outside the package; the package reads the columns.
        src = Path(__file__).resolve().parent.parent / "src" / "scenesel"
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            assert "detections" not in {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}, path.name

    def test_detections_build_the_same_columns(self):
        scene = Scene("s", ["car", "pedestrian"], self.ROWS, stack_mixtures(uniform_mixture(k=2), uniform_mixture(k=2, mean=0.5)))
        again = Scene("s", detections=scene.detections, mixtures=scene.mixtures)
        assert again == scene and again.boxes.tobytes() == scene.boxes.tobytes()


class TestAnchorTable:
    def test_coverage_check(self, anchors):
        anchors.check_covers(ClassCatalog(classes=("car", "pedestrian")))
        with pytest.raises(ValueError):
            anchors.check_covers(ClassCatalog(classes=("truck",)))

    def test_diagonal_derived(self):
        a = Anchor(length=3.9, width=1.6, height=1.56)
        assert a.diagonal == pytest.approx(math.hypot(1.6, 3.9))


class TestWriteTextAtomic:
    def test_concurrent_writers_each_publish_a_whole_file(self, tmp_path):
        # Writer A is held with half its text written while writer B writes
        # and renames the same target; then A finishes. Neither may fail, and
        # the published file must be one writer's whole text.
        target = tmp_path / "state.json"
        texts = {"A": b"A" * 10 + b"\n", "B": b"B" * 8 + b"\n"}
        a_half_written, b_done = threading.Event(), threading.Event()

        def write_in_halves(data):
            def write(f):
                f.write(data[: len(data) // 2])
                f.flush()
                if threading.current_thread().name == "A":
                    a_half_written.set()
                    assert b_done.wait(10)
                f.write(data[len(data) // 2 :])

            return write

        errors = []

        def writer(name):
            try:
                write_atomic(target, write_in_halves(texts[name]))
            except Exception as exc:
                errors.append((name, exc))
            finally:
                if name == "B":
                    b_done.set()

        a = threading.Thread(target=writer, args=("A",), name="A")
        a.start()
        assert a_half_written.wait(10)
        b = threading.Thread(target=writer, args=("B",), name="B")
        b.start()
        b.join(10)
        a.join(10)
        assert not a.is_alive() and not b.is_alive()
        assert errors == []
        assert target.read_bytes() in texts.values()
        assert os.listdir(tmp_path) == ["state.json"]

    @pytest.mark.parametrize("failing", ["write", "rename"])
    def test_failed_write_keeps_the_old_file_and_no_temp_file(self, tmp_path, monkeypatch, failing):
        target = tmp_path / "selected.txt"
        write_text_atomic(target, "old\n")

        def half_then_fail(f):
            f.write(b"new ")
            raise OSError("disk full")

        def fail(*args, **kwargs):
            raise OSError("rename refused")

        if failing == "rename":
            monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(DataError, match=f"^{re.escape(str(target))}: cannot write file: "):
            if failing == "write":
                write_atomic(target, half_then_fail)
            else:
                write_text_atomic(target, "new text\n")
        monkeypatch.undo()
        assert target.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["selected.txt"]

    @pytest.mark.parametrize(
        "make, target",
        [
            (lambda d: (d / "report.csv").mkdir(), "report.csv"),  # the rename fails
            (lambda d: (d / "out").write_text("x"), "out/report.csv"),  # the mkdir fails
        ],
        ids=["directory", "parent is a file"],
    )
    def test_unwritable_target_is_data_error_naming_it(self, tmp_path, make, target):
        make(tmp_path)
        before = sorted(os.listdir(tmp_path))
        with pytest.raises(DataError, match=f"^{re.escape(str(tmp_path / target))}: cannot write file: "):
            write_text_atomic(tmp_path / target, "text\n")
        assert sorted(os.listdir(tmp_path)) == before

    def test_utf8_newlines_mode_and_parent_directories(self, tmp_path):
        target = tmp_path / "new" / "dir" / "report.txt"
        write_text_atomic(target, "zé\nb\n")
        assert target.read_bytes() == "zé\nb\n".encode("utf-8")
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        assert target.stat().st_mode == plain.stat().st_mode

    def test_bytes_go_through_the_same_path(self, tmp_path):
        # Text is written as its UTF-8 bytes, by the one writer of bytes.
        target = tmp_path / "new" / "pool.npz"
        write_atomic(target, lambda f: f.write(b"\x00\xff\n"))
        assert target.read_bytes() == b"\x00\xff\n"
        assert os.listdir(target.parent) == ["pool.npz"]
        target.unlink()
        target.mkdir()
        with pytest.raises(DataError, match=f"^{re.escape(str(target))}: cannot write file: "):
            write_atomic(target, lambda f: f.write(b"x"))
        assert os.listdir(target.parent) == ["pool.npz"]


class TestReadText:
    def test_utf8_text_round_trips_a_write(self, tmp_path):
        target = tmp_path / "report.txt"
        write_text_atomic(target, "zé\nb\n")
        assert read_text(target) == "zé\nb\n"

    @pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir()], ids=["missing", "directory"])
    def test_unreadable_file_is_data_error_naming_it(self, tmp_path, make):
        target = tmp_path / "input.txt"
        make(target)
        with pytest.raises(DataError, match=f"^{re.escape(str(target))}: cannot read file: "):
            read_text(target)

    @pytest.mark.parametrize("given", [False, True], ids=["read", "bytes given"])
    def test_non_utf8_file_is_parse_error_at_the_bad_line(self, tmp_path, given):
        target = tmp_path / "input.txt"
        target.write_bytes(b"a\nb\nc \xff d\n")
        with pytest.raises(ParseError) as excinfo:
            read_text(target, read_bytes(target) if given else None)
        assert isinstance(excinfo.value, DataError)
        assert (excinfo.value.path, excinfo.value.line_no) == (str(target), 3)
        assert "not UTF-8" in str(excinfo.value)

    def test_given_bytes_are_not_read_again(self, tmp_path):
        # The text of the bytes a caller read, even where the file is gone.
        assert read_text(tmp_path / "gone.txt", "zé\n".encode()) == "zé\n"

    @pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir()], ids=["missing", "directory"])
    def test_read_bytes_of_an_unreadable_file_is_data_error_naming_it(self, tmp_path, make):
        target = tmp_path / "input.npz"
        make(target)
        # the message of the error that reading through ``open`` gives
        with pytest.raises(OSError) as opened:
            with open(target, "rb") as fh:
                fh.read()
        with pytest.raises(DataError) as excinfo:
            read_bytes(target)
        assert str(excinfo.value) == f"{target}: cannot read file: {opened.value}"

    @pytest.mark.parametrize(
        "size", [0, 1, core.READ_CHUNK - 1, core.READ_CHUNK, core.READ_CHUNK + 1, 3 * core.READ_CHUNK + 5]
    )
    def test_read_bytes_reads_the_whole_file(self, tmp_path, size):
        target = tmp_path / "input.bin"
        data = random.Random(size).randbytes(size)
        target.write_bytes(data)
        assert read_bytes(target) == data
        assert read_bytes(str(target)) == data
