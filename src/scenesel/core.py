"""Shared domain types: catalogs, boxes, detections, scenes, anchors.

All types are immutable value objects. A scene holds its detections as
columns: a tuple of class labels and one read-only float64 array of boxes
and confidences; its mixtures are one read-only block. ``Box3D`` and
``ScoredDetection`` are one detection as objects, which ``Scene`` builds
its arrays from and gives back as a view. ``read_bytes`` reads a file
whole (``read_text`` decodes that) and ``open_binary`` opens one to be
streamed (``read_arrays`` streams an npz file), each with the one error of
a file that cannot be read; ``write_atomic`` is the package's one way to
write a file (``write_arrays`` writes an npz file through it).
"""
from __future__ import annotations

import math
import os
import zipfile
import zlib
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

#: Order of the seven box-residual dimensions used everywhere in the package.
RESIDUAL_DIMS = ("x", "y", "z", "w", "h", "l", "theta")

WEIGHT_SUM_TOL = 1e-9

#: The default confidence threshold that the entropy, kernel and uncertainty
#: configs share: a detection counts when its confidence is at least tau.
DEFAULT_TAU = 0.3

#: The node labels a scene graph reserves: the ego vehicle, and the
#: stand-in node of a scene with no kept detection.
EGO_LABEL = "__ego__"
MIRROR_LABEL = "__mirror__"


class SceneSelError(Exception):
    """Base class for package-specific failures."""


class DataError(SceneSelError):
    """Unusable input: a file that cannot be read, a malformed one
    (``ParseError``), or well-formed data that breaks a rule."""


class SceneDataError(DataError):
    """A rule broken by one scene's data, found after its files were parsed,
    where their paths are no longer known; ``scene_id`` names the scene, so
    that a caller that knows the files can name the one at fault."""

    def __init__(self, message: str, scene_id: str):
        super().__init__(message)
        self.scene_id = scene_id


class ParseError(DataError):
    """Malformed input file; carries path and line number when available."""

    def __init__(self, message: str, path: str | None = None, line_no: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
        if line_no is not None:
            loc += f"{line_no}:"
        super().__init__(f"{loc} {message}" if loc else message)
        self.path = path
        self.line_no = line_no


@dataclass(frozen=True)
class ClassCatalog:
    """Ordered set of object classes; none may be a reserved node label."""

    classes: tuple[str, ...]

    def __post_init__(self):
        if len(self.classes) < 1:
            raise ValueError("catalog needs at least one class")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("class names must be unique")
        for reserved in (EGO_LABEL, MIRROR_LABEL):
            if reserved in self.classes:
                raise ValueError(f"reserved label {reserved!r} collides with a class name")

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def __contains__(self, label: str) -> bool:
        return label in self.classes


DEFAULT_CATALOG = ClassCatalog(classes=("car", "pedestrian", "cyclist"))


#: The columns of ``Scene.boxes``: the fields of ``Box3D``, then the
#: detection's confidence.
BOX_COLUMNS = ("x", "y", "z", "w", "l", "h", "theta", "confidence")


def box_fault(x, y, z, w, l, h, theta) -> str | None:
    """The message of the first rule of ``Box3D`` the values break, or None."""
    if not (0 < w < math.inf and 0 < l < math.inf and 0 < h < math.inf):
        return f"box dimensions must be positive and finite, got w={w} l={l} h={h}"
    if not math.isfinite(theta):
        return "yaw must be finite"
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        return f"box center must be finite, got x={x} y={y} z={z}"
    return None


def confidence_fault(confidence) -> str | None:
    """The message of the rule of ``ScoredDetection`` the value breaks, or None."""
    if not (0.0 <= confidence <= 1.0):
        return f"confidence must be in [0, 1], got {confidence}"
    return None


def row_fault(row) -> str | None:
    """The message of the first rule one row of ``Scene.boxes`` breaks,
    box before confidence, or None."""
    return box_fault(*row[:7]) or confidence_fault(row[7])


@dataclass(frozen=True)
class Box3D:
    """7-DoF box: center (x, y, z) in the ego sensor frame, sizes, yaw."""

    x: float
    y: float
    z: float
    w: float
    l: float
    h: float
    theta: float

    def __post_init__(self):
        fault = box_fault(self.x, self.y, self.z, self.w, self.l, self.h, self.theta)
        if fault:
            raise ValueError(fault)


class MixtureError(ValueError):
    """A mixture that breaks a rule; ``entry`` is the index of the first
    failing detection."""

    def __init__(self, message: str, entry: int):
        super().__init__(message)
        self.entry = entry


@dataclass(frozen=True, eq=False)
class MixtureParams:
    """Per-residual-dimension Gaussian mixtures of one scene's detections.

    ``block`` is one read-only float64 array of shape (D, 3, 7, K): for each
    of D detections in scene order, the weights, means and variances of K
    components in each residual dimension (see RESIDUAL_DIMS). Variances
    are variances, not standard deviations. Every entry must be finite, and
    the weights of each row non-negative with sum 1. Zero variance is
    accepted so a noiseless predictor can express exact certainty.

    A block that breaks a rule raises ``MixtureError`` for the first failing
    row, detection by detection and dimension by dimension, with the first
    check that row fails.
    """

    block: np.ndarray

    def __post_init__(self):
        block = np.array(self.block, dtype=np.float64)
        n = len(RESIDUAL_DIMS)
        if block.ndim != 4 or block.shape[1] != 3:
            raise ValueError(f"mixture block must have shape (D, 3, {n}, K), got {block.shape}")
        if block.shape[2] != n:
            raise ValueError(f"mixture needs {n} residual dimensions")
        if block.shape[3] < 1:
            raise ValueError("mixture needs at least one component")
        _check_rows(block)
        block.flags.writeable = False
        object.__setattr__(self, "block", block)

    @classmethod
    def from_rows(cls, entries) -> "MixtureParams":
        """The block of one scene from nested rows: one (weights, means,
        variances) triple per detection, each field 7 rows of K numbers.

        One scene's detections share one K. An entry that is not numeric or
        not of that shape raises ``MixtureError`` naming it; within an
        entry, rows are checked in order, so one whose rows differ in K
        fails at its first row of another length unless an earlier row fails.
        """
        return cls(_block_of_rows(entries))

    def __eq__(self, other):
        if not isinstance(other, MixtureParams):
            return NotImplemented
        return self.block.shape == other.block.shape and bool((self.block == other.block).all())

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0: equal blocks hash alike.
        return hash((self.block.shape, (self.block + 0.0).tobytes()))


@np.errstate(all="ignore")  # an overflowing or NaN weight sum fails below
def _check_rows(block: np.ndarray, first_entry: int = 0) -> None:
    """Check every row of a (D, 3, R, K) block; see ``MixtureParams``.

    Weight sums add the components left to right, as ``sum`` does. The rows
    are checked together; the failing row and check are looked up only when
    one fails.
    """
    if not block.size:
        return
    if np.isfinite(block).all() and block[:, ::2].min() >= 0:
        weights = block[:, 0]
        total = weights[..., 0]
        for i in range(1, block.shape[3]):
            total = total + weights[..., i]
        if abs(total - 1.0).max() <= WEIGHT_SUM_TOL:
            return
    _raise_first_failure(block, first_entry)


def _raise_first_failure(block: np.ndarray, first_entry: int) -> None:
    weights, means, variances = block[:, 0], block[:, 1], block[:, 2]
    total = 0.0
    for i in range(block.shape[3]):
        total = total + weights[..., i]
    fails = np.stack(
        [
            np.abs(total - 1.0) > WEIGHT_SUM_TOL,
            ~np.isfinite(weights).all(-1),
            (weights < 0).any(-1),
            ~np.isfinite(variances).all(-1),
            (variances < 0).any(-1),
            ~np.isfinite(means).all(-1),
        ],
        axis=-1,
    )
    d, r = (int(i) for i in np.argwhere(fails.any(-1))[0])
    check = int(fails[d, r].argmax())
    if check == 0:
        message = f"mixture weights must sum to 1, got {sum(weights[d, r].tolist())!r}"
    else:
        message = _ROW_MESSAGES[check - 1]
    raise MixtureError(message, first_entry + d)


_ROW_MESSAGES = (
    "mixture weights must be finite",
    "mixture weights must be non-negative",
    "mixture variances must be finite",
    "mixture variances must be non-negative",
    "mixture means must be finite",
)


def _block_of_rows(entries) -> np.ndarray:
    """The (D, 3, 7, K) array of ``MixtureParams.from_rows``, its values
    left to the block check. An entry that cannot join the block raises
    ``MixtureError`` naming it, after the rows before it are checked, so a
    fault in an earlier row is reported first."""
    n = len(RESIDUAL_DIMS)
    checked = []

    def fail(message, idx, rows=None):  # always raises
        if checked:
            _check_rows(np.array(checked, dtype=np.float64))
        if rows is not None and rows[0]:
            _check_rows(np.array([rows], dtype=np.float64), idx)
        raise MixtureError(message, idx)

    for idx, entry in enumerate(entries):
        try:
            weights, means, variances = ([list(map(float, row)) for row in field] for field in entry)
        except (TypeError, ValueError, OverflowError) as exc:
            fail(str(exc), idx)
        if not (len(weights) == len(means) == len(variances) == n):
            fail(f"mixture needs {n} residual dimensions", idx)
        k = len(weights[0])
        if k < 1:
            fail("mixture needs at least one component", idx)
        even = next(
            (r for r in range(n) if not (len(weights[r]) == len(means[r]) == len(variances[r]) == k)), n
        )
        if even < n:
            fail(
                "all dimensions must share the same component count",
                idx,
                [weights[:even], means[:even], variances[:even]],
            )
        if checked and k != len(checked[0][0][0]):
            fail(
                f"mixture has {k} components but entry 0 has {len(checked[0][0][0])}; "
                "the detections of one scene must share one component count",
                idx,
                [weights, means, variances],
            )
        checked.append((weights, means, variances))
    return np.array(checked, dtype=np.float64)


@dataclass(frozen=True)
class ScoredDetection:
    class_label: str
    confidence: float
    box: Box3D

    def __post_init__(self):
        fault = confidence_fault(self.confidence)
        if fault:
            raise ValueError(fault)


@dataclass(frozen=True, eq=False, init=False)
class Scene:
    """One frame: a unique id, the class label of each detection, one
    read-only float64 (D, 8) array ``boxes`` of their boxes and confidences
    (columns as BOX_COLUMNS) and, for predictions, their mixtures.

    Every row must keep the rules of ``Box3D`` and ``ScoredDetection``; the
    rows are checked together, and the first failing row raises their
    ``ValueError``. ``Scene(id, detections=...)`` builds the columns from
    ``ScoredDetection`` objects, and ``detections`` gives them back. Equal
    scenes may differ in their bits: -0.0 equals 0.0, as in ``MixtureParams``.
    """

    id: str
    labels: tuple[str, ...]
    boxes: np.ndarray
    mixtures: MixtureParams | None

    def __init__(self, id, labels=(), boxes=(), mixtures=None, *, detections=None):
        if not id:
            raise ValueError("scene id must be non-empty")
        if detections is not None:
            labels = [d.class_label for d in detections]
            boxes = [(b.x, b.y, b.z, b.w, b.l, b.h, b.theta, d.confidence) for d in detections for b in (d.box,)]
        labels = tuple(labels)
        boxes = np.array(boxes, dtype=np.float64)
        if boxes.shape == (0,):
            boxes = boxes.reshape(0, len(BOX_COLUMNS))
        if boxes.ndim != 2 or boxes.shape[1] != len(BOX_COLUMNS):
            raise ValueError(f"scene {id!r}: boxes must have shape (D, {len(BOX_COLUMNS)}), got {boxes.shape}")
        if len(labels) != len(boxes):
            raise ValueError(f"scene {id!r} has {len(labels)} labels but {len(boxes)} boxes")
        _check_boxes(boxes)
        if mixtures is not None and len(mixtures.block) != len(boxes):
            raise ValueError(
                f"scene {id!r} has {len(boxes)} detections but {len(mixtures.block)} mixtures"
            )
        boxes.flags.writeable = False
        # Frozen: the fields are set once, past the dataclass's __setattr__.
        self.__dict__.update(id=id, labels=labels, boxes=boxes, mixtures=mixtures)

    @classmethod
    def from_checked(cls, id: str, labels: tuple[str, ...], boxes: np.ndarray, mixtures: MixtureParams | None = None) -> "Scene":
        """The scene of columns that have passed the checks of ``Scene``
        already: a non-empty id, a tuple of labels, a read-only float64
        (D, 8) array of rows that keep the rules, taken as it is, not
        copied, and None or mixtures of D detections. Nothing is checked
        again."""
        scene = object.__new__(cls)
        scene.__dict__.update(id=id, labels=labels, boxes=boxes, mixtures=mixtures)
        return scene

    @property
    def detections(self) -> tuple[ScoredDetection, ...]:
        """The detections as objects holding Python floats, built on each read."""
        return tuple(
            ScoredDetection(label, row[7], Box3D(*row[:7])) for label, row in zip(self.labels, self.boxes.tolist())
        )

    def __eq__(self, other):
        if not isinstance(other, Scene):
            return NotImplemented
        return (
            self.id == other.id
            and self.labels == other.labels
            and bool((self.boxes == other.boxes).all())
            and self.mixtures == other.mixtures
        )

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0: equal scenes hash alike.
        return hash((self.id, self.labels, (self.boxes + 0.0).tobytes(), self.mixtures))


def _check_boxes(boxes: np.ndarray) -> None:
    """Raise the ``ValueError`` of the first row of ``boxes`` that breaks a
    rule; the rows are walked only when the column checks find one."""
    if not len(boxes):
        return
    lo, hi = boxes.min(0).tolist(), boxes.max(0).tolist()
    # min and max keep a NaN, so finite extremes mean finite columns.
    if all(map(math.isfinite, lo + hi)) and min(lo[3:6]) > 0 and lo[7] >= 0.0 and hi[7] <= 1.0:
        return
    for row in boxes.tolist():
        fault = row_fault(row)
        if fault:
            raise ValueError(fault)


@dataclass(frozen=True)
class Anchor:
    """Per-class anchor box dimensions in meters."""

    length: float
    width: float
    height: float

    def __post_init__(self):
        if not (0 < self.length < math.inf and 0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError(
                f"anchor dimensions must be positive and finite, got {self.length},{self.width},{self.height}"
            )
        # The uncertainty terms scale by the squared diagonal and height.
        if not (math.isfinite(self.diagonal * self.diagonal) and math.isfinite(self.height * self.height)):
            raise ValueError(
                f"anchor diagonal and height must have finite squares, got {self.length},{self.width},{self.height}"
            )

    @property
    def diagonal(self) -> float:
        """Ground-plane diagonal of the anchor box."""
        return math.hypot(self.width, self.length)


@dataclass(frozen=True)
class AnchorTable:
    entries: tuple[tuple[str, Anchor], ...]

    def __post_init__(self):
        names = [name for name, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate anchor class")

    @classmethod
    def from_dict(cls, mapping: dict[str, Anchor]) -> "AnchorTable":
        return cls(tuple(sorted(mapping.items())))

    def for_class(self, name: str) -> Anchor:
        for entry_name, anchor in self.entries:
            if entry_name == name:
                return anchor
        raise KeyError(f"no anchor for class {name!r}")

    def check_covers(self, catalog: ClassCatalog) -> None:
        missing = [c for c in catalog.classes if not any(n == c for n, _ in self.entries)]
        if missing:
            raise ValueError(f"anchor table missing classes: {missing}")


# Common KITTI anchor practice; overridable through configuration.
DEFAULT_ANCHORS = AnchorTable.from_dict(
    {
        "car": Anchor(length=3.9, width=1.6, height=1.56),
        "pedestrian": Anchor(length=0.8, width=0.6, height=1.73),
        "cyclist": Anchor(length=1.76, width=0.6, height=1.73),
    }
)


@contextmanager
def open_binary(path: str | Path) -> Iterator[BinaryIO]:
    """The file, open for reading bytes. A file that cannot be opened or
    read is a ``DataError`` naming it."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except OSError as exc:
        raise _unreadable(path, exc) from exc


def read_bytes(path: str | Path) -> bytes:
    """The bytes of a file, with the error of ``open_binary``, read without
    its generator, which adds about a quarter to a small file's read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _unreadable(path, exc) from exc


def _unreadable(path, exc: OSError) -> DataError:
    return DataError(f"{path}: cannot read file: {exc}")


def read_arrays(path: str | Path, names: tuple[str, ...], what: str) -> list[np.ndarray]:
    """The arrays ``names`` of the npz file ``path``, streamed from the file
    through ``open_binary``. Bytes that are no npz of these arrays (not a
    zip, cut short, an npy, a member missing or pickled) are a
    ``DataError`` naming the file: "invalid <what>"."""
    try:
        with open_binary(path) as fh, np.load(fh, allow_pickle=False) as npz:
            return [npz[name] for name in names]
    except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise DataError(f"{path}: invalid {what}: {exc}") from exc


def write_arrays(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` as an npz file through ``write_atomic``, streamed."""
    write_atomic(path, lambda fh: np.savez(fh, **arrays))


def read_text(path: str | Path, data: bytes | None = None) -> str:
    """The text of a UTF-8 file, newlines as stored: of ``data``, the
    file's bytes, if the caller has read them already.

    A file that cannot be read is a ``DataError`` naming it; one that is not
    UTF-8 is a ``ParseError`` naming it and the line of the first bad byte.
    """
    if data is None:
        data = read_bytes(path)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8: {exc}", str(path), line_no) from exc


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write UTF-8 text through ``write_atomic``."""
    data = text.encode("utf-8")
    write_atomic(path, lambda fh: fh.write(data))


def write_atomic(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Write a file through a temporary file and a rename: ``write`` writes
    its bytes to the temporary file, open for writing bytes.

    Creates the parent directory. Each write has a temporary file of its own
    next to the target, so a crash, or another writer of the same file,
    leaves either the old file or one whole new one, never a partial write.
    A write or rename that fails removes its temporary file. A target that
    cannot be written (its directory cannot be made, or it is a directory)
    is a ``DataError`` naming it.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with tmp.open("wb") as fh:
                write(fh)
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise DataError(f"{path}: cannot write file: {exc}") from exc
