"""Shared domain types: catalogs, boxes, detections, scenes, anchors.

All types are immutable value objects; a mixture block is a read-only
array. ``read_text`` is the package's one way to read a file and
``write_text_atomic`` its one way to write one.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

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
        if not (0 < self.w < math.inf and 0 < self.l < math.inf and 0 < self.h < math.inf):
            raise ValueError(f"box dimensions must be positive and finite, got w={self.w} l={self.l} h={self.h}")
        if not math.isfinite(self.theta):
            raise ValueError("yaw must be finite")
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"box center must be finite, got x={self.x} y={self.y} z={self.z}")

    def range_to_origin(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


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
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class Scene:
    """One frame: a unique id plus its (possibly empty) detections and,
    for predictions, their mixtures."""

    id: str
    detections: tuple[ScoredDetection, ...] = ()
    mixtures: MixtureParams | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("scene id must be non-empty")
        if self.mixtures is not None and len(self.mixtures.block) != len(self.detections):
            raise ValueError(
                f"scene {self.id!r} has {len(self.detections)} detections "
                f"but {len(self.mixtures.block)} mixtures"
            )


@dataclass(frozen=True)
class Anchor:
    """Per-class anchor box dimensions in meters."""

    length: float
    width: float
    height: float

    def __post_init__(self):
        if not (self.length > 0 and self.width > 0 and self.height > 0):
            raise ValueError("anchor dimensions must be positive")

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


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, newlines as stored.

    A file that cannot be read is a ``DataError`` naming it; one that is not
    UTF-8 is a ``ParseError`` naming it and the line of the first bad byte.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read file: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8: {exc}", str(path), line_no) from exc


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write UTF-8 text through a temporary file and a rename.

    Creates the parent directory. Each write has a temporary file of its own
    next to the target, so a crash, or another writer of the same file,
    leaves either the old file or one whole new one, never a partial write.
    A write or rename that fails removes its temporary file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="\n")
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
