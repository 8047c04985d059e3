"""Shared domain types: catalogs, boxes, detections, scenes, anchors.

All types are immutable value objects. ``read_text`` is the package's one
way to read a file and ``write_text_atomic`` its one way to write one.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

#: Order of the seven box-residual dimensions used everywhere in the package.
RESIDUAL_DIMS = ("x", "y", "z", "w", "h", "l", "theta")

WEIGHT_SUM_TOL = 1e-9


class SceneSelError(Exception):
    """Base class for package-specific failures."""


class DataError(SceneSelError):
    """Unusable input: a file that cannot be read, a malformed one
    (``ParseError``), or well-formed data that breaks a rule."""


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


class ConvergenceError(SceneSelError):
    """Fixed-point iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class ClassCatalog:
    """Ordered set of object classes plus the two reserved node labels."""

    classes: tuple[str, ...]
    ego_label: str = "__ego__"
    mirror_label: str = "__mirror__"

    def __post_init__(self):
        if len(self.classes) < 1:
            raise ValueError("catalog needs at least one class")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("class names must be unique")
        for reserved in (self.ego_label, self.mirror_label):
            if reserved in self.classes:
                raise ValueError(f"reserved label {reserved!r} collides with a class name")
        if self.ego_label == self.mirror_label:
            raise ValueError("ego and mirror labels must differ")

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

    @property
    def center(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def range_to_origin(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


@dataclass(frozen=True)
class MixtureParams:
    """Per-residual-dimension Gaussian mixture for one detection.

    Each field holds one row per residual dimension (see RESIDUAL_DIMS) with K
    entries. ``variances`` entries are variances, not standard deviations.
    Every entry must be finite. Zero variance is accepted so a noiseless
    predictor can express exact certainty.
    """

    weights: tuple[tuple[float, ...], ...]
    means: tuple[tuple[float, ...], ...]
    variances: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        # One C-level pass per check; ``min(row) < 0`` is only asked of a row
        # already known to be finite (a NaN would make ``min`` order-dependent).
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

    @property
    def num_components(self) -> int:
        return len(self.weights[0])

    def row(self, dim: str) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        i = RESIDUAL_DIMS.index(dim)
        return self.weights[i], self.means[i], self.variances[i]


@dataclass(frozen=True)
class ScoredDetection:
    class_label: str
    confidence: float
    box: Box3D
    mixture: MixtureParams | None = None

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class Scene:
    """One frame: a unique id plus its (possibly empty) detections."""

    id: str
    detections: tuple[ScoredDetection, ...] = ()

    def __post_init__(self):
        if not self.id:
            raise ValueError("scene id must be non-empty")


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
        return anchor_diagonal(self.width, self.length)


def anchor_diagonal(w_a: float, l_a: float) -> float:
    """Ground-plane diagonal of an anchor box."""
    if not (w_a > 0 and l_a > 0):
        raise ValueError(f"anchor dimensions must be positive, got w={w_a} l={l_a}")
    return math.hypot(w_a, l_a)


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
