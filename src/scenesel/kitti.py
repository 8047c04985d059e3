"""KITTI label file parsing/serialization and the mixture sidecar format.

Label lines carry, whitespace-separated: type, truncated, occluded, alpha,
2D bbox (4 values), dimensions h w l, location x y z, rotation_y, and an
optional score (15 or 16 fields). ``location`` is used as the box center
as-is; calibration files are out of scope.

Mixture sidecars are JSON documents (extension ``.mdn``) with one entry per
detection in file order, each holding 7 residual dimensions x K components
of weights, means and variances.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from .core import (
    Box3D,
    ClassCatalog,
    DataError,
    MixtureParams,
    ParseError,
    RESIDUAL_DIMS,
    Scene,
    ScoredDetection,
    write_text_atomic,
)

log = logging.getLogger(__name__)

SIDECAR_VERSION = 1
FLOAT_FMT = "{:.6f}"


@dataclass(frozen=True)
class KittiLabelLine:
    type: str
    truncated: float
    occluded: int
    alpha: float
    bbox2d: tuple[float, float, float, float]
    dims: tuple[float, float, float]  # h, w, l
    location: tuple[float, float, float]
    rotation_y: float
    score: float | None = None


def parse_label_line(line: str, path: str | None = None, line_no: int | None = None) -> KittiLabelLine:
    fields = line.split()
    if len(fields) not in (15, 16):
        raise ParseError(f"expected 15 or 16 fields, got {len(fields)}", path, line_no)
    try:
        return KittiLabelLine(
            type=fields[0],
            truncated=float(fields[1]),
            occluded=int(float(fields[2])),
            alpha=float(fields[3]),
            bbox2d=tuple(map(float, fields[4:8])),
            dims=tuple(map(float, fields[8:11])),
            location=tuple(map(float, fields[11:14])),
            rotation_y=float(fields[14]),
            score=float(fields[15]) if len(fields) == 16 else None,
        )
    except ValueError as exc:
        raise ParseError(f"bad numeric field: {exc}", path, line_no) from exc


def parse_label_file(path: str | Path, catalog: ClassCatalog | None = None) -> Scene:
    """Parse one label file into a Scene whose id is the file stem.

    "DontCare" lines are skipped. A missing score column maps to confidence
    1.0. Classes outside the catalog are skipped with a warning.
    """
    path = Path(path)
    detections = []
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not raw.strip():
            continue
        rec = parse_label_line(raw, str(path), line_no)
        if rec.type == "DontCare":
            continue
        if catalog is not None and rec.type not in catalog:
            log.warning("%s:%d: skipping unknown class %r", path, line_no, rec.type)
            continue
        h, w, l = rec.dims
        x, y, z = rec.location
        try:
            det = ScoredDetection(
                class_label=rec.type,
                confidence=1.0 if rec.score is None else rec.score,
                box=Box3D(x=x, y=y, z=z, w=w, l=l, h=h, theta=rec.rotation_y),
            )
        except ValueError as exc:
            raise ParseError(str(exc), str(path), line_no) from exc
        detections.append(det)
    return Scene(id=path.stem, detections=tuple(detections))


def serialize_label_file(scene: Scene) -> str:
    """Render a Scene back to KITTI label text.

    Fields the Scene does not model (truncation, occlusion, alpha, 2D bbox)
    are emitted as zeros; the score column is always present, so detections
    parsed without one reappear with an explicit 1.0. Floats use 6 decimal
    digits, making parse(serialize(s)) exact for scenes representable at that
    precision.
    """
    lines = []
    f = FLOAT_FMT.format
    for det in scene.detections:
        b = det.box
        lines.append(
            " ".join(
                [
                    det.class_label,
                    f(0.0),  # truncated
                    "0",  # occluded
                    f(0.0),  # alpha
                    f(0.0),
                    f(0.0),
                    f(0.0),
                    f(0.0),  # bbox2d
                    f(b.h),
                    f(b.w),
                    f(b.l),
                    f(b.x),
                    f(b.y),
                    f(b.z),
                    f(b.theta),
                    f(det.confidence),
                ]
            )
        )
    return "".join(line + "\n" for line in lines)


def write_label_file(scene: Scene, path: str | Path) -> None:
    write_text_atomic(path, serialize_label_file(scene))


def save_mixture_sidecar(scene: Scene, path: str | Path) -> None:
    entries = []
    for idx, det in enumerate(scene.detections):
        if det.mixture is None:
            raise DataError(f"detection {idx} has no mixture parameters to save")
        entries.append(
            {
                "weights": [list(row) for row in det.mixture.weights],
                "means": [list(row) for row in det.mixture.means],
                "variances": [list(row) for row in det.mixture.variances],
            }
        )
    doc = {"version": SIDECAR_VERSION, "dims": list(RESIDUAL_DIMS), "detections": entries}
    # No indent: ``json`` uses its C encoder only without one.
    write_text_atomic(path, json.dumps(doc))


def load_mixture_sidecar(path: str | Path, scene: Scene) -> Scene:
    """Attach sidecar mixtures to the scene's detections, in file order."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid sidecar JSON: {exc}", str(path)) from exc
    if doc.get("version") != SIDECAR_VERSION:
        raise DataError(f"{path}: unsupported sidecar version {doc.get('version')!r}")
    entries = doc.get("detections", [])
    if len(entries) != len(scene.detections):
        raise DataError(
            f"{path}: sidecar has {len(entries)} entries but scene {scene.id!r} has "
            f"{len(scene.detections)} detections"
        )
    enriched = []
    for idx, (det, entry) in enumerate(zip(scene.detections, entries)):
        try:
            mixture = MixtureParams(
                weights=tuple(tuple(map(float, row)) for row in entry["weights"]),
                means=tuple(tuple(map(float, row)) for row in entry["means"]),
                variances=tuple(tuple(map(float, row)) for row in entry["variances"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: entry {idx}: {exc}") from exc
        enriched.append(ScoredDetection(det.class_label, det.confidence, det.box, mixture))
    return Scene(id=scene.id, detections=tuple(enriched))


def sidecar_path(pool_dir: str | Path, scene_id: str) -> Path:
    """``sidecars/<scene_id>.mdn`` under a pool directory; a data error if
    the file does not exist."""
    path = Path(pool_dir) / "sidecars" / f"{scene_id}.mdn"
    if not path.exists():
        raise DataError(f"missing mixture sidecar: {path}")
    return path


def load_pool_dir(
    pool_dir: str | Path,
    catalog: ClassCatalog | None = None,
    with_sidecars: bool = False,
) -> list[Scene]:
    """Load every ``labels/<id>.txt`` in a pool directory, sorted by id.

    With ``with_sidecars`` each scene must have ``sidecars/<id>.mdn``.
    """
    pool_dir = Path(pool_dir)
    labels = pool_dir / "labels"
    if not labels.is_dir():
        raise DataError(f"no labels/ directory under {pool_dir}")
    scenes = []
    for label_path in sorted(labels.glob("*.txt")):
        scene = parse_label_file(label_path, catalog=catalog)
        if with_sidecars:
            scene = load_mixture_sidecar(sidecar_path(pool_dir, scene.id), scene)
        scenes.append(scene)
    return scenes
