"""KITTI label file parsing/serialization and the mixture sidecar format.

Label lines carry, whitespace-separated: type, truncated, occluded, alpha,
2D bbox (4 values), dimensions h w l, location x y z, rotation_y, and an
optional score (15 or 16 fields). ``location`` is used as the box center
as-is; calibration files are out of scope. ``parse_label_file`` turns a
file into a scene's columns: the labels, and one array of the numbers of
all its lines, whose checks run as column checks; the fields the package
does not model are checked and dropped. Every file is read through
``core.read_bytes``, or streamed through ``core.read_arrays``.

Mixture sidecars are JSON documents (extension ``.mdn``) with one entry per
detection in file order, each holding 7 residual dimensions x K components
of weights, means and variances; the entries of one sidecar share one K.
They are written from, and read into, the scene's one mixture block.

A pool directory holds ``labels/<id>.txt`` and ``sidecars/<id>.mdn``; this
module is the one place that spells out that layout. ``load_pool_dir``
parses only the label files whose bytes a ``ParsedPool`` has not seen; the
pool keeps the columns of those it has in one npz file across processes.
``sidecar_reader`` likewise parses only the sidecars whose bytes a
``SidecarStore`` has not seen, and the store keeps the mixtures of those it
has in one npz file.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
from collections.abc import Iterable
from math import isfinite
from pathlib import Path

import numpy as np

from .core import (
    BOX_COLUMNS,
    ClassCatalog,
    DataError,
    MixtureError,
    MixtureParams,
    ParseError,
    RESIDUAL_DIMS,
    Scene,
    _check_boxes,
    read_arrays,
    read_bytes,
    read_text,
    row_fault,
    write_arrays,
    write_text_atomic,
)

log = logging.getLogger(__name__)

SIDECAR_VERSION = 1
#: The layout version of a parsed-pool file; a file of another is replaced.
POOL_FORMAT = 1
#: The layout version of a sidecar store file; a file of another is replaced.
SIDECAR_STORE_FORMAT = 1


# Where the numbers of a label line after its type (truncated, occluded,
# alpha, 2D bbox (4), h w l, x y z, rotation_y, score) go in ``Scene.boxes``.
_BOX_FIELDS = np.array([10, 11, 12, 8, 9, 7, 13, 14])


def parse_label_file(path: str | Path, catalog: ClassCatalog, data: bytes | None = None) -> Scene:
    """Parse one label file into a Scene whose id is the file stem; ``data``
    are the file's bytes, if the caller has read them already.

    Checks each line in this order: 15 or 16 fields, numeric fields and a
    finite ``occluded`` (also on the lines then skipped: "DontCare", and with
    a warning classes outside the catalog), then the rules of ``Box3D`` and
    of ``ScoredDetection``. A missing score is confidence 1.0. Every failure
    is a ``ParseError`` with the path and line number.

    The numbers of all lines go through ``float`` into one array and are
    checked as columns; only a file that fails a check is parsed again line
    by line, to find its first failing line.
    """
    path = Path(path)
    lines = read_text(path, data).splitlines()
    split = list(map(str.split, lines))
    rows = list(filter(None, split))
    scene = _scene_of_rows(path.stem, rows, catalog)
    if scene is None:
        return _parse_lines(path, lines, catalog)
    if len(scene.labels) < len(rows):
        for line_no, label in _unknown_classes(split, catalog):
            _warn_unknown_class(path, line_no, label)
    return scene


def _unknown_classes(split: Iterable[list[str]], catalog: ClassCatalog) -> list[tuple[int, str]]:
    """(line number, class) of each line of a file, split into fields, whose
    class is neither in the catalog nor "DontCare"."""
    classes = catalog.classes
    return [
        (line_no, fields[0])
        for line_no, fields in enumerate(split, start=1)
        if fields and fields[0] not in classes and fields[0] != "DontCare"
    ]


def _scene_of_rows(scene_id: str, rows: list[list[str]], catalog: ClassCatalog) -> Scene | None:
    """The scene of a file's non-blank lines split into fields, or None when
    a line fails a check of ``parse_label_file``."""
    if not rows:
        return Scene(scene_id)
    if not set(map(len, rows)) <= {15, 16}:
        return None
    # An object array's cast calls ``float`` on each token; "1" is the
    # missing score.
    tokens = np.array([f[1:] if len(f) == 16 else [*f[1:], "1"] for f in rows], dtype=object)
    try:
        values = tokens.astype(np.float64)
    except ValueError:
        return None
    if not np.isfinite(values[:, 1]).all():
        return None
    classes = catalog.classes
    kept = [i for i, fields in enumerate(rows) if fields[0] != "DontCare" and fields[0] in classes]
    try:
        return Scene(scene_id, [rows[i][0] for i in kept], values.take(kept, 0).take(_BOX_FIELDS, 1))
    except ValueError:
        return None


def _parse_lines(path: Path, lines: list[str], catalog: ClassCatalog) -> Scene:
    """``parse_label_file`` one line at a time, each line checked in order."""
    where = str(path)
    labels, rows = [], []
    for line_no, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields:
            continue
        if len(fields) not in (15, 16):
            raise ParseError(f"expected 15 or 16 fields, got {len(fields)}", where, line_no)
        try:
            values = tuple(map(float, fields[1:]))
        except ValueError as exc:
            raise ParseError(f"bad numeric field: {exc}", where, line_no) from exc
        if not isfinite(values[1]):
            raise ParseError(f"occluded must be finite, got {fields[2]}", where, line_no)
        label = fields[0]
        if label == "DontCare":
            continue
        if label not in catalog:
            _warn_unknown_class(path, line_no, label)
            continue
        h, w, l, x, y, z, theta = values[7:14]
        row = (x, y, z, w, l, h, theta, values[14] if len(values) == 15 else 1.0)
        fault = row_fault(row)
        if fault:
            raise ParseError(fault, where, line_no)
        labels.append(label)
        rows.append(row)
    return Scene(path.stem, labels, rows)


def _warn_unknown_class(path: Path, line_no: int, label: str) -> None:
    log.warning("%s:%d: skipping unknown class %r", path, line_no, label)


# A label line as ``serialize_label_file`` writes it: the class, zeros for
# what a Scene does not model (truncated, occluded, alpha, 2D bbox), then
# h w l, x y z, rotation_y and the score.
_LINE = "{} 0.000000 0 0.000000 0.000000 0.000000 0.000000 0.000000" + " {:.6f}" * 8 + "\n"


def serialize_label_file(scene: Scene) -> str:
    """Render a Scene back to KITTI label text.

    Fields the Scene does not model (truncation, occlusion, alpha, 2D bbox)
    are emitted as zeros; the score column is always present, so detections
    parsed without one reappear with an explicit 1.0. Floats use 6 decimal
    digits, making parse(serialize(s)) exact for scenes representable at that
    precision.
    """
    return "".join(
        _LINE.format(label, h, w, l, x, y, z, theta, confidence)
        for label, (x, y, z, w, l, h, theta, confidence) in zip(scene.labels, scene.boxes.tolist())
    )


def write_label_file(scene: Scene, path: str | Path) -> None:
    write_text_atomic(path, serialize_label_file(scene))


def save_mixture_sidecar(scene: Scene, path: str | Path) -> None:
    if scene.mixtures is None:
        if scene.labels:
            raise DataError(f"scene {scene.id!r} has no mixture parameters to save")
        rows = []
    else:
        rows = scene.mixtures.block.tolist()
    entries = [{"weights": w, "means": m, "variances": v} for w, m, v in rows]
    doc = {"version": SIDECAR_VERSION, "dims": list(RESIDUAL_DIMS), "detections": entries}
    # No indent: ``json`` uses its C encoder only without one.
    write_text_atomic(path, json.dumps(doc))


def load_mixture_sidecar(path: str | Path, scene: Scene, data: bytes | None = None) -> Scene:
    """The scene with the sidecar's mixtures attached: one block whose
    entries are the detections in file order, all with one K; ``data`` are
    the file's bytes, if the caller has read them already."""
    path = Path(path)
    try:
        doc = json.loads(read_text(path, data))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid sidecar JSON: {exc}", str(path)) from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: sidecar is not a JSON object")
    if doc.get("version") != SIDECAR_VERSION:
        raise DataError(f"{path}: unsupported sidecar version {doc.get('version')!r}")
    entries = doc.get("detections", [])
    if not isinstance(entries, list):
        raise DataError(f"{path}: sidecar detections must be a list, got {type(entries).__name__}")
    if len(entries) != len(scene.labels):
        raise DataError(
            f"{path}: sidecar has {len(entries)} entries but scene {scene.id!r} has "
            f"{len(scene.labels)} detections"
        )
    if not entries:
        return scene
    try:
        # One cast and one check; a sidecar that fails either is read again
        # entry by entry, for the message that names its first fault.
        triples = [(e["weights"], e["means"], e["variances"]) for e in entries]
        mixtures = MixtureParams(np.array(triples, dtype=np.float64))
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    else:
        return Scene.from_checked(scene.id, scene.labels, scene.boxes, mixtures)
    rows = []
    for idx, entry in enumerate(entries):
        try:
            rows.append((entry["weights"], entry["means"], entry["variances"]))
        except (KeyError, TypeError) as exc:
            raise DataError(f"{path}: entry {idx}: {exc}") from exc
    try:
        mixtures = MixtureParams.from_rows(rows)
    except MixtureError as exc:
        raise DataError(f"{path}: entry {exc.entry}: {exc}") from exc
    return Scene.from_checked(scene.id, scene.labels, scene.boxes, mixtures)


def label_path(pool_dir: str | Path, scene_id: str) -> Path:
    return Path(pool_dir) / "labels" / f"{scene_id}.txt"


def sidecar_path(pool_dir: str | Path, scene_id: str) -> Path:
    return Path(pool_dir) / "sidecars" / f"{scene_id}.mdn"


def load_pool_dir(pool_dir: str | Path, catalog: ClassCatalog, store: ParsedPool | None = None) -> list[Scene]:
    """Load every ``labels/<id>.txt`` in a pool directory, sorted by id.

    Each file is read once and its bytes hashed: a file whose digest
    ``store`` holds is built from the stored columns, which ``store``
    checked when it loaded them, with no check of its own; any other is
    parsed from the bytes read. ``store`` learns every file read.
    """
    labels = Path(pool_dir) / "labels"
    if not labels.is_dir():
        raise DataError(f"no labels/ directory under {labels.parent}")
    with os.scandir(labels) as entries:
        names = sorted(e.name for e in entries if e.name.endswith(".txt"))
    store = ParsedPool() if store is None else store
    scenes = []
    for name in names:
        path = os.path.join(labels, name)
        data = read_bytes(path)
        digest = hashlib.blake2b(data, digest_size=16).hexdigest()
        # Taken out, so that the stored columns outlive the load only in
        # the scenes; a file of equal bytes reuses the first's.
        columns = store.stored.pop(digest, None) or store.read.get(digest)
        if columns is None:
            scene = parse_label_file(path, catalog, data)
            store.parsed += 1
            # A file whose parse warned is not stored: it warns in every run.
            warned = _unknown_classes(map(str.split, read_text(path, data).splitlines()), catalog)
        else:
            scene, warned = Scene.from_checked(name[: -len(".txt")], *columns), False
        store.read[digest] = None if warned else (scene.labels, scene.boxes)
        scenes.append(scene)
    return scenes


# The arrays of a parsed-pool file: its stamp, one digest and one row count
# per label file, and the rows of all the files in digest order, each label
# as its index in the catalog.
_POOL_ARRAYS = ("format", "catalog", "digests", "counts", "labels", "boxes")


class ParsedPool:
    """The parsed columns of label files, by a blake2b digest of each file's
    bytes: ``load_pool_dir`` takes the entry of a file whose digest
    ``stored`` holds out of it and builds the file's scene from it, instead
    of parsing the file.

    ``load`` and ``save`` keep them across processes in one npz file of
    plain arrays, stamped with POOL_FORMAT and the catalog, which is all
    that a parse reads besides the file. ``read`` maps the digest of every
    file ``load_pool_dir`` read to its columns, or to None for a file whose
    parse logged a warning: such a file is never stored. ``parsed`` counts
    the files parsed.
    """

    def __init__(self):
        self.stored: dict[str, tuple[tuple[str, ...], np.ndarray]] = {}
        self.read: dict[str, tuple[tuple[str, ...], np.ndarray] | None] = {}
        self.parsed = 0
        self._loaded = None  # how many files the file loaded holds, if it is current

    def load(self, path: str | Path, catalog: ClassCatalog) -> None:
        """Take the columns of the parsed-pool file ``path``.

        A missing file holds none. A file of another stamp is not read: a
        warning names it, and ``save`` replaces it. A file that is not an
        npz of the arrays ``save`` writes, with their dtypes and shapes, or
        that holds a label outside the catalog or a box that breaks a rule
        of ``Scene``, is a ``DataError`` naming it.
        """
        path = Path(path)
        if not path.exists():
            return
        # Streamed from the file: the whole file in memory at once would
        # raise the peak memory of a round.
        fmt, classes, *columns = read_arrays(path, _POOL_ARRAYS, "parsed-pool file")
        current = fmt.shape == () and fmt.dtype.kind in "iu" and int(fmt) == POOL_FORMAT
        if not current or classes.tolist() != list(catalog.classes):
            log.warning("%s: made for another catalog or format; replacing it", path)
            return
        try:
            self.stored = _pool_columns(*columns, catalog)
        except ValueError as exc:
            raise DataError(f"{path}: invalid parsed-pool file: {exc}") from exc
        self._loaded = len(self.stored)

    def save(self, path: str | Path, catalog: ClassCatalog) -> None:
        """Write the columns of every file in ``read`` that has them to the
        parsed-pool file ``path``, atomically, unless the file loaded holds
        exactly those files."""
        kept = {d: c for d, c in sorted(self.read.items()) if c is not None}
        # Every file loaded was read (and taken out of ``stored``), and no
        # other file is kept: the file holds exactly ``kept``.
        if not self.stored and len(kept) == self._loaded:
            return
        code = {c: i for i, c in enumerate(catalog.classes)}
        arrays = {
            "format": np.int64(POOL_FORMAT),
            "catalog": np.array(catalog.classes, dtype=np.str_),
            "digests": np.array(list(kept), dtype=np.str_),
            "counts": np.array([len(labels) for labels, _ in kept.values()], dtype=np.int64),
            "labels": np.array([code[c] for labels, _ in kept.values() for c in labels], dtype=np.int64),
            "boxes": np.concatenate([np.empty((0, len(BOX_COLUMNS))), *(boxes for _, boxes in kept.values())]),
        }
        # Streamed to the file, as ``load`` reads it.
        write_arrays(path, arrays)


def _pool_columns(digests, counts, labels, boxes, catalog: ClassCatalog) -> dict:
    """The columns by digest that a parsed-pool file's arrays hold, the
    boxes as read-only views of ``boxes``, checked here once for every
    scene built from them; a ``ValueError`` names the first rule they
    break."""
    for name, array, fits in (
        ("digests", digests, digests.dtype.kind == "U" and digests.ndim == 1),
        ("counts", counts, counts.dtype == np.int64 and counts.shape == digests.shape),
        ("labels", labels, labels.dtype == np.int64 and labels.ndim == 1),
        ("boxes", boxes, boxes.dtype == np.float64 and boxes.shape == (len(labels), len(BOX_COLUMNS))),
    ):
        if not fits:
            raise ValueError(f"{name} has dtype {array.dtype} and shape {array.shape}")
    if (counts < 0).any() or counts.sum() != len(labels):
        raise ValueError(f"the counts must be non-negative and sum to the {len(labels)} rows, got {counts.sum()}")
    if len(labels) and not 0 <= labels.min() <= labels.max() < catalog.num_classes:
        raise ValueError(f"a label is not the index of one of the catalog's {catalog.num_classes} classes")
    _check_boxes(boxes)
    boxes.flags.writeable = False
    names, ends = [catalog.classes[i] for i in labels.tolist()], np.cumsum(counts).tolist()
    return {
        d: (tuple(names[end - n : end]), boxes[end - n : end])
        for d, n, end in zip(digests.tolist(), counts.tolist(), ends)
    }


# The arrays of a sidecar store file: its stamp, one digest, detection
# count D and component count K per sidecar (K = 0 for one of no
# detection), and the (D, 3, 7, K) blocks of all of them, flattened, in
# digest order.
_STORE_ARRAYS = ("format", "digests", "counts", "components", "values")


class SidecarStore:
    """The mixtures of parsed sidecars, by a blake2b digest of each file's
    bytes: ``sidecar_reader`` serves a sidecar whose digest ``stored``
    holds, with a block of as many detections as its scene, from it
    instead of parsing the file.

    ``load`` and ``save`` keep them across processes in one npz file of
    plain arrays, stamped with SIDECAR_STORE_FORMAT alone: a parse reads
    nothing but the file and the scene's detection count. ``stored`` maps
    a digest to its mixtures, None for a sidecar of no detection. ``read``
    maps the id of every scene whose sidecar ``sidecar_reader`` read to the
    sidecar's digest and mixtures; ``parsed`` counts the sidecars parsed.
    """

    def __init__(self):
        self.stored: dict[str, MixtureParams | None] = {}
        self.read: dict[str, tuple[str, MixtureParams | None]] = {}
        self.parsed = 0

    def load(self, path: str | Path) -> None:
        """Take the mixtures of the sidecar store file ``path``.

        A missing file holds none. A file of another stamp is not read: a
        warning names it, and ``save`` replaces it. A file that is not an
        npz of the arrays ``save`` writes, with their dtypes and shapes, or
        whose counts do not fit its values, or that holds a mixture that
        breaks a rule of ``MixtureParams``, is a ``DataError`` naming it.
        """
        path = Path(path)
        if not path.exists():
            return
        fmt, *arrays = read_arrays(path, _STORE_ARRAYS, "sidecar store file")
        if not (fmt.shape == () and fmt.dtype.kind in "iu" and int(fmt) == SIDECAR_STORE_FORMAT):
            log.warning("%s: made for another format; replacing it", path)
            return
        try:
            self.stored = _stored_mixtures(*arrays)
        except ValueError as exc:
            raise DataError(f"{path}: invalid sidecar store file: {exc}") from exc

    def save(self, path: str | Path, dropped: Iterable[str]) -> None:
        """Write the mixtures of every sidecar in ``read`` but those of the
        scenes whose ids ``dropped`` holds to the file ``path``, atomically."""
        dropped = set(dropped)
        kept = {digest: mixtures for sid, (digest, mixtures) in self.read.items() if sid not in dropped}
        digests = sorted(kept)
        blocks = [kept[d].block if kept[d] else np.empty((0, 3, len(RESIDUAL_DIMS), 0)) for d in digests]
        write_arrays(
            path,
            {
                "format": np.int64(SIDECAR_STORE_FORMAT),
                "digests": np.array(digests, dtype=np.str_),
                "counts": np.array([b.shape[0] for b in blocks], dtype=np.int64),
                "components": np.array([b.shape[3] for b in blocks], dtype=np.int64),
                "values": np.concatenate([np.empty(0), *(b.reshape(-1) for b in blocks)]),
            },
        )


def _stored_mixtures(digests, counts, components, values) -> dict:
    """The mixtures by digest that a sidecar store file's arrays hold; a
    ``ValueError`` names the first rule they break."""
    for name, array, fits in (
        ("digests", digests, digests.dtype.kind == "U" and digests.ndim == 1),
        ("counts", counts, counts.dtype == np.int64 and counts.shape == digests.shape),
        ("components", components, components.dtype == np.int64 and components.shape == digests.shape),
        ("values", values, values.dtype == np.float64 and values.ndim == 1),
    ):
        if not fits:
            raise ValueError(f"{name} has dtype {array.dtype} and shape {array.shape}")
    if (counts < 0).any() or (components < 0).any() or (components[counts > 0] < 1).any():
        raise ValueError("the counts must be non-negative, and a sidecar of detections needs a component")
    row = 3 * len(RESIDUAL_DIMS)
    # Python ints: a count read from the file does not overflow.
    sizes = [row * d * k for d, k in zip(counts.tolist(), components.tolist())]
    if sum(sizes) != len(values):
        raise ValueError(f"the counts and components make {sum(sizes)} values, not the {len(values)} stored")
    stored, at = {}, 0
    for digest, d, k, size in zip(digests.tolist(), counts.tolist(), components.tolist(), sizes):
        try:
            stored[digest] = MixtureParams(values[at : at + size].reshape(d, 3, len(RESIDUAL_DIMS), k)) if d else None
        except MixtureError as exc:
            raise ValueError(f"sidecar {digest}: entry {exc.entry}: {exc}") from exc
        at += size
    return stored


def sidecar_reader(pool_dir: str | Path, scenes: list[Scene], store: SidecarStore | None = None):
    """Scene -> the scene with its sidecar attached, for a pool directory's
    scenes: read on the first call for a scene id, the same object after.

    The first of ``scenes`` in order without a sidecar is a data error,
    "missing mixture sidecar: <path>", before any is read. One listing of
    ``sidecars/`` stands in for a ``stat`` per scene; a name it lacks, or
    holds as a symbolic link, is judged by a ``stat`` of its own.

    Each sidecar is read once and its bytes hashed: one whose digest
    ``store`` holds with as many detections as the scene takes the stored
    mixtures, which ``store`` checked when it loaded them; any other is
    parsed from the bytes read, so an edited sidecar is parsed again.
    ``store`` learns every sidecar read.
    """
    try:
        with os.scandir(Path(pool_dir) / "sidecars") as entries:
            listed = {e.name for e in entries if not e.is_symlink()}
    except OSError:
        listed = set()
    for s in scenes:
        if f"{s.id}.mdn" not in listed:
            path = sidecar_path(pool_dir, s.id)
            if not path.exists():
                raise DataError(f"missing mixture sidecar: {path}")
    store = SidecarStore() if store is None else store
    attached: dict[str, Scene] = {}

    def with_mixtures(scene: Scene) -> Scene:
        if scene.id not in attached:
            path = sidecar_path(pool_dir, scene.id)
            data = read_bytes(path)
            digest = hashlib.blake2b(data, digest_size=16).hexdigest()
            mixtures = store.stored.get(digest)
            if digest not in store.stored or (len(mixtures.block) if mixtures else 0) != len(scene.labels):
                attached[scene.id] = load_mixture_sidecar(path, scene, data)
                store.parsed += 1
            elif mixtures:
                attached[scene.id] = Scene.from_checked(scene.id, scene.labels, scene.boxes, mixtures)
            else:
                attached[scene.id] = scene
            store.read[scene.id] = (digest, attached[scene.id].mixtures)
        return attached[scene.id]

    return with_mixtures
