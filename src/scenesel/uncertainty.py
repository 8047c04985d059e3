"""Stage-3 metric: mixture moments, AU/EU, residual propagation, scene score.

Mixture ``variances`` are variances throughout (not standard deviations):
the aleatoric term aggregates them linearly into a variance-like quantity,
and the exact identity Var = EU + AU then holds when AU is the
mixture-weighted mean of component variances.

``scene_uncertainties`` is the one scoring path: it scores a list of scenes
in one array pass per CHUNK_SCENES scenes. ``rank_by_uncertainty``, the
selection summary (``diagnostics.selection_report``) and the CLI each score
a list with one call. A scene the pass cannot score (no mixtures, or a term
that is not finite) is looked up again on its own, in input order, for the
error that names it. The plain loops the array pass must match float for
float, one detection's mixture moments and ``propagate_uncertainty``, are
test references (``tests/uncertainty_oracle.py``).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import AnchorTable, check_tau, DataError, DEFAULT_TAU, Scene, SceneDataError

log = logging.getLogger(__name__)

SEC_SINGULAR_COS = 1e-6

# Scenes scored in one array pass. Bounds the pass's working set: the
# chunk's kept mixture rows, a few arrays of their moments and terms, and
# one zero-padded matrix of their row sums.
CHUNK_SCENES = 128


@dataclass(frozen=True)
class UncertaintyConfig:
    eta: float = 0.5  # weight of the epistemic term
    tau: float = DEFAULT_TAU  # confidence filter, shared with the entropy metric

    def __post_init__(self):
        if not (0.0 <= self.eta < math.inf):
            raise ValueError(f"eta must be non-negative and finite, got {self.eta}")
        check_tau(self.tau)


class NearSingularYawError(SceneDataError):
    """A detection's yaw residual mean is too close to +-pi/2 for the secant
    propagation; ``scene_id`` names its scene."""


class PropagationOverflowError(SceneDataError):
    """A detection's propagated variances are not finite; ``scene_id``
    names its scene."""


class UncertaintyShortfallError(SceneDataError):
    """Exclusions left fewer rankable scenes than asked for; ``scene_id``
    names the first excluded scene."""


def _kept(scene: Scene, config: UncertaintyConfig) -> list[int]:
    tau = config.tau
    return [i for i, confidence in enumerate(scene.boxes[:, 7].tolist()) if confidence >= tau]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # non-finite terms fail their scene
def _terms(block: np.ndarray, d2, h2, config: UncertaintyConfig):
    """The (R, 7) box-space terms au + eta*eu of the R rows of a
    (R, 3, 7, K) block, with the rows' squared anchor diagonals ``d2`` and
    heights ``h2``; also the rows' (R, 7) residual means.

    AU and EU scale alike: x, y by ``d2``, z by ``h2``, w/h/l by the squared
    residual mean, yaw by sec^2 of its mean: NaN where |cos| < SEC_SINGULAR_COS.
    """
    weighted = block[:, 1:] * block[:, :1]  # w*m and w*v
    mean_au = 0.0
    for i in range(block.shape[3]):
        mean_au = mean_au + weighted[..., i]
    mean, au = mean_au[:, 0], mean_au[:, 1]
    spread = block[:, 0] * np.float_power(block[:, 1] - mean[..., None], 2.0)
    eu = 0.0
    for i in range(block.shape[3]):
        eu = eu + spread[..., i]
    cos_t = np.array([math.cos(t) for t in mean[:, 6].tolist()])
    sec2 = np.where(abs(cos_t) >= SEC_SINGULAR_COS, 1.0 / (cos_t * cos_t), math.nan)
    sizes = mean[:, 3:6] * mean[:, 3:6]
    scale = np.column_stack((d2, d2, h2, sizes, sec2))
    return scale * au + config.eta * (scale * eu), mean


def _anchor_factors(anchors: AnchorTable, label: str) -> tuple[float, float]:
    """A class's squared anchor diagonal and height; NaN for a class without
    an anchor, whose scenes then fail and are looked up for the KeyError."""
    try:
        anchor = anchors.for_class(label)
    except KeyError:
        return math.nan, math.nan
    return anchor.diagonal**2, anchor.height**2


@np.errstate(over="ignore", invalid="ignore")  # failed scenes' sums; finite terms may still add up to inf
def _score_chunk(scenes, anchors: AnchorTable, config: UncertaintyConfig, out: np.ndarray) -> list[int]:
    """Write the scenes' scores into ``out``, which holds zeros, the score
    of a scene with no kept detection; return the positions of the scenes
    that failed, whose scores are left NaN.

    The kept rows of all scenes with one K are concatenated and scored
    together. Each row's 7 terms add left to right from 0.0, and each
    scene's row sums in detection order from 0.0, through a matrix padded
    with zeros after each scene's last row, as a loop over one scene adds.
    """
    failed = []
    groups: dict[int, tuple[list, list, list, list]] = {}  # K -> positions, counts, blocks, labels
    for pos, scene in enumerate(scenes):
        kept = _kept(scene, config)
        if not kept:
            continue
        if scene.mixtures is None:
            out[pos] = math.nan
            failed.append(pos)
            continue
        block = scene.mixtures.block
        positions, counts, blocks, labels = groups.setdefault(block.shape[3], ([], [], [], []))
        positions.append(pos)
        counts.append(len(kept))
        blocks.append(block if len(kept) == len(block) else block[kept])
        labels += [scene.labels[i] for i in kept]
    for positions, counts, blocks, labels in groups.values():
        factors = {label: _anchor_factors(anchors, label) for label in set(labels)}
        d2, h2 = np.array([factors[label] for label in labels]).T
        terms = _terms(np.concatenate(blocks), d2, h2, config)[0]
        rows = 0.0
        for j in range(terms.shape[1]):
            rows = rows + terms[:, j]
        counts = np.array(counts)
        filled = np.arange(counts.max()) < counts[:, None]
        padded = np.zeros(filled.shape)
        padded[filled] = rows
        total = 0.0
        for j in range(padded.shape[1]):
            total = total + padded[:, j]
        finite = np.ones(filled.shape, dtype=bool)
        finite[filled] = np.isfinite(terms).all(1)
        ok = finite.all(1)
        out[positions] = np.where(ok, total / (7 * counts), math.nan)
        failed += [pos for pos, good in zip(positions, ok.tolist()) if not good]
    return sorted(failed)


def _raise_failure(scene: Scene, anchors: AnchorTable, config: UncertaintyConfig):
    """Raise the error of a scene the array pass could not score, as a
    lone scene finds it: no mixtures, then the first kept detection without
    an anchor (``KeyError``), then the first kept detection whose terms are
    not finite: near-singular if its yaw mean's cosine is within
    SEC_SINGULAR_COS of zero (as ``_terms`` tests it), else overflowed."""
    kept = _kept(scene, config)
    if scene.mixtures is None:
        raise DataError(f"scene {scene.id!r}: {len(kept)} counted detections have no mixture parameters")
    kept_anchors = [anchors.for_class(scene.labels[i]) for i in kept]
    terms, mean = _terms(
        scene.mixtures.block[kept],
        [a.diagonal**2 for a in kept_anchors],
        [a.height**2 for a in kept_anchors],
        config,
    )
    row = int(np.isfinite(terms).all(1).argmin())
    where = f"scene {scene.id!r}: detection {kept[row]} ({scene.labels[kept[row]]})"
    yaw = float(mean[row, 6])
    if abs(math.cos(yaw)) < SEC_SINGULAR_COS:
        why = f"yaw residual mean {yaw} is too close to +-pi/2 for secant propagation"
        raise NearSingularYawError(f"{where}: {why}", scene.id)
    raise PropagationOverflowError(f"{where}: propagated variances are not finite", scene.id)


def _scores(scenes, anchors: AnchorTable, config: UncertaintyConfig, excluded: list[int] | None = None) -> np.ndarray:
    """The scenes' scores, in CHUNK_SCENES chunks, then each failed scene's
    error in input order. With ``excluded``, a near-singular yaw does not
    raise: the scene is logged, its position appended, its score left NaN."""
    scores = np.zeros(len(scenes))
    failed = []
    for lo in range(0, len(scenes), CHUNK_SCENES):
        hi = lo + CHUNK_SCENES
        failed += [lo + pos for pos in _score_chunk(scenes[lo:hi], anchors, config, scores[lo:hi])]
    for pos in failed:
        try:
            _raise_failure(scenes[pos], anchors, config)
        except NearSingularYawError as exc:
            if excluded is None:
                raise
            log.warning("excluding scene %s from uncertainty ranking: %s", scenes[pos].id, exc)
            excluded.append(pos)
    return scores


def scene_uncertainties(scenes: list[Scene], anchors: AnchorTable, config: UncertaintyConfig) -> np.ndarray:
    """Each scene's mean over its filtered detections' 7 propagated terms
    of au + eta*eu, in input order.

    Zero eligible detections score 0. Detections are filtered by the shared
    confidence threshold. The first scene in input order that cannot be
    scored raises: one with counted detections but no mixture parameters a
    ``DataError``, a class without an anchor a ``KeyError``, a detection
    whose yaw residual mean is within SEC_SINGULAR_COS of a zero cosine a
    ``NearSingularYawError``, and one whose propagated variances are not
    finite a ``PropagationOverflowError``, each for its first such detection.

    The moments and their propagation (see ``_terms``) are array
    operations over the kept rows of every scene with the same K, each sum
    in the order of the plain loops of the test oracle (the mean, the
    variance-weighted AU and the spread EU of one detection's row, then
    ``propagate_uncertainty``), so every float is theirs for any K and any
    list: over components a loop of K array adds (numpy's ``sum`` adds in
    another order from K = 8), over the 7 dimensions and across a scene's
    detections a loop of array adds, left to right from 0.0.
    ``(m - mean) ** 2`` is ``np.float_power``, which is C ``pow`` as
    Python's ``**`` is, and the yaw's cosine is ``math.cos``.
    """
    return _scores(scenes, anchors, config)


def rank_by_uncertainty(
    scenes: list[Scene], anchors: AnchorTable, config: UncertaintyConfig, top_n: int
) -> list[str]:
    """Ids of top_n scenes by descending uncertainty, ties by ascending id.

    Scenes with a near-singular yaw residual are excluded with a warning.
    A top_n above the number of scenes is a ``ValueError``; exclusions that
    leave fewer than top_n scenes are an ``UncertaintyShortfallError``.
    """
    if top_n > len(scenes):
        raise ValueError(f"top_n={top_n} exceeds {len(scenes)} scenes")
    excluded: list[int] = []
    scores = _scores(scenes, anchors, config, excluded)
    skip = set(excluded)
    scored = [(score, s.id) for pos, (s, score) in enumerate(zip(scenes, scores.tolist())) if pos not in skip]
    if top_n > len(scored):
        raise UncertaintyShortfallError(
            f"{len(excluded)} of {len(scenes)} scenes excluded for a yaw residual near +-pi/2, "
            f"the first {scenes[excluded[0]].id!r}, leave {len(scored)} to rank, below top_n={top_n}",
            scenes[excluded[0]].id,
        )
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [sid for _, sid in scored[:top_n]]
