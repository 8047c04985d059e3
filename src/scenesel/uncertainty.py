"""Stage-3 metric: mixture moments, AU/EU, residual propagation, scene score.

Mixture ``variances`` are variances throughout (not standard deviations):
the aleatoric term aggregates them linearly into a variance-like quantity,
and the exact identity Var = EU + AU then holds when AU is the
mixture-weighted mean of component variances.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .core import Anchor, AnchorTable, DataError, DEFAULT_TAU, MixtureParams, RESIDUAL_DIMS, Scene, SceneDataError

log = logging.getLogger(__name__)

SEC_SINGULAR_COS = 1e-6


@dataclass(frozen=True)
class UncertaintyConfig:
    eta: float = 0.5  # weight of the epistemic term
    tau: float = DEFAULT_TAU  # confidence filter, shared with the entropy metric

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be non-negative")


# The plain-loop moments of one detection's row: the oracle the array
# scoring of ``scene_uncertainty`` must match float for float.
# ``sum(map(mul, a, b))`` adds the same products in the same order as
# ``sum(x * y for x, y in zip(a, b))``, without a generator frame per term.


def _row(params: MixtureParams, dim: str, detection: int) -> list[list[float]]:
    return params.block[detection, :, RESIDUAL_DIMS.index(dim)].tolist()


def mixture_mean(params: MixtureParams, dim: str, detection: int = 0) -> float:
    weights, means, _ = _row(params, dim, detection)
    return sum(map(mul, weights, means))


def mixture_au(params: MixtureParams, dim: str, detection: int = 0) -> float:
    """Aleatoric part: mixture-weighted mean of component variances."""
    weights, _, variances = _row(params, dim, detection)
    return sum(map(mul, weights, variances))


def mixture_eu(params: MixtureParams, dim: str, detection: int = 0) -> float:
    """Epistemic part: mixture-weighted spread of component means."""
    weights, means, _ = _row(params, dim, detection)
    mean = sum(map(mul, weights, means))
    return sum(w * (m - mean) ** 2 for w, m in zip(weights, means))


class NearSingularYawError(SceneDataError):
    """A detection's yaw residual mean is too close to +-pi/2 for the secant
    propagation; ``scene_id`` names its scene."""


class PropagationOverflowError(SceneDataError):
    """A detection's propagated variances are not finite; ``scene_id``
    names its scene."""


class UncertaintyShortfallError(SceneDataError):
    """Exclusions left fewer rankable scenes than asked for; ``scene_id``
    names the first excluded scene."""


def _propagate(variances: tuple[float, ...], means: tuple[float, ...], anchor: Anchor) -> tuple[float, ...]:
    d2 = anchor.diagonal**2
    h2 = anchor.height**2
    vx, vy, vz, vw, vh, vl, vt = variances
    mx, my, mz, mw, mh, ml, mt = means
    cos_t = math.cos(mt)
    if abs(cos_t) < SEC_SINGULAR_COS:
        raise ValueError(f"yaw residual mean {mt} is too close to +-pi/2 for secant propagation")
    sec2 = 1.0 / (cos_t * cos_t)
    return (d2 * vx, d2 * vy, h2 * vz, mw * mw * vw, mh * mh * vh, ml * ml * vl, sec2 * vt)


def propagate_uncertainty(
    residual_au: tuple[float, ...],
    residual_eu: tuple[float, ...],
    residual_means: tuple[float, ...],
    anchor: Anchor,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Scale residual-space variances into box space: (au, eu).

    x, y scale by the squared anchor diagonal, z by the squared anchor
    height, w/h/l by the squared residual mean, and yaw by sec^2 of the yaw
    residual mean. AU and EU use identical factors. A yaw residual mean
    within SEC_SINGULAR_COS of a zero cosine is a ``ValueError``.
    """
    n = len(RESIDUAL_DIMS)
    if not (len(residual_au) == len(residual_eu) == len(residual_means) == n):
        raise ValueError(f"expected {n} residual entries")
    if any(v < 0 for v in (*residual_au, *residual_eu)):
        raise ValueError("residual variances must be non-negative")
    means = tuple(residual_means)
    return _propagate(tuple(residual_au), means, anchor), _propagate(tuple(residual_eu), means, anchor)


@np.errstate(over="ignore", invalid="ignore")  # non-finite results raise below
def scene_uncertainty(scene: Scene, anchors: AnchorTable, config: UncertaintyConfig) -> float:
    """Mean over the filtered detections' 7 propagated terms of au + eta*eu.

    Zero eligible detections score 0. Detections are filtered by the shared
    confidence threshold; a scene with counted detections but no mixture
    parameters is a data error, a detection whose yaw residual mean is
    within SEC_SINGULAR_COS of a zero cosine a ``NearSingularYawError``, and
    one whose propagated variances are not finite a
    ``PropagationOverflowError``, each for the first such detection.

    The moments are array operations over the kept rows of the scene's
    block, every sum in the order of the plain loops of ``mixture_mean``,
    ``mixture_au``, ``mixture_eu`` and ``propagate_uncertainty``, so every
    float is theirs for any K: over components a loop of K array adds
    (numpy's ``sum`` adds in another order from K = 8), over the 7
    dimensions and across detections Python's ``sum`` and ``+=``.
    ``(m - mean) ** 2`` is ``np.float_power``, which is C ``pow`` as
    Python's ``**`` is, and the yaw's cosine is ``math.cos``.
    """
    kept = [i for i, d in enumerate(scene.detections) if d.confidence >= config.tau]
    if not kept:
        return 0.0
    if scene.mixtures is None:
        raise DataError(f"scene {scene.id!r}: {len(kept)} counted detections have no mixture parameters")
    block = scene.mixtures.block
    if len(kept) < len(block):
        block = block[kept]
    weighted = block[:, 1:] * block[:, :1]  # w*m and w*v
    mean_au = 0.0
    for i in range(block.shape[3]):
        mean_au = mean_au + weighted[..., i]
    mean, au = mean_au[:, 0], mean_au[:, 1]
    spread = block[:, 0] * np.float_power(block[:, 1] - mean[..., None], 2.0)
    eu = 0.0
    for i in range(block.shape[3]):
        eu = eu + spread[..., i]

    # The factors of ``_propagate``, one row per detection; a yaw near
    # +-pi/2 gets NaN and fails below.
    factors = []
    for det, (_, _, _, mw, mh, ml, mt) in zip(kept, mean.tolist()):
        anchor = anchors.for_class(scene.detections[det].class_label)
        d2 = anchor.diagonal**2
        cos_t = math.cos(mt)
        sec2 = 1.0 / (cos_t * cos_t) if abs(cos_t) >= SEC_SINGULAR_COS else math.nan
        factors.append((d2, d2, anchor.height**2, mw * mw, mh * mh, ml * ml, sec2))
    scale = np.array(factors)
    terms = scale * au + config.eta * (scale * eu)
    finite = np.isfinite(terms)
    if not finite.all():
        # The first failing detection, through the plain loop: a yaw near
        # +-pi/2 is the one argument it rejects; anything else overflowed.
        row = int(finite.all(1).argmin())
        det = scene.detections[kept[row]]
        where = f"scene {scene.id!r}: detection {kept[row]} ({det.class_label})"
        try:
            propagate_uncertainty(
                tuple(au[row].tolist()), tuple(eu[row].tolist()), tuple(mean[row].tolist()),
                anchors.for_class(det.class_label),
            )
        except ValueError as exc:
            raise NearSingularYawError(f"{where}: {exc}", scene.id) from exc
        raise PropagationOverflowError(f"{where}: propagated variances are not finite", scene.id)
    total = 0.0
    for row in terms.tolist():
        total += sum(row)
    return total / (7 * len(kept))


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
    scored = []
    excluded = []
    for s in scenes:
        try:
            scored.append((scene_uncertainty(s, anchors, config), s.id))
        except NearSingularYawError as exc:
            log.warning("excluding scene %s from uncertainty ranking: %s", s.id, exc)
            excluded.append(s.id)
    if top_n > len(scored):
        raise UncertaintyShortfallError(
            f"{len(excluded)} of {len(scenes)} scenes excluded for a yaw residual near +-pi/2, "
            f"the first {excluded[0]!r}, leave {len(scored)} to rank, below top_n={top_n}",
            excluded[0],
        )
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [sid for _, sid in scored[:top_n]]
