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

from .core import Anchor, AnchorTable, DataError, MixtureParams, RESIDUAL_DIMS, Scene

log = logging.getLogger(__name__)

SEC_SINGULAR_COS = 1e-6


@dataclass(frozen=True)
class UncertaintyConfig:
    eta: float = 0.5  # weight of the epistemic term
    tau: float = 0.3  # confidence filter, shared with the entropy metric

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be non-negative")


@dataclass(frozen=True)
class BoxUncertainty:
    """Propagated per-dimension variances (box-space units squared)."""

    au: tuple[float, ...]
    eu: tuple[float, ...]

    def __post_init__(self):
        n = len(RESIDUAL_DIMS)
        if len(self.au) != n or len(self.eu) != n:
            raise ValueError(f"expected {n} entries per kind")
        values = (*self.au, *self.eu)
        if not all(map(math.isfinite, values)) or min(values) < 0:
            raise ValueError("propagated variances must be finite and non-negative")


# ``sum(map(mul, a, b))`` adds the same products in the same order as
# ``sum(x * y for x, y in zip(a, b))``, so the same floats, without a
# generator frame per term.


def mixture_mean(params: MixtureParams, dim: str) -> float:
    weights, means, _ = params.row(dim)
    return sum(map(mul, weights, means))


def mixture_au(params: MixtureParams, dim: str) -> float:
    """Aleatoric part: mixture-weighted mean of component variances."""
    weights, _, variances = params.row(dim)
    return sum(map(mul, weights, variances))


def mixture_eu(params: MixtureParams, dim: str) -> float:
    """Epistemic part: mixture-weighted spread of component means."""
    weights, means, _ = params.row(dim)
    mean = sum(map(mul, weights, means))
    return sum(w * (m - mean) ** 2 for w, m in zip(weights, means))


class NearSingularYawError(DataError):
    """Yaw residual mean too close to +-pi/2 for the secant propagation."""


def _propagate(variances: tuple[float, ...], means: tuple[float, ...], anchor: Anchor) -> tuple[float, ...]:
    d2 = anchor.diagonal**2
    h2 = anchor.height**2
    vx, vy, vz, vw, vh, vl, vt = variances
    mx, my, mz, mw, mh, ml, mt = means
    cos_t = math.cos(mt)
    if abs(cos_t) < SEC_SINGULAR_COS:
        raise NearSingularYawError(
            f"yaw residual mean {mt} is too close to +-pi/2 for secant propagation"
        )
    sec2 = 1.0 / (cos_t * cos_t)
    return (d2 * vx, d2 * vy, h2 * vz, mw * mw * vw, mh * mh * vh, ml * ml * vl, sec2 * vt)


def propagate_uncertainty(
    residual_au: tuple[float, ...],
    residual_eu: tuple[float, ...],
    residual_means: tuple[float, ...],
    anchor: Anchor,
) -> BoxUncertainty:
    """Scale residual-space variances into box space.

    x, y scale by the squared anchor diagonal, z by the squared anchor
    height, w/h/l by the squared residual mean, and yaw by sec^2 of the yaw
    residual mean. AU and EU use identical factors.
    """
    n = len(RESIDUAL_DIMS)
    if not (len(residual_au) == len(residual_eu) == len(residual_means) == n):
        raise ValueError(f"expected {n} residual entries")
    if any(v < 0 for v in (*residual_au, *residual_eu)):
        raise ValueError("residual variances must be non-negative")
    return BoxUncertainty(
        au=_propagate(tuple(residual_au), tuple(residual_means), anchor),
        eu=_propagate(tuple(residual_eu), tuple(residual_means), anchor),
    )


def detection_uncertainty(params: MixtureParams, anchor: Anchor) -> BoxUncertainty:
    """One pass over the rows, each row's mean computed once: the same sums,
    and so the same floats, as ``mixture_mean``, ``mixture_au`` and
    ``mixture_eu`` per dimension."""
    au, eu, means = [], [], []
    for weights, row_m, variances in zip(params.weights, params.means, params.variances):
        mean = sum(map(mul, weights, row_m))
        au.append(sum(map(mul, weights, variances)))
        eu.append(sum(w * (m - mean) ** 2 for w, m in zip(weights, row_m)))
        means.append(mean)
    return propagate_uncertainty(tuple(au), tuple(eu), tuple(means), anchor)


def scene_uncertainty(scene: Scene, anchors: AnchorTable, config: UncertaintyConfig) -> float:
    """Mean over the filtered detections' 7 propagated terms of au + eta*eu.

    Zero eligible detections score 0. Detections are filtered by the shared
    confidence threshold; a counted detection without mixture parameters is a
    data error.
    """
    kept = [d for d in scene.detections if d.confidence >= config.tau]
    if not kept:
        return 0.0
    total = 0.0
    for idx, det in enumerate(kept):
        if det.mixture is None:
            raise DataError(
                f"scene {scene.id!r}: detection {idx} ({det.class_label}) has no mixture parameters"
            )
        box_u = detection_uncertainty(det.mixture, anchors.for_class(det.class_label))
        total += sum(a + config.eta * e for a, e in zip(box_u.au, box_u.eu))
    return total / (7 * len(kept))


def rank_by_uncertainty(
    scenes: list[Scene], anchors: AnchorTable, config: UncertaintyConfig, top_n: int
) -> list[str]:
    """Ids of top_n scenes by descending uncertainty, ties by ascending id.

    Scenes with a near-singular yaw residual are excluded with a warning; an
    error is raised only if exclusions leave fewer than top_n scenes.
    """
    scored = []
    for s in scenes:
        try:
            scored.append((scene_uncertainty(s, anchors, config), s.id))
        except NearSingularYawError as exc:
            log.warning("excluding scene %s from uncertainty ranking: %s", s.id, exc)
    if top_n > len(scored):
        raise ValueError(f"top_n={top_n} exceeds {len(scored)} rankable scenes")
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [sid for _, sid in scored[:top_n]]
