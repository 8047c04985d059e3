"""Plain-loop references for ``uncertainty.scene_uncertainties``.

The plain path the array scoring replaced, and the oracle it must match
float for float (``TestArrayUncertainty``, ``TestSceneUncertainties`` and
acceptance checks 03/04): the moments of one detection's mixture row
(``mixture_mean``, ``mixture_au``, ``mixture_eu``), their propagation into
box space (``propagate_uncertainty``, which rejects a near-singular yaw
mean with the ``ValueError`` whose text ``NearSingularYawError`` carries),
and a scene's score from both (``oracle_scene_uncertainty``). Every sum
adds left to right from 0.0, by its loop: the builtin ``sum`` of floats is
compensated from Python 3.12 on. ``scene_uncertainty`` scores one scene
through the array path, as the tests and the golden digests call it.
"""
import functools
import math
import operator

from scenesel.core import Anchor, AnchorTable, MixtureParams, RESIDUAL_DIMS, Scene
from scenesel.uncertainty import SEC_SINGULAR_COS, UncertaintyConfig, scene_uncertainties


def left_to_right(values) -> float:
    """The sum of ``values`` added left to right from 0.0, as the builtin
    ``sum`` of floats adds up to Python 3.11 (from 3.12 it compensates)."""
    return functools.reduce(operator.add, values, 0.0)


def _row(params: MixtureParams, dim: str, detection: int) -> list[list[float]]:
    return params.block[detection, :, RESIDUAL_DIMS.index(dim)].tolist()


def _dot(a: list[float], b: list[float]) -> float:
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def mixture_mean(params: MixtureParams, dim: str, detection: int = 0) -> float:
    weights, means, _ = _row(params, dim, detection)
    return _dot(weights, means)


def mixture_au(params: MixtureParams, dim: str, detection: int = 0) -> float:
    """Aleatoric part: mixture-weighted mean of component variances."""
    weights, _, variances = _row(params, dim, detection)
    return _dot(weights, variances)


def mixture_eu(params: MixtureParams, dim: str, detection: int = 0) -> float:
    """Epistemic part: mixture-weighted spread of component means."""
    weights, means, _ = _row(params, dim, detection)
    mean = _dot(weights, means)
    return _dot(weights, [(m - mean) ** 2 for m in means])


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


def propagated_terms(scene: Scene, anchors: AnchorTable, config: UncertaintyConfig, detection: int) -> list[float]:
    """One detection's 7 box-space terms au + eta*eu, through the plain
    loops; a near-singular yaw mean raises ``propagate_uncertainty``'s
    ``ValueError``."""
    p = scene.mixtures
    au = tuple(mixture_au(p, d, detection) for d in RESIDUAL_DIMS)
    eu = tuple(mixture_eu(p, d, detection) for d in RESIDUAL_DIMS)
    means = tuple(mixture_mean(p, d, detection) for d in RESIDUAL_DIMS)
    box_au, box_eu = propagate_uncertainty(au, eu, means, anchors.for_class(scene.labels[detection]))
    return [a + config.eta * e for a, e in zip(box_au, box_eu)]


def oracle_scene_uncertainty(scene: Scene, anchors: AnchorTable, config: UncertaintyConfig) -> float:
    """``scene_uncertainty`` as plain loops over each kept detection's rows:
    ``mixture_mean``, ``mixture_au``, ``mixture_eu``, then
    ``propagate_uncertainty``."""
    kept = [i for i, d in enumerate(scene.detections) if d.confidence >= config.tau]
    if not kept:
        return 0.0
    total = 0.0
    for i in kept:
        total += left_to_right(propagated_terms(scene, anchors, config, i))
    return total / (7 * len(kept))


def scene_uncertainty(scene: Scene, anchors: AnchorTable, config: UncertaintyConfig) -> float:
    """The one-scene call of ``scene_uncertainties``."""
    return float(scene_uncertainties([scene], anchors, config)[0])
