"""Plain-loop references for ``uncertainty.scene_uncertainties``.

The moments of one detection's mixture row (``mixture_mean``,
``mixture_au``, ``mixture_eu``) as the loops the array scoring replaced:
the oracle that ``scene_uncertainties`` must match float for float
(``TestOnePassUncertainty`` and acceptance checks 03/04). Every sum adds
left to right from 0.0, by its loop: the builtin ``sum`` of floats is
compensated from Python 3.12 on. ``scene_uncertainty`` scores one scene
through the array path, as the tests and the golden digests call it.
"""
from scenesel.core import AnchorTable, MixtureParams, RESIDUAL_DIMS, Scene
from scenesel.uncertainty import UncertaintyConfig, scene_uncertainties


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


def scene_uncertainty(scene: Scene, anchors: AnchorTable, config: UncertaintyConfig) -> float:
    """The one-scene call of ``scene_uncertainties``."""
    return float(scene_uncertainties([scene], anchors, config)[0])
