import math
import random

import numpy as np
import pytest

from scenesel.core import (
    Box3D,
    DEFAULT_ANCHORS,
    DEFAULT_CATALOG,
    MixtureParams,
    RESIDUAL_DIMS,
    Scene,
    ScoredDetection,
)


@pytest.fixture
def catalog():
    return DEFAULT_CATALOG


@pytest.fixture
def anchors():
    return DEFAULT_ANCHORS


def scene_of(id, detections=(), mixtures=None):
    """A scene from ``ScoredDetection`` objects: the tests' one way to turn
    detections into a scene's columns."""
    return Scene(id, detections=detections, mixtures=mixtures)


def make_box(x=1.0, y=2.0, z=0.0, w=1.6, l=3.9, h=1.56, theta=0.1):
    return Box3D(x=x, y=y, z=z, w=w, l=l, h=h, theta=theta)


def make_detection(label="car", confidence=0.9, box=None):
    return ScoredDetection(label, confidence, box or make_box())


def uniform_mixture(k=1, mean=0.0, var=0.04):
    """One detection's mixture with identical rows across all seven
    residual dimensions."""
    return mixture_from_rows([1.0 / k] * k, [mean] * k, [var] * k)


def mixture_from_rows(weights, means, variances):
    """One detection's mixture: the same row replicated over all seven
    dimensions."""
    n = len(RESIDUAL_DIMS)
    return MixtureParams.from_rows([([list(weights)] * n, [list(means)] * n, [list(variances)] * n)])


def stack_mixtures(*mixtures):
    """One block from one-detection mixtures, in order."""
    return MixtureParams(np.concatenate([m.block for m in mixtures]))


def scene_with_mixtures(scene_id, *pairs):
    """A scene from (detection, one-detection mixture) pairs."""
    if not pairs:
        return Scene(scene_id)
    dets, mixtures = zip(*pairs)
    return scene_of(scene_id, tuple(dets), stack_mixtures(*mixtures))


def random_scene(rng: random.Random, scene_id: str, catalog=DEFAULT_CATALOG, max_objects=4):
    dets = []
    for _ in range(rng.randint(0, max_objects)):
        dets.append(
            ScoredDetection(
                class_label=rng.choice(catalog.classes),
                confidence=round(rng.random(), 6),
                box=Box3D(
                    x=round(rng.uniform(-40, 40), 6),
                    y=round(rng.uniform(-40, 40), 6),
                    z=round(rng.uniform(-1, 1), 6),
                    w=round(rng.uniform(0.4, 2.5), 6),
                    l=round(rng.uniform(0.5, 5.0), 6),
                    h=round(rng.uniform(0.5, 2.5), 6),
                    theta=round(rng.uniform(-math.pi, math.pi), 6),
                ),
            )
        )
    return scene_of(id=scene_id, detections=tuple(dets))
