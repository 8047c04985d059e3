"""``kernel.build_scene_graph`` against the pair loop it replaced.

``reference_weights`` is the builder as it was when a graph held a tuple of
tuples: one distance per node pair in a Python loop, each as
``sqrt(dx*dx + dy*dy + dz*dz)`` clamped below by ``min_dist``. On predicted
scenes of 0 to 20 kept objects, and on copies with identical centers (the
clamp) and centers 1e150 m out, the broadcast build must give the same
labels and ``float.hex`` of every weight; a center 1e200 m out must be the
same ``DistanceOverflowError``.
"""
import math
import warnings

import numpy as np
import pytest

from scenesel.core import DEFAULT_ANCHORS, DEFAULT_CATALOG, EGO_LABEL, MIRROR_LABEL, Scene
from scenesel.kernel import DistanceOverflowError, KernelConfig, build_scene_graph, scene_content
from scenesel.synth import NoiseModel, PoolSpec, generate_pool, make_predictor

CFG = KernelConfig()
NOISE = NoiseModel(confidence_noise=0.3, position_noise_per_meter=0.02, false_positive_rate=1.5, misclass_rate=0.1)


def reference_weights(scene, catalog, config):
    """(labels, weights as a list of lists) of a scene's graph, one node pair at a time."""
    kept = scene_content(scene, catalog, config)
    if not kept:
        return (EGO_LABEL, MIRROR_LABEL), [[0.0, 1.0], [1.0, 0.0]]
    centers = [(0.0, 0.0, 0.0)] + [c[1:] for c in kept]
    labels = (EGO_LABEL,) + tuple(c[0] for c in kept)
    n = len(labels)
    weights = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dx = centers[i][0] - centers[j][0]
            dy = centers[i][1] - centers[j][1]
            dz = centers[i][2] - centers[j][2]
            dist = max(math.sqrt(dx * dx + dy * dy + dz * dz), config.min_dist)
            if math.isinf(dist):
                raise DistanceOverflowError(
                    f"scene {scene.id!r}: the distance from {centers[i]} to {centers[j]} overflows",
                    scene.id,
                )
            weights[i][j] = weights[j][i] = 1.0 / dist
    return labels, weights


def _hex(labels, weights):
    return labels, [[w.hex() for w in row] for row in weights]


def _with_rows(scene, edit, suffix):
    """A copy of the scene whose boxes ``edit`` changed in place."""
    boxes = scene.boxes.copy()
    edit(boxes)
    return Scene(scene.id + suffix, scene.labels, boxes)


def predicted_scenes():
    spec = PoolSpec(n_scenes=80, class_mix=(0.5, 0.3, 0.2), objects_min=1, objects_max=20, rng_seed=13)
    predictor = make_predictor(NOISE, DEFAULT_ANCHORS, DEFAULT_CATALOG, seed=113)
    scenes = [predictor(s) for s in generate_pool(spec, DEFAULT_CATALOG, DEFAULT_ANCHORS).values()]
    scenes.append(Scene("empty"))

    def same_center(boxes):
        boxes[1:, :3] = boxes[0, :3]

    def far_out(boxes):
        boxes[::2, :3] *= 1e150

    edited = [s for s in scenes if len(s.labels) >= 2]
    return (
        scenes
        + [_with_rows(s, same_center, "-same") for s in edited[:20]]
        + [_with_rows(s, far_out, "-far") for s in edited[:20]]
    )


def test_the_broadcast_build_gives_the_pair_loop_floats():
    scenes = predicted_scenes()
    kept = [len(scene_content(s, DEFAULT_CATALOG, CFG)) for s in scenes]
    assert min(kept) == 0 and max(kept) >= 18
    clamped = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from the broadcast
        for scene in scenes:
            g = build_scene_graph(scene, DEFAULT_CATALOG, CFG)
            labels, weights = reference_weights(scene, DEFAULT_CATALOG, CFG)
            assert _hex(g.labels, g.weights.tolist()) == _hex(labels, weights), scene.id
            clamped += sum(w == 1.0 / CFG.min_dist for row in weights for w in row)
    assert clamped > 0


@pytest.mark.parametrize(
    "xs, said",
    [
        ((1e200,), "the distance from (0.0, 0.0, 0.0) to (1e+200, "),
        ((-1e200,), "the distance from (0.0, 0.0, 0.0) to (-1e+200, "),
        # each 1.2e154 m from the ego, 2.4e154 m apart: the first pair
        # whose distance overflows is not the ego's
        ((1.2e154, -1.2e154), "the distance from (1.2e+154, "),
    ],
)
def test_an_overflowing_distance_is_the_same_error(xs, said):
    base = next(s for s in predicted_scenes() if len(scene_content(s, DEFAULT_CATALOG, CFG)) >= 4)
    rows = np.flatnonzero(base.boxes[:, 7] >= CFG.tau)[1 : 1 + len(xs)]

    def too_far(boxes):
        boxes[rows, 0] = xs

    scene = _with_rows(base, too_far, "-too-far")
    with pytest.raises(DistanceOverflowError) as expected:
        reference_weights(scene, DEFAULT_CATALOG, CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DistanceOverflowError) as got:
            build_scene_graph(scene, DEFAULT_CATALOG, CFG)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith(f"scene {scene.id!r}: {said}")
    assert got.value.scene_id == scene.id
