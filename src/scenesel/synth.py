"""Deterministic synthetic scene pools and a noisy predictor stand-in.

Everything is reproducible from (spec, seed). Per-scene randomness derives
from independent seed streams keyed by scene index or id, so determinism
survives parallel or out-of-order evaluation.
"""
from __future__ import annotations

import hashlib
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .core import (
    AnchorTable,
    ClassCatalog,
    DEFAULT_ANCHORS,
    MixtureParams,
    RESIDUAL_DIMS,
    Scene,
    box_fault,
)

MIX_SUM_TOL = 1e-9


@dataclass(frozen=True)
class PoolSpec:
    n_scenes: int
    class_mix: tuple[float, ...]
    objects_min: int = 2
    objects_max: int = 6
    spatial_extent: float = 60.0
    redundancy_groups: int | None = None  # None: every scene is its own group
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_scenes < 1:
            raise ValueError("n_scenes must be >= 1")
        if abs(sum(self.class_mix) - 1.0) > MIX_SUM_TOL:
            raise ValueError(f"class_mix must sum to 1, got {sum(self.class_mix)}")
        if any(p < 0 for p in self.class_mix):
            raise ValueError("class_mix entries must be non-negative")
        if not (1 <= self.objects_min <= self.objects_max):
            raise ValueError("need 1 <= objects_min <= objects_max")
        if not 0 < self.spatial_extent < math.inf:
            raise ValueError(f"spatial_extent must be positive and finite, got {self.spatial_extent}")
        g = self.redundancy_groups
        if g is not None and not (1 <= g <= self.n_scenes):
            raise ValueError("redundancy_groups must be in [1, n_scenes]")

    @property
    def groups(self) -> int:
        return self.redundancy_groups if self.redundancy_groups is not None else self.n_scenes


@dataclass(frozen=True)
class NoiseModel:
    confidence_noise: float = 0.0  # std of the confidence logit jitter
    position_noise_per_meter: float = 0.0  # residual std growth per meter of range
    false_positive_rate: float = 0.0  # per-scene Poisson mean
    misclass_rate: float = 0.0
    mixture_components: int = 1
    mean_spread: float = 0.0  # scale of component-mean disagreement (drives EU)

    def __post_init__(self):
        for name in ("confidence_noise", "position_noise_per_meter", "false_positive_rate", "mean_spread"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if not (0.0 <= self.misclass_rate <= 1.0):
            raise ValueError("misclass_rate must be in [0, 1]")
        if self.mixture_components < 1:
            raise ValueError("mixture_components must be >= 1")


def _scene_id(index: int) -> str:
    return f"scene_{index:06d}"


def _template(rng, spec: PoolSpec, catalog: ClassCatalog, anchors: AnchorTable):
    n_obj = int(rng.integers(spec.objects_min, spec.objects_max + 1))
    objs = []
    for _ in range(n_obj):
        cls = catalog.classes[int(rng.choice(len(catalog.classes), p=spec.class_mix))]
        a = anchors.for_class(cls)
        ext = spec.spatial_extent
        objs.append(
            {
                "class": cls,
                "x": float(rng.uniform(-ext, ext)),
                "y": float(rng.uniform(-ext, ext)),
                "z": float(rng.uniform(-0.5, 0.5)),
                "l": a.length * float(np.exp(rng.normal(0.0, 0.08))),
                "w": a.width * float(np.exp(rng.normal(0.0, 0.08))),
                "h": a.height * float(np.exp(rng.normal(0.0, 0.08))),
                "theta": float(rng.uniform(-math.pi, math.pi)),
            }
        )
    return objs


def generate_pool(
    spec: PoolSpec,
    catalog: ClassCatalog,
    anchors: AnchorTable = DEFAULT_ANCHORS,
) -> dict[str, Scene]:
    """Ground-truth pool keyed by scene id (confidence 1.0, no mixtures).

    Scenes are grouped into ``groups`` near-duplicate clusters: members of a
    cluster share the cluster's object layout up to small jitter.
    """
    if len(spec.class_mix) != catalog.num_classes:
        raise ValueError("class_mix length must match the catalog")
    anchors.check_covers(catalog)
    g = spec.groups
    templates = [
        _template(
            np.random.default_rng(np.random.SeedSequence([spec.rng_seed, 1, t])),
            spec,
            catalog,
            anchors,
        )
        for t in range(g)
    ]
    pool: dict[str, Scene] = {}
    for i in range(spec.n_scenes):
        rng = np.random.default_rng(np.random.SeedSequence([spec.rng_seed, 2, i]))
        template = templates[i % g]
        # x, y, z, w, l, h, theta, confidence: the draws in that order.
        boxes = [
            (
                obj["x"] + float(rng.normal(0.0, 0.05)),
                obj["y"] + float(rng.normal(0.0, 0.05)),
                obj["z"] + float(rng.normal(0.0, 0.02)),
                obj["w"] * float(np.exp(rng.normal(0.0, 0.01))),
                obj["l"] * float(np.exp(rng.normal(0.0, 0.01))),
                obj["h"] * float(np.exp(rng.normal(0.0, 0.01))),
                obj["theta"] + float(rng.normal(0.0, 0.01)),
                1.0,
            )
            for obj in template
        ]
        sid = _scene_id(i)
        pool[sid] = Scene(sid, [obj["class"] for obj in template], boxes)
    return pool


def _range(x: float, y: float, z: float) -> float:
    """Distance of a box center from the origin."""
    return math.sqrt(x * x + y * y + z * z)


def _sigmoid(z: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:  # z below about -709.78: the limit
        return 0.0


def _residual_mixture(
    noise: NoiseModel,
    rng,
    nominal: list[float],
    rng_range: float,
    var_scale: float = 1.0,
) -> np.ndarray:
    """One detection's (3, 7, K) weights, means and variances around the
    ``nominal`` residuals (in RESIDUAL_DIMS order)."""
    k = noise.mixture_components
    var = (noise.position_noise_per_meter * max(rng_range, 1.0)) ** 2 * var_scale
    spread = noise.mean_spread * (rng_range / 60.0)
    n = len(RESIDUAL_DIMS)
    out = np.empty((3, n, k))
    out[0] = 1.0 / k
    out[1] = np.array(nominal)[:, None]
    if spread > 0:
        # One draw for all components, row by row: the same stream and the
        # same floats as one ``rng.normal()`` per component.
        out[1] += spread * rng.standard_normal((n, k))
    out[2] = var
    return out


def simulate_predictions(
    gt_scene: Scene,
    noise: NoiseModel,
    anchors: AnchorTable,
    catalog: ClassCatalog,
    rng: np.random.Generator,
) -> Scene:
    """Noisy predictions for one ground-truth scene: its boxes as one
    (D, 8) array and its mixtures as one (D, 3, 7, K) block, filled
    detection by detection in stream order.

    Residual variance grows with range; component-mean disagreement (and so
    the epistemic term) scales with ``mean_spread``. False positives are
    appended per a Poisson draw. A zero noise model reproduces the ground
    truth exactly with confidence 1.0 and all component means equal.
    """
    sigma = noise.position_noise_per_meter
    labels, boxes, mixtures = [], [], []
    for label, (gx, gy, gz, gw, gl, gh, gtheta, _) in zip(gt_scene.labels, gt_scene.boxes.tolist()):
        rng_range = _range(gx, gy, gz)
        pos_std = sigma * rng_range
        # The box noise in one draw (x, y, z only under position noise, then
        # w, l, h, theta): the same stream and floats as one rng.normal each.
        if pos_std:
            zx, zy, zz, zw, zl, zh, zt = rng.standard_normal(7).tolist()
            x, y, z = gx + pos_std * zx, gy + pos_std * zy, gz + pos_std * zz
        else:
            zw, zl, zh, zt = rng.standard_normal(4).tolist()
            x, y, z = gx, gy, gz
        w = gw * float(np.exp(sigma * zw))
        l = gl * float(np.exp(sigma * zl))
        h = gh * float(np.exp(sigma * zh))
        theta = gtheta + sigma * zt
        fault = box_fault(x, y, z, w, l, h, theta)
        if fault:
            raise ValueError(fault)
        if noise.misclass_rate > 0 and rng.random() < noise.misclass_rate:
            others = [c for c in catalog.classes if c != label]
            if others:
                label = others[int(rng.integers(len(others)))]
        if noise.confidence_noise > 0:
            conf = _sigmoid(2.5 - rng_range / 60.0 + float(rng.normal(0.0, noise.confidence_noise)))
        else:
            conf = 1.0
        anchor = anchors.for_class(label)
        diagonal = anchor.diagonal
        nominal = [
            (x - gx) / diagonal,
            (y - gy) / diagonal,
            (z - gz) / anchor.height,
            math.log(w / anchor.width),
            math.log(h / anchor.height),
            math.log(l / anchor.length),
            theta - gtheta,
        ]
        mixtures.append(_residual_mixture(noise, rng, nominal, rng_range))
        labels.append(label)
        boxes.append((x, y, z, w, l, h, theta, conf))

    if noise.false_positive_rate > 0:
        for _ in range(int(rng.poisson(noise.false_positive_rate))):
            cls = catalog.classes[int(rng.integers(catalog.num_classes))]
            a = anchors.for_class(cls)
            x = float(rng.uniform(-60.0, 60.0))
            y = float(rng.uniform(-60.0, 60.0))
            z = float(rng.uniform(-0.5, 0.5))
            w = a.width * float(np.exp(rng.normal(0.0, 0.1)))
            l = a.length * float(np.exp(rng.normal(0.0, 0.1)))
            h = a.height * float(np.exp(rng.normal(0.0, 0.1)))
            theta = float(rng.uniform(-math.pi, math.pi))
            nominal = [
                0.0,
                0.0,
                0.0,
                math.log(w / a.width),
                math.log(h / a.height),
                math.log(l / a.length),
                0.0,
            ]
            mixtures.append(_residual_mixture(noise, rng, nominal, _range(x, y, z), var_scale=4.0))
            labels.append(cls)
            boxes.append((x, y, z, w, l, h, theta, float(rng.uniform(0.05, 0.95))))
    block = np.reshape(mixtures, (-1, 3, len(RESIDUAL_DIMS), noise.mixture_components))
    return Scene(gt_scene.id, labels, boxes, MixtureParams(block))


def _stable_id_seed(scene_id: str) -> int:
    return int.from_bytes(hashlib.sha256(scene_id.encode()).digest()[:8], "big")


def make_predictor(
    noise: NoiseModel,
    anchors: AnchorTable,
    catalog: ClassCatalog,
    seed: int,
):
    """Deterministic scene -> predictions callable.

    Each scene gets its own seed stream derived from (seed, scene id), so the
    output does not depend on invocation order.

    The callable predicts each scene object once: it keeps the prediction,
    keyed by the identity of the input scene, and returns that same object
    on every later call with that scene. An entry lives exactly as long as
    its input scene; a weak reference drops it when the scene is collected,
    so no id is reused while its entry exists. The key is identity, not
    equality, because two equal scenes may differ in their bits (``-0.0``
    against ``0.0``), which the prediction copies.
    """
    memo: dict[int, tuple[Scene, weakref.ref]] = {}

    def predictor(scene: Scene) -> Scene:
        key = id(scene)
        entry = memo.get(key)
        if entry is None:
            rng = np.random.default_rng(np.random.SeedSequence([seed, _stable_id_seed(scene.id)]))
            pred = simulate_predictions(scene, noise, anchors, catalog, rng)
            entry = memo[key] = (pred, weakref.ref(scene, lambda _ref: memo.pop(key, None)))
        return entry[0]

    return predictor
