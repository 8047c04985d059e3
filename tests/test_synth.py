import gc
import math
import weakref

import numpy as np
import pytest

from scenesel.core import DEFAULT_ANCHORS, DEFAULT_CATALOG, RESIDUAL_DIMS, Box3D, ScoredDetection
from scenesel.kernel import KernelConfig
from scenesel.diagnostics import sample_pair_similarities
from scenesel.sampler import SimilarityCache
from scenesel.synth import (
    NoiseModel,
    PoolSpec,
    _residual_mixture,
    _sigmoid,
    generate_pool,
    make_predictor,
    simulate_predictions,
)
from scenesel.uncertainty import UncertaintyConfig

from conftest import scene_of
from uncertainty_oracle import mixture_au, scene_uncertainty

MIX_90_5_5 = (0.9, 0.05, 0.05)


class TestSpecValidation:
    def test_class_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PoolSpec(n_scenes=5, class_mix=(0.5, 0.3, 0.3))

    def test_negative_mix_entry_rejected(self):
        with pytest.raises(ValueError):
            PoolSpec(n_scenes=5, class_mix=(1.2, -0.1, -0.1))

    def test_object_bounds_checked(self):
        with pytest.raises(ValueError):
            PoolSpec(n_scenes=5, class_mix=MIX_90_5_5, objects_min=4, objects_max=2)

    def test_redundancy_groups_bounded(self):
        with pytest.raises(ValueError):
            PoolSpec(n_scenes=5, class_mix=MIX_90_5_5, redundancy_groups=6)

    @pytest.mark.parametrize("extent", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_spatial_extent_is_positive_and_finite(self, extent):
        with pytest.raises(ValueError, match="spatial_extent must be positive and finite"):
            PoolSpec(n_scenes=5, class_mix=MIX_90_5_5, spatial_extent=extent)

    def test_noise_model_ranges(self):
        with pytest.raises(ValueError):
            NoiseModel(misclass_rate=1.5)
        with pytest.raises(ValueError):
            NoiseModel(confidence_noise=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(mean_spread=math.nan)
        with pytest.raises(ValueError):
            NoiseModel(mixture_components=0)


class TestGeneratePool:
    def test_same_seed_identical_pools(self):
        spec = PoolSpec(n_scenes=20, class_mix=MIX_90_5_5, rng_seed=3)
        assert generate_pool(spec, DEFAULT_CATALOG) == generate_pool(spec, DEFAULT_CATALOG)

    def test_different_seed_differs(self):
        a = generate_pool(PoolSpec(n_scenes=20, class_mix=MIX_90_5_5, rng_seed=3), DEFAULT_CATALOG)
        b = generate_pool(PoolSpec(n_scenes=20, class_mix=MIX_90_5_5, rng_seed=4), DEFAULT_CATALOG)
        assert a != b

    def test_ids_and_object_bounds(self):
        spec = PoolSpec(n_scenes=30, class_mix=MIX_90_5_5, objects_min=2, objects_max=6, rng_seed=0)
        pool = generate_pool(spec, DEFAULT_CATALOG)
        assert sorted(pool) == [f"scene_{i:06d}" for i in range(30)]
        for sid, scene in pool.items():
            assert scene.id == sid
            assert 2 <= len(scene.detections) <= 6
            assert scene.mixtures is None
            for det in scene.detections:
                assert det.confidence == 1.0

    def test_class_mix_convergence(self):
        spec = PoolSpec(n_scenes=1000, class_mix=MIX_90_5_5, rng_seed=11)
        pool = generate_pool(spec, DEFAULT_CATALOG)
        counts = {c: 0 for c in DEFAULT_CATALOG.classes}
        for scene in pool.values():
            for det in scene.detections:
                counts[det.class_label] += 1
        total = sum(counts.values())
        assert abs(counts["car"] / total - 0.9) <= 0.02

    def test_class_mix_length_checked(self):
        with pytest.raises(ValueError):
            generate_pool(PoolSpec(n_scenes=5, class_mix=(0.5, 0.5)), DEFAULT_CATALOG)

    def test_clustered_pool_more_redundant_than_unclustered(self):
        base = dict(n_scenes=12, class_mix=(0.5, 0.3, 0.2), rng_seed=9)
        clustered = generate_pool(PoolSpec(redundancy_groups=1, **base), DEFAULT_CATALOG)
        unclustered = generate_pool(PoolSpec(redundancy_groups=12, **base), DEFAULT_CATALOG)
        # The two pools reuse ids, so each needs its own cache.
        mean_c, mean_u = (
            np.mean(
                sample_pair_similarities(
                    sorted(pool.values(), key=lambda s: s.id),
                    30,
                    0,
                    SimilarityCache(DEFAULT_CATALOG, KernelConfig()),
                )
            )
            for pool in (clustered, unclustered)
        )
        assert mean_c > mean_u

    def test_cluster_members_share_layout(self):
        spec = PoolSpec(n_scenes=6, class_mix=MIX_90_5_5, redundancy_groups=2, rng_seed=5)
        pool = generate_pool(spec, DEFAULT_CATALOG)
        scenes = [pool[f"scene_{i:06d}"] for i in range(6)]
        # scenes 0, 2, 4 share template 0: same classes, positions within jitter
        for a, b in [(scenes[0], scenes[2]), (scenes[0], scenes[4])]:
            assert [d.class_label for d in a.detections] == [d.class_label for d in b.detections]
            for da, db in zip(a.detections, b.detections):
                assert abs(da.box.x - db.box.x) < 1.0
                assert abs(da.box.y - db.box.y) < 1.0


ZERO_NOISE = NoiseModel()


class TestSimulatePredictions:
    def pool(self, n=10, seed=2):
        return generate_pool(PoolSpec(n_scenes=n, class_mix=MIX_90_5_5, rng_seed=seed), DEFAULT_CATALOG)

    def test_zero_noise_identity(self):
        pool = self.pool()
        predictor = make_predictor(ZERO_NOISE, DEFAULT_ANCHORS, DEFAULT_CATALOG, seed=0)
        cfg = UncertaintyConfig()
        for scene in pool.values():
            pred = predictor(scene)
            assert len(pred.detections) == len(scene.detections)
            for d_pred, d_gt in zip(pred.detections, scene.detections):
                assert d_pred.class_label == d_gt.class_label
                assert d_pred.confidence == 1.0
                assert d_pred.box == d_gt.box
            # single component, zero spread: no epistemic disagreement
            assert pred.mixtures.block.shape == (len(scene.detections), 3, 7, 1)
            assert scene_uncertainty(pred, DEFAULT_ANCHORS, cfg) == 0.0

    def test_order_independent_determinism(self):
        # One fresh predictor per direction: a predictor reads a scene it
        # has predicted back from its memo.
        pool = self.pool()
        noise = NoiseModel(confidence_noise=0.2, position_noise_per_meter=0.01)
        forward, backward = (make_predictor(noise, DEFAULT_ANCHORS, DEFAULT_CATALOG, seed=7) for _ in range(2))
        forward = [forward(pool[sid]) for sid in sorted(pool)]
        backward = [backward(pool[sid]) for sid in sorted(pool, reverse=True)]
        assert forward == list(reversed(backward))

    def test_poisson_false_positive_mean(self):
        noise = NoiseModel(false_positive_rate=2.0, position_noise_per_meter=0.01)
        gt = self.pool(n=1, seed=1)["scene_000000"]
        rng = np.random.default_rng(123)
        counts = []
        for _ in range(10000):
            pred = simulate_predictions(gt, noise, DEFAULT_ANCHORS, DEFAULT_CATALOG, rng)
            counts.append(len(pred.detections) - len(gt.detections))
        assert np.mean(counts) == pytest.approx(2.0, abs=0.05)

    def test_au_grows_with_range(self):
        noise = NoiseModel(position_noise_per_meter=0.02)
        near = scene_of(
            id="near",
            detections=(ScoredDetection("car", 1.0, Box3D(x=10.0, y=0.0, z=0.0, w=1.6, l=3.9, h=1.56, theta=0.0)),),
        )
        far = scene_of(
            id="far",
            detections=(ScoredDetection("car", 1.0, Box3D(x=60.0, y=0.0, z=0.0, w=1.6, l=3.9, h=1.56, theta=0.0)),),
        )
        p_near = simulate_predictions(near, noise, DEFAULT_ANCHORS, DEFAULT_CATALOG, np.random.default_rng(0))
        p_far = simulate_predictions(far, noise, DEFAULT_ANCHORS, DEFAULT_CATALOG, np.random.default_rng(0))
        mix_near = p_near.mixtures
        mix_far = p_far.mixtures
        for dim in RESIDUAL_DIMS:
            assert mixture_au(mix_far, dim) > mixture_au(mix_near, dim)

    def test_misclass_rate_one_always_flips(self):
        pool = self.pool()
        predictor = make_predictor(
            NoiseModel(misclass_rate=1.0), DEFAULT_ANCHORS, DEFAULT_CATALOG, seed=3
        )
        for scene in pool.values():
            pred = predictor(scene)
            for d_pred, d_gt in zip(pred.detections, scene.detections):
                assert d_pred.class_label != d_gt.class_label

    def test_mean_spread_creates_epistemic_disagreement(self):
        pool = self.pool()
        predictor = make_predictor(
            NoiseModel(mixture_components=3, mean_spread=1.0, position_noise_per_meter=0.01),
            DEFAULT_ANCHORS,
            DEFAULT_CATALOG,
            seed=5,
        )
        pred = predictor(next(iter(pool.values())))
        means = pred.mixtures.block[0, 1]
        assert any(len(set(row)) > 1 for row in means.tolist())

    @pytest.mark.parametrize("z", [-1000.0, -709.79, -1e308, -math.inf])
    def test_sigmoid_is_zero_where_exp_overflows(self, z):
        assert _sigmoid(z) == 0.0

    @pytest.mark.parametrize("z", [-709.78, -30.0, -1.0, 0.0, 2.5, 40.0, 1e308])
    def test_sigmoid_keeps_its_expression_elsewhere(self, z):
        assert _sigmoid(z) == 1.0 / (1.0 + math.exp(-z))


class TestPredictorMemo:
    NOISE = NoiseModel(confidence_noise=0.5, position_noise_per_meter=0.005, false_positive_rate=0.3, mixture_components=3)

    def predictor(self, noise=NOISE):
        return make_predictor(noise, DEFAULT_ANCHORS, DEFAULT_CATALOG, seed=3)

    def test_same_scene_object_gives_the_same_prediction_object(self):
        scene = next(iter(generate_pool(PoolSpec(n_scenes=1, class_mix=MIX_90_5_5), DEFAULT_CATALOG).values()))
        predictor = self.predictor()
        pred = predictor(scene)
        assert predictor(scene) is pred
        copy = scene_of(id=scene.id, detections=scene.detections)
        assert predictor(copy) is not pred
        assert predictor(copy) == pred

    def test_prediction_is_collected_with_its_scene(self):
        pool = generate_pool(PoolSpec(n_scenes=3, class_mix=MIX_90_5_5), DEFAULT_CATALOG)
        predictor = self.predictor()
        kept = {sid: weakref.ref(predictor(scene)) for sid, scene in pool.items()}
        del pool["scene_000001"]
        gc.collect()
        assert kept["scene_000001"]() is None
        assert kept["scene_000000"]() is predictor(pool["scene_000000"])

    def test_key_is_identity_not_equality(self):
        # Equal scenes whose bits differ: the noiseless predictor copies x
        # bit for bit, so each must get its own prediction.
        def scene(x):
            box = Box3D(x=x, y=10.0, z=0.0, w=1.6, l=3.9, h=1.56, theta=0.0)
            return scene_of(id="s", detections=(ScoredDetection("car", 1.0, box),))

        negative, positive = scene(-0.0), scene(0.0)
        assert negative == positive
        predictor = self.predictor(NoiseModel())
        signs = [math.copysign(1.0, predictor(s).detections[0].box.x) for s in (negative, positive, negative)]
        assert signs == [-1.0, 1.0, -1.0]


def reference_residual_mixture(noise, rng, nominal, rng_range, var_scale=1.0):
    """The per-component ``_residual_mixture`` that one batched draw replaced,
    as nested rows: the batched one must give the same floats from the same
    stream."""
    k = noise.mixture_components
    var = (noise.position_noise_per_meter * max(rng_range, 1.0)) ** 2 * var_scale
    spread = noise.mean_spread * (rng_range / 60.0)
    weights, means, variances = [], [], []
    for dim in RESIDUAL_DIMS:
        mu = nominal[dim]
        if spread > 0:
            row_means = [mu + spread * float(rng.normal()) for _ in range(k)]
        else:
            row_means = [mu] * k
        weights.append([1.0 / k] * k)
        means.append(row_means)
        variances.append([var] * k)
    return [weights, means, variances]


class TestBatchedDraws:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("mean_spread", [0.0, 0.1, 2.0])
    def test_residual_mixture_matches_one_draw_per_component(self, k, mean_spread):
        noise = NoiseModel(position_noise_per_meter=0.005, mixture_components=k, mean_spread=mean_spread)
        for seed in range(200):
            values = np.random.default_rng(seed).normal(size=9).tolist()
            nominal = dict(zip(RESIDUAL_DIMS, values))
            rng_range, var_scale = 80.0 * abs(values[7]), (1.0, 4.0)[seed % 2]
            new_rng, old_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
            new = _residual_mixture(noise, new_rng, list(nominal.values()), rng_range, var_scale)
            old = reference_residual_mixture(noise, old_rng, nominal, rng_range, var_scale)
            assert new.shape == (3, 7, k) and new.tolist() == old
            # The stream stays in step for the draws that follow.
            assert new_rng.random() == old_rng.random()
