import math
import random

import numpy as np
import pytest

from scenesel.core import Anchor, AnchorTable, DataError, MixtureParams, RESIDUAL_DIMS, Scene, SceneDataError, ScoredDetection
from scenesel.uncertainty import (
    NearSingularYawError,
    UncertaintyConfig,
    UncertaintyShortfallError,
    mixture_au,
    mixture_eu,
    mixture_mean,
    propagate_uncertainty,
    rank_by_uncertainty,
    scene_uncertainty,
)
from conftest import make_box, make_detection, mixture_from_rows, scene_with_mixtures, uniform_mixture

CFG = UncertaintyConfig()
UNIT_ANCHOR = Anchor(length=1.0, width=1e-9, height=1.0)  # diagonal ~ 1


def unit_anchor():
    # width chosen so that the ground-plane diagonal is exactly 1
    l = math.sqrt(0.5)
    return Anchor(length=l, width=l, height=1.0)


class TestMixtureMoments:
    def test_single_component_mean(self):
        assert mixture_mean(uniform_mixture(mean=2.5), "x") == 2.5

    def test_symmetric_mean(self):
        m = mixture_from_rows((0.5, 0.5), (-1.0, 1.0), (1.0, 1.0))
        assert mixture_mean(m, "x") == pytest.approx(0.0)

    def test_weighted_mean(self):
        m = mixture_from_rows((0.5, 0.3, 0.2), (1.0, 2.0, 3.0), (1.0, 1.0, 1.0))
        assert mixture_mean(m, "x") == pytest.approx(1.7)

    def test_au_single(self):
        assert mixture_au(uniform_mixture(var=0.04), "w") == pytest.approx(0.04)

    def test_au_average(self):
        m = mixture_from_rows((0.5, 0.5), (0.0, 0.0), (0.02, 0.06))
        assert mixture_au(m, "w") == pytest.approx(0.04)

    def test_au_weighted(self):
        m = mixture_from_rows((0.5, 0.3, 0.2), (0.0, 0.0, 0.0), (0.01, 0.02, 0.05))
        assert mixture_au(m, "w") == pytest.approx(0.021)

    def test_eu_single_component_zero(self):
        assert mixture_eu(uniform_mixture(mean=5.0), "y") == 0.0

    def test_eu_coin_flip(self):
        m = mixture_from_rows((0.5, 0.5), (-1.0, 1.0), (1.0, 1.0))
        assert mixture_eu(m, "y") == pytest.approx(1.0)

    def test_eu_weighted(self):
        m = mixture_from_rows((0.5, 0.3, 0.2), (1.0, 2.0, 3.0), (1.0, 1.0, 1.0))
        assert mixture_eu(m, "y") == pytest.approx(0.61)

    def test_eu_zero_iff_means_equal(self):
        rng = random.Random(0)
        for _ in range(50):
            k = rng.randint(1, 4)
            w = [rng.random() for _ in range(k)]
            w = [x / sum(w) for x in w]
            means = [rng.uniform(-3, 3) for _ in range(k)]
            m = mixture_from_rows(tuple(w), tuple(means), tuple([1.0] * k))
            eu = mixture_eu(m, "x")
            spread = max(means) - min(means)
            effective = [mu for wt, mu in zip(w, means) if wt > 0]
            if max(effective) - min(effective) <= 1e-12:
                assert eu <= 1e-20
            else:
                assert eu > 0

    def test_total_variance_identity_sampled(self):
        # Var = EU + AU when AU is the weighted mean of component variances.
        rng = np.random.default_rng(12345)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            w = rng.dirichlet(np.ones(k))
            w = w / w.sum()
            means = rng.uniform(-3, 3, k)
            variances = rng.uniform(0.1, 2.0, k)
            m = mixture_from_rows(tuple(w), tuple(means), tuple(variances))
            comp = rng.choice(k, size=200_000, p=w)
            draws = rng.normal(means[comp], np.sqrt(variances[comp]))
            expected = mixture_au(m, "x") + mixture_eu(m, "x")
            assert draws.var() == pytest.approx(expected, rel=0.03)


class TestPropagation:
    def test_identity_case(self):
        a = unit_anchor()
        au = tuple([0.3] * 7)
        eu = tuple([0.1] * 7)
        means = (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0)  # unit residual means, zero yaw
        out_au, out_eu = propagate_uncertainty(au, eu, means, a)
        for got in out_au:
            assert got == pytest.approx(0.3, abs=1e-12)
        for got in out_eu:
            assert got == pytest.approx(0.1, abs=1e-12)

    def test_diagonal_scaling(self):
        a = Anchor(length=math.sqrt(2.0), width=math.sqrt(2.0), height=1.0)  # diagonal 2
        au = (0.1, 0, 0, 0, 0, 0, 0)
        out_au, _ = propagate_uncertainty(au, tuple([0.0] * 7), (0, 0, 0, 1, 1, 1, 0), a)
        assert out_au[0] == pytest.approx(0.4)

    def test_secant_scaling(self):
        a = unit_anchor()
        vars7 = (0, 0, 0, 0, 0, 0, 0.01)
        means = (0, 0, 0, 1, 1, 1, math.pi / 3)
        out_au, _ = propagate_uncertainty(vars7, tuple([0.0] * 7), means, a)
        assert out_au[6] == pytest.approx(0.04, rel=1e-9)  # sec^2(pi/3) = 4

    def test_near_singular_yaw_rejected(self):
        # An argument outside the secant's domain; ``scene_uncertainty``
        # turns it into a NearSingularYawError naming the scene.
        a = unit_anchor()
        means = (0, 0, 0, 1, 1, 1, math.pi / 2)
        with pytest.raises(ValueError, match=r"yaw residual mean 1.5707963267948966 is too close to \+-pi/2"):
            propagate_uncertainty(tuple([0.1] * 7), tuple([0.0] * 7), means, a)


def reference_moments(params, detection):
    """Per-dimension AU, EU and means as the generator-form sums that the
    ``sum(map(mul, ...))`` forms replaced: the floats must not change."""
    au, eu, means = [], [], []
    for i in range(len(RESIDUAL_DIMS)):
        weights, row_m, variances = params.block[detection, :, i].tolist()
        mean = sum(w * m for w, m in zip(weights, row_m))
        au.append(sum(w * v for w, v in zip(weights, variances)))
        eu.append(sum(w * (m - mean) ** 2 for w, m in zip(weights, row_m)))
        means.append(mean)
    return tuple(au), tuple(eu), tuple(means)


def random_block(rng: random.Random, n_detections: int, k: int) -> MixtureParams:
    entries = []
    for _ in range(n_detections):
        rows_w = []
        for _ in RESIDUAL_DIMS:
            raw = [rng.random() + 1e-3 for _ in range(k)]
            rows_w.append([x / sum(raw) for x in raw])
        means = [[rng.uniform(-1.2, 1.2) for _ in range(k)] for _ in RESIDUAL_DIMS]
        variances = [[rng.choice((0.0, rng.random())) for _ in range(k)] for _ in RESIDUAL_DIMS]
        entries.append((rows_w, means, variances))
    return MixtureParams.from_rows(entries)


def oracle_scene_uncertainty(scene, anchors, config):
    """``scene_uncertainty`` as plain loops over each kept detection's rows:
    ``mixture_mean``, ``mixture_au``, ``mixture_eu``, then
    ``propagate_uncertainty``."""
    kept = [i for i, d in enumerate(scene.detections) if d.confidence >= config.tau]
    if not kept:
        return 0.0
    total = 0.0
    for i in kept:
        p = scene.mixtures
        au = tuple(mixture_au(p, d, i) for d in RESIDUAL_DIMS)
        eu = tuple(mixture_eu(p, d, i) for d in RESIDUAL_DIMS)
        means = tuple(mixture_mean(p, d, i) for d in RESIDUAL_DIMS)
        box_au, box_eu = propagate_uncertainty(au, eu, means, anchors.for_class(scene.detections[i].class_label))
        total += sum(a + config.eta * e for a, e in zip(box_au, box_eu))
    return total / (7 * len(kept))


class TestOnePassUncertainty:
    def test_same_floats_as_the_generator_sums(self):
        rng = random.Random(11)
        for _ in range(200):
            params = random_block(rng, rng.randint(1, 4), rng.randint(1, 5))
            for det in range(len(params.block)):
                au, eu, means = reference_moments(params, det)
                for i, d in enumerate(RESIDUAL_DIMS):
                    got = (mixture_au(params, d, det), mixture_eu(params, d, det), mixture_mean(params, d, det))
                    assert got == (au[i], eu[i], means[i])


class TestArrayUncertainty:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9])
    def test_scene_uncertainty_is_the_plain_loop_oracle(self, anchors, k):
        # Bit for bit (``==``): numpy's pairwise ``.sum(-1)`` already adds
        # eight components in another order, and ``x * x`` rounds
        # differently from ``x ** 2`` now and then.
        rng = random.Random(100 + k)
        for n in range(300):
            labels = [rng.choice(("car", "pedestrian", "cyclist")) for _ in range(rng.randint(1, 6))]
            dets = tuple(ScoredDetection(c, rng.choice((0.1, 0.5, 0.9, 1.0)), make_box()) for c in labels)
            scene = Scene(f"s{n}", dets, random_block(rng, len(dets), k))
            assert scene_uncertainty(scene, anchors, CFG) == oracle_scene_uncertainty(scene, anchors, CFG)

    def test_overflowing_propagation_is_a_data_error_naming_scene_and_detection(self, anchors):
        # A finite w mean of 1e200 squares to inf when propagated.
        ok, big = uniform_mixture(k=2, mean=0.1), uniform_mixture(k=2, mean=0.1)
        block = big.block.copy()
        block[0, 1, RESIDUAL_DIMS.index("w")] = 1e200
        scene = scene_with_mixtures(
            "s", (make_detection(confidence=0.1), ok), (make_detection(), ok), (make_detection(), MixtureParams(block))
        )
        with pytest.raises(DataError, match=r"scene 's': detection 2 \(car\): propagated variances are not finite"):
            scene_uncertainty(scene, anchors, CFG)


def with_yaw_means(m, yaw_means):
    """A one-detection mixture with its yaw row of means replaced."""
    block = m.block.copy()
    block[0, 1, RESIDUAL_DIMS.index("theta")] = yaw_means
    return MixtureParams(block)


class TestSceneUncertainty:
    def _unit_anchors(self):
        return AnchorTable.from_dict(
            {c: unit_anchor() for c in ("car", "pedestrian", "cyclist")}
        )

    def _scene(self, *mixtures, sid="s"):
        return scene_with_mixtures(sid, *((make_detection("car", 0.9), m) for m in mixtures))

    def test_constant_au(self):
        # unit anchors + unit residual means via mean=1 row, yaw row zeroed
        m = with_yaw_means(uniform_mixture(var=0.07, mean=1.0), 0.0)
        scene = self._scene(m)
        assert scene_uncertainty(scene, self._unit_anchors(), CFG) == pytest.approx(0.07)

    def test_eta_weighting(self):
        # au = 0 everywhere; eu = 0.14 per dimension; eta = 0.5 -> 0.07
        m = mixture_from_rows(
            (0.5, 0.5), (1.0 - math.sqrt(0.14), 1.0 + math.sqrt(0.14)), (0.0, 0.0)
        )
        # yaw row gets symmetric means about 0 with the same spread
        m = with_yaw_means(m, (-math.sqrt(0.14), math.sqrt(0.14)))
        scene = self._scene(m)
        got = scene_uncertainty(scene, self._unit_anchors(), CFG)
        assert got == pytest.approx(0.07, rel=1e-9)

    def test_linearity_across_detections(self):
        m1 = with_yaw_means(uniform_mixture(var=0.02, mean=1.0), 0.0)
        m3 = with_yaw_means(uniform_mixture(var=0.06, mean=1.0), 0.0)
        s1 = self._scene(m1, sid="a")
        s3 = self._scene(m3, sid="b")
        both = self._scene(m1, m3, sid="c")
        anchors = self._unit_anchors()
        u1 = scene_uncertainty(s1, anchors, CFG)
        u3 = scene_uncertainty(s3, anchors, CFG)
        assert scene_uncertainty(both, anchors, CFG) == pytest.approx((u1 + u3) / 2)

    def test_near_singular_yaw_is_a_data_error_naming_the_scene(self):
        # The first detection that fails names itself: here the second kept
        # one, after a detection below tau and a good one.
        good = with_yaw_means(uniform_mixture(var=0.1, mean=1.0), 0.0)
        bad = with_yaw_means(uniform_mixture(var=0.1, mean=1.0), math.pi / 2)
        scene = scene_with_mixtures(
            "s", (make_detection("car", 0.1), bad), (make_detection("car", 0.9), good), (make_detection("car", 0.9), bad)
        )
        with pytest.raises(NearSingularYawError, match=r"scene 's': detection 2 \(car\): yaw residual mean ") as info:
            scene_uncertainty(scene, self._unit_anchors(), CFG)
        assert isinstance(info.value, SceneDataError) and info.value.scene_id == "s"

    def test_missing_mixture_raises(self, anchors):
        scene = Scene("s", (make_detection("car", 0.9),))
        with pytest.raises(DataError, match="mixture"):
            scene_uncertainty(scene, anchors, CFG)

    def test_empty_scene_zero(self, anchors):
        assert scene_uncertainty(Scene("s"), anchors, CFG) == 0.0

    def test_monotone_in_eta(self):
        m = with_yaw_means(mixture_from_rows((0.5, 0.5), (0.9, 1.1), (0.01, 0.02)), (-0.1, 0.1))
        scene = self._scene(m)
        anchors = self._unit_anchors()
        values = [
            scene_uncertainty(scene, anchors, UncertaintyConfig(eta=e)) for e in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestRanking:
    def _scene(self, sid, var):
        m = with_yaw_means(uniform_mixture(var=var, mean=1.0), 0.0)
        return scene_with_mixtures(sid, (make_detection("car", 0.9), m))

    def test_descending_order(self, anchors):
        scenes = [self._scene("a", 0.9), self._scene("b", 0.1), self._scene("c", 0.5)]
        assert rank_by_uncertainty(scenes, anchors, CFG, 2) == ["a", "c"]

    def test_tie_break_by_id(self, anchors):
        scenes = [self._scene("z", 0.4), self._scene("a", 0.4)]
        assert rank_by_uncertainty(scenes, anchors, CFG, 2) == ["a", "z"]

    def test_top_zero_empty(self, anchors):
        assert rank_by_uncertainty([self._scene("a", 0.4)], anchors, CFG, 0) == []

    def test_near_singular_excluded_with_warning(self, anchors, caplog):
        bad = with_yaw_means(uniform_mixture(var=0.1, mean=1.0), math.pi / 2)
        scenes = [self._scene("good", 0.4), scene_with_mixtures("bad", (make_detection(), bad))]
        import logging

        with caplog.at_level(logging.WARNING):
            assert rank_by_uncertainty(scenes, anchors, CFG, 1) == ["good"]
        assert any("excluding scene" in r.message for r in caplog.records)

    def test_exclusions_below_top_n_are_a_data_error_naming_the_first(self, anchors):
        bad = with_yaw_means(uniform_mixture(var=0.1, mean=1.0), math.pi / 2)
        scenes = [self._scene("good", 0.4), *(scene_with_mixtures(sid, (make_detection(), bad)) for sid in ("b1", "b2"))]
        with pytest.raises(UncertaintyShortfallError, match="2 of 3 scenes excluded .* the first 'b1'") as info:
            rank_by_uncertainty(scenes, anchors, CFG, 2)
        assert info.value.scene_id == "b1"
        with pytest.raises(ValueError, match="top_n=4 exceeds 3 scenes"):
            rank_by_uncertainty(scenes, anchors, CFG, 4)
