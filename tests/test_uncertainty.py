import math
import random

import numpy as np
import pytest

from scenesel.core import Anchor, DataError, MixtureParams, RESIDUAL_DIMS, Scene
from scenesel.uncertainty import (
    NearSingularYawError,
    UncertaintyConfig,
    detection_uncertainty,
    mixture_au,
    mixture_eu,
    mixture_mean,
    propagate_uncertainty,
    rank_by_uncertainty,
    scene_uncertainty,
)
from conftest import make_detection, mixture_from_rows, uniform_mixture

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
        out = propagate_uncertainty(au, eu, means, a)
        for got in out.au:
            assert got == pytest.approx(0.3, abs=1e-12)
        for got in out.eu:
            assert got == pytest.approx(0.1, abs=1e-12)

    def test_diagonal_scaling(self):
        a = Anchor(length=math.sqrt(2.0), width=math.sqrt(2.0), height=1.0)  # diagonal 2
        au = (0.1, 0, 0, 0, 0, 0, 0)
        out = propagate_uncertainty(au, tuple([0.0] * 7), (0, 0, 0, 1, 1, 1, 0), a)
        assert out.au[0] == pytest.approx(0.4)

    def test_secant_scaling(self):
        a = unit_anchor()
        vars7 = (0, 0, 0, 0, 0, 0, 0.01)
        means = (0, 0, 0, 1, 1, 1, math.pi / 3)
        out = propagate_uncertainty(vars7, tuple([0.0] * 7), means, a)
        assert out.au[6] == pytest.approx(0.04, rel=1e-9)  # sec^2(pi/3) = 4

    def test_near_singular_yaw_rejected(self):
        a = unit_anchor()
        means = (0, 0, 0, 1, 1, 1, math.pi / 2)
        with pytest.raises(NearSingularYawError):
            propagate_uncertainty(tuple([0.1] * 7), tuple([0.0] * 7), means, a)


def reference_moments(params):
    """Per-dimension AU, EU and means as the generator-form sums that the
    ``sum(map(mul, ...))`` forms and the one-pass ``detection_uncertainty``
    replaced: the floats must not change."""
    au, eu, means = [], [], []
    for d in RESIDUAL_DIMS:
        weights, row_m, variances = params.row(d)
        mean = sum(w * m for w, m in zip(weights, row_m))
        au.append(sum(w * v for w, v in zip(weights, variances)))
        eu.append(sum(w * (m - mean) ** 2 for w, m in zip(weights, row_m)))
        means.append(mean)
    return tuple(au), tuple(eu), tuple(means)


class TestOnePassUncertainty:
    def test_same_floats_as_the_generator_sums(self):
        rng = random.Random(11)
        anchor = Anchor(length=3.9, width=1.6, height=1.56)
        for _ in range(500):
            k = rng.randint(1, 5)
            rows_w = []
            for _ in RESIDUAL_DIMS:
                raw = [rng.random() + 1e-3 for _ in range(k)]
                rows_w.append(tuple(x / sum(raw) for x in raw))
            params = MixtureParams(
                weights=tuple(rows_w),
                means=tuple(tuple(rng.uniform(-1.2, 1.2) for _ in range(k)) for _ in RESIDUAL_DIMS),
                variances=tuple(tuple(rng.choice((0.0, rng.random())) for _ in range(k)) for _ in RESIDUAL_DIMS),
            )
            au, eu, means = reference_moments(params)
            assert detection_uncertainty(params, anchor) == propagate_uncertainty(au, eu, means, anchor)
            for i, d in enumerate(RESIDUAL_DIMS):
                assert (mixture_au(params, d), mixture_eu(params, d), mixture_mean(params, d)) == (au[i], eu[i], means[i])


class TestSceneUncertainty:
    def _unit_anchors(self):
        from scenesel.core import AnchorTable

        return AnchorTable.from_dict(
            {c: unit_anchor() for c in ("car", "pedestrian", "cyclist")}
        )

    def _det(self, mixture, label="car", conf=0.9):
        return make_detection(label, conf, mixture=mixture)

    def test_constant_au(self):
        # unit anchors + unit residual means via mean=1 row, yaw row zeroed
        m = uniform_mixture(var=0.07, mean=1.0)
        m = type(m)(
            weights=m.weights,
            means=m.means[:6] + ((0.0,),),
            variances=m.variances,
        )
        scene = Scene("s", (self._det(m),))
        assert scene_uncertainty(scene, self._unit_anchors(), CFG) == pytest.approx(0.07)

    def test_eta_weighting(self):
        # au = 0 everywhere; eu = 0.14 per dimension; eta = 0.5 -> 0.07
        m = mixture_from_rows(
            (0.5, 0.5), (1.0 - math.sqrt(0.14), 1.0 + math.sqrt(0.14)), (0.0, 0.0)
        )
        m = type(m)(weights=m.weights, means=m.means[:6] + (((0.0, 0.0),)), variances=m.variances)
        # yaw row gets symmetric means about 0 with the same spread
        yaw_means = (-math.sqrt(0.14), math.sqrt(0.14))
        m = type(m)(weights=m.weights, means=m.means[:6] + (yaw_means,), variances=m.variances)
        scene = Scene("s", (self._det(m),))
        got = scene_uncertainty(scene, self._unit_anchors(), CFG)
        assert got == pytest.approx(0.07, rel=1e-9)

    def test_linearity_across_detections(self):
        m1 = uniform_mixture(var=0.02, mean=1.0)
        m3 = uniform_mixture(var=0.06, mean=1.0)
        zero_yaw = lambda m: type(m)(
            weights=m.weights, means=m.means[:6] + ((0.0,),), variances=m.variances
        )
        s1 = Scene("a", (self._det(zero_yaw(m1)),))
        s3 = Scene("b", (self._det(zero_yaw(m3)),))
        both = Scene("c", (self._det(zero_yaw(m1)), self._det(zero_yaw(m3))))
        anchors = self._unit_anchors()
        u1 = scene_uncertainty(s1, anchors, CFG)
        u3 = scene_uncertainty(s3, anchors, CFG)
        assert scene_uncertainty(both, anchors, CFG) == pytest.approx((u1 + u3) / 2)

    def test_missing_mixture_raises(self, anchors):
        scene = Scene("s", (make_detection("car", 0.9),))
        with pytest.raises(DataError, match="mixture"):
            scene_uncertainty(scene, anchors, CFG)

    def test_empty_scene_zero(self, anchors):
        assert scene_uncertainty(Scene("s"), anchors, CFG) == 0.0

    def test_monotone_in_eta(self):
        m = mixture_from_rows((0.5, 0.5), (0.9, 1.1), (0.01, 0.02))
        m = type(m)(weights=m.weights, means=m.means[:6] + (((-0.1, 0.1),)), variances=m.variances)
        scene = Scene("s", (self._det(m),))
        anchors = self._unit_anchors()
        values = [
            scene_uncertainty(scene, anchors, UncertaintyConfig(eta=e)) for e in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestRanking:
    def _scene(self, sid, var):
        m = uniform_mixture(var=var, mean=1.0)
        m = type(m)(weights=m.weights, means=m.means[:6] + ((0.0,),), variances=m.variances)
        return Scene(sid, (make_detection("car", 0.9, mixture=m),))

    def test_descending_order(self, anchors):
        scenes = [self._scene("a", 0.9), self._scene("b", 0.1), self._scene("c", 0.5)]
        assert rank_by_uncertainty(scenes, anchors, CFG, 2) == ["a", "c"]

    def test_tie_break_by_id(self, anchors):
        scenes = [self._scene("z", 0.4), self._scene("a", 0.4)]
        assert rank_by_uncertainty(scenes, anchors, CFG, 2) == ["a", "z"]

    def test_top_zero_empty(self, anchors):
        assert rank_by_uncertainty([self._scene("a", 0.4)], anchors, CFG, 0) == []

    def test_near_singular_excluded_with_warning(self, anchors, caplog):
        m = uniform_mixture(var=0.1, mean=1.0)
        bad = type(m)(
            weights=m.weights, means=m.means[:6] + ((math.pi / 2,),), variances=m.variances
        )
        scenes = [self._scene("good", 0.4), Scene("bad", (make_detection(mixture=bad),))]
        import logging

        with caplog.at_level(logging.WARNING):
            assert rank_by_uncertainty(scenes, anchors, CFG, 1) == ["good"]
        assert any("excluding scene" in r.message for r in caplog.records)
