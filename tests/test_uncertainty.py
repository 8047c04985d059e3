import logging
import math
import random

import numpy as np
import pytest

from scenesel.core import Anchor, AnchorTable, DataError, MixtureParams, RESIDUAL_DIMS, Scene, SceneDataError, ScoredDetection
from scenesel import uncertainty
from scenesel.uncertainty import (
    NearSingularYawError,
    PropagationOverflowError,
    SEC_SINGULAR_COS,
    UncertaintyConfig,
    UncertaintyShortfallError,
    rank_by_uncertainty,
    scene_uncertainties,
)
from conftest import make_box, make_detection, mixture_from_rows, scene_of, scene_with_mixtures, uniform_mixture
from uncertainty_oracle import (
    left_to_right,
    mixture_au,
    mixture_eu,
    mixture_mean,
    oracle_scene_uncertainty,
    propagate_uncertainty,
    propagated_terms,
    scene_uncertainty,
)

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


def array_propagation(au, eu, means, anchor) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """One detection's box-space (AU, EU) from the array pass's terms, for
    residual moments ``au``, ``eu`` and ``means``: AU from one component per
    dimension at ``means`` with variance ``au``, at eta 0; EU from two
    equal-weight components at ``means`` -+ sqrt(``eu``) with variance 0, at
    eta 1 (its residual EU is ``eu`` up to rounding)."""
    means = np.array(means, dtype=float)

    def terms(weights, row_means, variances, eta):
        block = np.array([weights, row_means, variances])[None]  # (1, 3, 7, K)
        d2, h2 = [anchor.diagonal**2], [anchor.height**2]
        return tuple(uncertainty._terms(block, d2, h2, UncertaintyConfig(eta=eta))[0][0].tolist())

    spread = np.sqrt(np.array(eu, dtype=float))
    box_au = terms(np.ones((7, 1)), means[:, None], np.array(au, dtype=float)[:, None], 0.0)
    box_eu = terms(np.full((7, 2), 0.5), np.stack([means - spread, means + spread], 1), np.zeros((7, 2)), 1.0)
    return box_au, box_eu


class TestPropagation:
    def test_identity_case(self):
        a = unit_anchor()
        au = tuple([0.3] * 7)
        eu = tuple([0.1] * 7)
        means = (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0)  # unit residual means, zero yaw
        out_au, out_eu = array_propagation(au, eu, means, a)
        for got in out_au:
            assert got == pytest.approx(0.3, abs=1e-12)
        for got in out_eu:
            assert got == pytest.approx(0.1, abs=1e-12)

    def test_diagonal_scaling(self):
        a = Anchor(length=math.sqrt(2.0), width=math.sqrt(2.0), height=1.0)  # diagonal 2
        au = (0.1, 0, 0, 0, 0, 0, 0)
        out_au, _ = array_propagation(au, tuple([0.0] * 7), (0, 0, 0, 1, 1, 1, 0), a)
        assert out_au[0] == pytest.approx(0.4)

    def test_secant_scaling(self):
        a = unit_anchor()
        vars7 = (0, 0, 0, 0, 0, 0, 0.01)
        means = (0, 0, 0, 1, 1, 1, math.pi / 3)
        out_au, _ = array_propagation(vars7, tuple([0.0] * 7), means, a)
        assert out_au[6] == pytest.approx(0.04, rel=1e-9)  # sec^2(pi/3) = 4

    def test_near_singular_yaw_rejected(self):
        # An argument outside the secant's domain: the oracle rejects it,
        # and the array pass's yaw term is NaN, which
        # ``scene_uncertainty`` turns into a NearSingularYawError naming
        # the scene.
        a = unit_anchor()
        means = (0, 0, 0, 1, 1, 1, math.pi / 2)
        with pytest.raises(ValueError, match=r"yaw residual mean 1.5707963267948966 is too close to \+-pi/2"):
            propagate_uncertainty(tuple([0.1] * 7), tuple([0.0] * 7), means, a)
        out_au, out_eu = array_propagation(tuple([0.1] * 7), tuple([0.0] * 7), means, a)
        assert math.isnan(out_au[6]) and math.isnan(out_eu[6])
        assert all(math.isfinite(v) for v in out_au[:6] + out_eu[:6])


def reference_moments(params, detection):
    """Per-dimension AU, EU and means as generator-form sums added left to
    right: the floats of the moment functions must be these."""
    au, eu, means = [], [], []
    for i in range(len(RESIDUAL_DIMS)):
        weights, row_m, variances = params.block[detection, :, i].tolist()
        mean = left_to_right(w * m for w, m in zip(weights, row_m))
        au.append(left_to_right(w * v for w, v in zip(weights, variances)))
        eu.append(left_to_right(w * (m - mean) ** 2 for w, m in zip(weights, row_m)))
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
            scene = scene_of(f"s{n}", dets, random_block(rng, len(dets), k))
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
    # An infinite or NaN eta would fail every scene as if its sidecar held
    # non-finite variances.
    @pytest.mark.parametrize("eta", [-0.5, math.inf, -math.inf, math.nan])
    def test_an_eta_that_is_no_non_negative_finite_float_is_rejected(self, eta):
        with pytest.raises(ValueError, match="eta must be non-negative and finite"):
            UncertaintyConfig(eta=eta)

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
        scene = scene_of("s", (make_detection("car", 0.9),))
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


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def golden_predictions(seed: int):
    """The predictions that ``test_golden`` digests: a 200-scene pool of
    2-6 objects under the CLI's default noise."""
    from scenesel import synth
    from scenesel.config import build_config

    cfg = build_config(environ={})
    spec = synth.PoolSpec(n_scenes=200, class_mix=(0.9, 0.05, 0.05), objects_min=2, objects_max=6, rng_seed=seed)
    pool = synth.generate_pool(spec, cfg.catalog, cfg.anchors)
    noise = synth.NoiseModel(
        confidence_noise=0.5,
        position_noise_per_meter=0.005,
        false_positive_rate=0.3,
        misclass_rate=0.05,
        mixture_components=3,
        mean_spread=0.1,
    )
    predictor = synth.make_predictor(noise, cfg.anchors, cfg.catalog, seed)
    return [predictor(pool[sid]) for sid in sorted(pool)], cfg


def overflow_scene(sid):
    """A scene whose third detection's w mean of 1e200 squares to inf."""
    ok, big = uniform_mixture(k=2, mean=0.1), uniform_mixture(k=2, mean=0.1)
    block = big.block.copy()
    block[0, 1, RESIDUAL_DIMS.index("w")] = 1e200
    return scene_with_mixtures(
        sid, (make_detection(confidence=0.1), ok), (make_detection(), ok), (make_detection(), MixtureParams(block))
    )


def singular_scene(sid):
    bad = with_yaw_means(uniform_mixture(var=0.1, mean=1.0), math.pi / 2)
    return scene_with_mixtures(sid, (make_detection(), bad))


class TestSceneUncertainties:
    """The list pass against the per-scene path, ``float.hex`` for
    ``float.hex``, and its failures against the per-scene ones."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_golden_predictions(self, seed):
        preds, cfg = golden_predictions(seed)
        assert len(preds) > uncertainty.CHUNK_SCENES
        one_by_one = [scene_uncertainty(p, cfg.anchors, cfg.uncertainty) for p in preds]
        assert hexes(scene_uncertainties(preds, cfg.anchors, cfg.uncertainty)) == hexes(one_by_one)
        assert hexes(one_by_one) == hexes(oracle_scene_uncertainty(p, cfg.anchors, cfg.uncertainty) for p in preds)

    def mixed_scenes(self, rng, n):
        """Scenes of K from 1 to 9 in one list, some with no kept detection
        (empty, all below tau, or below tau without mixtures)."""
        scenes = []
        for i in range(n):
            kind = rng.randrange(8)
            if kind == 0:
                scenes.append(Scene(f"e{i}"))
            elif kind == 1:
                scenes.append(scene_of(f"n{i}", (make_detection("car", 0.1), make_detection("cyclist", 0.2))))
            else:
                labels = [rng.choice(("car", "pedestrian", "cyclist")) for _ in range(rng.randint(1, 9))]
                dets = tuple(ScoredDetection(c, rng.choice((0.1, 0.5, 0.9, 1.0)), make_box()) for c in labels)
                scenes.append(scene_of(f"s{i}", dets, random_block(rng, len(dets), rng.randint(1, 9))))
        return scenes

    @pytest.mark.parametrize("chunk", [1, 3, 128])
    def test_mixed_k_and_empty_scenes_over_chunks(self, anchors, monkeypatch, chunk):
        monkeypatch.setattr(uncertainty, "CHUNK_SCENES", chunk)
        scenes = self.mixed_scenes(random.Random(7), 300)
        assert {len(s.mixtures.block[0, 0, 0]) for s in scenes if s.mixtures is not None} == set(range(1, 10))
        got = scene_uncertainties(scenes, anchors, CFG)
        assert got.shape == (300,) and got.dtype == np.float64
        assert hexes(got) == hexes(oracle_scene_uncertainty(s, anchors, CFG) for s in scenes)
        assert hexes(got) == hexes(scene_uncertainty(s, anchors, CFG) for s in scenes)
        assert all(got[i] == 0.0 for i, s in enumerate(scenes) if s.id[0] in "en")

    def test_empty_list(self, anchors):
        assert scene_uncertainties([], anchors, CFG).shape == (0,)

    def test_near_singular_scenes_are_excluded_in_order(self, anchors, caplog, monkeypatch):
        monkeypatch.setattr(uncertainty, "CHUNK_SCENES", 2)
        good = [TestRanking()._scene(sid, var) for sid, var in (("g1", 0.3), ("g2", 0.1), ("g3", 0.2))]
        scenes = [good[0], singular_scene("b1"), good[1], singular_scene("b2"), good[2]]
        with caplog.at_level(logging.WARNING, logger=uncertainty.__name__):
            assert rank_by_uncertainty(scenes, anchors, CFG, 3) == ["g1", "g3", "g2"]
        excluded = [r.getMessage() for r in caplog.records if r.getMessage().startswith("excluding scene")]
        assert [m.split()[2] for m in excluded] == ["b1", "b2"]
        assert len(excluded) == len(caplog.records)
        with pytest.raises(NearSingularYawError, match=r"scene 'b1': detection 0 \(car\): yaw residual mean "):
            scene_uncertainties(scenes, anchors, CFG)

    @pytest.mark.parametrize("order", ["overflow_first", "missing_first"])
    def test_a_later_failure_raises_the_per_scene_error(self, order):
        preds, cfg = golden_predictions(1)
        overflow = overflow_scene("over")
        missing = scene_of("bare", (make_detection("car", 0.9),))
        late = [overflow, missing] if order == "overflow_first" else [missing, overflow]
        scenes = preds[:150] + [late[0]] + preds[150:] + [late[1]]
        expected = (
            (PropagationOverflowError, r"^scene 'over': detection 2 \(car\): propagated variances are not finite$")
            if order == "overflow_first"
            else (DataError, r"^scene 'bare': 1 counted detections have no mixture parameters$")
        )
        for call in (
            lambda: scene_uncertainties(scenes, cfg.anchors, cfg.uncertainty),
            lambda: scene_uncertainty(late[0], cfg.anchors, cfg.uncertainty),
            lambda: rank_by_uncertainty(scenes, cfg.anchors, cfg.uncertainty, 5),
        ):
            with pytest.raises(expected[0], match=expected[1]) as info:
                call()
            assert type(info.value) is expected[0]

    def test_a_class_without_an_anchor_is_a_key_error(self, anchors):
        ok = TestRanking()._scene("ok", 0.2)
        # An overflowing and a near-singular row after the anchorless one:
        # the anchor lookup comes first, as for a lone scene.
        bad = with_yaw_means(uniform_mixture(var=0.1, mean=1.0), math.pi / 2)
        truck = scene_with_mixtures("t", (make_detection("truck"), uniform_mixture()), (make_detection(), bad))
        for scenes in ([ok, truck], [truck]):
            with pytest.raises(KeyError, match="no anchor for class 'truck'"):
                scene_uncertainties(scenes, anchors, CFG)


def oracle_outcome(scene, anchors, config):
    """What the plain loops make of a scene with mixtures: the type and text
    of the error of its first kept detection that fails (a ``ValueError``
    of ``propagate_uncertainty`` is a near-singular yaw, a term that is not
    finite an overflow), else its score's ``float.hex``."""
    for i, d in enumerate(scene.detections):
        if d.confidence < config.tau:
            continue
        where = f"scene {scene.id!r}: detection {i} ({d.class_label})"
        try:
            terms = propagated_terms(scene, anchors, config, i)
        except ValueError as exc:
            return NearSingularYawError, f"{where}: {exc}"
        if not all(math.isfinite(t) for t in terms):
            return PropagationOverflowError, f"{where}: propagated variances are not finite"
    return float, oracle_scene_uncertainty(scene, anchors, config).hex()


def array_outcome(scenes, anchors, config):
    """The same of ``scene_uncertainties`` over a list: the first failing
    scene's error, else the first scene's score."""
    try:
        return float, float(scene_uncertainties(scenes, anchors, config)[0]).hex()
    except SceneDataError as exc:
        return type(exc), str(exc)


def boundary_yaws() -> list[float]:
    """Yaw means whose cosine is +-SEC_SINGULAR_COS, and 4 ulps to each
    side, of both signs."""
    yaws = []
    for cos in (SEC_SINGULAR_COS, -SEC_SINGULAR_COS):
        below = above = math.acos(cos)
        yaws.append(below)
        for _ in range(4):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 4.0)
            yaws += [below, above]
    return yaws + [-y for y in yaws]


SINGULAR = {"theta": math.pi / 2}


class TestFaultClassification:
    """A scene whose kept rows fail raises the error type and text that the
    oracle's ``propagate_uncertainty`` implies for its first failing row."""

    def faulty_scene(self, rng, sid, faults, k):
        """A scene of random rows of K components with one kept row per
        fault, in order, whose means of each named dimension are the
        fault's value; kept good rows around them, and a failing row below
        tau that no check reaches."""
        rows = []
        for fault in faults:
            rows += [(0.9, {})] * rng.randint(0, 2) + [(0.9, fault)]
        rows += [(0.9, {})] * rng.randint(0, 2)
        rows.insert(rng.randint(0, len(rows)), (0.1, {"theta": math.pi / 2, "w": 1e200}))
        block = random_block(rng, len(rows), k).block.copy()
        for det, (_, fault) in enumerate(rows):
            for dim, value in fault.items():
                block[det, 1, RESIDUAL_DIMS.index(dim)] = value
        dets = tuple(ScoredDetection(rng.choice(("car", "pedestrian", "cyclist")), c, make_box()) for c, _ in rows)
        return scene_of(sid, dets, MixtureParams(block))

    def check(self, scene, anchors):
        expected = oracle_outcome(scene, anchors, CFG)
        assert array_outcome([scene], anchors, CFG) == expected
        return expected[0]

    def test_yaw_means_at_the_secant_boundary(self, anchors):
        # One component, so the yaw mean is the value set. Alone the row
        # scores or is near-singular; with an overflowing w it fails either
        # way, near-singular first.
        rng = random.Random(36)
        alone, with_overflow = set(), set()
        for n, yaw in enumerate(boundary_yaws()):
            alone.add(self.check(self.faulty_scene(rng, f"y{n}", [{"theta": yaw}], 1), anchors))
            both = {"theta": yaw, "w": 1e200}
            with_overflow.add(self.check(self.faulty_scene(rng, f"b{n}", [both], 1), anchors))
        assert alone == {float, NearSingularYawError}
        assert with_overflow == {PropagationOverflowError, NearSingularYawError}

    # A size mean of 1e160 squares to inf, while its components' spread
    # about it squares to a finite float in the oracle's Python ``**``
    # (1e200 would overflow there, unless K is 1).
    @pytest.mark.parametrize("k, big", [(1, 1e200), (3, 1e160)])
    def test_overflow_and_near_singular_rows_in_either_order(self, anchors, k, big):
        rng = random.Random(360 + k)
        scenes = []
        for n in range(20):
            overflow = {rng.choice(("w", "h", "l")): rng.choice((big, -big))}
            cases = [
                ([overflow], PropagationOverflowError),
                ([overflow, SINGULAR], PropagationOverflowError),
                ([SINGULAR, overflow], NearSingularYawError),
                ([{**SINGULAR, **overflow}], NearSingularYawError),
                ([{**SINGULAR, **overflow}, overflow], NearSingularYawError),
            ]
            for c, (faults, kind) in enumerate(cases):
                scene = self.faulty_scene(rng, f"s{n}.{c}", faults, k)
                assert self.check(scene, anchors) is kind
                scenes.append(scene)
        # In one list, the first failing scene's error, after a good one.
        good = scene_with_mixtures("good", (make_detection(), uniform_mixture(k=k)))
        assert array_outcome([good, *scenes], anchors, CFG) == oracle_outcome(scenes[0], anchors, CFG)
