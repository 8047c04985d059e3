import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from scenesel.core import Scene
from scenesel.entropy import (
    EntropyConfig,
    category_entropy,
    counts_entropy,
    filtered_class_counts,
    rank_by_entropy,
    scene_class_counts,
)
from conftest import make_detection, random_scene, scene_of


CFG = EntropyConfig()


def scene_with(dets, sid="s"):
    return scene_of(id=sid, detections=tuple(dets))


class TestFilteredCounts:
    def test_direct_filter(self, catalog):
        s = scene_with(
            [
                make_detection("car", 0.9),
                make_detection("car", 0.1),
                make_detection("pedestrian", 0.5),
            ]
        )
        assert filtered_class_counts([s], catalog, CFG) == {"car": 1, "pedestrian": 1, "cyclist": 0}

    def test_empty_scene(self, catalog):
        assert filtered_class_counts([Scene("s")], catalog, CFG) == {
            "car": 0,
            "pedestrian": 0,
            "cyclist": 0,
        }

    def test_zero_threshold_counts_all(self, catalog):
        s = scene_with([make_detection("car", 0.0), make_detection("car", 0.2)])
        counts = filtered_class_counts([s], catalog, EntropyConfig(tau=0.0))
        assert counts["car"] == 2


class TestCategoryEntropy:
    def test_single_class_is_zero(self, catalog):
        s = scene_with([make_detection("car", 0.9)])
        assert category_entropy(s, catalog, CFG) <= 1e-9

    def test_uniform_maximizes(self, catalog):
        dets = [make_detection(c, 0.9) for c in catalog.classes for _ in range(2)]
        assert category_entropy(scene_with(dets), catalog, CFG) == pytest.approx(
            math.log(3), abs=1e-9
        )

    def test_three_one_split(self, catalog):
        # -(0.75 ln 0.75 + 0.25 ln 0.25), evaluated directly
        dets = [make_detection("car", 0.9)] * 3 + [make_detection("pedestrian", 0.9)]
        assert category_entropy(scene_with(dets), catalog, CFG) == pytest.approx(
            0.5623351446188083, abs=1e-9
        )

    def test_single_car_with_subthreshold_noise(self, catalog):
        # Only one above-threshold detection: entropy collapses to zero no
        # matter how many below-threshold detections the scene carries.
        dets = [make_detection("car", 0.9)] + [
            make_detection(c, 0.05) for c in catalog.classes for _ in range(3)
        ]
        assert category_entropy(scene_with(dets), catalog, CFG) <= 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, seed):
        from scenesel.core import DEFAULT_CATALOG

        s = random_scene(random.Random(seed), "s")
        e = category_entropy(s, DEFAULT_CATALOG, CFG)
        c = DEFAULT_CATALOG.num_classes
        assert 0.0 <= e <= math.log(c) + c * CFG.zeta

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permutation_and_duplication_invariance(self, seed):
        from scenesel.core import DEFAULT_CATALOG

        rng = random.Random(seed)
        s = random_scene(rng, "s")
        e = category_entropy(s, DEFAULT_CATALOG, CFG)
        shuffled = list(s.detections)
        rng.shuffle(shuffled)
        assert category_entropy(scene_of("s", tuple(shuffled)), DEFAULT_CATALOG, CFG) == e
        doubled = scene_of("s", s.detections + s.detections)
        assert category_entropy(doubled, DEFAULT_CATALOG, CFG) == pytest.approx(e, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_threshold(self, seed, tau_lo, tau_hi):
        from scenesel.core import DEFAULT_CATALOG

        if tau_lo > tau_hi:
            tau_lo, tau_hi = tau_hi, tau_lo
        s = random_scene(random.Random(seed), "s")
        lo = filtered_class_counts([s], DEFAULT_CATALOG, EntropyConfig(tau=tau_lo))
        hi = filtered_class_counts([s], DEFAULT_CATALOG, EntropyConfig(tau=tau_hi))
        assert all(hi[c] <= lo[c] for c in lo)


class TestCountsEntropy:
    # An infinite zeta would score every scene 0.0.
    @pytest.mark.parametrize("zeta", [0.0, -1e-12, math.inf, -math.inf, math.nan])
    def test_a_zeta_that_is_no_positive_finite_float_is_rejected(self, zeta):
        with pytest.raises(ValueError, match="zeta must be positive and finite"):
            EntropyConfig(zeta=zeta)

    def test_single_class_clamped_to_zero(self):
        # -ln(1 + zeta) < 0 before the clamp
        assert counts_entropy({"car": 5, "pedestrian": 0}, zeta=1e-12) == 0.0

    def test_category_entropy_is_counts_entropy_of_filtered_counts(self, catalog):
        rng = random.Random(5)
        for i in range(50):
            s = random_scene(rng, f"s{i}", max_objects=6)
            counts = filtered_class_counts([s], catalog, CFG)
            assert category_entropy(s, catalog, CFG) == counts_entropy(counts, CFG.zeta)


class TestRankByEntropy:
    def _scenes(self, catalog):
        mixed = scene_with([make_detection(c, 0.9) for c in catalog.classes], "a")
        single = scene_with([make_detection("car", 0.9)], "b")
        two = scene_with(
            [make_detection("car", 0.9), make_detection("pedestrian", 0.9)], "c"
        )
        return [mixed, single, two]

    def test_ordering(self, catalog):
        scenes = self._scenes(catalog)
        assert rank_by_entropy(scenes, catalog, CFG, 2) == ["a", "c"]

    def test_tie_break_by_id(self, catalog):
        s1 = scene_with([make_detection("car", 0.9)], "z")
        s2 = scene_with([make_detection("car", 0.9)], "a")
        assert rank_by_entropy([s1, s2], catalog, CFG, 2) == ["a", "z"]

    def test_full_ranking_is_permutation(self, catalog):
        scenes = self._scenes(catalog)
        assert sorted(rank_by_entropy(scenes, catalog, CFG, 3)) == ["a", "b", "c"]

    def test_top_n_too_large(self, catalog):
        with pytest.raises(ValueError):
            rank_by_entropy(self._scenes(catalog), catalog, CFG, 4)


class TestOnePassCounts:
    """The counts of a list in one pass over the columns of all its scenes,
    against a loop over each scene's detections."""

    @staticmethod
    def loop_counts(scene, catalog, config):
        counts = {c: 0 for c in catalog.classes}
        for det in scene.detections:
            if det.confidence >= config.tau and det.class_label in counts:
                counts[det.class_label] += 1
        return counts

    @staticmethod
    def scenes(seed):
        rng = random.Random(seed)
        scenes = [random_scene(rng, f"s{i:03d}", max_objects=6) for i in range(60)]
        # a class outside the catalog, a confidence at tau, empty scenes
        scenes.append(scene_with([make_detection("truck", 0.9), make_detection("car", CFG.tau)], "t"))
        scenes += [Scene("e0"), Scene("e1")]
        return scenes

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("tau", [0.0, 0.3, 1.0])
    def test_rows_and_totals_match_the_loop(self, catalog, seed, tau):
        config = EntropyConfig(tau=tau)
        scenes = self.scenes(seed)
        rows = scene_class_counts(scenes, catalog, config).tolist()
        loops = [self.loop_counts(s, catalog, config) for s in scenes]
        assert rows == [list(counts.values()) for counts in loops]
        assert filtered_class_counts(scenes, catalog, config) == {
            c: sum(counts[c] for counts in loops) for c in catalog.classes
        }
        assert scene_class_counts([], catalog, config).shape == (0, catalog.num_classes)

    @pytest.mark.parametrize("seed", range(5))
    def test_ranking_matches_the_sort_of_each_scene_entropy(self, catalog, seed):
        scenes = self.scenes(seed)
        expected = sorted(scenes, key=lambda s: (-category_entropy(s, catalog, CFG), s.id))
        assert rank_by_entropy(scenes, catalog, CFG, len(scenes)) == [s.id for s in expected]
        assert rank_by_entropy([], catalog, CFG, 0) == []
