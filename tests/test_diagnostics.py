import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenesel.core import ClassCatalog, DEFAULT_ANCHORS, DEFAULT_CATALOG, DataError, Scene, ScoredDetection
from scenesel.diagnostics import (
    category_kl_to_uniform,
    sample_pair_similarities,
    selection_report,
)
from scenesel.entropy import EntropyConfig, counts_entropy
from scenesel import sampler
from scenesel.kernel import KernelConfig
from scenesel.sampler import SimilarityCache
from scenesel.synth import NoiseModel, PoolSpec, generate_pool, make_predictor
from scenesel.uncertainty import UncertaintyConfig

from conftest import make_box, scene_with_mixtures, uniform_mixture

ENT = EntropyConfig()
KER = KernelConfig()
UNC = UncertaintyConfig()


class TestCategoryKL:
    def test_uniform_counts_give_zero(self):
        assert category_kl_to_uniform({"car": 4, "pedestrian": 4, "cyclist": 4}, 3) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_point_mass_gives_ln_c(self):
        kl = category_kl_to_uniform({"car": 10, "pedestrian": 0, "cyclist": 0}, 3)
        assert kl == pytest.approx(math.log(3.0), abs=1e-12)

    def test_three_one_zero_counts(self):
        # ln 3 minus the entropy of (3/4, 1/4): 1.0986... - 0.5623... = 0.5363...
        kl = category_kl_to_uniform({"car": 3, "pedestrian": 1, "cyclist": 0}, 3)
        expected = math.log(3.0) - (-(0.75 * math.log(0.75) + 0.25 * math.log(0.25)))
        assert expected == pytest.approx(0.5362771440493015, rel=1e-12)
        assert kl == pytest.approx(expected, abs=1e-12)

    def test_zero_total_rejected(self):
        with pytest.raises(DataError):
            category_kl_to_uniform({"car": 0}, 3)

    def test_bad_num_classes_rejected(self):
        with pytest.raises(ValueError):
            category_kl_to_uniform({"car": 1}, 0)

    @given(counts=st.lists(st.integers(0, 50), min_size=1, max_size=3).filter(lambda c: sum(c) > 0))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_zero_iff_uniform(self, counts):
        names = ["car", "pedestrian", "cyclist"][: len(counts)]
        hist = dict(zip(names, counts))
        kl = category_kl_to_uniform(hist, 3)
        assert kl >= -1e-12
        uniform = len(counts) == 3 and len(set(counts)) == 1
        if uniform:
            assert kl == pytest.approx(0.0, abs=1e-9)
        else:
            assert kl > 1e-9

    def test_identity_with_counts_entropy(self):
        hist = {"car": 7, "pedestrian": 2, "cyclist": 5}
        assert category_kl_to_uniform(hist, 3) == pytest.approx(
            math.log(3.0) - counts_entropy(hist), abs=1e-9
        )


def fresh_cache():
    return SimilarityCache(DEFAULT_CATALOG, KER)


def duplicated_scenes(n=6):
    det = ScoredDetection("car", 0.9, make_box(x=4.0, y=3.0))
    return [Scene(id=f"dup_{i}", detections=(det,)) for i in range(n)]


class TestPairSampling:
    def test_duplicate_pool_all_ones(self):
        vals = sample_pair_similarities(duplicated_scenes(), 10, 0, fresh_cache())
        assert len(vals) == 10
        assert all(abs(v - 1.0) <= 1e-9 for v in vals)

    def test_seed_determinism(self):
        spec = PoolSpec(n_scenes=8, class_mix=(0.5, 0.3, 0.2), rng_seed=1)
        scenes = sorted(generate_pool(spec, DEFAULT_CATALOG).values(), key=lambda s: s.id)
        a = sample_pair_similarities(scenes, 12, 42, fresh_cache())
        b = sample_pair_similarities(scenes, 12, 42, fresh_cache())
        c = sample_pair_similarities(scenes, 12, 43, fresh_cache())
        assert a == b
        assert a != c

    def test_sampled_pairs_evaluated_in_one_batch(self, monkeypatch):
        # The same values and evaluation count as one ``similarity`` call per
        # pair, from one ``indexed_kernels`` call instead of one per miss.
        spec = PoolSpec(n_scenes=10, class_mix=(0.5, 0.3, 0.2), rng_seed=3)
        scenes = sorted(generate_pool(spec, DEFAULT_CATALOG).values(), key=lambda s: s.id)
        one_by_one = []
        cache = SimilarityCache(DEFAULT_CATALOG, KER)
        upper = list(itertools.combinations(range(10), 2))  # by flat index
        for flat in sorted(np.random.default_rng(7).choice(45, size=20, replace=False)):
            i, j = upper[flat]
            one_by_one.append(cache.similarity(scenes[i], scenes[j]))
        calls = []
        kernels = sampler.indexed_kernels

        def counting(graphs, first, *args, **kwargs):
            calls.append(len(first))
            return kernels(graphs, first, *args, **kwargs)

        monkeypatch.setattr(sampler, "indexed_kernels", counting)
        fresh = SimilarityCache(DEFAULT_CATALOG, KER)
        batched = sample_pair_similarities(scenes, 20, 7, fresh)
        assert batched == one_by_one
        assert calls == [fresh.evaluations] and fresh.evaluations == cache.evaluations

    def test_pair_count_capped(self):
        vals = sample_pair_similarities(duplicated_scenes(4), 100, 0, fresh_cache())
        assert len(vals) == 6  # C(4, 2)

    def test_pool_below_two_rejected(self):
        with pytest.raises(DataError):
            sample_pair_similarities(duplicated_scenes(1), 5, 0, fresh_cache())

    def test_redundant_pool_more_similar_than_diverse(self):
        base = dict(n_scenes=16, class_mix=(0.5, 0.3, 0.2), rng_seed=5)
        redundant = generate_pool(PoolSpec(redundancy_groups=1, **base), DEFAULT_CATALOG)
        diverse = generate_pool(PoolSpec(redundancy_groups=None, **base), DEFAULT_CATALOG)
        # The two pools reuse ids, so each needs its own cache.
        mean_r, mean_d = (
            np.mean(sample_pair_similarities(sorted(pool.values(), key=lambda s: s.id), 40, 0, fresh_cache()))
            for pool in (redundant, diverse)
        )
        assert mean_r > mean_d


class TestSelectionReport:
    def report(self, selected, pool):
        return selection_report(
            selected, pool, ENT, UNC, DEFAULT_ANCHORS, fresh_cache(), rng_seed=0
        )

    def test_empty_selection_zeroed(self):
        pool = duplicated_scenes()
        rep = self.report([], pool)
        assert rep.object_count == 0
        assert rep.category_kl is None
        assert rep.discrete_entropy is None
        assert rep.similarity_mean is None
        assert rep.pair_sample_count == 0

    def test_full_pool_histogram(self):
        spec = PoolSpec(n_scenes=6, class_mix=(0.5, 0.3, 0.2), rng_seed=2)
        pool = sorted(generate_pool(spec, DEFAULT_CATALOG).values(), key=lambda s: s.id)
        rep = self.report(pool, pool)
        truth = {c: 0 for c in DEFAULT_CATALOG.classes}
        for s in pool:
            for d in s.detections:
                truth[d.class_label] += 1
        assert rep.class_histogram == truth
        assert rep.object_count == sum(truth.values())
        assert rep.category_kl == pytest.approx(
            math.log(3.0) - rep.discrete_entropy, abs=1e-9
        )
        assert 0.0 <= rep.similarity_mean <= 1.0
        # ground-truth scenes carry no mixtures, so no uncertainty histogram
        assert rep.uncertainty_histogram == {}

    def test_classes_come_from_the_cache(self):
        spec = PoolSpec(n_scenes=6, class_mix=(0.5, 0.3, 0.2), rng_seed=2)
        pool = sorted(generate_pool(spec, DEFAULT_CATALOG).values(), key=lambda s: s.id)
        cars = sum(d.class_label == "car" for s in pool for d in s.detections)
        car_only = SimilarityCache(ClassCatalog(("car",)), KER)
        rep = selection_report(pool, pool, ENT, UNC, DEFAULT_ANCHORS, car_only, rng_seed=0)
        assert rep.class_histogram == {"car": cars} and rep.object_count == cars
        assert rep.category_kl == 0.0

    def test_omitted_uncertainty_is_logged(self, caplog):
        pool = duplicated_scenes(3)
        with caplog.at_level(logging.WARNING, logger="scenesel.diagnostics"):
            rep = self.report(pool, pool)
        assert rep.uncertainty_histogram == {}
        assert "uncertainty histogram omitted" in caplog.text
        assert "no mixture parameters" in caplog.text

    def test_selection_outside_pool_rejected(self):
        pool = duplicated_scenes(3)
        stray = Scene(id="stray", detections=())
        with pytest.raises(ValueError):
            self.report([stray], pool)

    def test_uncertainty_histogram_with_sidecars(self):
        mix = uniform_mixture(k=2, mean=0.05, var=0.01)
        scenes = [scene_with_mixtures(f"m{i}", (ScoredDetection("car", 0.9, make_box(x=3.0 + i)), mix)) for i in range(4)]
        rep = self.report(scenes, scenes)
        assert sum(rep.uncertainty_histogram["counts"]) == 4
        assert len(rep.uncertainty_histogram["bin_edges"]) == 11

    def test_pure_function_of_inputs(self):
        spec = PoolSpec(n_scenes=8, class_mix=(0.5, 0.3, 0.2), rng_seed=7)
        pool = sorted(generate_pool(spec, DEFAULT_CATALOG).values(), key=lambda s: s.id)
        r1 = self.report(pool[:5], pool)
        r2 = self.report(pool[:5], pool)
        assert r1 == r2

    def test_entropy_selection_beats_random_on_imbalanced_pool(self):
        # 90/5/5 pool: picking by entropy should tighten class balance
        from scenesel.entropy import rank_by_entropy

        kls_ent, kls_rnd = [], []
        for seed in range(10):
            spec = PoolSpec(n_scenes=40, class_mix=(0.9, 0.05, 0.05), rng_seed=seed)
            gt = generate_pool(spec, DEFAULT_CATALOG)
            noise = NoiseModel(confidence_noise=0.3, misclass_rate=0.05, mixture_components=1)
            predictor = make_predictor(noise, DEFAULT_ANCHORS, DEFAULT_CATALOG, seed=seed)
            preds = [predictor(s) for s in sorted(gt.values(), key=lambda s: s.id)]
            by_id = {p.id: p for p in preds}
            ent_ids = rank_by_entropy(preds, DEFAULT_CATALOG, ENT, 8)
            rng = np.random.default_rng(seed)
            rnd_ids = [preds[i].id for i in rng.choice(len(preds), size=8, replace=False)]
            rep_e = self.report([by_id[i] for i in ent_ids], preds)
            rep_r = self.report([by_id[i] for i in rnd_ids], preds)
            kls_ent.append(rep_e.category_kl)
            kls_rnd.append(rep_r.category_kl)
        assert np.median(kls_ent) < np.median(kls_rnd)
