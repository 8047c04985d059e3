import json
import logging
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from scenesel.core import ClassCatalog, DEFAULT_ANCHORS, DEFAULT_CATALOG, Scene, ScoredDetection
from scenesel.entropy import EntropyConfig
from scenesel.kernel import KernelConfig
from scenesel.sampler import (
    STAGE_NAMES,
    STRATEGIES,
    SimilarityCache,
    StagePlan,
    farthest_sampling,
    run_al_rounds,
    three_stage_select,
)
from scenesel.state import RoundState
from scenesel.synth import NoiseModel, PoolSpec, generate_pool, make_predictor
from scenesel.uncertainty import UncertaintyConfig

from conftest import make_box, scene_with_mixtures, uniform_mixture

ENT = EntropyConfig()
KER = KernelConfig()
UNC = UncertaintyConfig()

NOISE = NoiseModel(
    confidence_noise=0.3,
    position_noise_per_meter=0.01,
    misclass_rate=0.1,
    mixture_components=3,
    mean_spread=0.5,
)


def fresh_cache():
    return SimilarityCache(DEFAULT_CATALOG, KER)


def predicted_pool(n=10, seed=3, class_mix=(0.6, 0.3, 0.1)):
    spec = PoolSpec(n_scenes=n, class_mix=class_mix, rng_seed=seed)
    gt = generate_pool(spec, DEFAULT_CATALOG, DEFAULT_ANCHORS)
    predictor = make_predictor(NOISE, DEFAULT_ANCHORS, DEFAULT_CATALOG, seed=seed + 100)
    return gt, {sid: predictor(s) for sid, s in gt.items()}


class TestStagePlan:
    @pytest.mark.parametrize(
        "n_r,expected",
        [(2, (6, 5, 2)), (7, (21, 17, 7)), (20, (60, 50, 20)), (1, (3, 2, 1))],
    )
    def test_stage_sizes_floor(self, n_r, expected):
        assert StagePlan(n_r=n_r).stage_sizes() == expected

    def test_multiplier_order_enforced(self):
        with pytest.raises(ValueError):
            StagePlan(n_r=5, k1=2.0, k2=2.5)
        with pytest.raises(ValueError):
            StagePlan(n_r=5, k1=3.0, k2=0.5)

    def test_n_r_positive(self):
        with pytest.raises(ValueError):
            StagePlan(n_r=0)

    def test_order_must_permute_stages(self):
        with pytest.raises(ValueError):
            StagePlan(n_r=2, order=("entropy", "entropy", "similarity"))
        plan = StagePlan(n_r=2, order=("uncertainty", "similarity", "entropy"))
        assert sorted(plan.order) == sorted(STAGE_NAMES)


class TestFarthestSampling:
    # hand evaluation: row sums are 2.0, 2.1, 1.3 so the hub is id1; id2 is
    # least similar to it (0.2 vs 0.9); then min-dissim(id0)=0.9 > 0.8=id1
    SIM = [[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]]

    def test_hand_example(self):
        assert farthest_sampling(["id0", "id1", "id2"], self.SIM, 2) == ["id2", "id0"]

    def test_k_equals_pool_is_permutation(self):
        out = farthest_sampling(["id0", "id1", "id2"], self.SIM, 3)
        assert sorted(out) == ["id0", "id1", "id2"]
        assert out[:2] == ["id2", "id0"]

    def test_k_one(self):
        assert farthest_sampling(["id0", "id1", "id2"], self.SIM, 1) == ["id2"]

    def test_singleton_pool(self):
        assert farthest_sampling(["only"], [[1.0]], 1) == ["only"]

    def test_k_above_pool_rejected(self):
        with pytest.raises(ValueError):
            farthest_sampling(["a", "b"], [[1.0, 0.5], [0.5, 1.0]], 3)

    def test_ties_break_ascending_id(self):
        n = 5
        sim = np.full((n, n), 0.5)
        np.fill_diagonal(sim, 1.0)
        ids = [f"s{i}" for i in range(n)]
        # hub is s0 (all row sums equal); s1 is the first non-hub minimum;
        # afterwards every remaining point ties, so ids come out ascending
        assert farthest_sampling(ids, sim, 4) == ["s1", "s0", "s2", "s3"]

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.0, 1.0, size=(8, 8))
        sim = (a + a.T) / 2.0
        np.fill_diagonal(sim, 1.0)
        ids = [f"p{i:02d}" for i in range(8)]
        first = farthest_sampling(ids, sim, 5)
        assert farthest_sampling(ids, sim.copy(), 5) == first

    def test_each_pick_maximizes_min_dissimilarity(self):
        # check the greedy post-condition directly against the matrix
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(3, 10))
            a = rng.uniform(0.0, 1.0, size=(n, n))
            sim = (a + a.T) / 2.0
            np.fill_diagonal(sim, 1.0)
            ids = [f"q{i:02d}" for i in range(n)]
            k = int(rng.integers(2, n + 1))
            out = farthest_sampling(ids, sim, k)
            assert len(set(out)) == k
            idx = {s: i for i, s in enumerate(ids)}
            for step in range(1, k):
                chosen = idx[out[step]]
                prev = [idx[s] for s in out[:step]]
                rest = [i for i in range(n) if ids[i] not in out[:step]]
                best = max(min(1.0 - sim[i, j] for j in prev) for i in rest)
                got = min(1.0 - sim[chosen, j] for j in prev)
                assert got == pytest.approx(best, abs=1e-12)


def dominant_pool():
    """Three scenes where 'a' wins entropy, dissimilarity and uncertainty."""
    spread = uniform_mixture(k=1, mean=0.0, var=5.0)
    tight = uniform_mixture(k=1, mean=0.0, var=1e-3)
    a = scene_with_mixtures(
        "a",
        (ScoredDetection("car", 0.9, make_box(x=10.0, y=0.0)), spread),
        (ScoredDetection("pedestrian", 0.9, make_box(x=-8.0, y=6.0, w=0.6, l=0.8, h=1.7)), spread),
        (ScoredDetection("cyclist", 0.9, make_box(x=2.0, y=-12.0, w=0.6, l=1.76, h=1.7)), spread),
    )
    def plain(sid):
        return scene_with_mixtures(sid, (ScoredDetection("car", 0.9, make_box(x=5.0, y=5.0)), tight))
    return [a, plain("b"), plain("c")]


class TestThreeStageSelect:
    def test_stage_sizes_and_output(self):
        _, preds = predicted_pool(n=10)
        plan = StagePlan(n_r=2)
        selected, slog = three_stage_select(
            list(preds.values()), plan, DEFAULT_ANCHORS, ENT, UNC, fresh_cache()
        )
        assert slog.stage_sizes == (6, 5, 2)
        assert len(selected) == 2
        assert len(set(selected)) == 2
        assert set(selected) <= set(preds)
        assert not slog.degraded

    def test_dominant_scene_always_selected(self):
        plan = StagePlan(n_r=1, k1=3.0, k2=2.0)
        selected, _ = three_stage_select(
            dominant_pool(), plan, DEFAULT_ANCHORS, ENT, UNC, fresh_cache()
        )
        assert selected == ["a"]

    def test_classes_come_from_the_cache(self):
        # Entropy decides a plan of n_r 1 with k1 = k2 = 1. Under car only,
        # both scenes score 0 and the tie goes to the smaller id.
        mix = uniform_mixture()

        def scene(sid, *labels):
            dets = (ScoredDetection(c, 0.9, make_box(x=4.0 * i)) for i, c in enumerate(labels))
            return scene_with_mixtures(sid, *((d, mix) for d in dets))

        scenes = [scene("a", "car", "car"), scene("b", "car", "pedestrian")]
        plan = StagePlan(n_r=1, k1=1.0, k2=1.0)
        picks = [
            three_stage_select(scenes, plan, DEFAULT_ANCHORS, ENT, UNC, SimilarityCache(catalog, KER))[0]
            for catalog in (DEFAULT_CATALOG, ClassCatalog(("car",)))
        ]
        assert picks == [["b"], ["a"]]

    def test_mixtures_attached_for_the_uncertainty_stage_only(self):
        # The uncertainty stage ranks what ``with_mixtures`` returns; the
        # other stages never ask for it.
        _, preds = predicted_pool(n=12)
        bare = [Scene(p.id, p.detections) for p in preds.values()]
        asked = []

        def with_mixtures(scene):
            asked.append(scene.id)
            return preds[scene.id]

        plan = StagePlan(n_r=2)
        expected = three_stage_select(list(preds.values()), plan, DEFAULT_ANCHORS, ENT, UNC, fresh_cache())
        got = three_stage_select(bare, plan, DEFAULT_ANCHORS, ENT, UNC, fresh_cache(), with_mixtures)
        assert got == expected
        assert len(asked) == len(set(asked)) == plan.stage_sizes()[1]

    def test_instrumentation_contract(self):
        _, preds = predicted_pool(n=12)
        plan = StagePlan(n_r=2)
        cache = fresh_cache()
        _, slog = three_stage_select(
            list(preds.values()), plan, DEFAULT_ANCHORS, ENT, UNC, cache
        )
        assert slog.kernel_evals == cache.evaluations > 0
        assert slog.entropy_sorts == 1
        assert slog.kernel_evals <= plan.stage_sizes()[0] ** 2

    def test_order_variants_respect_sizes(self):
        _, preds = predicted_pool(n=14, seed=9)
        scenes = list(preds.values())
        plan_default = StagePlan(n_r=3)
        plan_reversed = StagePlan(n_r=3, order=("uncertainty", "similarity", "entropy"))
        sel_d, log_d = three_stage_select(
            scenes, plan_default, DEFAULT_ANCHORS, ENT, UNC, fresh_cache()
        )
        sel_r, log_r = three_stage_select(
            scenes, plan_reversed, DEFAULT_ANCHORS, ENT, UNC, fresh_cache()
        )
        assert log_d.stage_sizes == log_r.stage_sizes == (9, 7, 3)
        assert len(sel_d) == len(sel_r) == 3
        assert set(sel_d) != set(sel_r)

    def test_degraded_round_shrinks_proportionally(self, caplog):
        _, preds = predicted_pool(n=4)
        with caplog.at_level(logging.WARNING):
            selected, slog = three_stage_select(
                list(preds.values()),
                StagePlan(n_r=2),
                DEFAULT_ANCHORS,
                ENT,
                UNC,
                fresh_cache(),
            )
        assert slog.degraded
        assert slog.stage_sizes[0] == 4
        assert len(selected) == 2
        assert any("degraded" in r.message for r in caplog.records)

    def test_degraded_still_needs_n_r_scenes(self):
        _, preds = predicted_pool(n=4)
        with pytest.raises(ValueError, match="below n_r=5"):
            three_stage_select(
                list(preds.values()),
                StagePlan(n_r=5),
                DEFAULT_ANCHORS,
                ENT,
                UNC,
                fresh_cache(),
            )


class TestRunRounds:
    def run(self, strategy="tscenejal", rounds=2, n_r=3, n=30, seed=21, budget=None, cache=None, predicted=None):
        """Rounds on a predicted pool. Each scene the predictor is called on
        is appended to ``predicted``, when given."""
        gt, _ = predicted_pool(n=n, seed=seed)
        stand_in = make_predictor(NOISE, DEFAULT_ANCHORS, DEFAULT_CATALOG, seed=seed)

        def predictor(scene):
            if predicted is not None:
                predicted.append(scene.id)
            return stand_in(scene)

        state = RoundState.fresh(gt, n0=0, budget_total=budget or rounds * n_r, rng_seed=seed)
        return run_al_rounds(
            gt,
            StagePlan(n_r=n_r),
            rounds,
            predictor,
            gt.__getitem__,
            state,
            DEFAULT_CATALOG,
            DEFAULT_ANCHORS,
            ENT,
            KER,
            UNC,
            strategy=strategy,
            cache=cache,
        )

    def test_accounting(self):
        state, reports = self.run()
        assert state.round_index == 2
        assert len(state.labeled_ids) == 6
        assert len(state.unlabeled_ids) == 24
        assert not state.labeled_ids & state.unlabeled_ids
        all_selected = [sid for r in state.per_round_selected for sid in r]
        assert len(all_selected) == len(set(all_selected)) == 6
        assert [r.round_index for r in reports] == [1, 2]
        for r in reports:
            assert len(r.selected_ids) == 3
            assert r.stage_sizes == (9, 7, 3)
            assert r.mean_pairwise_similarity is not None
            assert 0.0 <= r.mean_pairwise_similarity <= 1.0
            assert r.mean_uncertainty is not None and r.mean_uncertainty >= 0.0
            assert r.object_count == sum(r.class_counts.values())

    def test_deterministic_across_runs(self):
        s1, r1 = self.run()
        s2, r2 = self.run()
        assert s1 == s2
        assert [r.selected_ids for r in r1] == [r.selected_ids for r in r2]

    @pytest.mark.parametrize("strategy", ["tscenejal", "fs-only", "entropy-only"])
    def test_round_counts_are_the_cache_work(self, strategy):
        # Selection and report both draw on the one cache; every evaluation
        # it makes belongs to exactly one round.
        cache = SimilarityCache(DEFAULT_CATALOG, KER)
        _, reports = self.run(strategy=strategy, rounds=3, cache=cache)
        assert reports[0].kernel_evals > 0
        assert sum(r.kernel_evals for r in reports) == cache.evaluations

    @pytest.mark.parametrize("strategy", ["random", "entropy-only", "fs-only", "uncertainty-only"])
    def test_baseline_strategies(self, strategy):
        state, reports = self.run(strategy=strategy, rounds=1, n=16)
        assert len(state.labeled_ids) == 3
        assert reports[0].strategy == strategy
        assert reports[0].stage_sizes is None

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_predictor_runs_on_the_scenes_the_strategy_reads(self, strategy):
        # Random sampling reads no prediction to pick, so it predicts only
        # its picks, for the report; every other strategy ranks the
        # predictions of the whole unlabeled pool, once per scene a round.
        predicted = []
        state, _ = self.run(strategy=strategy, rounds=2, n_r=3, n=30, predicted=predicted)
        round_1, round_2 = state.per_round_selected
        if strategy == "random":
            assert len(predicted) == 6
            assert sorted(predicted) == sorted(round_1 + round_2)
        else:
            pool = sorted(state.labeled_ids | state.unlabeled_ids)
            assert predicted == pool + [i for i in pool if i not in round_1]

    def test_random_round_survives_a_predictor_failure_on_unpicked_scenes(self):
        _, picks = self.run(strategy="random", rounds=1, n=16)
        gt, _ = predicted_pool(n=16, seed=21)
        stand_in = make_predictor(NOISE, DEFAULT_ANCHORS, DEFAULT_CATALOG, seed=21)

        def predictor(scene):
            if scene.id not in picks[0].selected_ids:
                raise RuntimeError(f"no prediction for {scene.id}")
            return stand_in(scene)

        _, reports = run_al_rounds(
            gt,
            StagePlan(n_r=3),
            1,
            predictor,
            gt.__getitem__,
            RoundState.fresh(gt, n0=0, budget_total=3, rng_seed=21),
            DEFAULT_CATALOG,
            DEFAULT_ANCHORS,
            ENT,
            KER,
            UNC,
            strategy="random",
        )
        assert reports == picks

    def test_omitted_uncertainty_is_logged(self, caplog):
        gt, _ = predicted_pool(n=8, seed=5)
        state = RoundState.fresh(gt, n0=0, budget_total=2, rng_seed=5)
        with caplog.at_level(logging.WARNING, logger="scenesel.sampler"):
            _, reports = run_al_rounds(
                gt,
                StagePlan(n_r=2),
                1,
                lambda s: s,  # ground truth carries no mixtures
                gt.__getitem__,
                state,
                DEFAULT_CATALOG,
                DEFAULT_ANCHORS,
                ENT,
                KER,
                UNC,
                strategy="random",
            )
        assert reports[0].mean_uncertainty is None
        assert "round 1: mean uncertainty omitted" in caplog.text
        assert "no mixture parameters" in caplog.text

    def test_random_strategy_seed_sensitivity(self):
        _, r1 = self.run(strategy="random", rounds=1, n=30, seed=21)
        gt, _ = predicted_pool(n=30, seed=21)
        predictor = make_predictor(NOISE, DEFAULT_ANCHORS, DEFAULT_CATALOG, seed=21)
        state = RoundState.fresh(gt, n0=0, budget_total=3, rng_seed=999)
        _, r2 = run_al_rounds(
            gt,
            StagePlan(n_r=3),
            1,
            predictor,
            gt.__getitem__,
            state,
            DEFAULT_CATALOG,
            DEFAULT_ANCHORS,
            ENT,
            KER,
            UNC,
            strategy="random",
        )
        assert r1[0].selected_ids != r2[0].selected_ids

    def test_budget_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            self.run(rounds=3, budget=6)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_pool_below_n_r_rejected_before_the_strategy_runs(self, strategy):
        # Five unlabeled scenes cannot supply n_r=6 under any strategy; the
        # round fails with the pool and n_r named, before any prediction.
        predicted = []
        with pytest.raises(ValueError, match="pool of 5 scenes is below n_r=6"):
            self.run(strategy=strategy, rounds=1, n_r=6, n=5, predicted=predicted)
        assert predicted == []

    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError, match="rounds"):
            self.run(rounds=0, budget=6)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            self.run(strategy="oracle")

    @pytest.mark.parametrize(
        "catalog, config",
        [
            (ClassCatalog(("car", "pedestrian")), KER),
            (DEFAULT_CATALOG, KernelConfig(gamma=0.9, sigma=0.05)),
        ],
    )
    def test_mismatched_cache_rejected(self, catalog, config):
        # The cache's similarities are those of its own catalog and config;
        # rounds given others must not silently use them.
        with pytest.raises(ValueError, match="cache was made for"):
            self.run(cache=SimilarityCache(catalog, config))

    def test_predictions_that_change_between_rounds_are_not_served_stale(self):
        # A detector retrained every round predicts other boxes for the same
        # scene: each prediction of a scene shifts all of its boxes 2 m
        # further along x. A cache shared by the rounds must give round 2 the
        # similarities of round 2's boxes, as a new cache does; one keyed by
        # scene id served round 1's.
        gt, _ = predicted_pool(n=30, seed=21)
        stand_in = make_predictor(NOISE, DEFAULT_ANCHORS, DEFAULT_CATALOG, seed=21)

        def retrained():
            seen = Counter()

            def predictor(scene):
                seen[scene.id] += 1
                pred = stand_in(scene)
                shift = 2.0 * seen[scene.id]
                dets = tuple(replace(d, box=replace(d.box, x=d.box.x + shift)) for d in pred.detections)
                return replace(pred, detections=dets)

            return predictor

        def rounds(predictor, state, n, cache):
            return run_al_rounds(
                gt, StagePlan(n_r=3), n, predictor, gt.__getitem__, state, DEFAULT_CATALOG,
                DEFAULT_ANCHORS, ENT, KER, UNC, cache=cache,
            )

        start = RoundState.fresh(gt, n0=0, budget_total=6, rng_seed=21)
        shared_state, shared = rounds(retrained(), start, 2, fresh_cache())
        predictor = retrained()
        state, first = rounds(predictor, start, 1, fresh_cache())
        state, second = rounds(predictor, state, 1, fresh_cache())
        assert shared_state == state
        assert shared[0] == first[0]
        # Round 2 shares no content with round 1, so even its count is equal.
        assert shared[1] == second[0]

    def test_input_state_not_mutated(self):
        gt, _ = predicted_pool(n=16, seed=4)
        predictor = make_predictor(NOISE, DEFAULT_ANCHORS, DEFAULT_CATALOG, seed=4)
        state = RoundState.fresh(gt, n0=0, budget_total=4, rng_seed=4)
        run_al_rounds(
            gt,
            StagePlan(n_r=2),
            1,
            predictor,
            gt.__getitem__,
            state,
            DEFAULT_CATALOG,
            DEFAULT_ANCHORS,
            ENT,
            KER,
            UNC,
        )
        assert state.round_index == 0
        assert state.labeled_ids == frozenset()


class TestSimilarityCache:
    def test_cache_avoids_recomputation(self):
        _, preds = predicted_pool(n=6)
        scenes = sorted(preds.values(), key=lambda s: s.id)
        cache = SimilarityCache(DEFAULT_CATALOG, KER)
        m1 = cache.matrix(scenes)
        assert cache.evaluations == 6 + 15  # self-kernels plus unordered pairs
        m2 = cache.matrix(scenes)
        assert cache.evaluations == 6 + 15
        np.testing.assert_array_equal(m1, m2)

    def test_identical_ids_short_circuit(self):
        _, preds = predicted_pool(n=2)
        s = next(iter(preds.values()))
        cache = SimilarityCache(DEFAULT_CATALOG, KER)
        assert cache.similarity(s, s) == 1.0

    def test_equal_content_under_other_ids_shares_one_key(self):
        # Sizes, yaws and detections below tau are not part of a scene's graph.
        _, preds = predicted_pool(n=3)
        a, c = sorted(preds.values(), key=lambda s: s.id)[:2]
        kept = [d for d in a.detections if d.confidence >= KER.tau]
        twin = Scene("twin", tuple(replace(d, box=replace(d.box, w=d.box.w + 1.0, theta=0.0)) for d in kept))
        cache = fresh_cache()
        assert cache.similarity(a, twin) == 1.0
        assert cache.evaluations == 0
        value = cache.similarity(a, c)
        assert cache.evaluations == 3
        assert cache.similarity(twin, c) == value
        assert cache.evaluations == 3

    def test_a_scene_whose_content_changes_is_evaluated_again(self):
        _, preds = predicted_pool(n=3)
        a, c = sorted(preds.values(), key=lambda s: s.id)[:2]
        moved = replace(a, detections=tuple(replace(d, box=replace(d.box, y=d.box.y + 3.0)) for d in a.detections))
        cache = fresh_cache()
        cache.similarity(a, c)
        assert cache.similarity(moved, c) == fresh_cache().similarity(moved, c) != cache.similarity(a, c)

    def test_a_near_copy_is_at_most_1_similar(self):
        # Moving one center by 4e-12 m puts this pair's similarity, before
        # the clamp, at 1 + 2.2e-16.
        centers = [
            (-29.164354074165594, -27.40708711536172, -0.241327463062094),
            (-22.831593206663456, -41.65177594668742, 0.22719640264727015),
            (-14.856376537754972, 12.16208858113124, -0.2662773826893058),
            (10.73189494492913, 45.45521478501264, 0.44748439631367903),
            (-18.095358395488923, -24.958110815608396, -0.45676576545335257),
        ]
        near = [*centers]
        near[1] = (centers[1][0] + 4.077785640339489e-12, *centers[1][1:])

        def scene(sid, cs):
            return Scene(sid, tuple(ScoredDetection("car", 1.0, make_box(*c)) for c in cs))

        assert fresh_cache().similarity(scene("a", centers), scene("b", near)) == 1.0

    def saved(self, tmp_path, scenes, dropped=()):
        """A cache file holding the values of every pair of ``scenes``."""
        path = tmp_path / "state.similarity.json"
        cache = fresh_cache()
        cache.load(path)
        cache.matrix(scenes)
        cache.save(path, list(dropped))
        return path

    def test_file_round_trip_gives_the_same_floats_without_evaluating(self, tmp_path):
        _, preds = predicted_pool(n=8)
        scenes = sorted(preds.values(), key=lambda s: s.id)
        path = self.saved(tmp_path, scenes[:6])
        cache = fresh_cache()
        cache.load(path)
        m = cache.matrix(scenes)
        np.testing.assert_array_equal(m, fresh_cache().matrix(scenes))
        # 6 self-kernels and 15 pairs from the file; 2 self-kernels and the
        # 13 pairs that involve the two new scenes evaluated.
        assert (cache.reused, cache.evaluations) == (6 + 15, 2 + 13)
        assert cache.reused + cache.evaluations == 8 + 28

    def test_save_drops_every_value_of_the_dropped_scenes(self, tmp_path):
        _, preds = predicted_pool(n=5)
        scenes = sorted(preds.values(), key=lambda s: s.id)
        doc = json.loads(self.saved(tmp_path, scenes, dropped=scenes[:2]).read_text())
        assert len(doc["scenes"]) == 3
        assert sum(len(p) for p in doc["pairs"].values()) == 3
        cache = fresh_cache()
        cache.load(tmp_path / "state.similarity.json")
        cache.matrix(scenes[2:])
        assert (cache.reused, cache.evaluations) == (6, 0)

    def test_signed_zeros_digest_alike(self, tmp_path):
        box = make_box(x=0.0, y=5.0)
        zero = Scene("zero", (ScoredDetection("car", 0.9, box),))
        negative = Scene("negative", (ScoredDetection("car", 0.9, replace(box, x=-0.0)),))
        other = Scene("other", (ScoredDetection("car", 0.9, make_box(x=3.0)),))
        path = self.saved(tmp_path, [zero, other])
        cache = fresh_cache()
        cache.load(path)
        cache.similarity(negative, other)
        assert (cache.reused, cache.evaluations) == (3, 0)

    def test_file_of_another_config_is_not_read(self, tmp_path, caplog):
        _, preds = predicted_pool(n=3)
        scenes = sorted(preds.values(), key=lambda s: s.id)
        path = self.saved(tmp_path, scenes)
        cache = SimilarityCache(DEFAULT_CATALOG, KernelConfig(gamma=0.2))
        with caplog.at_level(logging.WARNING, logger="scenesel.sampler"):
            cache.load(path)
        assert f"{path}: made for another kernel config, catalog or format; replacing it" in caplog.text
        cache.matrix(scenes)
        assert (cache.reused, cache.evaluations) == (0, 6)
        cache.save(path, [])
        assert json.loads(path.read_text())["fingerprint"] == cache.fingerprint != fresh_cache().fingerprint

    def test_load_needs_a_new_cache_and_save_a_loaded_one(self, tmp_path):
        _, preds = predicted_pool(n=2)
        cache = fresh_cache()
        with pytest.raises(ValueError, match="save needs a cache that was loaded"):
            cache.save(tmp_path / "c.json", [])
        cache.matrix(list(preds.values()))
        with pytest.raises(ValueError, match="load needs a new cache"):
            cache.load(tmp_path / "c.json")
