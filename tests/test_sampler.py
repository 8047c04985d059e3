import logging
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenesel.core import ClassCatalog, DataError, DEFAULT_ANCHORS, DEFAULT_CATALOG, ScoredDetection
from scenesel.entropy import EntropyConfig
from scenesel import sampler
from scenesel.kernel import KernelConfig, build_scene_graph, marginalized_kernel, scene_content
from scenesel.sampler import (
    STAGE_NAMES,
    STRATEGIES,
    SimilarityCache,
    StagePlan,
    _content_digest,
    farthest_sampling,
    run_al_rounds,
    three_stage_select,
)
from scenesel.state import RoundState
from scenesel.synth import NoiseModel, PoolSpec, generate_pool, make_predictor
from scenesel.uncertainty import UncertaintyConfig

from conftest import make_box, scene_of, scene_with_mixtures, uniform_mixture

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

    # floor(k1 * n_r) of an infinite product is an OverflowError.
    @pytest.mark.parametrize("k1, k2, n_r", [(math.inf, math.inf, 1), (math.inf, 2.5, 20), (1e308, 2.5, 20)])
    def test_a_k1_times_n_r_that_is_not_finite_is_rejected(self, k1, k2, n_r):
        with pytest.raises(ValueError, match="need k1 \\* n_r finite"):
            StagePlan(n_r=n_r, k1=k1, k2=k2)

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


def _argbest(ids, values, candidates, maximize):
    """Index of the best value among candidates; ties go to the smallest id."""
    best = None
    for i in candidates:
        if best is None:
            best = i
            continue
        v, b = values[i], values[best]
        if (v > b if maximize else v < b) or (v == b and ids[i] < ids[best]):
            best = i
    return best


def farthest_sampling_loop(pool_ids, similarity_matrix, k):
    """``farthest_sampling`` written as a loop over the candidates of each
    pick: the oracle of its array version."""
    n = len(pool_ids)
    if k < 1:
        return []
    sim = np.asarray(similarity_matrix, dtype=float)
    if n == 1:
        return [pool_ids[0]]
    hub = _argbest(pool_ids, sim.sum(axis=1), range(n), maximize=True)
    first = _argbest(pool_ids, sim[:, hub], [i for i in range(n) if i != hub], maximize=False)
    selected = [first]
    remaining = set(range(n)) - {first}
    min_dissim = 1.0 - sim[:, first]
    while len(selected) < k:
        pick = _argbest(pool_ids, min_dissim, remaining, maximize=True)
        selected.append(pick)
        remaining.discard(pick)
        min_dissim = np.minimum(min_dissim, 1.0 - sim[:, pick])
    return [pool_ids[i] for i in selected]


@st.composite
def tied_similarity_spaces(draw):
    """(ids, similarity matrix, k): a symmetric matrix with a unit diagonal
    whose scenes fall into groups of equal rows (scenes of equal content),
    with values drawn from a few exact ones and any in [0, 1], and distinct
    ids in no particular order."""
    n = draw(st.integers(1, 9))
    group = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    values = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 1.0]), st.floats(0.0, 1.0))
    base = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            base[i, j] = base[j, i] = draw(values)
    ids = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    return ids, base[np.ix_(group, group)], draw(st.integers(0, n))


class TestFarthestSamplingOracle:
    # Which row sums of this matrix tie depends on the order each row is
    # summed in: the input order picks "a", the id order would pick "e".
    @example(
        (
            ["d", "c", "e", "a"],
            np.array([[1.0, 0.7, 0.2, 0.7], [0.7, 1.0, 0.7, 0.2], [0.2, 0.7, 1.0, 0.25], [0.7, 0.2, 0.25, 1.0]]),
            1,
        )
    )
    @settings(max_examples=300, deadline=None)
    @given(tied_similarity_spaces())
    def test_array_picks_equal_the_loop_picks(self, space):
        ids, sim, k = space
        assert farthest_sampling(ids, sim, k) == farthest_sampling_loop(ids, sim, k)

    def test_nan_is_rejected(self):
        sim = np.eye(3)
        sim[0, 1] = sim[1, 0] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            farthest_sampling(["a", "b", "c"], sim, 2)


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
        selected, sizes = three_stage_select(
            list(preds.values()), plan, DEFAULT_ANCHORS, ENT, UNC, fresh_cache()
        )
        assert sizes == plan.stage_sizes() == (6, 5, 2)
        assert len(selected) == 2
        assert len(set(selected)) == 2
        assert set(selected) <= set(preds)

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
        bare = [scene_of(p.id, p.detections) for p in preds.values()]
        asked = []

        def with_mixtures(scene):
            asked.append(scene.id)
            return preds[scene.id]

        plan = StagePlan(n_r=2)
        expected = three_stage_select(list(preds.values()), plan, DEFAULT_ANCHORS, ENT, UNC, fresh_cache())
        got = three_stage_select(bare, plan, DEFAULT_ANCHORS, ENT, UNC, fresh_cache(), with_mixtures)
        assert got == expected
        assert len(asked) == len(set(asked)) == plan.stage_sizes()[1]

    def test_instrumentation_contract(self, monkeypatch):
        # Kernel work is the growth of ``cache.evaluations``; entropy sorts
        # are counted at the ranking function the entropy stage calls.
        _, preds = predicted_pool(n=12)
        plan = StagePlan(n_r=2)
        cache = fresh_cache()
        sorts = []
        rank = sampler.rank_by_entropy

        def counting(*args, **kwargs):
            sorts.append(len(args[0]))
            return rank(*args, **kwargs)

        monkeypatch.setattr(sampler, "rank_by_entropy", counting)
        three_stage_select(list(preds.values()), plan, DEFAULT_ANCHORS, ENT, UNC, cache)
        assert 0 < cache.evaluations <= plan.stage_sizes()[0] ** 2
        assert sorts == [12]

    def test_order_variants_respect_sizes(self):
        _, preds = predicted_pool(n=14, seed=9)
        scenes = list(preds.values())
        plan_default = StagePlan(n_r=3)
        plan_reversed = StagePlan(n_r=3, order=("uncertainty", "similarity", "entropy"))
        sel_d, sizes_d = three_stage_select(
            scenes, plan_default, DEFAULT_ANCHORS, ENT, UNC, fresh_cache()
        )
        sel_r, sizes_r = three_stage_select(
            scenes, plan_reversed, DEFAULT_ANCHORS, ENT, UNC, fresh_cache()
        )
        assert sizes_d == sizes_r == (9, 7, 3)
        assert len(sel_d) == len(sel_r) == 3
        assert set(sel_d) != set(sel_r)

    def test_degraded_round_shrinks_proportionally(self, caplog):
        _, preds = predicted_pool(n=4)
        plan = StagePlan(n_r=2)
        with caplog.at_level(logging.WARNING):
            selected, sizes = three_stage_select(
                list(preds.values()),
                plan,
                DEFAULT_ANCHORS,
                ENT,
                UNC,
                fresh_cache(),
            )
        assert sizes != plan.stage_sizes()
        assert sizes[0] == 4
        assert len(selected) == 2
        assert any("degraded" in r.message for r in caplog.records)

    def test_degraded_still_needs_n_r_scenes(self):
        # The round driver checks the pool before the selector runs; called
        # directly, the selector fails in the first stage that cannot keep
        # its size.
        gt, preds = predicted_pool(n=4)
        plan = StagePlan(n_r=5)
        state = RoundState.fresh(gt, n0=0, budget_total=5, rng_seed=0)
        with pytest.raises(sampler.ShortfallError, match="below n_r=5"):
            run_al_rounds(
                gt, plan, 1, preds.__getitem__, gt.__getitem__, state, DEFAULT_CATALOG, DEFAULT_ANCHORS, ENT, KER, UNC
            )
        with pytest.raises(ValueError, match="exceeds"):
            three_stage_select(list(preds.values()), plan, DEFAULT_ANCHORS, ENT, UNC, fresh_cache())


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
            assert r.summary.similarity_mean is not None
            assert 0.0 <= r.summary.similarity_mean <= 1.0
            assert r.summary.mean_uncertainty is not None and r.summary.mean_uncertainty >= 0.0

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
        with caplog.at_level(logging.WARNING, logger="scenesel.diagnostics"):
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
        assert reports[0].summary.mean_uncertainty is None
        assert "uncertainty omitted: " in caplog.text
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
        twin = scene_of("twin", tuple(replace(d, box=replace(d.box, w=d.box.w + 1.0, theta=0.0)) for d in kept))
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
            return scene_of(sid, tuple(ScoredDetection("car", 1.0, make_box(*c)) for c in cs))

        assert fresh_cache().similarity(scene("a", centers), scene("b", near)) == 1.0

    def saved(self, tmp_path, scenes, dropped=()):
        """A cache file holding the values of every pair of ``scenes``."""
        path = tmp_path / "state.similarity.npz"
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
        selfs, crosses = stored_kernels(self.saved(tmp_path, scenes, dropped=scenes[:2]))
        assert len(selfs) == 3
        assert len(crosses) == 3
        cache = fresh_cache()
        cache.load(tmp_path / "state.similarity.npz")
        cache.matrix(scenes[2:])
        assert (cache.reused, cache.evaluations) == (6, 0)

    def test_signed_zeros_digest_alike(self, tmp_path):
        box = make_box(x=0.0, y=5.0)
        zero = scene_of("zero", (ScoredDetection("car", 0.9, box),))
        negative = scene_of("negative", (ScoredDetection("car", 0.9, replace(box, x=-0.0)),))
        other = scene_of("other", (ScoredDetection("car", 0.9, make_box(x=3.0)),))
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
        with np.load(path) as npz:
            assert npz["fingerprint"].item() == cache.fingerprint != fresh_cache().fingerprint

    def test_load_needs_a_new_cache_and_save_a_loaded_one(self, tmp_path):
        _, preds = predicted_pool(n=2)
        cache = fresh_cache()
        with pytest.raises(ValueError, match="save needs a cache that was loaded"):
            cache.save(tmp_path / "c.npz", [])
        cache.matrix(list(preds.values()))
        with pytest.raises(ValueError, match="load needs a new cache"):
            cache.load(tmp_path / "c.npz")


def stored_kernels(path):
    """The kernel values of a similarity cache file, read with ``np.load``:
    self-kernels by content digest and cross kernels by sorted digest pair."""
    with np.load(path) as npz:
        digests = npz["digests"].tolist()
        selfs = dict(zip(digests, npz["self_kernels"].tolist()))
        crosses = {
            tuple(sorted((digests[i], digests[j]))): value
            for (i, j), value in zip(npz["pairs"].tolist(), npz["values"].tolist())
        }
    return selfs, crosses


class PerPairCache:
    """``SimilarityCache`` written one pair at a time: a dict of
    similarities by content pair, each kernel value from the one-pair
    ``marginalized_kernel`` or from ``stored`` (what ``stored_kernels``
    returns), normalized with ``math.sqrt``. The oracle of the array store."""

    def __init__(self, stored=None):
        self.stored = stored
        self.pairs, self.self_k, self.graphs = {}, {}, {}
        self.evaluations = self.reused = 0

    def _kernel(self, stored, digest, g1, g2):
        value = None if self.stored is None else stored.get(digest)
        if value is None:
            self.evaluations += 1
            return marginalized_kernel(g1, g2, KER)
        self.reused += 1
        return value

    def _self_kernel(self, content, graph):
        if content not in self.self_k:
            stored = None if self.stored is None else self.stored[0]
            self.self_k[content] = self._kernel(stored, _content_digest(content), graph, graph)
        return self.self_k[content]

    def similarity(self, s1, s2):
        c1, c2 = (scene_content(s, DEFAULT_CATALOG, KER) for s in (s1, s2))
        if c1 == c2:
            return 1.0
        key = (c1, c2) if c1 < c2 else (c2, c1)
        if key not in self.pairs:
            g1, g2 = (self.graphs.setdefault(c, build_scene_graph(s, DEFAULT_CATALOG, KER)) for c, s in ((c1, s1), (c2, s2)))
            sa, sb = self._self_kernel(c1, g1), self._self_kernel(c2, g2)
            digests = tuple(sorted(_content_digest(c) for c in (c1, c2)))
            cross = self._kernel(None if self.stored is None else self.stored[1], digests, g1, g2)
            self.pairs[key] = min(cross / math.sqrt(sa * sb), 1.0)
        return self.pairs[key]

    def matrix(self, scenes):
        sim = np.eye(len(scenes))
        for i in range(len(scenes)):
            for j in range(i + 1, len(scenes)):
                sim[i, j] = sim[j, i] = self.similarity(scenes[i], scenes[j])
        return sim

    def pair_similarities(self, scenes, index_pairs):
        return [self.similarity(scenes[i], scenes[j]) for i, j in index_pairs]


def twins(scenes, suffix):
    """Scenes of the same content as ``scenes`` under other ids: other
    sizes and yaws, and none of the detections below tau."""
    return [
        scene_of(
            s.id + suffix,
            tuple(
                replace(d, box=replace(d.box, w=d.box.w + 1.0, theta=0.0))
                for d in s.detections
                if d.confidence >= KER.tau
            ),
        )
        for s in scenes
    ]


class TestArrayStoreMatchesPerPairOracle:
    """The array store against ``PerPairCache``, with ``==``: the same
    floats, ``evaluations`` and ``reused`` after each call of a sequence."""

    @staticmethod
    def assert_same(cache, oracle, calls):
        for scenes, index_pairs in calls:
            if index_pairs is None:
                got, want = cache.matrix(scenes), oracle.matrix(scenes)
                assert got.shape == want.shape and (got == want).all()
            else:
                assert cache.pair_similarities(scenes, index_pairs) == oracle.pair_similarities(scenes, index_pairs)
            assert (cache.evaluations, cache.reused) == (oracle.evaluations, oracle.reused)

    @staticmethod
    def scenes(n=14, seed=5):
        _, preds = predicted_pool(n=n, seed=seed)
        scenes = sorted(preds.values(), key=lambda s: s.id)
        # equal contents under other ids, interleaved with their originals
        return [s for pair in zip(scenes, twins(scenes, "-twin")) for s in pair][: n + n // 2]

    @pytest.mark.parametrize("per_call", [sampler.PAIRS_PER_CALL, 5])
    def test_matrices_and_pair_lists(self, monkeypatch, per_call):
        # At 5 pairs a call, every scan but the smallest spans calls, and
        # twins put one pair's content in more than one call.
        monkeypatch.setattr(sampler, "PAIRS_PER_CALL", per_call)
        scenes = self.scenes()
        pairs = [(1, 0), (2, 5), (5, 2), (3, 4), (2, 5), (4, 4), (0, 3), (7, 6), (8, 11), (11, 8), (9, 9)]
        calls = [
            (scenes[:4], [(0, 1)]),
            (scenes, pairs),
            (scenes[::-1], None),
            (scenes[3:9], None),
            (scenes, [(i, j) for i in range(len(scenes)) for j in range(len(scenes))]),
        ]
        self.assert_same(fresh_cache(), PerPairCache(), calls)

    @pytest.mark.parametrize("per_call", [sampler.PAIRS_PER_CALL, 5])
    def test_after_load(self, tmp_path, monkeypatch, per_call):
        monkeypatch.setattr(sampler, "PAIRS_PER_CALL", per_call)
        scenes = self.scenes()
        path = tmp_path / "state.similarity.npz"
        writer = fresh_cache()
        writer.load(path)
        writer.matrix(scenes[2:10])
        writer.save(path, [scenes[4]])
        cache = fresh_cache()
        cache.load(path)
        oracle = PerPairCache(stored_kernels(path))
        self.assert_same(cache, oracle, [(scenes, [(12, 3), (3, 12), (6, 6)]), (scenes, None)])
        assert cache.reused > 0 and cache.evaluations > 0

    def test_hits_and_misses_count_the_pairs_asked_for(self):
        scenes = self.scenes(n=6)  # 6 scenes and the twins of 3
        contents = [scene_content(s, DEFAULT_CATALOG, KER) for s in scenes]
        equal = sum(contents[i] == contents[j] for i in range(9) for j in range(i + 1, 9))
        distinct = len(set(contents))
        assert equal >= 3
        cache = fresh_cache()
        cache.matrix(scenes)
        # Pairs of equal content are hits, the others misses, however many
        # of them share one pair of contents.
        assert (cache.hits, cache.misses) == (equal, 36 - equal)
        assert cache.evaluations == distinct + distinct * (distinct - 1) // 2 < 9 + 36 - equal
        cache.pair_similarities(scenes, [(0, 2), (2, 0), (4, 4)])
        assert (cache.hits, cache.misses) == (equal + 3, 36 - equal)


class TestScanCalls:
    """How many ``indexed_kernels`` calls and store merges a scan makes."""

    @staticmethod
    def counted(monkeypatch):
        """Counters of ``indexed_kernels`` calls, their pairs, and store merges."""
        counts = {"calls": 0, "pairs": 0, "merges": 0}
        kernels, merge = sampler.indexed_kernels, SimilarityCache._merge

        def counting_kernels(graphs, first, second, config):
            counts["calls"] += 1
            counts["pairs"] += len(first)
            return kernels(graphs, first, second, config)

        def counting_merge(cache, codes, similarities):
            counts["merges"] += 1
            return merge(cache, codes, similarities)

        monkeypatch.setattr(sampler, "indexed_kernels", counting_kernels)
        monkeypatch.setattr(SimilarityCache, "_merge", counting_merge)
        return counts

    def test_a_cold_pool_matrix_within_the_bound_is_one_call_and_one_merge(self, monkeypatch):
        # A 240-scene pool, as the farthest sampling of a whole pool asks for:
        # more missing pairs than the 4,096 a call once took, fewer than
        # the bound.
        _, preds = predicted_pool(n=240, seed=7)
        scenes = sorted(preds.values(), key=lambda s: s.id)
        distinct = len({scene_content(s, DEFAULT_CATALOG, KER) for s in scenes})
        assert 4096 < distinct * (distinct - 1) // 2 <= sampler.PAIRS_PER_CALL
        counts = self.counted(monkeypatch)
        cache = fresh_cache()
        cache.matrix(scenes)
        assert counts == {"calls": 1, "pairs": cache.evaluations, "merges": 1}
        assert cache.evaluations == distinct + distinct * (distinct - 1) // 2
        cache.matrix(scenes)  # all hits: no call and no merge
        assert counts["calls"] == counts["merges"] == 1

    @pytest.mark.parametrize("per_call", [1, 7, 40])
    def test_a_matrix_over_the_bound_makes_one_call_per_bound(self, monkeypatch, per_call):
        scenes = TestArrayStoreMatchesPerPairOracle.scenes(n=12)  # 12 scenes and the twins of 6
        one_call = fresh_cache().matrix(scenes)
        contents = [scene_content(s, DEFAULT_CATALOG, KER) for s in scenes]
        distinct = len(set(contents))
        monkeypatch.setattr(sampler, "PAIRS_PER_CALL", per_call)
        counts = self.counted(monkeypatch)
        cache = fresh_cache()
        sim = cache.matrix(scenes)
        assert counts["calls"] == math.ceil(distinct * (distinct - 1) // 2 / per_call)
        assert counts["merges"] == 1
        assert (sim == one_call).all()
        assert cache.evaluations == distinct + distinct * (distinct - 1) // 2

    @staticmethod
    def tiny_gamma_scenes():
        """Scenes whose self-kernels at gamma = 3e-77 multiply to a normal
        float, except between the scenes of many classes ("mixed")."""

        def scene(sid, specs):
            return scene_of(sid, tuple(ScoredDetection(label, 0.9, make_box(x, y)) for label, x, y in specs))

        def mixed(sid, shift):
            return scene(sid, [("car", 4.0 + shift, 1.0), ("pedestrian", 8.0, -2.0), ("cyclist", -6.0, 3.0 + shift), ("car", 10.0, 10.0)])

        cars = [scene(f"cars{k}", [("car", 5.0 * i + k, 3.0) for i in range(1, 7)]) for k in range(2)]
        return [cars[0], mixed("mixed0", 0.0), cars[1], mixed("mixed1", 1.0), mixed("mixed2", 2.0)]

    @pytest.mark.parametrize("per_call", [sampler.PAIRS_PER_CALL, 5, 2, 1])
    def test_a_tiny_gamma_names_the_same_pair_at_every_bound(self, monkeypatch, per_call):
        monkeypatch.setattr(sampler, "PAIRS_PER_CALL", per_call)
        config = KernelConfig(gamma=3e-77)
        scenes = self.tiny_gamma_scenes()
        # Pairs of the cars scenes, and of a cars scene and a mixed one,
        # are normal: the first pair of mixed scenes in scan order is named.
        with pytest.raises(DataError, match="scenes 'mixed0' and 'mixed1' multiply to"):
            SimilarityCache(DEFAULT_CATALOG, config).matrix(scenes)
        # (mixed1, mixed2) comes first in scan order, (mixed0, mixed1)
        # first in key order.
        cache = SimilarityCache(DEFAULT_CATALOG, config)
        assert cache.pair_similarities(scenes, [(0, 2), (0, 1), (1, 2)])[1] > 0
        with pytest.raises(DataError, match="scenes 'mixed2' and 'mixed1' multiply to"):
            cache.pair_similarities(scenes, [(0, 3), (4, 3), (2, 4), (1, 3)])
