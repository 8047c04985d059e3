"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL verdict line to the terminal, bypassing output capture, so the
full scorecard is visible in any run log.
"""
import itertools
import math
import random
import time

import numpy as np
import pytest

from scenesel.core import (
    DEFAULT_ANCHORS,
    DEFAULT_CATALOG,
    ScoredDetection,
)
from scenesel.diagnostics import category_kl_to_uniform, sample_pair_similarities
from scenesel.entropy import EntropyConfig, category_entropy
from scenesel.kernel import (
    KernelConfig,
    kernel_brute_force,
    marginalized_kernel,
)
from scenesel.kitti import parse_label_file, serialize_label_file
from scenesel import sampler
from scenesel.sampler import (
    SimilarityCache,
    StagePlan,
    farthest_sampling,
    run_al_rounds,
    three_stage_select,
)
from scenesel.state import RoundState, load_round_state, save_round_state
from scenesel.synth import NoiseModel, PoolSpec, generate_pool, make_predictor
from scenesel.uncertainty import UncertaintyConfig

from conftest import make_box, mixture_from_rows, random_scene, scene_of
from test_kernel import random_graph
from test_uncertainty import array_propagation, unit_anchor
from uncertainty_oracle import mixture_au, mixture_eu

ENT = EntropyConfig()
KER = KernelConfig()
UNC = UncertaintyConfig()

# noise model shared by the simulation-based criteria; matches the CLI defaults
SIM_NOISE = NoiseModel(
    confidence_noise=0.5,
    position_noise_per_meter=0.005,
    false_positive_rate=0.3,
    misclass_rate=0.05,
    mixture_components=3,
    mean_spread=0.1,
)


def verdict(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d}: {name}{suffix}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _predicted_pool(n, seed, class_mix=(0.9, 0.05, 0.05), groups=None):
    spec = PoolSpec(n_scenes=n, class_mix=class_mix, redundancy_groups=groups, rng_seed=seed)
    gt = generate_pool(spec, DEFAULT_CATALOG)
    predictor = make_predictor(SIM_NOISE, DEFAULT_ANCHORS, DEFAULT_CATALOG, seed=seed)
    return gt, [predictor(gt[sid]) for sid in sorted(gt)]


def test_01_kernel_oracle_equivalence(capsys):
    rng = random.Random(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        g1, g2 = random_graph(rng, max_nodes=5), random_graph(rng, max_nodes=5)
        fast = marginalized_kernel(g1, g2, KER)
        slow = kernel_brute_force(g1, g2, KER, max_len=40)
        worst = max(worst, abs(fast - slow) / max(abs(slow), 1e-300))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed <= 60.0
    verdict(capsys, 1, "kernel fixed point matches path-sum oracle on 200 random pairs",
            ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_02_kernel_algebra(capsys):
    rng = random.Random(202)
    symmetric = all(
        marginalized_kernel(g1, g2, KER) == marginalized_kernel(g2, g1, KER)
        for g1, g2 in ((random_graph(rng), random_graph(rng)) for _ in range(30))
    )
    scene_rng = random.Random(303)
    min_eig = math.inf
    self_ok = True
    for trial in range(5):
        scenes = [random_scene(scene_rng, f"g{trial}_{i}") for i in range(10)]
        # Each scene next to a same-content copy under another id: the unit
        # diagonal is set, not computed, so self-similarity is read off the
        # (scene, copy) entries, normalized by the matrix's own self-kernels.
        copies = [scene_of(f"{s.id}_copy", s.detections) for s in scenes]
        both = SimilarityCache(DEFAULT_CATALOG, KER).matrix(scenes + copies)
        gram = both[:10, :10]
        min_eig = min(min_eig, float(np.linalg.eigvalsh(gram).min()))
        self_ok = self_ok and all(abs(both[i, 10 + i] - 1.0) <= 1e-9 for i in range(10))
    ok = symmetric and self_ok and min_eig >= -1e-8
    verdict(capsys, 2, "kernel symmetry, unit self-similarity, PSD Gram matrices",
            ok, f"min eigenvalue {min_eig:.2e}")


def test_03_entropy_bounds_and_threshold_behavior(capsys):
    rng = random.Random(404)
    upper = math.log(DEFAULT_CATALOG.num_classes) + DEFAULT_CATALOG.num_classes * ENT.zeta
    in_bounds = all(
        0.0 <= category_entropy(random_scene(rng, f"e{i}", max_objects=6), DEFAULT_CATALOG, ENT) <= upper
        for i in range(10_000)
    )
    noisy = scene_of(
        id="single_car",
        detections=(
            ScoredDetection("car", 0.95, make_box(x=8.0)),
            ScoredDetection("pedestrian", 0.1, make_box(x=-4.0, w=0.6, l=0.8, h=1.7)),
            ScoredDetection("cyclist", 0.05, make_box(y=6.0, w=0.6, l=1.76, h=1.7)),
        ),
    )
    single = category_entropy(noisy, DEFAULT_CATALOG, ENT)
    ok = in_bounds and single <= 1e-9
    verdict(capsys, 3, "entropy bounded on 10^4 scenes; sub-threshold noise scores zero",
            ok, f"single-car entropy {single:.1e}")


def test_04_mixture_moment_identity(capsys):
    rng = np.random.default_rng(505)
    n_draws = 1_000_000
    worst = 0.0
    eu_exact = True
    for i in range(1000):
        k = int(rng.integers(1, 6))
        w = rng.dirichlet(np.ones(k))
        w = w / w.sum()
        means = rng.uniform(-3.0, 3.0, k)
        variances = rng.uniform(0.1, 2.0, k)
        m = mixture_from_rows(tuple(w), tuple(means), tuple(variances))
        expected = mixture_au(m, "x") + mixture_eu(m, "x")
        if k == 1:
            eu_exact = eu_exact and mixture_eu(m, "x") == 0.0
        idx = np.searchsorted(np.cumsum(w), rng.random(n_draws))
        draws = means[idx] + np.sqrt(variances[idx]) * rng.standard_normal(n_draws)
        worst = max(worst, abs(float(draws.var()) - expected) / expected)
    ok = worst <= 0.02 and eu_exact
    verdict(capsys, 4, "Monte-Carlo variance equals AU + EU on 10^3 mixtures",
            ok, f"max rel err {worst:.4f}")


def test_05_propagation_identity(capsys):
    rng = np.random.default_rng(606)
    anchor = unit_anchor()
    means = (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0)  # unit residual means, zero yaw
    worst = 0.0
    for _ in range(200):
        au = tuple(float(v) for v in rng.uniform(0.0, 3.0, 7))
        eu = tuple(float(v) for v in rng.uniform(0.0, 3.0, 7))
        out_au, out_eu = array_propagation(au, eu, means, anchor)
        worst = max(
            worst,
            max(abs(a - b) for a, b in zip(out_au, au)),
            max(abs(a - b) for a, b in zip(out_eu, eu)),
        )
    ok = worst <= 1e-12
    verdict(capsys, 5, "residual propagation is the identity at unit anchors",
            ok, f"max abs err {worst:.1e}")


def _min_pairwise_dissim(sim, subset):
    return min(1.0 - sim[i, j] for i, j in itertools.combinations(subset, 2))


def test_06_farthest_sampling_optimality_ratio(capsys):
    rng = np.random.default_rng(707)
    worst_ratio = math.inf
    for _ in range(50):
        n = int(rng.integers(5, 13))
        k = int(rng.integers(2, 5))
        a = rng.uniform(0.0, 1.0, size=(n, n))
        sim = (a + a.T) / 2.0
        np.fill_diagonal(sim, 1.0)
        ids = [f"s{i:02d}" for i in range(n)]
        picked = [ids.index(s) for s in farthest_sampling(ids, sim, k)]
        achieved = _min_pairwise_dissim(sim, picked)
        optimum = max(
            _min_pairwise_dissim(sim, subset)
            for subset in itertools.combinations(range(n), k)
        )
        if optimum > 0:
            worst_ratio = min(worst_ratio, achieved / optimum)
    ok = worst_ratio >= 0.5
    verdict(capsys, 6, "greedy max-min selection achieves half the subset optimum",
            ok, f"worst ratio {worst_ratio:.3f}")


def test_07_stage_size_contract(capsys):
    ok = True
    details = []
    for n_r in (2, 7, 20):
        _, preds = _predicted_pool(n=3 * n_r + 5, seed=n_r)
        plan = StagePlan(n_r=n_r)
        selected, sizes = three_stage_select(
            preds, plan, DEFAULT_ANCHORS, ENT, UNC,
            SimilarityCache(DEFAULT_CATALOG, KER),
        )
        expected = (math.floor(3 * n_r), math.floor(2.5 * n_r), n_r)
        ok = ok and sizes == expected and len(selected) == n_r
        details.append(f"n_r={n_r}:{sizes}")
    verdict(capsys, 7, "stage sizes are floor(3n), floor(2.5n), n", ok, " ".join(details))


@pytest.fixture(scope="module")
def balance_sim():
    """Ten seeded 1000-scene simulations comparing tscenejal against random."""
    def run_strategy(gt, strategy, seed):
        state = RoundState.fresh(gt, n0=0, budget_total=len(gt), rng_seed=seed)
        predictor = make_predictor(SIM_NOISE, DEFAULT_ANCHORS, DEFAULT_CATALOG, seed=seed)
        state, _ = run_al_rounds(
            gt, StagePlan(n_r=20), 3, predictor, gt.__getitem__, state,
            DEFAULT_CATALOG, DEFAULT_ANCHORS, ENT, KER, UNC, strategy=strategy,
        )
        return [sid for sel in state.per_round_selected for sid in sel]

    def gt_kl(gt, selected):
        counts = {c: 0 for c in DEFAULT_CATALOG.classes}
        for sid in selected:
            for det in gt[sid].detections:
                counts[det.class_label] += 1
        return category_kl_to_uniform(counts, DEFAULT_CATALOG.num_classes)

    def gt_mean_sim(gt, selected, seed):
        scenes = [gt[sid] for sid in sorted(selected)]
        return float(np.mean(
            sample_pair_similarities(scenes, 200, seed, SimilarityCache(DEFAULT_CATALOG, KER))
        ))

    start = time.monotonic()
    results = []
    for seed in range(10):
        spec = PoolSpec(
            n_scenes=1000, class_mix=(0.9, 0.05, 0.05), redundancy_groups=50, rng_seed=seed
        )
        gt = generate_pool(spec, DEFAULT_CATALOG)
        sel_t = run_strategy(gt, "tscenejal", seed)
        sel_r = run_strategy(gt, "random", seed)
        results.append(
            {
                "kl_t": gt_kl(gt, sel_t),
                "kl_r": gt_kl(gt, sel_r),
                "sim_t": gt_mean_sim(gt, sel_t, seed),
                "sim_r": gt_mean_sim(gt, sel_r, seed),
            }
        )
    return results, time.monotonic() - start


def test_08_balance_effect(capsys, balance_sim):
    results, elapsed = balance_sim
    wins = sum(r["kl_t"] < r["kl_r"] for r in results)
    ok = wins >= 8 and elapsed <= 300.0
    verdict(capsys, 8, "selection KL to uniform beats random on a 90/5/5 pool",
            ok, f"{wins}/10 seeds, {elapsed:.0f}s")


def test_09_diversity_effect(capsys, balance_sim):
    results, _ = balance_sim
    wins = sum(r["sim_t"] < r["sim_r"] for r in results)
    ok = wins >= 8
    verdict(capsys, 9, "selection pairwise similarity beats random on a redundant pool",
            ok, f"{wins}/10 seeds")


@pytest.fixture(scope="module")
def strategy_uncertainties():
    """Mean selection uncertainty per strategy over ten seeded 200-scene pools."""
    strategies = ("random", "entropy-only", "fs-only", "uncertainty-only", "tscenejal")
    per_seed = []
    for seed in range(10):
        spec = PoolSpec(
            n_scenes=200, class_mix=(0.9, 0.05, 0.05), redundancy_groups=50, rng_seed=seed
        )
        gt = generate_pool(spec, DEFAULT_CATALOG)
        predictor = make_predictor(SIM_NOISE, DEFAULT_ANCHORS, DEFAULT_CATALOG, seed=seed)
        means = {}
        for strategy in strategies:
            state = RoundState.fresh(gt, n0=0, budget_total=len(gt), rng_seed=seed)
            _, reports = run_al_rounds(
                gt, StagePlan(n_r=10), 2, predictor, gt.__getitem__, state,
                DEFAULT_CATALOG, DEFAULT_ANCHORS, ENT, KER, UNC, strategy=strategy,
            )
            means[strategy] = float(np.mean([r.summary.mean_uncertainty for r in reports]))
        per_seed.append(means)
    return per_seed


def test_10_uncertainty_ordering_across_strategies(capsys, strategy_uncertainties):
    wins = sum(
        all(m["tscenejal"] >= m[s] for s in ("random", "entropy-only", "fs-only"))
        for m in strategy_uncertainties
    )
    ok = wins >= 8
    verdict(capsys, 10, "selection uncertainty dominates non-uncertainty baselines",
            ok, f"{wins}/10 seeds")


def test_11_parser_and_state_fidelity(capsys, tmp_path):
    rng = random.Random(808)
    roundtrips = True
    for i in range(10_000):
        scene = random_scene(rng, f"rt_{i:05d}", max_objects=6)
        label_path = tmp_path / f"{scene.id}.txt"  # the parser takes the id from the stem
        label_path.write_text(serialize_label_file(scene), encoding="utf-8")
        back = parse_label_file(label_path, catalog=DEFAULT_CATALOG)
        label_path.unlink()
        roundtrips = roundtrips and back == scene
    ids = [f"s{i:04d}" for i in range(500)]
    state = RoundState.fresh(ids, n0=0, budget_total=400, rng_seed=3)
    state = state.with_selection(tuple(ids[:200]))
    state = state.with_selection(tuple(ids[200:400]))
    path = tmp_path / "state.json"
    save_round_state(state, path)
    state_ok = load_round_state(path) == state
    ok = roundtrips and state_ok
    verdict(capsys, 11, "label files and round state roundtrip exactly", ok)


def test_12_complexity_contract(capsys, monkeypatch):
    # Entropy sorts are counted where the entropy stage calls the ranking.
    rank = sampler.rank_by_entropy
    sorts = []

    def counting(*args, **kwargs):
        sorts.append(1)
        return rank(*args, **kwargs)

    monkeypatch.setattr(sampler, "rank_by_entropy", counting)
    ok = True
    details = []
    for n_r, pool_n in ((7, 40), (20, 80)):
        _, preds = _predicted_pool(n=pool_n, seed=n_r)
        cache = SimilarityCache(DEFAULT_CATALOG, KER)
        sorts.clear()
        three_stage_select(preds, StagePlan(n_r=n_r), DEFAULT_ANCHORS, ENT, UNC, cache)
        bound = math.floor(3 * n_r) ** 2
        ok = ok and cache.evaluations <= bound and len(sorts) == 1
        details.append(f"n_r={n_r}:{cache.evaluations}<={bound}")
    verdict(capsys, 12, "kernel evaluations bounded by the first-stage size squared",
            ok, " ".join(details))
