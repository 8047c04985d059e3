import dataclasses
import math
import random

import numpy as np
import pytest

from scenesel.core import Box3D, DEFAULT_CATALOG, EGO_LABEL, MIRROR_LABEL, Scene, ScoredDetection
from scenesel import kernel as kernel_module, synth
from scenesel.kernel import (
    BATCH_BYTES,
    DistanceOverflowError,
    KernelConfig,
    SceneGraph,
    build_scene_graph,
    kernel_brute_force,
    marginalized_kernel,
    marginalized_kernels,
)
from scenesel.sampler import BLOCK_PAIRS, SimilarityCache
from conftest import random_scene

CFG = KernelConfig()


def similarity(s1, s2, catalog):
    """Similarity of two scenes through a fresh cache."""
    return SimilarityCache(catalog, CFG).similarity(s1, s2)


def similarity_matrix(scenes, catalog):
    return SimilarityCache(catalog, CFG).matrix(scenes)


def graph_with_labels(rng: random.Random, labels: tuple[str, ...]) -> SceneGraph:
    n = len(labels)
    weights = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            weights[i][j] = weights[j][i] = rng.uniform(0.05, 2.0)
    return SceneGraph(labels=labels, weights=tuple(tuple(r) for r in weights))


def random_graph(rng: random.Random, max_nodes=5, labels=("a", "b", "c")):
    n = rng.randint(2, max_nodes)
    return graph_with_labels(rng, tuple(rng.choice(labels) for _ in range(n)))


def enumerate_paths(g: SceneGraph, max_len: int):
    """Literal recursive path enumeration with probabilities (tiny graphs only)."""
    n = g.num_nodes
    out = [[j for j in range(n) if g.weights[i][j] > 0] for i in range(n)]
    gamma = CFG.gamma
    paths = []

    def extend(path, prob):
        paths.append((tuple(path), prob * gamma))
        if len(path) == max_len:
            return
        i = path[-1]
        for j in out[i]:
            extend(path + [j], prob * (1.0 - gamma) / len(out[i]))

    for v in range(n):
        extend([v], 1.0 / n)
    return paths


def literal_kernel(g1: SceneGraph, g2: SceneGraph, max_len: int) -> float:
    """Sum p(h)p(h')Kz over explicitly enumerated path pairs."""

    def kv(a, b):
        return 0.5 if a == b else 0.0

    def ke(e, ep):
        return math.exp(-abs(e - ep) / (2.0 * CFG.sigma**2))

    total = 0.0
    paths2 = enumerate_paths(g2, max_len)
    for p1, pr1 in enumerate_paths(g1, max_len):
        for p2, pr2 in paths2:
            if len(p1) != len(p2):
                continue
            val = kv(g1.labels[p1[0]], g2.labels[p2[0]])
            if val == 0.0:
                continue
            for s in range(1, len(p1)):
                val *= ke(g1.weights[p1[s - 1]][p1[s]], g2.weights[p2[s - 1]][p2[s]])
                val *= kv(g1.labels[p1[s]], g2.labels[p2[s]])
                if val == 0.0:
                    break
            total += pr1 * pr2 * val
    return total


class TestSceneGraph:
    def test_nonzero_diagonal_rejected(self):
        # The walk has no self-loops; a diagonal weight would add one.
        with pytest.raises(ValueError, match=r"diagonal weight \(0,0\) must be zero"):
            SceneGraph(("a", "b"), ((0.5, 1.0), (1.0, 0.0)))


class TestBuildSceneGraph:
    def test_empty_scene_gives_ego_mirror_unit_edges(self, catalog):
        g = build_scene_graph(Scene("s"), catalog, CFG)
        assert g.labels == (EGO_LABEL, MIRROR_LABEL)
        assert g.weights == ((0.0, 1.0), (1.0, 0.0))

    def test_single_car_distance_five(self, catalog):
        det = ScoredDetection("car", 0.9, Box3D(3, 0, 4, 1.6, 3.9, 1.56, 0.0))
        g = build_scene_graph(Scene("s", (det,)), catalog, CFG)
        assert g.labels == (EGO_LABEL, "car")
        assert g.weights[0][1] == pytest.approx(0.2)
        assert g.weights[1][0] == pytest.approx(0.2)

    def test_identical_centers_clamped(self, catalog):
        box = Box3D(2, 2, 0, 1, 1, 1, 0)
        dets = (ScoredDetection("car", 0.9, box), ScoredDetection("pedestrian", 0.9, box))
        g = build_scene_graph(Scene("s", dets), catalog, CFG)
        assert g.weights[1][2] == pytest.approx(1.0 / CFG.min_dist)

    def test_an_overflowing_distance_is_a_data_error_naming_the_scene(self, catalog):
        # 1e150 m squares to 1e300, a float; 1e200 m does not.
        far = Scene("s", (ScoredDetection("car", 0.9, Box3D(1e150, 0, 0, 1, 1, 1, 0)),))
        assert build_scene_graph(far, catalog, CFG).weights[0][1] == 1e-150
        too_far = Scene("s", (ScoredDetection("car", 0.9, Box3D(1e200, 0, 0, 1, 1, 1, 0)),))
        with pytest.raises(DistanceOverflowError, match="scene 's': the distance from") as info:
            build_scene_graph(too_far, catalog, CFG)
        assert info.value.scene_id == "s"

    def test_threshold_filters_nodes(self, catalog):
        dets = (
            ScoredDetection("car", 0.9, Box3D(1, 0, 0, 1, 1, 1, 0)),
            ScoredDetection("car", 0.1, Box3D(5, 0, 0, 1, 1, 1, 0)),
        )
        g = build_scene_graph(Scene("s", dets), catalog, CFG)
        assert g.num_nodes == 2  # ego + one above-threshold car

    def test_graph_depends_on_the_scene_content_alone(self, catalog):
        # Other ids, sizes, yaws, scores above tau and filtered detections:
        # the same content, so the same graph.
        kept = ScoredDetection("car", 0.9, Box3D(1, 2, 0, 1, 1, 1, 0))
        a = Scene("a", (kept, ScoredDetection("pedestrian", 0.1, Box3D(4, 0, 0, 1, 1, 1, 0))))
        b = Scene("b", (ScoredDetection("car", 0.5, Box3D(1, 2, 0, 2, 3, 1, 1.0)), ScoredDetection("truck", 0.9, kept.box)))
        assert kernel_module.scene_content(a, catalog, CFG) == (("car", 1.0, 2.0, 0.0),)
        assert kernel_module.scene_content(b, catalog, CFG) == kernel_module.scene_content(a, catalog, CFG)
        assert build_scene_graph(b, catalog, CFG) == build_scene_graph(a, catalog, CFG)


class TestMarginalizedKernel:
    def test_matches_brute_force_on_mirror_graph(self, catalog):
        g = build_scene_graph(Scene("s"), catalog, CFG)
        k_it = marginalized_kernel(g, g, CFG)
        k_bf = kernel_brute_force(g, g, CFG, 40)
        assert k_it == pytest.approx(k_bf, abs=1e-8)

    def test_disjoint_labels_zero(self):
        g1 = SceneGraph(("a", "a"), ((0.0, 1.0), (1.0, 0.0)))
        g2 = SceneGraph(("b", "b"), ((0.0, 1.0), (1.0, 0.0)))
        assert marginalized_kernel(g1, g2, CFG) == 0.0
        assert kernel_brute_force(g1, g2, CFG, 10) == 0.0

    def test_symmetry(self):
        rng = random.Random(7)
        for _ in range(10):
            g1, g2 = random_graph(rng), random_graph(rng)
            assert marginalized_kernel(g1, g2, CFG) == pytest.approx(
                marginalized_kernel(g2, g1, CFG), rel=1e-12
            )

    def test_oracle_equivalence_random_graphs(self):
        rng = random.Random(42)
        for _ in range(25):
            g1, g2 = random_graph(rng), random_graph(rng)
            k_it = marginalized_kernel(g1, g2, CFG)
            k_bf = kernel_brute_force(g1, g2, CFG, 40)
            assert k_it == pytest.approx(k_bf, rel=1e-6, abs=1e-12)


class TestSigma:
    # 2 sigma^2, as the edge kernel computes it, is a positive finite float
    # from about 1.6e-162 to 9.4e153 only; outside, every kernel is NaN.
    @pytest.mark.parametrize("sigma", [1e-170, 1e-162, 9.5e153, 1e154, 1e200, math.inf, math.nan, 0.0, -1.0])
    def test_a_sigma_with_no_finite_2_sigma_squared_is_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must make 2 sigma\\^2 a positive finite float"):
            KernelConfig(sigma=sigma)

    # At the smallest sigma, |e - e'| / (2 sigma^2) overflows to inf, and the
    # edge kernel is its limit, 0, with no warning.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma", [1.6e-162, 9.4e153])
    def test_the_extreme_sigmas_give_finite_kernels(self, catalog, sigma):
        rng = random.Random(61)
        graphs = [build_scene_graph(random_scene(rng, f"s{i}"), catalog, CFG) for i in range(4)]
        pairs = [(g1, g2) for g1 in graphs for g2 in graphs]
        assert all(math.isfinite(v) for v in marginalized_kernels(pairs, KernelConfig(sigma=sigma)))


class TestStepCount:
    """Every kernel is its path-pair series summed to the lengths
    0..``KernelConfig.steps``, whatever the pair."""

    @staticmethod
    def rho_q(config):
        return (1.0 - config.gamma) ** 2 / 2.0, config.gamma**2

    def test_default_is_16(self):
        assert CFG.steps == 16

    @pytest.mark.parametrize(
        "config", [CFG, KernelConfig(tol=1e-3), KernelConfig(gamma=0.5, sigma=0.5), KernelConfig(gamma=0.02, tol=1e-12)],
        ids=["default", "tol 1e-3", "gamma 0.5", "gamma 0.02"],
    )
    def test_the_kernel_is_the_series_to_steps(self, config):
        rng = random.Random(73)
        assert config.steps + 1 <= 40  # the brute force's length cap
        for _ in range(30):
            g1, g2 = random_graph(rng), random_graph(rng)
            assert marginalized_kernel(g1, g2, config) == pytest.approx(
                kernel_brute_force(g1, g2, config, config.steps + 1), rel=1e-13, abs=0.0
            )

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
    def test_a_tol_of_the_length_0_term_takes_no_step(self, gamma):
        rho, q = self.rho_q(KernelConfig(gamma=gamma))
        for tol in (q / (1.0 - rho), 10 * q / (1.0 - rho), math.inf):
            config = KernelConfig(gamma=gamma, tol=tol)
            assert config.steps == 0
            rng = random.Random(79)
            g1, g2 = random_graph(rng), random_graph(rng)
            assert marginalized_kernel(g1, g2, config) == pytest.approx(
                kernel_brute_force(g1, g2, config, 1), rel=1e-13, abs=0.0
            )
        assert KernelConfig(gamma=gamma, tol=0.999 * q / (1.0 - rho)).steps == 1

    def test_each_step_count_meets_its_bound(self):
        # K is the least step count whose left-out terms q rho^(K+1) / (1 - rho)
        # stay within rho tol.
        for gamma in (0.01, 0.1, 0.3, 0.7):
            for tol in (1e-4, 1e-8, 1e-12):
                config = KernelConfig(gamma=gamma, tol=tol)
                rho, q = self.rho_q(config)
                k = config.steps
                assert q * rho**k / (1.0 - rho) <= tol * (1 + 1e-12)
                assert k == 0 or q * rho ** (k - 1) / (1.0 - rho) > tol

    def test_a_gamma_near_0_with_a_tiny_tol_is_finite(self):
        config = KernelConfig(gamma=1e-12, tol=1e-300)
        assert 900 < config.steps < 1000
        g = SceneGraph(("a", "a"), ((0.0, 1.0), (1.0, 0.0)))
        assert 0.0 < marginalized_kernel(g, g, config) < math.inf
        # gamma^2 underflows: every term is below any tol.
        assert KernelConfig(gamma=5e-324, tol=1e-300).steps == 0


class TestCauchySchwarz:
    """A cross kernel and its two self-kernels are one truncated series of a
    positive semidefinite kernel, so cross <= sqrt(self_a self_b) with no
    clamp, up to rounding."""

    @pytest.mark.parametrize("objects", [(2, 6), (8, 20)], ids=["2-6 objects", "8-20 objects"])
    def test_raw_cross_kernels_obey_cauchy_schwarz(self, catalog, objects):
        spec = synth.PoolSpec(
            n_scenes=36, class_mix=(0.6, 0.3, 0.1), objects_min=objects[0], objects_max=objects[1],
            redundancy_groups=12, rng_seed=5,
        )
        scenes = list(synth.generate_pool(spec, catalog).values())
        # Near copies put the bound at its tightest.
        for i, s in enumerate(scenes[:12]):
            d = s.detections[0]
            moved = dataclasses.replace(d, box=dataclasses.replace(d.box, x=d.box.x + 1e-9))
            scenes.append(Scene(f"copy{i}", (moved, *s.detections[1:])))
        graphs = [build_scene_graph(s, catalog, CFG) for s in scenes]
        selfs = marginalized_kernels([(g, g) for g in graphs], CFG)
        index_pairs = [(i, j) for i in range(len(graphs)) for j in range(i + 1, len(graphs))]
        crosses = marginalized_kernels([(graphs[i], graphs[j]) for i, j in index_pairs], CFG)
        eps = np.finfo(float).eps
        worst = max(cross / math.sqrt(selfs[i] * selfs[j]) for (i, j), cross in zip(index_pairs, crosses))
        assert worst <= 1 + 4 * eps
        assert worst > 1 - 1e-6  # the near copies reach the bound


def canonical(g1: SceneGraph, g2: SceneGraph) -> tuple[SceneGraph, SceneGraph]:
    return (g2, g1) if (g2.labels, g2.weights) < (g1.labels, g1.weights) else (g1, g2)


def per_pair_reference(g1: SceneGraph, g2: SceneGraph, config=CFG) -> float:
    """A plain one-pair fixed point of ``config.steps`` steps on the live
    (label-matched) product nodes, in the engine's elementwise order: the
    engine must reproduce its floats exactly."""
    g1, g2 = canonical(g1, g2)
    n1, n2 = g1.num_nodes, g2.num_nodes
    live = np.flatnonzero(np.array(g1.labels)[:, None] == np.array(g2.labels)[None, :])
    if live.size == 0:
        return 0.0
    i, j = live // n2, live % n2
    w1, w2 = np.asarray(g1.weights), np.asarray(g2.weights)
    m = w1[np.ix_(i, i)] - w2[np.ix_(j, j)]
    m = np.exp(np.abs(m) / -(2.0 * config.sigma**2))
    m = m * (((1.0 - config.gamma) / (n1 - 1)) * ((1.0 - config.gamma) / (n2 - 1)))
    m = m * ((i[:, None] != i[None, :]) & (j[:, None] != j[None, :]))
    m = m * 0.5
    q = np.full(live.size, config.gamma**2)
    r = q.copy()
    for _ in range(config.steps):
        r = q + m @ r
    return float(1.0 / (n1 * n2) * (np.full(live.size, 0.5) @ r))


def full_product_reference(g1: SceneGraph, g2: SceneGraph, config=CFG) -> float:
    """The fixed point on every product node, label-matched or not, as the
    one-pair solver before the live-node engine computed it, for the same
    ``config.steps`` steps. Dropping the unmatched nodes is exact, but the
    sums run in another order, so the two agree to rounding, not to the
    bit."""
    g1, g2 = canonical(g1, g2)
    kv = 0.5 * (np.array(g1.labels, dtype=object)[:, None] == np.array(g2.labels, dtype=object)[None, :]).astype(float)
    if not kv.any():
        return 0.0

    def transition(w):
        adj = w > 0
        t = np.zeros_like(w)
        t[adj] = 1.0
        return (1.0 - config.gamma) * t / adj.sum(axis=1)[:, None]

    n1, n2 = g1.num_nodes, g2.num_nodes
    w1, w2 = np.asarray(g1.weights), np.asarray(g2.weights)
    t1, t2 = transition(w1), transition(w2)
    ke = np.exp(-np.abs(w1[:, None, :, None] - w2[None, :, None, :]) / (2.0 * config.sigma**2))
    m = (t1[:, None, :, None] * t2[None, :, None, :] * ke * kv[None, None, :, :]).reshape(n1 * n2, n1 * n2)
    q = np.full(n1 * n2, config.gamma**2)
    r = q.copy()
    for _ in range(config.steps):
        r = q + m @ r
    return float(1.0 / (n1 * n2) * (kv.reshape(-1) @ r))


def live_count(g1: SceneGraph, g2: SceneGraph) -> int:
    return sum(a == b for a in g1.labels for b in g2.labels)


@pytest.fixture
def batch_sizes(monkeypatch):
    """The pair count of every stacked solve the engine makes."""
    sizes = []
    solve = kernel_module._solve_live

    def counted(m, n1, n2, config):
        sizes.append(len(m))
        return solve(m, n1, n2, config)

    monkeypatch.setattr(kernel_module, "_solve_live", counted)
    return sizes


class TestBatchedEngine:
    """``marginalized_kernels`` returns, with ``==``, the floats of one-pair calls."""

    @staticmethod
    def assert_same_as_single(pairs):
        batched = marginalized_kernels(pairs, CFG)
        assert batched == [marginalized_kernel(g1, g2, CFG) for g1, g2 in pairs]
        return batched

    def test_mixed_sizes_2_to_21_nodes(self):
        rng = random.Random(41)
        graphs = [random_graph(rng, max_nodes=21) for _ in range(12)]
        graphs += [random_graph(rng, max_nodes=3) for _ in range(12)]
        pairs = [(rng.choice(graphs), rng.choice(graphs)) for _ in range(60)]
        assert {g.num_nodes for pair in pairs for g in pair} >= {2, 3}
        assert max(g.num_nodes for pair in pairs for g in pair) >= 15
        batched = self.assert_same_as_single(pairs)
        assert batched == [per_pair_reference(g1, g2) for g1, g2 in pairs]
        full = [full_product_reference(g1, g2) for g1, g2 in pairs]
        assert batched == pytest.approx(full, rel=1e-6, abs=0.0)

    def test_swapped_order_and_self_pairs(self):
        rng = random.Random(43)
        graphs = [random_graph(rng, max_nodes=6) for _ in range(8)]
        pairs = [(a, b) for a in graphs for b in graphs]  # both orders, and (g, g)
        batched = self.assert_same_as_single(pairs)
        by_pair = dict(zip(((id(a), id(b)) for a, b in pairs), batched))
        assert all(by_pair[id(a), id(b)] == by_pair[id(b), id(a)] for a, b in pairs)
        assert all(by_pair[id(g), id(g)] > 0 for g in graphs)
        assert batched == [per_pair_reference(g1, g2) for g1, g2 in pairs]
        full = [full_product_reference(g1, g2) for g1, g2 in pairs]
        assert batched == pytest.approx(full, rel=1e-6, abs=0.0)

    def test_all_zero_node_kernel_pairs(self, batch_sizes):
        rng = random.Random(47)
        only_a = [random_graph(rng, labels=("a",)) for _ in range(4)]
        only_b = [random_graph(rng, labels=("b",)) for _ in range(4)]
        pairs = [(a, b) for a in only_a for b in only_b] + [(only_a[0], only_a[1])]
        batched = marginalized_kernels(pairs, CFG)
        assert batched[:-1] == [0.0] * 16
        assert batched[-1] > 0
        assert batch_sizes == [1]  # the pairs with no live node are not iterated
        assert batched == [marginalized_kernel(g1, g2, CFG) for g1, g2 in pairs]

    def test_more_pairs_than_one_stacked_batch(self, batch_sizes):
        # Every graph has 5 nodes labeled a, a, a, b, b in some order, so
        # every pair has the live count 3*3 + 2*2 = 13, and the pairs fill
        # one live-count group of more than three stacked batches.
        rng = random.Random(53)
        graphs = []
        for _ in range(30):
            labels = ["a", "a", "a", "b", "b"]
            rng.shuffle(labels)
            graphs.append(graph_with_labels(rng, tuple(labels)))
        per_batch = BATCH_BYTES // (8 * 13**2)
        pairs = [(rng.choice(graphs), rng.choice(graphs)) for _ in range(3 * per_batch + 1)]
        assert {live_count(g1, g2) for g1, g2 in pairs} == {13}
        batched = marginalized_kernels(pairs, CFG)
        assert batch_sizes == [per_batch] * 3 + [1]
        assert batched == [marginalized_kernel(g1, g2, CFG) for g1, g2 in pairs]
        assert batched == [per_pair_reference(g1, g2) for g1, g2 in pairs]

    def test_same_float_alone_and_among_other_sizes_of_its_live_count(self, batch_sizes):
        # A live-count group holds pairs of different graph sizes; a pair's
        # value must not depend on which of them share its stacked solve.
        rng = random.Random(67)
        graphs = [random_graph(rng, max_nodes=7, labels=("a", "b", "c", "d")) for _ in range(40)]
        pairs = [(g1, g2) for g1 in graphs for g2 in graphs if live_count(g1, g2) == 6]
        assert len({(g1.num_nodes, g2.num_nodes) for g1, g2 in pairs}) >= 5
        batched = marginalized_kernels(pairs, CFG)
        assert batch_sizes == [len(pairs)]  # one stacked solve
        assert batched == [marginalized_kernel(g1, g2, CFG) for g1, g2 in pairs]
        assert batched == [per_pair_reference(g1, g2) for g1, g2 in pairs]

    def test_ego_times_ego_only_live_node(self):
        # The one live node has no live successor (the walk would have to
        # stay on the ego node of both graphs), so R_L = q and the kernel is
        # the start probability times kv * gamma^2.
        rng = random.Random(71)
        cases = [
            (("ego", "car"), ("ego", "pedestrian")),
            (("ego", "car", "car", "car"), ("ego", "pedestrian", "cyclist")),
        ]
        for labels1, labels2 in cases:
            g1, g2 = graph_with_labels(rng, labels1), graph_with_labels(rng, labels2)
            assert live_count(g1, g2) == 1
            n1, n2 = g1.num_nodes, g2.num_nodes
            expected = 1.0 / (n1 * n2) * (0.5 * CFG.gamma**2)
            assert marginalized_kernel(g1, g2, CFG) == expected
            assert marginalized_kernel(g2, g1, CFG) == expected
            assert per_pair_reference(g1, g2) == expected
            assert full_product_reference(g1, g2) == pytest.approx(expected, rel=1e-6)
            assert kernel_brute_force(g1, g2, CFG, 40) == pytest.approx(expected, rel=1e-12)

    def test_matrix_over_more_than_one_block(self, catalog):
        rng = random.Random(59)
        n = math.isqrt(2 * BLOCK_PAIRS) + 8
        scenes = [random_scene(rng, f"s{i:03d}", max_objects=5) for i in range(n)]
        contents = [kernel_module.scene_content(s, catalog, CFG) for s in scenes]
        # The pairs of different content are the ones the matrix evaluates.
        assert sum(contents[i] != contents[j] for i in range(n) for j in range(i + 1, n)) > BLOCK_PAIRS
        cache = SimilarityCache(catalog, CFG)
        sim = cache.matrix(scenes)
        # Scenes of equal content (here those with no detection above tau)
        # share their values.
        distinct = len(set(contents))
        assert distinct < n
        assert cache.evaluations == distinct + distinct * (distinct - 1) // 2
        cache = SimilarityCache(catalog, CFG)
        for i in range(n):
            for j in range(i + 1, n):
                assert sim[i, j] == sim[j, i] == cache.similarity(scenes[i], scenes[j])


class TestBruteForce:
    def test_literal_enumeration_crosscheck(self):
        rng = random.Random(3)
        for _ in range(5):
            g1 = random_graph(rng, max_nodes=3)
            g2 = random_graph(rng, max_nodes=3)
            for max_len in (1, 2, 4):
                assert kernel_brute_force(g1, g2, CFG, max_len) == pytest.approx(
                    literal_kernel(g1, g2, max_len), rel=1e-12, abs=1e-15
                )

    def test_length_one_closed_form(self):
        rng = random.Random(5)
        g1, g2 = random_graph(rng), random_graph(rng)
        expected = 0.0
        for a in g1.labels:
            for b in g2.labels:
                if a == b:
                    expected += (
                        (1.0 / g1.num_nodes) * (1.0 / g2.num_nodes) * CFG.gamma**2 * 0.5
                    )
        assert kernel_brute_force(g1, g2, CFG, 1) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_max_len(self):
        rng = random.Random(11)
        g1, g2 = random_graph(rng), random_graph(rng)
        values = [kernel_brute_force(g1, g2, CFG, L) for L in (1, 2, 5, 10, 20, 40)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_size_bounds_enforced(self):
        rng = random.Random(1)
        g = random_graph(rng)
        with pytest.raises(ValueError):
            kernel_brute_force(g, g, CFG, 41)


class TestSimilarity:
    def test_self_similarity_one(self, catalog):
        # A same-content copy under another id: equal ids would short-circuit
        # to 1.0 without evaluating the kernel.
        rng = random.Random(13)
        for i in range(5):
            s = random_scene(rng, f"s{i}")
            copy = Scene(f"copy{i}", s.detections)
            assert similarity(s, copy, catalog) == pytest.approx(1.0, abs=1e-9)

    def test_rigid_rotation_invariance(self, catalog):
        # Rotation about the sensor origin preserves every pairwise distance
        # including distances to the ego node, so similarity stays 1.
        rng = random.Random(17)
        s = random_scene(rng, "s", max_objects=4)
        angle = 0.7
        c, si = math.cos(angle), math.sin(angle)
        rotated = tuple(
            ScoredDetection(
                d.class_label,
                d.confidence,
                Box3D(
                    x=c * d.box.x - si * d.box.y,
                    y=si * d.box.x + c * d.box.y,
                    z=d.box.z,
                    w=d.box.w,
                    l=d.box.l,
                    h=d.box.h,
                    theta=d.box.theta,
                ),
            )
            for d in s.detections
        )
        assert similarity(s, Scene("r", rotated), catalog) == pytest.approx(1.0, abs=1e-6)

    def test_shared_structure_beats_disjoint_classes(self, catalog):
        cars = Scene(
            "cars",
            (
                ScoredDetection("car", 0.9, Box3D(5, 0, 0, 1.6, 3.9, 1.56, 0)),
                ScoredDetection("car", 0.9, Box3D(0, 8, 0, 1.6, 3.9, 1.56, 0)),
            ),
        )
        cars2 = Scene(
            "cars2",
            (
                ScoredDetection("car", 0.9, Box3D(6, 0, 0, 1.6, 3.9, 1.56, 0)),
                ScoredDetection("car", 0.9, Box3D(0, 7, 0, 1.6, 3.9, 1.56, 0)),
            ),
        )
        peds = Scene(
            "peds",
            (
                ScoredDetection("pedestrian", 0.9, Box3D(5, 0, 0, 0.6, 0.8, 1.7, 0)),
                ScoredDetection("pedestrian", 0.9, Box3D(0, 8, 0, 0.6, 0.8, 1.7, 0)),
            ),
        )
        assert similarity(cars, peds, catalog) < similarity(cars, cars2, catalog)

    def test_label_sensitivity(self, catalog):
        # Relabeling one node to a class the other graph lacks never raises
        # similarity.
        base = Scene(
            "b",
            (
                ScoredDetection("car", 0.9, Box3D(5, 0, 0, 1.6, 3.9, 1.56, 0)),
                ScoredDetection("car", 0.9, Box3D(0, 8, 0, 1.6, 3.9, 1.56, 0)),
            ),
        )
        other = Scene(
            "o",
            (ScoredDetection("car", 0.9, Box3D(4, 1, 0, 1.6, 3.9, 1.56, 0)),),
        )
        relabeled = Scene(
            "rl",
            (
                ScoredDetection("cyclist", 0.9, Box3D(5, 0, 0, 1.6, 3.9, 1.56, 0)),
                base.detections[1],
            ),
        )
        assert similarity(relabeled, other, DEFAULT_CATALOG) <= similarity(
            base, other, DEFAULT_CATALOG
        ) + 1e-12


class TestNormalizationReference:
    """``SimilarityCache`` against the normalization written out from
    ``scenesel.kernel``: cross kernel over the root of both self-kernels."""

    def test_similarity_and_matrix_equal_the_reference(self, catalog):
        rng = random.Random(37)
        scenes = [random_scene(rng, f"s{i}") for i in range(7)]
        graphs = [build_scene_graph(s, catalog, CFG) for s in scenes]

        def reference(i, j):
            g1, g2 = graphs[i], graphs[j]
            cross = marginalized_kernel(g1, g2, CFG)
            return cross / math.sqrt(marginalized_kernel(g1, g1, CFG) * marginalized_kernel(g2, g2, CFG))

        cache = SimilarityCache(catalog, CFG)
        # Misses one pair at a time, a matrix that mixes those hits with
        # misses, a hit and a miss one pair at a time, and a matrix with one
        # hit beside two misses.
        for i, j in [(0, 1), (4, 2), (1, 3)]:
            assert cache.similarity(scenes[i], scenes[j]) == reference(i, j)
        sim = cache.matrix(scenes[:5])
        for i in range(5):
            for j in range(i + 1, 5):
                assert sim[i, j] == sim[j, i] == reference(i, j)
        assert cache.similarity(scenes[3], scenes[0]) == reference(0, 3)
        assert cache.similarity(scenes[6], scenes[2]) == reference(2, 6)
        sim = cache.matrix([scenes[6], scenes[5], scenes[2]])
        assert sim[0, 1] == reference(5, 6)
        assert sim[0, 2] == reference(2, 6)
        assert sim[1, 2] == reference(2, 5)

    def test_pair_similarities_equal_the_reference(self, catalog):
        rng = random.Random(41)
        scenes = [random_scene(rng, f"s{i}") for i in range(6)]
        graphs = [build_scene_graph(s, catalog, CFG) for s in scenes]

        def reference(i, j):
            g1, g2 = graphs[i], graphs[j]
            cross = marginalized_kernel(g1, g2, CFG)
            return cross / math.sqrt(marginalized_kernel(g1, g1, CFG) * marginalized_kernel(g2, g2, CFG))

        cache = SimilarityCache(catalog, CFG)
        cache.similarity(scenes[0], scenes[1])
        # A hit, misses in both argument orders, a repeated pair and a self pair.
        index_pairs = [(1, 0), (2, 5), (5, 2), (3, 4), (2, 5), (4, 4), (0, 3)]
        values = cache.pair_similarities(scenes, index_pairs)
        assert values == [1.0 if i == j else reference(min(i, j), max(i, j)) for i, j in index_pairs]


class TestPairwiseMatrix:
    def test_single_scene(self, catalog):
        rng = random.Random(19)
        sim = similarity_matrix([random_scene(rng, "s")], catalog)
        assert sim.shape == (1, 1)
        assert sim[0, 0] == 1.0

    def test_exact_symmetry_and_unit_diagonal(self, catalog):
        rng = random.Random(23)
        scenes = [random_scene(rng, f"s{i}") for i in range(5)]
        sim = similarity_matrix(scenes, catalog)
        assert np.array_equal(sim, sim.T)
        assert np.allclose(np.diag(sim), 1.0)

    def test_gram_matrix_psd(self, catalog):
        rng = random.Random(29)
        scenes = [random_scene(rng, f"s{i}") for i in range(5)]
        sim = similarity_matrix(scenes, catalog)
        assert np.linalg.eigvalsh(sim).min() >= -1e-8

    def test_counter_counts_each_pair_once(self, catalog):
        rng = random.Random(31)
        scenes = [random_scene(rng, f"s{i}") for i in range(4)]
        cache = SimilarityCache(catalog, CFG)
        cache.matrix(scenes)
        # self-kernels + unordered pairs, of the distinct contents
        distinct = len({kernel_module.scene_content(s, catalog, CFG) for s in scenes})
        assert distinct == 2
        assert cache.evaluations == 2 + 1
