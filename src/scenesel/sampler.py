"""Farthest sampling, the three-stage joint selector, and the round driver.

Stage scoring is pure and parallelizable; stage transitions and state
updates are strictly sequential, with a single writer over the round state.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import AnchorTable, ClassCatalog, DataError, Scene
from .entropy import EntropyConfig, counts_entropy, filtered_class_counts, rank_by_entropy
from .kernel import (
    KernelConfig,
    build_scene_graph,
    marginalized_kernel,  # unused here; bench/spans.py patches this name
    marginalized_kernels,
)
from .state import RoundState
from .uncertainty import UncertaintyConfig, rank_by_uncertainty, scene_uncertainty

log = logging.getLogger(__name__)

STAGE_NAMES = ("entropy", "similarity", "uncertainty")
STRATEGIES = ("random", "entropy-only", "fs-only", "uncertainty-only", "tscenejal")
# The one stage each single-metric strategy runs.
_SINGLE_STAGE = {
    "entropy-only": "entropy",
    "fs-only": "similarity",
    "uncertainty-only": "uncertainty",
}
# Missing pairs ``SimilarityCache.matrix`` collects before it evaluates them
# in one ``marginalized_kernels`` call. Bounds the memory the batch holds.
BLOCK_PAIRS = 1024


@dataclass(frozen=True)
class StagePlan:
    n_r: int
    k1: float = 3.0
    k2: float = 2.5
    order: tuple[str, str, str] = STAGE_NAMES

    def __post_init__(self):
        if self.n_r < 1:
            raise ValueError("n_r must be >= 1")
        if not (self.k1 >= self.k2 >= 1.0):
            raise ValueError(f"need k1 >= k2 >= 1, got k1={self.k1} k2={self.k2}")
        if sorted(self.order) != sorted(STAGE_NAMES):
            raise ValueError(f"order must be a permutation of {STAGE_NAMES}")

    def stage_sizes(self) -> tuple[int, int, int]:
        """Candidate-set sizes after each stage. Fractional multipliers floor."""
        return (math.floor(self.k1 * self.n_r), math.floor(self.k2 * self.n_r), self.n_r)


class SimilarityCache:
    """Normalized graph-kernel similarity between scenes, memoized by scene id.

    The one place scenes become similarities: the cross kernel divided by the
    square root of both self-kernels. Graphs (with the arrays the kernel
    builds from them), self-kernels and pairs are each computed once.
    ``matrix`` (every pair of a list) and ``pair_similarities`` (the pairs
    asked for) make one pass, ``_scan``, over their pairs, and ``_fill``
    evaluates the missing ones BLOCK_PAIRS at a time through the batched
    ``marginalized_kernels``; ``_fill`` is the only code that calls the kernel
    and normalizes. ``evaluations`` counts the kernel values ``_fill`` has
    evaluated, self-kernels included, so the kernel work of any call is the
    growth of ``evaluations`` across it. ``similarity`` is the one-pair call
    of ``matrix``. Assumes a stable id -> scene mapping for the lifetime of
    the cache (true for a fixed pool under a deterministic predictor).
    """

    def __init__(self, catalog: ClassCatalog, config: KernelConfig):
        self.catalog = catalog
        self.config = config
        self._graphs = {}
        self._self_k = {}
        self._pairs = {}
        self.evaluations = 0

    def _graph(self, scene: Scene):
        g = self._graphs.get(scene.id)
        if g is None:
            g = build_scene_graph(scene, self.catalog, self.config)
            self._graphs[scene.id] = g
        return g

    def similarity(self, s1: Scene, s2: Scene) -> float:
        """Similarity in [0, 1]; equal ids short-circuit to exactly 1."""
        return float(self.matrix([s1, s2])[0, 1])

    def matrix(self, scenes: list[Scene]) -> np.ndarray:
        """Symmetric similarity matrix in input order with a unit diagonal."""
        n = len(scenes)
        sim = np.eye(n)
        self._scan(scenes, itertools.combinations(range(n), 2), sim)
        return sim

    def pair_similarities(self, scenes: list[Scene], index_pairs: list[tuple[int, int]]) -> list[float]:
        """Similarity of ``scenes[i]`` and ``scenes[j]`` for each ``(i, j)``, in order."""
        found = {}
        self._scan(scenes, index_pairs, found)
        return [found[p] for p in index_pairs]

    def _scan(self, scenes, index_pairs, out) -> None:
        """Set ``out[i, j]`` and ``out[j, i]`` for each ``(i, j)`` in one pass:
        hits at once, misses through ``_fill`` BLOCK_PAIRS at a time."""
        ids = [s.id for s in scenes]
        pairs = self._pairs
        missing = []
        for i, j in index_pairs:
            a, b = ids[i], ids[j]
            key = (a, b) if a < b else (b, a)
            val = 1.0 if a == b else pairs.get(key)
            if val is None:
                missing.append((i, j, key))
                if len(missing) == BLOCK_PAIRS:
                    self._fill(scenes, missing, out)
                    missing = []
            else:
                out[i, j] = out[j, i] = val
        if missing:
            self._fill(scenes, missing, out)

    def _fill(self, scenes, missing, out) -> None:
        """Evaluate, store and put into ``out`` the missing pairs ``(i, j, key)``."""
        todo = {}  # key -> (i, j); a pool that repeats an id repeats keys
        needs_self = {}  # scene id -> scene
        for i, j, key in missing:
            todo.setdefault(key, (i, j))
            for s in (scenes[i], scenes[j]):
                if s.id not in self._self_k:
                    needs_self[s.id] = s
        selfs = [(self._graph(s), self._graph(s)) for s in needs_self.values()]
        crosses = [(self._graph(scenes[i]), self._graph(scenes[j])) for i, j in todo.values()]
        values = marginalized_kernels(selfs + crosses, self.config)
        self.evaluations += len(values)
        self._self_k.update(zip(needs_self, values))
        for (key, (i, j)), cross in zip(todo.items(), values[len(selfs) :]):
            self._pairs[key] = cross / math.sqrt(
                self._self_k[scenes[i].id] * self._self_k[scenes[j].id]
            )
        for i, j, key in missing:
            out[i, j] = out[j, i] = self._pairs[key]


def _argbest(ids: list[str], values, candidates, maximize: bool) -> int:
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


def farthest_sampling(pool_ids: list[str], similarity_matrix, k: int) -> list[str]:
    """Greedy max-min selection of k ids in a [0, 1] similarity space.

    The initial point is the scene least similar to the "hub" (the scene with
    the largest similarity row sum); each later pick maximizes the minimum
    dissimilarity (1 - S) to the already-selected set. All ties break toward
    the ascending id. Output order is selection order.
    """
    n = len(pool_ids)
    if k > n:
        raise ValueError(f"k={k} exceeds pool size {n}")
    if k < 1:
        return []
    sim = np.asarray(similarity_matrix, dtype=float)
    if sim.shape != (n, n):
        raise ValueError("similarity matrix shape mismatch")
    if n == 1:
        return [pool_ids[0]]

    row_sums = sim.sum(axis=1)
    hub = _argbest(pool_ids, row_sums, range(n), maximize=True)
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


def _unchanged(scene: Scene) -> Scene:
    return scene


def _run_stage(stage, scenes, size, anchors, entropy_cfg, uncertainty_cfg, cache, with_mixtures):
    """The ``size`` ids of ``scenes`` that one metric stage keeps, in its order.

    The one stage dispatch: ``three_stage_select`` runs each stage of its plan
    through it, and each single-metric strategy its one stage on the id-sorted
    pool. ``entropy`` counts classes of the cache's catalog; ``similarity`` is
    farthest sampling over the cache's matrix; ``uncertainty`` ranks the
    scenes that ``with_mixtures`` returns, each with its mixtures attached.
    """
    if stage == "entropy":
        return rank_by_entropy(scenes, cache.catalog, entropy_cfg, size)
    if stage == "similarity":
        return farthest_sampling([s.id for s in scenes], cache.matrix(scenes), size)
    if stage == "uncertainty":
        return rank_by_uncertainty([with_mixtures(s) for s in scenes], anchors, uncertainty_cfg, size)
    raise ValueError(f"unknown stage {stage!r}; valid: {', '.join(STAGE_NAMES)}")


@dataclass
class SelectionLog:
    stage_sizes: tuple[int, int, int]
    kernel_evals: int
    entropy_sorts: int
    degraded: bool


def three_stage_select(
    unlabeled_scenes: list[Scene],
    plan: StagePlan,
    anchors: AnchorTable,
    entropy_cfg: EntropyConfig,
    uncertainty_cfg: UncertaintyConfig,
    cache: SimilarityCache,
    with_mixtures: Callable[[Scene], Scene] = _unchanged,
) -> tuple[list[str], SelectionLog]:
    """Run the three metric stages in the configured order.

    Stage target sizes are floor(k1*n_r), floor(k2*n_r), n_r regardless of
    which metric runs at which position. If the pool is smaller than the
    first stage, the round is degraded: the multipliers shrink
    proportionally so stage 1 consumes the whole pool, with a warning and
    ``SelectionLog.degraded`` set. A pool below n_r is an error. Classes are
    those of ``cache.catalog``, and similarities come from ``cache``, under
    its kernel config. The uncertainty stage ranks ``with_mixtures(scene)``
    for each scene it is handed, so scenes may come without mixtures when
    ``with_mixtures`` attaches them; by default the scenes carry their own.
    The log's ``kernel_evals`` is the kernel work of this call: the growth
    of ``cache.evaluations``.
    """
    pool_size = len(unlabeled_scenes)
    sizes = list(plan.stage_sizes())
    degraded = False
    if pool_size < sizes[0]:
        if pool_size < plan.n_r:
            raise ValueError(f"pool of {pool_size} scenes is below n_r={plan.n_r}")
        degraded = True
        sizes[0] = pool_size
        sizes[1] = min(sizes[1], max(plan.n_r, math.floor(plan.k2 * pool_size / plan.k1)))
        log.warning(
            "degraded round: pool %d < floor(k1*n_r)=%d, stage sizes now %s",
            pool_size,
            math.floor(plan.k1 * plan.n_r),
            tuple(sizes),
        )

    evaluated_before = cache.evaluations

    by_id = {s.id: s for s in unlabeled_scenes}
    candidates = sorted(by_id)
    for stage, size in zip(plan.order, sizes):
        scenes = [by_id[i] for i in candidates]
        candidates = _run_stage(
            stage, scenes, size, anchors, entropy_cfg, uncertainty_cfg, cache, with_mixtures
        )
    return list(candidates), SelectionLog(
        stage_sizes=tuple(sizes),
        kernel_evals=cache.evaluations - evaluated_before,
        entropy_sorts=plan.order.count("entropy"),
        degraded=degraded,
    )


@dataclass
class RoundReport:
    round_index: int
    strategy: str
    selected_ids: tuple[str, ...]
    stage_sizes: tuple[int, int, int] | None
    kernel_evals: int
    selection_entropy: float
    mean_pairwise_similarity: float | None
    mean_uncertainty: float | None
    class_counts: dict[str, int]
    object_count: int


def _select_for_strategy(
    strategy: str,
    preds: list[Scene],
    plan: StagePlan,
    anchors: AnchorTable,
    entropy_cfg: EntropyConfig,
    uncertainty_cfg: UncertaintyConfig,
    cache: SimilarityCache,
) -> tuple[list[str], tuple[int, int, int] | None]:
    """The ids a strategy that ranks predictions selects from ``preds``."""
    if strategy == "tscenejal":
        selected, slog = three_stage_select(preds, plan, anchors, entropy_cfg, uncertainty_cfg, cache)
        return selected, slog.stage_sizes
    ordered = sorted(preds, key=lambda s: s.id)
    stage = _SINGLE_STAGE[strategy]
    selected = _run_stage(
        stage, ordered, plan.n_r, anchors, entropy_cfg, uncertainty_cfg, cache, _unchanged
    )
    return selected, None


def run_al_rounds(
    pool: dict[str, Scene],
    plan: StagePlan,
    rounds: int,
    predictor: Callable[[Scene], Scene],
    oracle: Callable[[str], Scene],
    state: RoundState,
    catalog: ClassCatalog,
    anchors: AnchorTable,
    entropy_cfg: EntropyConfig,
    kernel_cfg: KernelConfig,
    uncertainty_cfg: UncertaintyConfig,
    strategy: str = "tscenejal",
    cache: SimilarityCache | None = None,
) -> tuple[RoundState, list[RoundReport]]:
    """Drive ``rounds`` selection rounds, returning the new state and reports.

    Each round selects n_r ids under the chosen strategy, reveals ground
    truth via the oracle, and moves the ids to the labeled set. A round runs
    the predictor on the scenes its strategy reads: every unlabeled scene
    for a strategy that ranks predictions, and for ``random``, which picks
    its ids before any prediction, only the picked scenes, whose
    predictions the round report reads. A round whose unlabeled pool holds
    fewer than n_r scenes is an error, under every strategy, before the
    strategy runs. Deterministic given the state's rng_seed. A predictor
    failure on a scene the round predicts, or an oracle failure, aborts the
    round; a ``random`` round does not predict, and so does not fail on, a
    scene it does not pick. The input state object is never mutated. A
    ``cache`` must have been made for ``catalog`` and ``kernel_cfg``;
    without one, the rounds share a new cache.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; valid: {', '.join(STRATEGIES)}")
    if rounds * plan.n_r > state.budget_left:
        raise ValueError(
            f"budget {state.budget_total} cannot cover {rounds} more rounds of {plan.n_r}"
        )
    if cache is None:
        cache = SimilarityCache(catalog, kernel_cfg)
    elif (cache.catalog, cache.config) != (catalog, kernel_cfg):
        raise ValueError(
            f"cache was made for {cache.catalog} and {cache.config}, "
            f"not {catalog} and {kernel_cfg}"
        )

    reports: list[RoundReport] = []
    for _ in range(rounds):
        round_index = state.round_index + 1
        evaluated_before = cache.evaluations
        unlabeled = [pool[i] for i in sorted(state.unlabeled_ids)]
        if len(unlabeled) < plan.n_r:
            raise ValueError(f"pool of {len(unlabeled)} scenes is below n_r={plan.n_r}")
        if strategy == "random":
            rng = np.random.default_rng(np.random.SeedSequence([state.rng_seed, round_index]))
            picked = rng.choice(len(unlabeled), size=plan.n_r, replace=False)
            selected = [unlabeled[i].id for i in picked]
            selected_preds = [predictor(unlabeled[i]) for i in picked]
            stage_sizes = None
        else:
            preds = [predictor(s) for s in unlabeled]
            selected, stage_sizes = _select_for_strategy(
                strategy, preds, plan, anchors, entropy_cfg, uncertainty_cfg, cache
            )
            pred_by_id = {p.id: p for p in preds}
            selected_preds = [pred_by_id[i] for i in selected]
        for sid in selected:
            oracle(sid)  # ground-truth reveal; the simulated pool already holds it
        reports.append(
            _round_report(
                round_index,
                strategy,
                selected_preds,
                stage_sizes,
                evaluated_before,
                anchors,
                entropy_cfg,
                uncertainty_cfg,
                cache,
            )
        )
        state = state.with_selection(tuple(selected))
    return state, reports


def _round_report(
    round_index: int,
    strategy: str,
    selected_preds: list[Scene],
    stage_sizes,
    evaluated_before: int,
    anchors: AnchorTable,
    entropy_cfg: EntropyConfig,
    uncertainty_cfg: UncertaintyConfig,
    cache: SimilarityCache,
) -> RoundReport:
    """The round's report. Its ``kernel_evals`` is the growth of
    ``cache.evaluations`` since ``evaluated_before``, taken when the round
    began, so it counts the selection's kernel work and the report's."""
    catalog = cache.catalog
    counts = {c: 0 for c in catalog.classes}
    for s in selected_preds:
        for c, n in filtered_class_counts(s, catalog, entropy_cfg).items():
            counts[c] += n

    mean_sim = None
    if len(selected_preds) >= 2:
        sim = cache.matrix(selected_preds)
        mean_sim = float(np.mean(sim[np.triu_indices(len(sim), 1)]))

    try:
        mean_unc = float(
            np.mean([scene_uncertainty(s, anchors, uncertainty_cfg) for s in selected_preds])
        )
    except DataError as exc:
        log.warning("round %d: mean uncertainty omitted: %s", round_index, exc)
        mean_unc = None

    return RoundReport(
        round_index=round_index,
        strategy=strategy,
        selected_ids=tuple(s.id for s in selected_preds),
        stage_sizes=stage_sizes,
        kernel_evals=cache.evaluations - evaluated_before,
        selection_entropy=counts_entropy(counts, entropy_cfg.zeta),
        mean_pairwise_similarity=mean_sim,
        mean_uncertainty=mean_unc,
        class_counts=counts,
        object_count=sum(counts.values()),
    )
