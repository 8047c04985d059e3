"""Farthest sampling, the three-stage joint selector, and the round driver.

Stage scoring is pure and parallelizable; stage transitions and state
updates are strictly sequential, with a single writer over the round state.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .core import AnchorTable, ClassCatalog, DataError, ParseError, Scene, read_text, write_text_atomic
from .entropy import EntropyConfig, counts_entropy, filtered_class_counts, rank_by_entropy
from .kernel import (
    KernelConfig,
    build_scene_graph,
    marginalized_kernel,  # unused here; bench/spans.py patches this name
    marginalized_kernels,
    scene_content,
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
# Every pair takes the same ``KernelConfig.steps`` steps, so a larger block
# fills larger stacked solves at no cost in steps: the cold 240-scene matrix
# of the benchmark's ``fs_pool`` workload (seed 1) makes 8 calls and 371
# stacked solves at 4096, against 29 and 788 at 1024.
BLOCK_PAIRS = 4096
# The layout of a similarity cache file and the floats of the kernel it
# stores. It is part of the file's fingerprint: bump it when either changes,
# and a file of the old format is replaced, not read. 2: every kernel is the
# series of ``KernelConfig.steps`` steps, not stopped per pair at tol.
CACHE_FORMAT = 2


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
    """Normalized graph-kernel similarity between scenes, memoized by content.

    The one place scenes become similarities: the cross kernel divided by the
    square root of both self-kernels. A scene's key is its
    ``kernel.scene_content``, all that its graph is built from, interned to an
    int once per scan. So a scene whose predictions change gets a new key,
    scenes of equal content share one key (and are exactly 1 apart), and a
    hit builds no graph. Graphs (with the arrays the kernel builds from
    them), self-kernels and pairs are each computed once per key; the cache
    holds no scene. ``matrix`` (every pair of a list) and
    ``pair_similarities`` (the pairs asked for) make one pass, ``_scan``,
    over their pairs, and ``_fill`` evaluates the missing ones BLOCK_PAIRS
    at a time through the batched ``marginalized_kernels``; ``_fill`` is the
    only code that calls the kernel and normalizes. ``evaluations`` counts
    the kernel values ``_fill`` has evaluated, self-kernels included, so the
    kernel work of any call is the growth of ``evaluations`` across it.
    ``similarity`` is the one-pair call of ``matrix``.

    ``load`` and ``save`` keep the kernel values across processes in one
    JSON file, keyed by a digest of each scene's content and stamped with
    ``fingerprint``. After ``load``, ``_fill`` takes each kernel value the
    file holds from it instead of evaluating it, and ``reused`` counts the
    values so taken: ``evaluations + reused`` is what a cache without the
    file would have evaluated.
    """

    def __init__(self, catalog: ClassCatalog, config: KernelConfig):
        self.catalog = catalog
        self.config = config
        self._keys = {}  # scene content -> key
        self._contents = []  # key -> scene content
        self._graphs = {}
        self._self_k = {}
        self._pairs = {}
        self.evaluations = 0
        self.reused = 0
        # After ``load``: the file's kernel values and those evaluated since,
        # self-kernels by content digest and cross kernels by digest pair.
        self._stored = None
        self._digests = {}  # key -> content digest, made when first needed

    @property
    def fingerprint(self) -> str:
        """Digest of what a stored kernel value depends on besides the two
        contents: the kernel config, the catalog and CACHE_FORMAT."""
        doc = {"format": CACHE_FORMAT, "kernel": asdict(self.config), "catalog": list(self.catalog.classes)}
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()

    def load(self, path: str | Path) -> None:
        """Take the kernel values of the cache file ``path``, and keep every
        value evaluated from now on for ``save``; for a new cache only.

        A missing file holds no value. A file of another ``fingerprint`` is
        not read: a warning names it, and ``save`` replaces it. A file that
        is not UTF-8 JSON, not an object, or holds a value that is not a
        kernel value (a number in [0, 1], above 0 for a self-kernel) is a
        ``DataError`` naming it.
        """
        if self._keys or self._stored is not None:
            raise ValueError("load needs a new cache")
        self._stored = _read_cache_file(Path(path), self.fingerprint)

    def save(self, path: str | Path, dropped: list[Scene]) -> None:
        """Write the values ``load`` took and those evaluated since to the
        cache file ``path``, atomically, less every value that involves the
        content of a scene in ``dropped``."""
        if self._stored is None:
            raise ValueError("save needs a cache that was loaded")
        drop = {_content_digest(scene_content(s, self.catalog, self.config)) for s in dropped}
        selfs, crosses = self._stored
        pairs = {}
        for (a, b), value in sorted(crosses.items()):
            if a not in drop and b not in drop:
                pairs.setdefault(a, {})[b] = value
        doc = {
            "fingerprint": self.fingerprint,
            "scenes": {d: value for d, value in sorted(selfs.items()) if d not in drop},
            "pairs": pairs,
        }
        write_text_atomic(path, json.dumps(doc))

    def _key(self, scene: Scene) -> int:
        content = scene_content(scene, self.catalog, self.config)
        key = self._keys.get(content)
        if key is None:
            key = self._keys[content] = len(self._contents)
            self._contents.append(content)
        return key

    def _digest(self, key: int) -> str:
        digest = self._digests.get(key)
        if digest is None:
            digest = self._digests[key] = _content_digest(self._contents[key])
        return digest

    def _digest_pair(self, pair: tuple[int, int]) -> tuple[str, str]:
        a, b = self._digest(pair[0]), self._digest(pair[1])
        return (a, b) if a < b else (b, a)

    def _graph(self, key: int, scene: Scene):
        g = self._graphs.get(key)
        if g is None:
            g = self._graphs[key] = build_scene_graph(scene, self.catalog, self.config)
        return g

    def similarity(self, s1: Scene, s2: Scene) -> float:
        """Similarity in [0, 1]; equal contents short-circuit to exactly 1."""
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
        keys = [self._key(s) for s in scenes]
        pairs = self._pairs
        missing = []
        for i, j in index_pairs:
            a, b = keys[i], keys[j]
            key = (a, b) if a < b else (b, a)
            val = 1.0 if a == b else pairs.get(key)
            if val is None:
                missing.append((i, j, key))
                if len(missing) == BLOCK_PAIRS:
                    self._fill(scenes, keys, missing, out)
                    missing = []
            else:
                out[i, j] = out[j, i] = val
        if missing:
            self._fill(scenes, keys, missing, out)

    def _fill(self, scenes, keys, missing, out) -> None:
        """Store and put into ``out`` the missing pairs ``(i, j, key)``, each
        kernel value taken from the loaded file if it holds it, else evaluated."""
        todo = {}  # key -> (i, j); scenes of equal content repeat keys
        needs_self = {}  # key -> index of a scene with that key
        for i, j, key in missing:
            todo.setdefault(key, (i, j))
            for s in (i, j):
                if keys[s] not in self._self_k:
                    needs_self[keys[s]] = s
        crosses = {}
        if self._stored is not None:
            stored_self, stored_cross = self._stored
            for k in list(needs_self):
                value = stored_self.get(self._digest(k))
                if value is not None:
                    self._self_k[k] = value
                    del needs_self[k]
                    self.reused += 1
            for key in todo:
                value = stored_cross.get(self._digest_pair(key))
                if value is not None:
                    crosses[key] = value
            self.reused += len(crosses)
        evaluate = [(key, ij) for key, ij in todo.items() if key not in crosses]
        selfs = [(self._graph(k, scenes[s]),) * 2 for k, s in needs_self.items()]
        pairs = [(self._graph(keys[i], scenes[i]), self._graph(keys[j], scenes[j])) for _, (i, j) in evaluate]
        values = marginalized_kernels(selfs + pairs, self.config)
        self.evaluations += len(values)
        self._self_k.update(zip(needs_self, values))
        crosses.update(zip((key for key, _ in evaluate), values[len(selfs) :]))
        if self._stored is not None:
            stored_self, stored_cross = self._stored
            stored_self.update((self._digest(k), v) for k, v in zip(needs_self, values))
            stored_cross.update((self._digest_pair(key), v) for (key, _), v in zip(evaluate, values[len(selfs) :]))
        for (a, b), cross in crosses.items():
            # A cross kernel and its self-kernels are one truncated series,
            # so only rounding can put a near-copy's similarity above 1.
            self._pairs[(a, b)] = min(cross / math.sqrt(self._self_k[a] * self._self_k[b]), 1.0)
        for i, j, key in missing:
            out[i, j] = out[j, i] = self._pairs[key]


def _content_digest(content) -> str:
    """Hex digest of a ``scene_content``: its labels as JSON, then its
    centers as float64 bytes. ``+ 0.0`` digests -0.0 as 0.0, to which it
    compares equal."""
    digest = hashlib.blake2b(json.dumps([c[0] for c in content]).encode(), digest_size=16)
    digest.update((np.array([c[1:] for c in content], dtype=np.float64).reshape(-1) + 0.0).tobytes())
    return digest.hexdigest()


def _read_cache_file(path: Path, fingerprint: str) -> tuple[dict, dict]:
    """The self-kernels by digest and cross kernels by digest pair of a
    similarity cache file; see ``SimilarityCache.load``."""
    selfs, crosses = {}, {}
    if not path.exists():
        return selfs, crosses
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid similarity cache JSON: {exc}", str(path)) from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: similarity cache is not a JSON object")
    if doc.get("fingerprint") != fingerprint:
        log.warning("%s: made for another kernel config, catalog or format; replacing it", path)
        return selfs, crosses
    try:
        for digest, value in _mapping(doc["scenes"], "scenes").items():
            selfs[digest] = _kernel_value(value, self_kernel=True)
        for a, partners in _mapping(doc["pairs"], "pairs").items():
            for b, value in _mapping(partners, f"pairs of {a}").items():
                if a not in selfs or b not in selfs:
                    raise ValueError(f"pair ({a}, {b}) of a scene with no self-kernel")
                crosses[(a, b) if a < b else (b, a)] = _kernel_value(value, self_kernel=False)
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: invalid similarity cache: {exc}") from exc
    return selfs, crosses


def _mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")
    return value


def _kernel_value(value, self_kernel: bool) -> float:
    """A kernel value read from a cache file. Every kernel lies in [0, 1/2],
    and a self-kernel is positive (the ego nodes match)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"kernel value {value!r} is not a number")
    if not (0 < value <= 1 if self_kernel else 0 <= value <= 1):
        raise ValueError(f"kernel value {value!r} is not in {'(0, 1]' if self_kernel else '[0, 1]'}")
    return float(value)


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
            if strategy == "tscenejal":
                selected, slog = three_stage_select(preds, plan, anchors, entropy_cfg, uncertainty_cfg, cache)
                stage_sizes = slog.stage_sizes
            else:
                selected = _run_stage(
                    _SINGLE_STAGE[strategy], preds, plan.n_r, anchors, entropy_cfg, uncertainty_cfg, cache, _unchanged
                )
                stage_sizes = None
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
    counts = filtered_class_counts(selected_preds, cache.catalog, entropy_cfg)

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
