"""Farthest sampling, the three-stage joint selector, and the round driver.

Stage scoring is pure and parallelizable; stage transitions and state
updates are strictly sequential, with a single writer over the round state.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .core import AnchorTable, ClassCatalog, DataError, ParseError, Scene, read_text, write_text_atomic
from .entropy import EntropyConfig, counts_entropy, filtered_class_counts, rank_by_entropy
from .kernel import (
    KernelConfig,
    build_scene_graph,
    indexed_kernels,
    marginalized_kernel,  # unused here; bench/spans.py patches this name
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
# Distinct missing pairs ``SimilarityCache`` evaluates in one
# ``indexed_kernels`` call. Bounds the memory the batch holds.
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
    holds no scene.

    The pair store is two arrays: a sorted int64 array of pair codes
    ``lo << 32 | hi`` of the pair's two keys, ``lo < hi``, and the float64
    similarities in the same order, 16 bytes a pair; self-kernels are a
    float64 array by key, NaN until known. ``matrix`` (every pair of a list)
    and ``pair_similarities`` (the pairs asked for) make one pass,
    ``_scan``, over their pairs as index arrays: it serves every hit with
    one ``np.searchsorted``, sets the pairs of equal content to 1.0 and
    hands the distinct missing pairs to ``_fill`` in scan order, BLOCK_PAIRS
    at a time. ``_fill`` evaluates a block in one ``indexed_kernels`` call and
    is the only code that calls the kernel and normalizes; self-kernels
    whose product is not a normal float (a tiny ``gamma``) are a
    ``DataError``. ``hits`` and ``misses`` count the pairs asked for that
    were of equal content or in the store when their scan began, and the
    others: a pair asked for twice in one cold call is two misses and one
    evaluation. ``evaluations`` counts the kernel
    values ``_fill`` has evaluated, self-kernels included, so the kernel
    work of any call is the growth of ``evaluations`` across it.
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
        self._self_k = np.empty(0)  # key -> self-kernel, NaN until known
        self._codes = np.empty(0, dtype=np.int64)  # sorted pair codes
        self._values = np.empty(0)  # the similarity of each code
        self.evaluations = 0
        self.reused = 0
        self.hits = 0
        self.misses = 0
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

    def _digest_pair(self, lo: int, hi: int) -> tuple[str, str]:
        a, b = self._digest(lo), self._digest(hi)
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
        first, second = np.triu_indices(n, 1)
        values = self._scan(scenes, first, second)
        sim = np.eye(n)
        sim[first, second] = values
        sim[second, first] = values
        return sim

    def pair_similarities(self, scenes: list[Scene], index_pairs: list[tuple[int, int]]) -> list[float]:
        """Similarity of ``scenes[i]`` and ``scenes[j]`` for each ``(i, j)``, in order."""
        pairs = np.array(index_pairs, dtype=np.intp).reshape(len(index_pairs), 2)
        return self._scan(scenes, pairs[:, 0], pairs[:, 1]).tolist()

    def _scan(self, scenes, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """The similarity of ``scenes[first[p]]`` and ``scenes[second[p]]``
        for each p: hits from the store, misses through ``_fill``."""
        keys = np.fromiter(map(self._key, scenes), dtype=np.int64, count=len(scenes))
        if len(self._contents) > len(self._self_k):
            self._self_k = np.concatenate([self._self_k, np.full(len(self._contents) - len(self._self_k), np.nan)])
        a, b = keys[first], keys[second]
        codes = np.minimum(a, b) << 32 | np.maximum(a, b)
        values, found = self._lookup(codes)
        same = a == b
        values[same] = 1.0
        miss = np.flatnonzero(~(found | same))
        self.hits += len(codes) - len(miss)
        self.misses += len(miss)
        if len(miss):
            # the distinct missing pairs, in scan order
            _, at = np.unique(codes[miss], return_index=True)
            todo = miss[np.sort(at)]
            for lo in range(0, len(todo), BLOCK_PAIRS):
                block = todo[lo : lo + BLOCK_PAIRS]
                self._fill(scenes, keys, first[block], second[block], codes[block])
            values[miss] = self._lookup(codes[miss])[0]
        return values

    def _lookup(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The stored similarity of each pair code, and whether it is stored."""
        values = np.zeros(len(codes))
        if not len(self._codes):
            return values, np.zeros(len(codes), dtype=bool)
        at = np.minimum(np.searchsorted(self._codes, codes), len(self._codes) - 1)
        found = self._codes[at] == codes
        values[found] = self._values[at[found]]
        return values, found

    def _fill(self, scenes, keys, first, second, codes) -> None:
        """Store the similarities of the distinct missing pairs ``codes``,
        of ``scenes[first[p]]`` and ``scenes[second[p]]``, each kernel value
        taken from the loaded file if it holds it, else evaluated."""
        lo, hi = codes >> 32, codes & 0xFFFFFFFF
        # By key: a scene of that key in the block, or -1.
        scene_of = np.full(len(self._contents), -1)
        ends = np.concatenate([first, second])
        scene_of[keys[ends]] = ends
        needs_self = np.flatnonzero((scene_of >= 0) & np.isnan(self._self_k))
        cross = np.zeros(len(codes))
        evaluate = np.ones(len(codes), dtype=bool)
        if self._stored is not None:
            stored_self, stored_cross = self._stored
            for k in needs_self.tolist():
                value = stored_self.get(self._digest(k))
                if value is not None:
                    self._self_k[k] = value
                    self.reused += 1
            needs_self = needs_self[np.isnan(self._self_k[needs_self])]
            for p, pair in enumerate(zip(lo.tolist(), hi.tolist())):
                value = stored_cross.get(self._digest_pair(*pair))
                if value is not None:
                    cross[p] = value
                    evaluate[p] = False
                    self.reused += 1
        # One kernel call over the graphs of the keys it needs: the
        # self-kernels first, then the cross kernels.
        slot = np.full(len(self._contents), -1)
        slot[needs_self] = slot[lo[evaluate]] = slot[hi[evaluate]] = 0
        graph_keys = np.flatnonzero(slot == 0)
        slot[graph_keys] = np.arange(len(graph_keys))
        graphs = [self._graph(k, scenes[s]) for k, s in zip(graph_keys.tolist(), scene_of[graph_keys].tolist())]
        values = indexed_kernels(
            graphs,
            np.concatenate([slot[needs_self], slot[lo[evaluate]]]),
            np.concatenate([slot[needs_self], slot[hi[evaluate]]]),
            self.config,
        )
        self.evaluations += len(values)
        self._self_k[needs_self] = values[: len(needs_self)]
        cross[evaluate] = values[len(needs_self) :]
        # Self-kernels scale with gamma^2: a tiny gamma makes their product
        # 0 (no similarity) or subnormal (an inexact one).
        product = self._self_k[lo] * self._self_k[hi]
        inexact = np.flatnonzero(~(product >= sys.float_info.min))
        if len(inexact):
            p = inexact[0]
            raise DataError(
                f"kernel.gamma={self.config.gamma}: the self-kernels of scenes {scenes[first[p]].id!r} "
                f"and {scenes[second[p]].id!r} multiply to {product[p]}, below {sys.float_info.min}, "
                "so their similarity cannot be computed; raise kernel.gamma"
            )
        if self._stored is not None:
            stored_self, stored_cross = self._stored
            stored_self.update((self._digest(k), v) for k, v in zip(needs_self.tolist(), values[: len(needs_self)].tolist()))
            stored_cross.update(
                (self._digest_pair(a, b), v)
                for a, b, v in zip(lo[evaluate].tolist(), hi[evaluate].tolist(), cross[evaluate].tolist())
            )
        # A cross kernel and its self-kernels are one truncated series, so
        # only rounding can put a near-copy's similarity above 1.
        similarity = np.minimum(cross / np.sqrt(product), 1.0)
        order = np.argsort(codes)
        at = np.searchsorted(self._codes, codes[order])
        self._codes = np.insert(self._codes, at, codes[order])
        self._values = np.insert(self._values, at, similarity[order])


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


def _first_best(values: np.ndarray, candidates: np.ndarray, maximize: bool) -> int:
    """Index of the first largest (or smallest) value where ``candidates``."""
    among = values[candidates]
    best = among.max() if maximize else among.min()
    return int(np.flatnonzero(candidates & (values == best))[0])


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
    if np.isnan(sim).any():
        raise ValueError("similarity matrix holds NaN")
    if n == 1:
        return [pool_ids[0]]

    # Scenes in ascending id order, so that the first of equal values is the
    # smallest id. Row sums are summed in input order.
    order = sorted(range(n), key=pool_ids.__getitem__)
    row_sums = sim.sum(axis=1)[order]
    sim = sim[np.ix_(order, order)]
    remaining = np.ones(n, dtype=bool)
    hub = _first_best(row_sums, remaining, maximize=True)
    first = _first_best(sim[:, hub], np.arange(n) != hub, maximize=False)

    selected = [first]
    remaining[first] = False
    min_dissim = 1.0 - sim[:, first]
    while len(selected) < k:
        pick = _first_best(min_dissim, remaining, maximize=True)
        selected.append(pick)
        remaining[pick] = False
        min_dissim = np.minimum(min_dissim, 1.0 - sim[:, pick])
    return [pool_ids[order[i]] for i in selected]


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
