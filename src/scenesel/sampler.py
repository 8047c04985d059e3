"""Farthest sampling, the three-stage joint selector, and the round driver.

A round runs in one process, one stage after the other, each stage on the
ids the stage before it kept; the round state has a single writer.
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

from . import diagnostics
from .core import AnchorTable, ClassCatalog, DataError, Scene, read_arrays, write_arrays
from .entropy import EntropyConfig, rank_by_entropy
from .kernel import (
    KernelConfig,
    build_scene_graph,
    indexed_kernels,
    marginalized_kernel,  # unused here; bench/spans.py patches this name
    scene_contents,
)
from .state import RoundState
from .uncertainty import UncertaintyConfig, rank_by_uncertainty

log = logging.getLogger(__name__)

STAGE_NAMES = ("entropy", "similarity", "uncertainty")
STRATEGIES = ("random", "entropy-only", "fs-only", "uncertainty-only", "tscenejal")
# The one stage each single-metric strategy runs.
_SINGLE_STAGE = {
    "entropy-only": "entropy",
    "fs-only": "similarity",
    "uncertainty-only": "uncertainty",
}
# Distinct missing pairs that one ``indexed_kernels`` call of a scan takes,
# with their self-kernels. Beside its graphs and one stacked batch
# (``kernel.BATCH_BYTES``), a call holds about 49 bytes a pair (measured):
# the pair's scene, key and graph indices (int32), whether it is evaluated,
# its place in the live-count order, a swap flag, its kernel and its
# similarity, so about 1.6 MB at this bound. Every pair takes the same ``KernelConfig.steps`` steps, so larger
# calls fill larger stacked solves at no cost in steps. This is the
# smallest power of two that takes the cold 240-scene matrix of the
# benchmark's ``fs_pool`` workload (28,920 pairs) in one call, which makes
# 234 stacked solves against 8 calls and 371 at 4,096 pairs a call.
PAIRS_PER_CALL = 32_768
# The layout of a similarity cache file and the floats of the kernel it
# stores. It is part of the file's fingerprint: bump it when either changes,
# and a file of the old format is replaced, not read. 2: every kernel is the
# series of ``KernelConfig.steps`` steps, not stopped per pair at tol. 3: an
# npz of arrays, not JSON.
CACHE_FORMAT = 3
# The arrays of a similarity cache file: its fingerprint; the sorted content
# digests of its scenes and their self-kernels; and its cross kernels, each
# under the places (i, j), i < j, of its two scenes' digests, sorted by
# (i, j).
_CACHE_ARRAYS = ("fingerprint", "digests", "self_kernels", "pairs", "values")


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
        # The stage sizes floor k1 * n_r and k2 * n_r, which must be finite.
        if not math.isfinite(self.k1 * self.n_r):
            raise ValueError(f"need k1 * n_r finite, got k1={self.k1} n_r={self.n_r}")
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
    hands the distinct missing pairs to ``_fill`` in scan order, as int32
    scene indices, up to PAIRS_PER_CALL at a time. ``_fill`` evaluates
    them in one ``indexed_kernels`` call and is the only code that calls
    the kernel and normalizes; self-kernels whose product is not a normal
    float (a tiny ``gamma``) are a ``DataError`` naming the first such pair
    in scan order. The scan then merges its new pairs into
    the store in one sorted insert and reads every value from it. Across
    the calls it holds its pair codes, the distinct missing pairs (their
    scene indices and sorted places, int32, and codes) and their
    similarities. ``hits`` and ``misses`` count the pairs asked for that
    were of equal content or in the store when their scan began, and the
    others: a pair asked for twice in one cold call is two misses and one
    evaluation. ``evaluations`` counts the kernel values ``_fill`` has
    evaluated, self-kernels included, so the kernel work of any call is
    the growth of ``evaluations`` across it. ``similarity`` is the one-pair
    call of ``matrix``.

    ``load`` and ``save`` keep the kernel values across processes in one
    npz file of plain arrays, keyed by a digest of each scene's content and
    stamped with ``fingerprint`` (``_StoredKernels``). After ``load``,
    ``_fill`` looks the kernel values of its keys up in the file's sorted
    digests and pair codes with ``np.searchsorted``, takes each value the
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
        # After ``load``: the file's kernel values and those evaluated since.
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
        is not an npz of the arrays ``save`` writes, with their dtypes and
        shapes, whose digests or pairs are not sorted and distinct, that
        holds a pair of a place with no self-kernel, or a value that is not
        a kernel value (a number in [0, 1], above 0 for a self-kernel), is a
        ``DataError`` naming it.
        """
        if self._keys or self._stored is not None:
            raise ValueError("load needs a new cache")
        path, stored = Path(path), _StoredKernels.empty()
        if path.exists():
            fingerprint, *arrays = read_arrays(path, _CACHE_ARRAYS, "similarity cache file")
            if fingerprint.shape == () and fingerprint.dtype.kind == "U" and fingerprint.item() == self.fingerprint:
                try:
                    stored = _StoredKernels(*arrays)
                except ValueError as exc:
                    raise DataError(f"{path}: invalid similarity cache file: {exc}") from exc
            else:
                log.warning("%s: made for another kernel config, catalog or format; replacing it", path)
        self._stored = stored

    def save(self, path: str | Path, dropped: list[Scene]) -> None:
        """Write the values ``load`` took and those evaluated since to the
        cache file ``path``, atomically, less every value that involves the
        content of a scene in ``dropped``."""
        if self._stored is None:
            raise ValueError("save needs a cache that was loaded")
        drop = np.array([_content_digest(c) for c in scene_contents(dropped, self.catalog, self.config)], dtype=np.str_)
        write_arrays(path, {"fingerprint": np.str_(self.fingerprint), **self._stored.arrays(drop)})

    def _key(self, content) -> int:
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
        # The pairs above the diagonal in row-major order: row i holds
        # n - 1 - i of them.
        index = np.arange(n)
        upper = index[:, None] < index
        first, second = np.repeat(index, index[::-1]), np.broadcast_to(index, (n, n))[upper]
        values = self._scan(scenes, first, second)
        sim = np.eye(n)
        sim[upper] = values
        sim.T[upper] = values
        return sim

    def pair_similarities(self, scenes: list[Scene], index_pairs: list[tuple[int, int]]) -> list[float]:
        """Similarity of ``scenes[i]`` and ``scenes[j]`` for each ``(i, j)``, in order."""
        pairs = np.array(index_pairs, dtype=np.intp).reshape(len(index_pairs), 2)
        return self._scan(scenes, pairs[:, 0], pairs[:, 1]).tolist()

    def _scan(self, scenes, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """The similarity of ``scenes[first[p]]`` and ``scenes[second[p]]``
        for each p: hits from the store, misses through ``_fill``."""
        contents = scene_contents(scenes, self.catalog, self.config)
        keys = np.fromiter(map(self._key, contents), dtype=np.int64, count=len(scenes))
        del contents
        if len(self._contents) > len(self._self_k):
            self._self_k = np.concatenate([self._self_k, np.full(len(self._contents) - len(self._self_k), np.nan)])
        # pair codes lo << 32 | hi, built in place
        a, b = keys[first], keys[second]
        same = a == b
        codes = np.minimum(a, b)
        np.maximum(a, b, out=b)
        del a
        codes <<= 32
        codes |= b
        del b
        values, found = self._lookup(codes, same)
        miss = np.flatnonzero(~found)
        self.hits += len(codes) - len(miss)
        self.misses += len(miss)
        if not len(miss):
            return values
        # Across the kernel calls the scan holds its pair codes, its
        # distinct missing pairs and their similarities; the values are read
        # from the store again once the new pairs are merged into it.
        del values, found
        new, at = np.unique(codes[miss], return_index=True)
        # each distinct missing pair in scan order: its first pair and its
        # place among the sorted new codes
        places = np.argsort(at).astype(np.int32)
        todo = miss[at[places]]
        del miss, at
        # The scenes and keys of the missing pairs as int32, so that the
        # calls hold int32 indices; the scan's own stay intp, which numpy
        # indexes without a cast.
        todo_first, todo_second = first[todo].astype(np.int32), second[todo].astype(np.int32)
        keys = keys.astype(np.int32)
        del todo
        similarity = np.empty(len(new))
        for lo in range(0, len(places), PAIRS_PER_CALL):
            block = slice(lo, lo + PAIRS_PER_CALL)
            similarity[places[block]] = self._fill(scenes, keys, todo_first[block], todo_second[block])
        del todo_first, todo_second, places
        self._merge(new, similarity)
        del new, similarity
        return self._lookup(codes, same)[0]

    def _merge(self, codes: np.ndarray, similarities: np.ndarray) -> None:
        """Put the sorted new pair ``codes`` and their ``similarities``
        into the store, in one sorted insert."""
        at = np.searchsorted(self._codes, codes)
        self._codes = np.insert(self._codes, at, codes)
        self._values = np.insert(self._values, at, similarities)

    def _lookup(self, codes: np.ndarray, same: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The similarity of each pair code, 1.0 where ``same`` (a pair of
        equal content), and whether it is known: stored or same."""
        values = np.zeros(len(codes))
        found = same.copy()
        if len(self._codes):
            at = np.searchsorted(self._codes, codes)
            np.minimum(at, len(self._codes) - 1, out=at)
            stored = self._codes[at] == codes
            values[stored] = self._values[at[stored]]
            found |= stored
        values[same] = 1.0
        return values, found

    def _fill(self, scenes, keys, first, second) -> np.ndarray:
        """The similarities of the distinct missing pairs of ``scenes[first[p]]``
        and ``scenes[second[p]]``, each kernel value taken from the loaded
        file if it holds it, else evaluated."""
        lo, hi = keys[first], keys[second]
        np.minimum(lo, keys[second], out=lo)
        np.maximum(hi, keys[first], out=hi)
        # By key: a scene of that key in the block, or -1.
        scene_of = np.full(len(self._contents), -1)
        scene_of[keys[first]] = first
        scene_of[keys[second]] = second
        needs_self = np.flatnonzero((scene_of >= 0) & np.isnan(self._self_k))
        # the pairs to evaluate: all, or those the loaded file does not hold
        cross = np.zeros(len(lo))
        evaluate = np.ones(len(lo), dtype=bool)
        if self._stored is not None:
            # The content digest of each key in the block, and its place in
            # the file's digests, or -1.
            used = np.flatnonzero(scene_of >= 0)
            digest_of = np.full(len(self._contents), "", dtype="U32")
            digest_of[used] = [self._digest(k) for k in used.tolist()]
            place = np.full(len(self._contents), -1)
            place[used] = _places_in(self._stored.digests, digest_of[used])
            known = needs_self[place[needs_self] >= 0]
            self._self_k[known] = self._stored.self_kernels[place[known]]
            self.reused += len(known)
            needs_self = needs_self[place[needs_self] < 0]
            both = np.flatnonzero((place[lo] >= 0) & (place[hi] >= 0))
            found, stored = self._stored.cross_kernels(place[lo[both]], place[hi[both]])
            cross[both[found]] = stored
            evaluate[both[found]] = False
            self.reused += len(stored)
        # One kernel call over the graphs of the keys it needs: the
        # self-kernels first, then the cross kernels.
        slot = np.full(len(self._contents), -1, dtype=np.int32)
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
        product = self._self_k[lo]
        product *= self._self_k[hi]
        inexact = np.flatnonzero(~(product >= sys.float_info.min))
        if len(inexact):
            p = inexact[0]
            raise DataError(
                f"kernel.gamma={self.config.gamma}: the self-kernels of scenes {scenes[first[p]].id!r} "
                f"and {scenes[second[p]].id!r} multiply to {product[p]}, below {sys.float_info.min}, "
                "so their similarity cannot be computed; raise kernel.gamma"
            )
        if self._stored is not None:
            self._stored.add(
                digest_of[needs_self], values[: len(needs_self)], digest_of[lo[evaluate]], digest_of[hi[evaluate]], cross[evaluate]
            )
        # A cross kernel and its self-kernels are one truncated series, so
        # only rounding can put a near-copy's similarity above 1.
        np.sqrt(product, out=product)
        np.divide(cross, product, out=cross)
        return np.minimum(cross, 1.0, out=cross)


def _content_digest(content) -> str:
    """Hex digest of a ``scene_content``: its labels as JSON, then its
    centers as float64 bytes. ``+ 0.0`` digests -0.0 as 0.0, to which it
    compares equal."""
    digest = hashlib.blake2b(json.dumps([c[0] for c in content]).encode(), digest_size=16)
    digest.update((np.array([c[1:] for c in content], dtype=np.float64).reshape(-1) + 0.0).tobytes())
    return digest.hexdigest()


class _StoredKernels:
    """The kernel values of a similarity cache file as sorted arrays, and
    those evaluated since it was loaded: ``digests`` (sorted, distinct) and
    their ``self_kernels``; ``codes``, the places ``i << 32 | j`` (i < j)
    of each cross kernel's two digests, sorted and distinct, and their
    ``values``; ``added``, the arrays of each ``add``. Made from a file's
    arrays, a ``ValueError`` names the first rule they break."""

    def __init__(self, digests, self_kernels, pairs, values):
        for name, array, fits in (
            ("digests", digests, digests.dtype.kind == "U" and digests.ndim == 1),
            ("self_kernels", self_kernels, self_kernels.dtype == np.float64 and self_kernels.shape == digests.shape),
            ("pairs", pairs, pairs.dtype == np.int64 and pairs.ndim == 2 and pairs.shape[1] == 2),
            ("values", values, values.dtype == np.float64 and values.shape == pairs.shape[:1]),
        ):
            if not fits:
                raise ValueError(f"{name} has dtype {array.dtype} and shape {array.shape}")
        if not (digests[1:] > digests[:-1]).all():
            raise ValueError("the digests must be sorted and distinct")
        # Every kernel lies in [0, 1/2], and a self-kernel is positive (the
        # ego nodes match); the comparisons are false for NaN.
        for kernels, positive in ((self_kernels, True), (values, False)):
            bad = ~((0 < kernels if positive else 0 <= kernels) & (kernels <= 1))
            if bad.any():
                raise ValueError(f"kernel value {float(kernels[bad][0])!r} is not in {'(0, 1]' if positive else '[0, 1]'}")
        first, second = pairs.T
        bad = ~((0 <= first) & (first < second) & (second < len(digests)))
        if bad.any():
            raise ValueError(
                f"pair {tuple(pairs[bad][0].tolist())} is not two places i < j among the {len(digests)} "
                "scenes with self-kernels"
            )
        codes = first << 32 | second
        if not (codes[1:] > codes[:-1]).all():
            raise ValueError("the pairs must be sorted and distinct")
        self.digests, self.self_kernels, self.codes, self.values = digests, self_kernels, codes, values
        self.added = []

    @classmethod
    def empty(cls) -> "_StoredKernels":
        return cls(np.empty(0, dtype="U32"), np.empty(0), np.empty((0, 2), dtype=np.int64), np.empty(0))

    def cross_kernels(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whether the file holds the cross kernel of the digests at places
        ``a[p]`` and ``b[p]``, for each p, and the values it holds."""
        at = _places_in(self.codes, np.minimum(a, b) << 32 | np.maximum(a, b))
        found = at >= 0
        return found, self.values[at[found]]

    def add(self, digests, self_kernels, first, second, values) -> None:
        """Keep the self-kernels of ``digests`` and the cross kernels of the
        digest pairs ``first[p]``, ``second[p]``, all evaluated since the load."""
        self.added.append((digests, self_kernels, first, second, values))

    def arrays(self, drop: np.ndarray) -> dict[str, np.ndarray]:
        """The arrays of a cache file of every value held, less those that
        involve a digest in ``drop``."""
        added = list(zip(*self.added)) or [()] * 5
        digests, first_at, inverse = np.unique(
            np.concatenate([self.digests, *added[0]]), return_index=True, return_inverse=True
        )
        self_kernels = np.concatenate([self.self_kernels, *added[1]])[first_at]
        # every cross kernel under the places of its digests in ``digests``
        at = inverse[: len(self.digests)]
        first = np.concatenate([at[self.codes >> 32], *(np.searchsorted(digests, f) for f in added[2])])
        second = np.concatenate([at[self.codes & 0xFFFFFFFF], *(np.searchsorted(digests, s) for s in added[3])])
        values = np.concatenate([self.values, *added[4]])
        # not ``np.isin``, whose sort imports ``numpy.ma``
        keep = _places_in(np.sort(drop), digests) < 0
        place = np.cumsum(keep) - 1
        kept = keep[first] & keep[second]
        first, second = place[first[kept]], place[second[kept]]
        codes, unique = np.unique(np.minimum(first, second) << 32 | np.maximum(first, second), return_index=True)
        return {
            "digests": digests[keep],
            "self_kernels": self_kernels[keep],
            "pairs": np.stack([codes >> 32, codes & 0xFFFFFFFF], axis=1),
            "values": values[kept][unique],
        }


def _places_in(table: np.ndarray, items: np.ndarray) -> np.ndarray:
    """The place of each of ``items`` in the sorted, distinct ``table``, or -1."""
    if not len(table):
        return np.full(len(items), -1)
    at = np.searchsorted(table, items)
    np.minimum(at, len(table) - 1, out=at)
    return np.where(table[at] == items, at, -1)


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


class ShortfallError(ValueError):
    """The unlabeled pool or the budget cannot supply a round's n_r scenes."""


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


def three_stage_select(
    unlabeled_scenes: list[Scene],
    plan: StagePlan,
    anchors: AnchorTable,
    entropy_cfg: EntropyConfig,
    uncertainty_cfg: UncertaintyConfig,
    cache: SimilarityCache,
    with_mixtures: Callable[[Scene], Scene] = _unchanged,
) -> tuple[list[str], tuple[int, int, int]]:
    """Run the three metric stages in the configured order; return the
    selected ids and the three stage sizes the round ran.

    Stage target sizes are floor(k1*n_r), floor(k2*n_r), n_r regardless of
    which metric runs at which position. If the pool is smaller than the
    first stage, the round is degraded: the multipliers shrink
    proportionally so stage 1 consumes the whole pool, with a warning, and
    the returned sizes are the shrunk ones. A pool below n_r fails in the
    first stage that cannot keep its size; ``run_al_rounds`` checks the
    pool first. Classes are those of ``cache.catalog``, and similarities
    come from ``cache``, under its kernel config. The uncertainty stage
    ranks ``with_mixtures(scene)`` for each scene it is handed, so scenes
    may come without mixtures when ``with_mixtures`` attaches them; by
    default the scenes carry their own.
    """
    pool_size = len(unlabeled_scenes)
    sizes = list(plan.stage_sizes())
    if pool_size < sizes[0]:
        sizes[0] = pool_size
        sizes[1] = min(sizes[1], max(plan.n_r, math.floor(plan.k2 * pool_size / plan.k1)))
        log.warning(
            "degraded round: pool %d < floor(k1*n_r)=%.6g, stage sizes now %s",
            pool_size,
            math.floor(plan.k1 * plan.n_r),
            tuple(sizes),
        )

    by_id = {s.id: s for s in unlabeled_scenes}
    candidates = sorted(by_id)
    for stage, size in zip(plan.order, sizes):
        scenes = [by_id[i] for i in candidates]
        candidates = _run_stage(
            stage, scenes, size, anchors, entropy_cfg, uncertainty_cfg, cache, with_mixtures
        )
    return list(candidates), tuple(sizes)


@dataclass
class RoundReport:
    round_index: int
    selected_ids: tuple[str, ...]
    stage_sizes: tuple[int, int, int] | None
    kernel_evals: int
    summary: diagnostics.SelectionReport


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
    with_mixtures: Callable[[Scene], Scene] = _unchanged,
) -> tuple[RoundState, list[RoundReport]]:
    """Drive ``rounds`` selection rounds, returning the new state and reports.

    Each round selects n_r ids under the chosen strategy, reveals ground
    truth via the oracle, and moves the ids to the labeled set. A round runs
    the predictor on the scenes its strategy reads: every unlabeled scene
    for a strategy that ranks predictions, and for ``random``, which picks
    its ids before any prediction, only the picked scenes, whose
    predictions the round report reads. A budget that cannot cover the
    rounds, or a round whose unlabeled pool holds fewer than n_r scenes, is
    a ``ShortfallError``, under every strategy, before the strategy runs.
    Deterministic given the state's rng_seed. A predictor failure on a
    scene the round predicts, or an oracle failure, aborts the round; a
    ``random`` round does not predict, and so does not fail on, a scene it
    does not pick. The input state object is never mutated. A ``cache``
    must have been made for ``catalog`` and ``kernel_cfg``; without one, the
    rounds share a new cache. The uncertainty stage and the round's
    ``summary`` (``diagnostics.selection_report`` over every pair of the
    selection) read ``with_mixtures(prediction)``. The one round driver, of
    ``scenesel simulate`` and ``scenesel select`` alike, and the one place
    that checks a round's pool and counts its kernel work:
    ``RoundReport.kernel_evals`` is the growth of ``cache.evaluations``
    across the round, its selection and its summary.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; valid: {', '.join(STRATEGIES)}")
    if rounds * plan.n_r > state.budget_left:
        raise ShortfallError(
            f"budget of {state.budget_total} scenes has {state.budget_left} left, "
            f"cannot supply {rounds} round{'s' * (rounds != 1)} of n_r={plan.n_r} scenes"
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
            raise ShortfallError(f"unlabeled pool of {len(unlabeled)} scenes is below n_r={plan.n_r}")
        if strategy == "random":
            rng = np.random.default_rng(np.random.SeedSequence([state.rng_seed, round_index]))
            picked = rng.choice(len(unlabeled), size=plan.n_r, replace=False)
            selected = [unlabeled[i].id for i in picked]
            selected_preds = [predictor(unlabeled[i]) for i in picked]
            stage_sizes = None
        else:
            preds = [predictor(s) for s in unlabeled]
            if strategy == "tscenejal":
                selected, stage_sizes = three_stage_select(preds, plan, anchors, entropy_cfg, uncertainty_cfg, cache, with_mixtures)
            else:
                selected = _run_stage(
                    _SINGLE_STAGE[strategy], preds, plan.n_r, anchors, entropy_cfg, uncertainty_cfg, cache, with_mixtures
                )
                stage_sizes = None
            pred_by_id = {p.id: p for p in preds}
            selected_preds = [pred_by_id[i] for i in selected]
        for sid in selected:
            oracle(sid)  # ground-truth reveal; the simulated pool already holds it
        summary = diagnostics.selection_report(
            [with_mixtures(p) for p in selected_preds], cache, anchors, entropy_cfg, uncertainty_cfg
        )
        kernel_evals = cache.evaluations - evaluated_before
        reports.append(RoundReport(round_index, tuple(selected), stage_sizes, kernel_evals, summary))
        state = state.with_selection(tuple(selected))
    return state, reports
