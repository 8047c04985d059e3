"""Stage-2 metric: scene graphs and the marginalized random-walk kernel.

A scene becomes a complete directed graph over its confidence-filtered
objects plus an ego node at the origin. A graph holds one read-only array
of edge weights, the inverse center distances of all node pairs, computed
at once. Graph similarity is the expected product kernel over random-walk
path pairs, evaluated by fixed-point iteration on the product graph. The
node kernel is zero between different labels, so only the label-matched
("live") product nodes enter the fixed point and the kernel; the solver
drops the others exactly (Kashima, Tsuda & Inokuchi, ICML 2003; Mahe et al.,
ICML 2004). ``indexed_kernels`` is the one solver: it evaluates many pairs,
given as indices into a list of graphs, at once, one stacked fixed point per
live-count group whatever the graph sizes, on live-node matrices built from
whole-row copies of the graphs' weights. The edge kernel's
|e - e'| / (2 sigma^2) is a multiply by 1 / (2 sigma^2) where 2 sigma^2 is
a power of two with a finite reciprocal (sigma = 1, the default, among
them), and a divide otherwise: the same floats, since both round the same
real number. ``marginalized_kernel`` is its one-pair call. A call of E
live-matrix entries is split into E // ``SPLIT_ENTRIES`` shares, at most
one per CPU the process may run on; the calling process solves the first
share and one forked child each other one. Every float is the one the
in-process solve gives, and no process outlives the call. A child that
ends without its values (killed by a signal, as the out-of-memory killer
does) has its share solved by the caller, with a warning.

The split runs as it is on Python 3.12 and later. There ``os.fork`` warns
(a ``DeprecationWarning``, hidden by default) when the process has more
than one OS thread at the fork. numpy's bundled OpenBLAS, the one other
thread source, stops its thread pool in its own ``pthread_atfork`` handler
before each fork, so the fork sees one thread and does not warn: measured
with that library through ``ctypes`` on Python 3.12.1 and 3.13.0, as on
3.11.7. A program that runs threads of its own around the kernel gets the
warning; the child runs only this call's numpy code, on the thread that
forked, and exits.
Every pair runs the same ``KernelConfig.steps`` fixed-point steps, so a
kernel is the sum of its path-pair terms up to one length K fixed by gamma
and tol. Such a truncated sum is positive semidefinite (Kashima et al.), so
a cross kernel never exceeds the geometric mean of the two self-kernels
beyond rounding. ``sampler.SimilarityCache`` normalizes the kernel by the
self-kernels into a similarity in [0, 1] with self-similarity exactly 1.

Random-walk model (the cited kernel's standard construction): uniform start
probability 1/|V|, per-step termination probability gamma, and transition
probability (1-gamma)/outdeg(u) to each out-neighbor of u, which on these
complete graphs is (1-gamma)/(|V|-1) to every other node.
"""
from __future__ import annotations

import logging
import math
import os
import pickle
import signal
from dataclasses import dataclass
from itertools import accumulate, chain, compress
from typing import NoReturn

import numpy as np

from .core import check_tau, ClassCatalog, DEFAULT_TAU, EGO_LABEL, MIRROR_LABEL, Scene, SceneDataError

# Bytes of the largest array one stacked fixed point builds. A batch of b
# pairs of live count L builds M_LL, 8 b L^2 bytes, and per side a gather
# of b A L floats and its int64 index, A the largest node count of the
# group's graphs on that side; the batch holds BATCH_BYTES // (8 L max(L, A))
# pairs, so building it holds about three arrays of this size. A
# live-count group's pairs are listed a span of whole batches at a time,
# up to BATCH_BYTES of arrays: a b label matches and 12 L bytes of node
# lists a pair while the span is listed, then, held while its batches run,
# each side's live nodes (8 L bytes a pair) and the pairs' node counts and
# weight offsets (32 bytes). A pair whose arrays alone are larger is solved
# on its own.
BATCH_BYTES = 256 * 1024
# Live-matrix entries (the sum of L^2 over a call's pairs) per share of a
# call split across the process's CPUs: a call of E entries is split into
# E // SPLIT_ENTRIES shares, at most one per CPU. A fork and its wait cost
# about 2 ms and this many entries take 10-20 ms in one process, so a
# call of fewer than twice as many is not split: the 60-scene
# matrices of a ``select`` round on 8-20-object scenes hold 10-17 M
# entries, the cold 240-scene matrix of 2-6-object scenes 7.0 M, and the
# 20-60-scene matrices of 2-6-object scenes at most 0.22 M, which stay in
# one process.
SPLIT_ENTRIES = 1_000_000

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class KernelConfig:
    gamma: float = 0.1
    sigma: float = 1.0
    tol: float = 1e-8
    min_dist: float = 0.1
    tau: float = DEFAULT_TAU  # confidence filter, shared with the entropy metric

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must be in (0, 1)")
        # The edge kernel divides by 2 sigma^2, as computed here: where that
        # is 0 or inf the kernel is NaN. So 1.6e-162 <= sigma <= 9.4e153.
        try:
            two_sigma_sq = 2.0 * self.sigma**2
        except OverflowError:
            two_sigma_sq = math.inf
        if not (self.sigma > 0 and 0.0 < two_sigma_sq < math.inf):
            raise ValueError(f"sigma must make 2 sigma^2 a positive finite float, got sigma={self.sigma}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not (0.0 < self.min_dist < math.inf):
            raise ValueError(f"min_dist must be positive and finite, got {self.min_dist}")
        check_tau(self.tau)

    @property
    def steps(self) -> int:
        """K, the fixed-point steps of every kernel: the least K >= 0 with
        q rho^K / (1 - rho) <= tol, where q = gamma^2 and rho = (1-gamma)^2 / 2.

        K steps of R = q + M R from R = q sum the path-pair terms of lengths
        0..K. Every row of M sums to at most rho (the transition
        probabilities (1-gamma)^2 times the node kernel 1/2, with an edge
        kernel of at most 1), so the terms left out add at most
        q rho^(K+1) / (1 - rho) <= rho tol to any entry of R, and less to
        the kernel. K = 0, the length-0 term alone, once tol >= q / (1 - rho).
        The logarithms are taken term by term, so that no tiny gamma or tol
        underflows.
        """
        rho = (1.0 - self.gamma) ** 2 / 2.0
        if self.tol >= self.gamma**2 / (1.0 - rho):
            return 0
        k = (math.log(self.tol) + math.log1p(-rho) - 2.0 * math.log(self.gamma)) / math.log(rho)
        return max(0, math.ceil(k))


class DistanceOverflowError(SceneDataError):
    """Two centers of a scene lie so far apart that their distance is not a
    finite float; ``scene_id`` names the scene."""


@dataclass(frozen=True, eq=False)
class SceneGraph:
    """Complete directed graph with labeled nodes and positive edge weights.

    ``weights`` is one read-only float64 (n, n) array, the graph's own copy;
    ``weights[i, j]`` weighs the edge i -> j and the diagonal is zero (no
    self-loops). Contains exactly one ego node; a mirror node stands in when
    the scene has no above-threshold objects.
    """

    labels: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        n = len(self.labels)
        if n < 2:
            raise ValueError("graph needs at least two nodes")
        try:
            w = np.array(self.weights, dtype=np.float64)
        except ValueError:  # ragged rows
            w = np.empty(0)
        if w.shape != (n, n):
            raise ValueError("weight matrix shape mismatch")
        ok = (w > 0) & (w < math.inf)  # not NaN
        np.fill_diagonal(ok, w.diagonal() == 0)
        if not ok.all():  # name the first bad entry in row-major order
            i, j = divmod(int(ok.argmin()), n)
            if i == j:
                raise ValueError(f"diagonal weight ({i},{i}) must be zero")
            raise ValueError(f"edge weight ({i},{j}) must be positive and finite")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def num_nodes(self) -> int:
        return len(self.labels)


def scene_content(
    scene: Scene, catalog: ClassCatalog, config: KernelConfig
) -> tuple[tuple[str, float, float, float], ...]:
    """All that ``build_scene_graph`` reads of a scene: the label and center
    (x, y, z) of each detection that passes the confidence filter and the
    catalog, in scene order. Scenes of equal content have equal graphs."""
    return scene_contents([scene], catalog, config)[0]


def scene_contents(
    scenes: list[Scene], catalog: ClassCatalog, config: KernelConfig
) -> list[tuple[tuple[str, float, float, float], ...]]:
    """``scene_content`` of each scene, in input order, from the columns of
    all the scenes at once."""
    if not scenes:
        return []
    boxes = np.concatenate([s.boxes for s in scenes])
    labels = list(chain.from_iterable(s.labels for s in scenes))
    keep = boxes[:, 7] >= config.tau
    if not set(labels).issubset(catalog.classes):
        keep &= np.isin(labels, catalog.classes)
    keep = keep.tolist()
    kept = list(compress(zip(labels, *boxes[:, :3].T.tolist()), keep))
    # Scene i holds rows ends[i] to ends[i + 1]; kept[before[r]] is the first
    # kept row from row r on.
    ends = list(accumulate((len(s.labels) for s in scenes), initial=0))
    before = list(accumulate(keep, initial=0))
    return [tuple(kept[before[lo] : before[hi]]) for lo, hi in zip(ends, ends[1:])]


def build_scene_graph(scene: Scene, catalog: ClassCatalog, config: KernelConfig) -> SceneGraph:
    """Graph over above-threshold objects plus the ego node at the origin,
    built from ``scene_content`` alone.

    With no surviving objects the graph degenerates to ego + mirror with both
    directed edges of weight exactly 1. Two nodes whose distance overflows
    are a ``DistanceOverflowError``.
    """
    kept = scene_content(scene, catalog, config)
    if not kept:
        return SceneGraph(labels=(EGO_LABEL, MIRROR_LABEL), weights=((0.0, 1.0), (1.0, 0.0)))
    centers = [(0.0, 0.0, 0.0)] + [c[1:] for c in kept]
    labels = (EGO_LABEL,) + tuple(c[0] for c in kept)
    xyz = np.array(centers)
    # Each distance as sqrt((dx*dx + dy*dy) + dz*dz); one that overflows is
    # inf, and the first in row-major order lies above the diagonal.
    with np.errstate(over="ignore"):
        d = xyz[:, None, :] - xyz[None, :, :]
        d *= d
        dist = np.sqrt((d[..., 0] + d[..., 1]) + d[..., 2])
        weights = 1.0 / np.maximum(dist, config.min_dist)
    if np.isinf(dist).any():
        i, j = divmod(int(np.isinf(dist).argmax()), len(centers))
        raise DistanceOverflowError(f"scene {scene.id!r}: the distance from {centers[i]} to {centers[j]} overflows", scene.id)
    np.fill_diagonal(weights, 0.0)
    return SceneGraph(labels=labels, weights=weights)


def marginalized_kernel(g1: SceneGraph, g2: SceneGraph, config: KernelConfig) -> float:
    """Expected path-pair kernel between two graphs (unnormalized).

    The one-pair call of ``indexed_kernels``, each graph in its own slot.
    """
    return float(indexed_kernels([g1, g2], np.array([0]), np.array([1]), config)[0])


def indexed_kernels(
    graphs: list[SceneGraph], first: np.ndarray, second: np.ndarray, config: KernelConfig
) -> np.ndarray:
    """Unnormalized kernels of the pairs ``(graphs[first[p]], graphs[second[p]])``,
    in input order; the one solver.

    Solves R = q + M R by fixed-point iteration, where q is the joint
    termination probability gamma^2 and M combines transition probabilities
    with the edge kernel exp(-|e - e'| / (2 sigma^2)) and the node kernel
    [label == label'] / 2. A kernel is then the start distribution
    contracted with the node kernel and R. Every column (u, v) of M carries
    the node kernel of (u, v), so R on the label-matched ("live") product
    nodes is a closed system, and the kernel reads only those nodes: each
    pair solves R_L = q + M_LL R_L over its live nodes alone, in ascending
    order of the flat index i * |V2| + j. A pair with no live node is 0.0.

    Pairs are grouped by their live count L, whatever their graph sizes,
    counted from the graphs' label histograms. Across the call a pair
    holds only its two graph indices, a swap flag, its place in the
    live-count order and its value. A group lists its pairs' live nodes
    when it is solved, up to BATCH_BYTES of lists at a time, and builds
    their matrices M_LL from the call's edge weights in batches bounded by
    BATCH_BYTES: per side, one gather of the weights from each graph node
    to the live nodes, then one whole-row copy per live node
    (``_live_edges``). It iterates them in place as one stacked matmul for
    the ``config.steps`` steps that every pair takes. So every value is the
    float a lone pair gets, and a cross kernel and its two self-kernels are
    the same truncated series.

    A call whose pairs hold E live-matrix entries (the sum of L^2) is split
    into E // ``SPLIT_ENTRIES`` shares, at most one per CPU in
    ``os.sched_getaffinity(0)``, each live-count group's pairs dealt
    round-robin. This process solves the first share and one forked child
    each other share, with the same group loop; a child writes its values
    to a pipe as raw float64 bytes and exits. Since no pair's float depends
    on its batch, every value is the in-process one. Every child is reaped
    before the call returns or raises, and killed first if the call
    raises; a child's exception is raised here with its type and message.
    Where the platform cannot fork, a fork fails, or a child ends without
    its values, this process solves the share itself and logs a warning.
    """
    values = np.zeros(len(first))
    if not len(first):
        return values
    # Canonical argument order, so that K(a, b) and K(b, a) share one float
    # result: the graph of smaller (labels, weights) goes first. One rank per
    # graph of the call orders every pair; graphs of equal content, whose
    # ranks differ, compute alike in either order. A pair is put in that
    # order when its group is solved.
    rank = np.empty(len(graphs), dtype=np.int32)
    rank[sorted(range(len(graphs)), key=lambda g: (graphs[g].labels, graphs[g].weights.tolist()))] = np.arange(len(graphs))
    swap = rank[second] < rank[first]

    # The call's graphs: labels as integer codes, one row per graph, and
    # weights in one flat buffer, each graph at its own offset. The rows
    # are padded with -1 for a pair's first graph and -2 for its second, so
    # that padding matches nothing.
    codes: dict[str, int] = {}
    label_codes = np.array([codes.setdefault(a, len(codes)) for g in graphs for a in g.labels])
    sizes = np.array([g.num_nodes for g in graphs])
    graph_of = np.repeat(np.arange(len(graphs)), sizes)
    node = np.arange(len(label_codes)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    labels1 = np.full((len(graphs), int(sizes.max())), -1)
    labels1[graph_of, node] = label_codes
    labels2 = np.where(labels1 < 0, -2, labels1)
    weight_at = np.cumsum(sizes * sizes) - sizes * sizes
    # A walk never stays on a node, so a step pair that stays on a node of
    # either graph has M entry 0. The first graph of a pair reads its
    # weights from a buffer whose diagonal is +inf, the second from one
    # whose diagonal is -inf: such a step pair's |e - e'| is +inf and its
    # edge kernel exactly 0.0, and every other entry is computed as if the
    # diagonal were not there.
    weights_minus = np.concatenate([g.weights.reshape(-1) for g in graphs])
    diagonal = np.repeat(weight_at, sizes) + node * (np.repeat(sizes, sizes) + 1)
    weights_minus[diagonal] = -math.inf
    weights_plus = weights_minus.copy()
    weights_plus[diagonal] = math.inf

    # Live counts: a pair's label-matched node pairs number the sum, over
    # labels, of the label's node count in one graph times that in the other.
    per_label = np.bincount(label_codes * len(graphs) + graph_of, minlength=len(codes) * len(graphs))
    counts = np.zeros(len(first), dtype=np.int64)
    for row in per_label.reshape(len(codes), len(graphs)):
        term = row[first]
        term *= row[second]
        counts += term
    del term
    # The pairs of live count L are order[ends[L] - per_count[L]:ends[L]];
    # those of none keep the kernel 0.0.
    order = np.argsort(counts, kind="stable")
    per_count = np.bincount(counts)
    del counts
    ends = np.cumsum(per_count)

    # once per call, not per batch: three logarithms, and the reciprocal rule
    steps, scale = config.steps, _edge_scale(config.sigma)
    present = np.flatnonzero(per_count)
    groups = [(count, order[ends[count] - per_count[count] : ends[count]]) for count in present[present > 0].tolist()]

    def solve(share: list[tuple[int, np.ndarray]]) -> None:
        """Put the values of ``share``'s pairs, (live count, places) groups, into ``values``."""
        # Near the smallest sigma, |e - e'| / (2 sigma^2) overflows to inf,
        # and the edge kernel is its limit, 0.
        with np.errstate(over="ignore"):
            for count, members in share:
                f, s, flip = first[members], second[members], swap[members]
                f, s = np.where(flip, s, f), np.where(flip, f, s)
                a, b = int(sizes[f].max()), int(sizes[s].max())
                size = max(1, BATCH_BYTES // (8 * count * max(count, a, b)))
                # pairs listed at once: whole batches, their label matches (a b
                # bytes a pair) and node lists (12 L bytes), then the span's
                # live nodes per side (8 L bytes) and node counts and weight
                # offsets (32 bytes), within BATCH_BYTES
                span = size * max(1, BATCH_BYTES // (size * (a * b + 12 * count + 32)))
                for at in range(0, len(members), span):
                    f_span, s_span = f[at : at + span], s[at : at + span]
                    i, j = np.divmod(_live_nodes(labels1[f_span, :a], labels2[s_span, :b], count), b)
                    n1, n2 = sizes[f_span], sizes[s_span]
                    at1, at2 = weight_at[f_span], weight_at[s_span]
                    for start in range(0, len(f_span), size):
                        batch = slice(start, start + size)
                        m = _live_edges(weights_plus, at1[batch], n1[batch], i[batch], a)
                        np.subtract(m, _live_edges(weights_minus, at2[batch], n2[batch], j[batch], b), out=m)
                        kernels = _solve_live(m, n1[batch], n2[batch], config, steps, scale)
                        values[members[at + start : at + start + size]] = kernels

    entries = sum(count * count * len(members) for count, members in groups)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    shares = max(1, min(cpus, entries // SPLIT_ENTRIES))
    # each live-count group's pairs dealt round-robin
    _split(solve, [[(c, m[k::shares]) for c, m in groups if len(m) > k] for k in range(shares)], values)
    return values


def _split(solve, shares: list[list[tuple[int, np.ndarray]]], values: np.ndarray) -> None:
    """Solve ``shares[0]`` in this process and each other share, if any, in a
    forked child, which sends its values back through a pipe as raw float64
    bytes and exits; put them into ``values``. Every child is reaped before
    this returns or raises, and killed first if it raises. A child's
    exception is raised here. Where a child cannot be forked, or ends
    without its values (killed by a signal, as the out-of-memory killer
    does), this process solves its share, with a warning."""
    children = []  # (pid, read end of its pipe, its share)
    mine = shares[:1]
    try:
        for k in range(1, len(shares)):
            read, write = os.pipe()
            try:
                pid = os.fork()  # AttributeError where the platform has none
            except (AttributeError, OSError) as exc:
                os.close(read)
                os.close(write)
                log.warning(
                    "cannot fork a kernel process (%s); solving %d of %d shares of the call in this one",
                    exc, len(shares) - k + 1, len(shares),
                )
                mine += shares[k:]
                break
            if pid == 0:
                os.close(read)
                _child(solve, shares[k], values, write)
            os.close(write)
            children.append((pid, read, shares[k]))
        for share in mine:
            solve(share)
        while children:
            pid, read, share = children[0]
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(read)
            children.pop(0)
            if code == 1:
                raise pickle.loads(data)
            places = _places(share)
            if code == 0 and len(data) == 8 * len(places):
                values[places] = np.frombuffer(data)
            else:
                log.warning(
                    "kernel process %d ended with exit code %d and %d of %d bytes; solving its share in this one",
                    pid, code, len(data), 8 * len(places),
                )
                solve(share)
    except BaseException:
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read, _ in children:
            os.waitpid(pid, 0)
            os.close(read)


def _places(share: list[tuple[int, np.ndarray]]) -> np.ndarray:
    return np.concatenate([members for _, members in share])


def _child(solve, share, values: np.ndarray, write: int) -> NoReturn:
    """The forked child's whole life: solve ``share``, write its values
    (exit code 0) or its pickled exception (exit code 1) to ``write``, exit."""
    code = 1
    try:
        try:
            solve(share)
            payload, code = values[_places(share)].tobytes(), 0
        except BaseException as exc:
            try:
                payload = pickle.dumps(exc)
            except Exception:  # an exception that does not pickle
                payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        with open(write, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(code)


def _live_nodes(labels1: np.ndarray, labels2: np.ndarray, count: int) -> np.ndarray:
    """The live nodes of g pairs of one live count, (g, count): entry (p, x)
    is i * b + j for the x-th label-matched node pair (i, j) of pair p, in
    ascending order, from the pairs' padded label codes, (g, a) and (g, b)."""
    g, a = labels1.shape
    b = labels2.shape[1]
    match = labels1[:, :, None] == labels2[:, None, :]
    # one flat index array, not nonzero's two; each row holds count of them
    flat = np.flatnonzero(match)
    del match
    np.remainder(flat, a * b, out=flat)
    return flat.astype(np.int32 if a * b <= 2**31 else np.int64).reshape(g, count)


def _live_edges(flat: np.ndarray, at: np.ndarray, n: np.ndarray, nodes: np.ndarray, rows: int) -> np.ndarray:
    """Edge weights between the live nodes of b pairs on one side, (b, L, L).

    The graph of pair p has its n[p] x n[p] weights at ``flat[at[p]:]`` and
    ``nodes[p, x]`` is its node in live node x; entry (p, x, y) is the
    weight of the edge nodes[p, x] -> nodes[p, y]. ``rows`` exceeds every
    live node: the group's largest node count on this side.

    Built in two gathers, neither with an index as large as the result.
    The first reads, for each node a below ``rows``, the weights of the
    edges a -> nodes[p, y]: a (b, rows, L) array whose rows past n[p] - 1
    repeat row n[p] - 1. The second copies row nodes[p, x] of it whole for
    each live node x. The floats are those of the element-wise gather.
    """
    b, count = nodes.shape
    # the offset of row a of each pair's graph, freed once the index is built
    row_at = at[:, None] + np.minimum(np.arange(rows), (n - 1)[:, None]) * n[:, None]
    index = row_at[:, :, None] + nodes[:, None, :]
    del row_at
    to_live = flat[index]
    del index
    return np.take(to_live.reshape(b * rows, count), nodes + rows * np.arange(b)[:, None], axis=0)


def _edge_scale(sigma: float) -> tuple[np.ufunc, float]:
    """The ufunc and operand that take |e - e'| to -|e - e'| / (2 sigma^2),
    with 2 sigma^2 as computed (-x / c and x / -c are the same float).

    Where 2 sigma^2 is a power of two whose reciprocal is finite (sigma = 1,
    the default, gives 2), a multiply by -1 / (2 sigma^2), which is exact;
    otherwise the divide. The product and the quotient are then the
    correctly rounded values of the same real number, so they are the same
    float for every input, +-0, +-inf and overflowing or subnormal results
    included. On a (2, 100, 100) array the divide took 14 us, the multiply
    5 us and the exp that follows 18 us (``timeit`` minima, 2-core Xeon).
    """
    two_sigma_sq = 2.0 * sigma**2
    if math.frexp(two_sigma_sq)[0] == 0.5 and 1.0 / two_sigma_sq < math.inf:
        return np.multiply, -1.0 / two_sigma_sq
    return np.divide, -two_sigma_sq


def _solve_live(
    m: np.ndarray, n1: np.ndarray, n2: np.ndarray, config: KernelConfig, steps: int, scale: tuple[np.ufunc, float]
) -> np.ndarray:
    """Kernels of b pairs with the same live count L, from the graphs' node
    counts and the (b, L, L) differences e - e' of the edge weights between
    their live nodes (see ``_live_edges``), which become M_LL in place.
    Runs ``steps`` (``config.steps``) steps of R_L = q + M_LL R_L from R_L = q.
    ``scale`` is ``_edge_scale(config.sigma)``; a scaled entry may overflow,
    which the caller's ``np.errstate`` allows."""
    b, count, _ = m.shape
    # Edge kernel exp(-|e - e'| / (2 sigma^2)), in place
    np.abs(m, out=m)
    ufunc, operand = scale
    ufunc(m, operand, out=m)
    np.exp(m, out=m)
    # Every graph is complete, so each step of a walk on g1 has probability
    # (1-gamma)/(n1-1) and each on g2 (1-gamma)/(n2-1). M_LL is the edge
    # kernel times their product, times the node kernel 1/2 of the live
    # target, multiplied in that order.
    m *= (((1.0 - config.gamma) / (n1 - 1)) * ((1.0 - config.gamma) / (n2 - 1)))[:, None, None]
    m *= 0.5

    # R_L as (b, L, 1) columns, stepped in place through one buffer: the
    # same per-pair matrix-vector products and adds as r = q + M_LL r.
    q = config.gamma**2
    r = np.full((b, count, 1), q)
    step = np.empty_like(r)
    for _ in range(steps):
        np.matmul(m, r, out=step)
        np.add(q, step, out=r)

    # kv_L . R_L, one dot product per pair, so that no pair's float depends
    # on the others in its batch
    kv = np.full((count, 1), 0.5)
    return 1.0 / (n1 * n2) * np.matmul(r.reshape(b, 1, count), kv)[:, 0, 0]


def kernel_brute_force(
    g1: SceneGraph, g2: SceneGraph, config: KernelConfig, max_len: int
) -> float:
    """Independent oracle: sum path-pair contributions length by length.

    Enumerates, per path length, the total probability-weighted kernel mass
    of all path pairs via a forward pass written with plain loops; no code is
    shared with the fixed-point solver. Monotone nondecreasing in max_len.
    Intended for tests only.
    """
    if g1.num_nodes * g2.num_nodes > 64:
        raise ValueError("brute force limited to |V1|*|V2| <= 64")
    if max_len > 40:
        raise ValueError("brute force limited to max_len <= 40")

    def node_k(a: str, b: str) -> float:
        return 0.5 if a == b else 0.0

    def edge_k(e: float, ep: float) -> float:
        return math.exp(-abs(e - ep) / (2.0 * config.sigma**2))

    n1, n2 = g1.num_nodes, g2.num_nodes
    w1, w2 = g1.weights.tolist(), g2.weights.tolist()
    out1 = [[j for j in range(n1) if w1[i][j] > 0] for i in range(n1)]
    out2 = [[j for j in range(n2) if w2[i][j] > 0] for i in range(n2)]
    start = 1.0 / (n1 * n2)
    gamma = config.gamma

    # mass[(i, j)]: probability-times-kernel weight of all open path pairs
    # currently ending at node pair (i, j).
    mass: dict[tuple[int, int], float] = {}
    for i in range(n1):
        for j in range(n2):
            kv = node_k(g1.labels[i], g2.labels[j])
            if kv > 0:
                mass[(i, j)] = start * kv

    total = 0.0
    for _ in range(max_len):
        total += gamma * gamma * sum(mass.values())
        nxt: dict[tuple[int, int], float] = {}
        for (i, j), val in mass.items():
            pi = (1.0 - gamma) / len(out1[i])
            pj = (1.0 - gamma) / len(out2[j])
            for u in out1[i]:
                for v in out2[j]:
                    kv = node_k(g1.labels[u], g2.labels[v])
                    if kv == 0.0:
                        continue
                    step = val * pi * pj * edge_k(w1[i][u], w2[j][v]) * kv
                    nxt[(u, v)] = nxt.get((u, v), 0.0) + step
        mass = nxt
        if not mass:
            break
    return total
