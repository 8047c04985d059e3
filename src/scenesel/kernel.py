"""Stage-2 metric: scene graphs and the marginalized random-walk kernel.

A scene becomes a complete directed graph over its confidence-filtered
objects plus an ego node at the origin; edge weights are inverse center
distances. Graph similarity is the expected product kernel over random-walk
path pairs, evaluated by fixed-point iteration on the product graph. The
node kernel is zero between different labels, so only the label-matched
("live") product nodes enter the fixed point and the kernel; the solver
drops the others exactly (Kashima, Tsuda & Inokuchi, ICML 2003; Mahe et al.,
ICML 2004). ``indexed_kernels`` is the one solver: it evaluates many pairs,
given as indices into a list of graphs, at once, one stacked fixed point per
live-count group whatever the graph sizes. ``marginalized_kernels`` is its
call over a list of graph pairs, and ``marginalized_kernel`` the one-pair call.
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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ClassCatalog, DEFAULT_TAU, EGO_LABEL, MIRROR_LABEL, Scene, SceneDataError

# Bytes of live-node matrices M_LL solved in one stacked fixed point: a
# batch holds BATCH_BYTES // (8 L^2) pairs of live count L. Bounds the
# engine's working set: the gathers that build them hold a few arrays of
# this size. A pair whose M_LL alone is larger is solved on its own.
BATCH_BYTES = 256 * 1024


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
        if not self.min_dist > 0:
            raise ValueError("min_dist must be positive")

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


@dataclass(frozen=True)
class SceneGraph:
    """Complete directed graph with labeled nodes and positive edge weights.

    ``weights[i][j]`` is the weight of the directed edge i -> j; the diagonal
    must be zero (no self-loops). Contains exactly one ego node; a mirror node
    stands in when the scene has no above-threshold objects.
    """

    labels: tuple[str, ...]
    weights: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if n < 2:
            raise ValueError("graph needs at least two nodes")
        if len(self.weights) != n or any(len(row) != n for row in self.weights):
            raise ValueError("weight matrix shape mismatch")
        for i, row in enumerate(self.weights):
            for j, w in enumerate(row):
                if i == j:
                    if w != 0:
                        raise ValueError(f"diagonal weight ({i},{i}) must be zero")
                    continue
                if not (w > 0 and math.isfinite(w)):
                    raise ValueError(f"edge weight ({i},{j}) must be positive and finite")

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    # The read-only weight array the kernel needs, built on first use and kept
    # with the graph, so a cache that keeps its graphs builds it once per scene.
    @cached_property
    def weight_array(self) -> np.ndarray:
        a = np.array(self.weights)
        a.flags.writeable = False
        return a


def scene_content(
    scene: Scene, catalog: ClassCatalog, config: KernelConfig
) -> tuple[tuple[str, float, float, float], ...]:
    """All that ``build_scene_graph`` reads of a scene: the label and center
    (x, y, z) of each detection that passes the confidence filter and the
    catalog, in scene order. Scenes of equal content have equal graphs."""
    tau = config.tau
    return tuple(
        (d.class_label, b.x, b.y, b.z)
        for d in scene.detections
        if d.confidence >= tau and d.class_label in catalog
        for b in (d.box,)
    )


def build_scene_graph(scene: Scene, catalog: ClassCatalog, config: KernelConfig) -> SceneGraph:
    """Graph over above-threshold objects plus the ego node at the origin,
    built from ``scene_content`` alone.

    With no surviving objects the graph degenerates to ego + mirror with both
    directed edges of weight exactly 1. Two nodes whose distance overflows
    are a ``DistanceOverflowError``.
    """
    kept = scene_content(scene, catalog, config)
    if not kept:
        return SceneGraph(
            labels=(EGO_LABEL, MIRROR_LABEL),
            weights=((0.0, 1.0), (1.0, 0.0)),
        )
    centers = [(0.0, 0.0, 0.0)] + [c[1:] for c in kept]
    labels = (EGO_LABEL,) + tuple(c[0] for c in kept)
    n = len(labels)
    weights = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dx = centers[i][0] - centers[j][0]
            dy = centers[i][1] - centers[j][1]
            dz = centers[i][2] - centers[j][2]
            dist = max(math.sqrt(dx * dx + dy * dy + dz * dz), config.min_dist)
            if math.isinf(dist):
                raise DistanceOverflowError(
                    f"scene {scene.id!r}: the distance from {centers[i]} to {centers[j]} overflows",
                    scene.id,
                )
            weights[i][j] = weights[j][i] = 1.0 / dist
    return SceneGraph(labels=labels, weights=tuple(tuple(row) for row in weights))


def marginalized_kernel(g1: SceneGraph, g2: SceneGraph, config: KernelConfig) -> float:
    """Expected path-pair kernel between two graphs (unnormalized).

    The one-pair call of ``marginalized_kernels``.
    """
    return marginalized_kernels([(g1, g2)], config)[0]


def marginalized_kernels(
    pairs: list[tuple[SceneGraph, SceneGraph]], config: KernelConfig
) -> list[float]:
    """Unnormalized kernels of many graph pairs, in input order: the call
    of ``indexed_kernels`` over the pairs' distinct graph objects."""
    slot: dict[int, int] = {}
    graphs: list[SceneGraph] = []
    index = []
    for pair in pairs:
        for g in pair:
            at = slot.get(id(g))
            if at is None:
                at = slot[id(g)] = len(graphs)
                graphs.append(g)
            index.append(at)
    index = np.array(index, dtype=np.intp).reshape(-1, 2)
    return indexed_kernels(graphs, index[:, 0], index[:, 1], config).tolist()


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

    Pairs are grouped by their live count L, whatever their graph sizes. A
    group builds its matrices M_LL in one gather from the call's edge
    weights and iterates them as one stacked matmul, at most BATCH_BYTES of
    M_LL at a time, for the ``config.steps`` steps that every pair takes.
    So every value is the float a lone pair gets, and a cross kernel and
    its two self-kernels are the same truncated series.
    """
    first = np.asarray(first, dtype=np.intp)
    second = np.asarray(second, dtype=np.intp)
    values = np.zeros(len(first))
    if not len(first):
        return values
    # Canonical argument order, so that K(a, b) and K(b, a) share one float
    # result: the graph of smaller (labels, weights) goes first. One rank per
    # graph of the call orders every pair; graphs of equal content, whose
    # ranks differ, compute alike in either order.
    rank = np.empty(len(graphs), dtype=np.intp)
    rank[sorted(range(len(graphs)), key=lambda g: (graphs[g].labels, graphs[g].weights))] = np.arange(len(graphs))
    swap = rank[second] < rank[first]
    first, second = np.where(swap, second, first), np.where(swap, first, second)

    # The call's graphs: labels as integer codes in one flat buffer,
    # weights in another, each graph at its own offset.
    codes: dict[str, int] = {}
    label_codes = np.array([codes.setdefault(a, len(codes)) for g in graphs for a in g.labels])
    sizes = np.array([g.num_nodes for g in graphs])
    label_at = np.cumsum(sizes) - sizes
    weight_at = np.cumsum(sizes * sizes) - sizes * sizes
    # A walk never stays on a node, so a step pair that stays on a node of
    # either graph has M entry 0. The first graph of a pair reads its
    # weights from a buffer whose diagonal is +inf, the second from one
    # whose diagonal is -inf: such a step pair's |e - e'| is +inf and its
    # edge kernel exactly 0.0, and every other entry is computed as if the
    # diagonal were not there.
    weights_minus = np.concatenate([g.weight_array.reshape(-1) for g in graphs])
    node = np.arange(len(label_codes)) - np.repeat(label_at, sizes)
    diagonal = np.repeat(weight_at, sizes) + node * (np.repeat(sizes, sizes) + 1)
    weights_minus[diagonal] = -math.inf
    weights_plus = weights_minus.copy()
    weights_plus[diagonal] = math.inf
    n1, n2 = sizes[first], sizes[second]

    # Live sets, one label-match array per (|V1|, |V2|) group: with its rows
    # sorted by live count, one nonzero call lists every row's live nodes.
    live: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    by_size = np.lexsort((n2, n1))
    bounds = np.flatnonzero(np.diff(n1[by_size]) | np.diff(n2[by_size])) + 1
    for members in np.split(by_size, bounds):
        a, b = int(n1[members[0]]), int(n2[members[0]])
        l1 = label_codes[label_at[first[members]][:, None] + np.arange(a)]
        l2 = label_codes[label_at[second[members]][:, None] + np.arange(b)]
        match = (l1[:, :, None] == l2[:, None, :]).reshape(len(members), a * b)
        counts = match.sum(axis=1)
        by_count = np.argsort(counts, kind="stable")
        members, counts = members[by_count], counts[by_count]
        # flat indices i * b + j; int32 halves what the call holds until the
        # pairs are solved
        nodes = np.nonzero(match[by_count])[1].astype(np.int32)
        node_at = np.cumsum(counts) - counts
        runs = np.flatnonzero(np.diff(counts)) + 1
        for lo, hi in zip([0, *runs.tolist()], [*runs.tolist(), len(counts)]):
            count = int(counts[lo])
            if count:
                flat = nodes[node_at[lo] : node_at[lo] + (hi - lo) * count].reshape(hi - lo, count)
                live.setdefault(count, []).append((members[lo:hi], flat))

    for count, parts in live.items():
        members = np.concatenate([p[0] for p in parts])
        nodes = np.concatenate([p[1] for p in parts])
        size = max(1, BATCH_BYTES // (8 * count * count))
        for lo in range(0, len(members), size):
            batch = members[lo : lo + size]
            i, j = np.divmod(nodes[lo : lo + size], n2[batch][:, None])
            m = _live_edges(weights_plus, weight_at[first[batch]], n1[batch], i)
            np.subtract(m, _live_edges(weights_minus, weight_at[second[batch]], n2[batch], j), out=m)
            values[batch] = _solve_live(m, n1[batch], n2[batch], config)
    return values


def _live_edges(flat: np.ndarray, at: np.ndarray, n: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Edge weights between the live nodes of b pairs on one side, (b, L, L).

    The graph of pair p has its n[p] x n[p] weights at ``flat[at[p]:]`` and
    ``nodes[p, x]`` is its node in live node x; entry (p, x, y) is the
    weight of the edge nodes[p, x] -> nodes[p, y].
    """
    return flat[(at[:, None] + nodes * n[:, None])[:, :, None] + nodes[:, None, :]]


def _solve_live(m: np.ndarray, n1: np.ndarray, n2: np.ndarray, config: KernelConfig) -> np.ndarray:
    """Kernels of b pairs with the same live count L, from the graphs' node
    counts and the (b, L, L) differences e - e' of the edge weights between
    their live nodes (see ``_live_edges``), which become M_LL in place.
    Runs ``config.steps`` steps of R_L = q + M_LL R_L from R_L = q."""
    b, count, _ = m.shape
    # Edge kernel exp(-|e - e'| / (2 sigma^2)), in place: -x / c and x / -c
    # are the same float.
    np.abs(m, out=m)
    # Near the smallest sigma the quotient overflows to -inf, whose edge
    # kernel is its limit, 0.
    with np.errstate(over="ignore"):
        np.divide(m, -(2.0 * config.sigma**2), out=m)
    np.exp(m, out=m)
    # Every graph is complete, so each step of a walk on g1 has probability
    # (1-gamma)/(n1-1) and each on g2 (1-gamma)/(n2-1). M_LL is the edge
    # kernel times their product, times the node kernel 1/2 of the live
    # target, multiplied in that order.
    m *= (((1.0 - config.gamma) / (n1 - 1)) * ((1.0 - config.gamma) / (n2 - 1)))[:, None, None]
    m *= 0.5

    q = config.gamma**2
    r = np.full((b, count), q)
    for _ in range(config.steps):
        r = q + np.matmul(m, r[:, :, None])[:, :, 0]

    # kv_L . R_L, one dot product per pair, so that no pair's float depends
    # on the others in its batch
    kv = np.full((count, 1), 0.5)
    return 1.0 / (n1 * n2) * np.matmul(r[:, None, :], kv)[:, 0, 0]


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
    out1 = [[j for j in range(n1) if g1.weights[i][j] > 0] for i in range(n1)]
    out2 = [[j for j in range(n2) if g2.weights[i][j] > 0] for i in range(n2)]
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
                    step = val * pi * pj * edge_k(g1.weights[i][u], g2.weights[j][v]) * kv
                    nxt[(u, v)] = nxt.get((u, v), 0.0) + step
        mass = nxt
        if not mass:
            break
    return total
