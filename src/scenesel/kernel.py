"""Stage-2 metric: scene graphs and the marginalized random-walk kernel.

A scene becomes a complete directed graph over its confidence-filtered
objects plus an ego node at the origin; edge weights are inverse center
distances. Graph similarity is the expected product kernel over random-walk
path pairs, evaluated by fixed-point iteration on the product graph.
``marginalized_kernels`` is the one solver: it evaluates many pairs at once,
one stacked fixed point per graph-size group, and ``marginalized_kernel`` is
its one-pair call. ``sampler.SimilarityCache`` normalizes the kernel by the
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

from .core import ClassCatalog, ConvergenceError, Scene

# Bytes of product-graph matrices solved in one stacked fixed point. Bounds
# the engine's working set: the broadcast that builds them holds a few
# arrays of this size. A larger product graph is solved on its own.
BATCH_BYTES = 256 * 1024


@dataclass(frozen=True)
class KernelConfig:
    gamma: float = 0.1
    sigma: float = 1.0
    tol: float = 1e-8
    max_iter: int = 1000
    min_dist: float = 0.1
    tau: float = 0.3  # confidence filter, shared with the entropy metric

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must be in (0, 1)")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be >= 1")
        if not self.min_dist > 0:
            raise ValueError("min_dist must be positive")


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

    # Read-only arrays the kernel needs, built on first use and kept with the
    # graph, so a cache that keeps its graphs builds them once per scene.
    @cached_property
    def weight_array(self) -> np.ndarray:
        return _frozen(np.array(self.weights))

    @cached_property
    def label_array(self) -> np.ndarray:
        return _frozen(np.array(self.labels))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def build_scene_graph(scene: Scene, catalog: ClassCatalog, config: KernelConfig) -> SceneGraph:
    """Graph over above-threshold objects plus the ego node at the origin.

    With no surviving objects the graph degenerates to ego + mirror with both
    directed edges of weight exactly 1.
    """
    kept = [d for d in scene.detections if d.confidence >= config.tau and d.class_label in catalog]
    if not kept:
        return SceneGraph(
            labels=(catalog.ego_label, catalog.mirror_label),
            weights=((0.0, 1.0), (1.0, 0.0)),
        )
    centers = [(0.0, 0.0, 0.0)] + [d.box.center for d in kept]
    labels = (catalog.ego_label,) + tuple(d.class_label for d in kept)
    n = len(labels)
    weights = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dx = centers[i][0] - centers[j][0]
            dy = centers[i][1] - centers[j][1]
            dz = centers[i][2] - centers[j][2]
            dist = max(math.sqrt(dx * dx + dy * dy + dz * dz), config.min_dist)
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
    """Unnormalized kernels of many graph pairs, in input order.

    Solves R = q + M R on each product graph by fixed-point iteration, where
    q is the joint termination probability gamma^2 and M combines transition
    probabilities with the edge kernel exp(-|e - e'| / (2 sigma^2)) and the
    node kernel [label == label'] / 2. A kernel is then the start
    distribution contracted with the node kernel and R.

    Pairs are grouped by (|V1|, |V2|). A group builds its matrices M in one
    broadcast and iterates them as one stacked matmul, at most BATCH_BYTES of
    M at a time; each pair's R is frozen at the iteration where its own
    residual drops below tol. So every value is the float a lone pair gets.
    """
    # canonical argument order so K(a, b) and K(b, a) share one float result
    ordered = [
        (g2, g1) if (g2.labels, g2.weights) < (g1.labels, g1.weights) else (g1, g2)
        for g1, g2 in pairs
    ]
    groups: dict[tuple[int, int], list[int]] = {}
    for k, (g1, g2) in enumerate(ordered):
        groups.setdefault((g1.num_nodes, g2.num_nodes), []).append(k)

    values = [0.0] * len(ordered)
    for (n1, n2), members in groups.items():
        l1 = np.array([ordered[k][0].label_array for k in members])
        l2 = np.array([ordered[k][1].label_array for k in members])
        kv = 0.5 * (l1[:, :, None] == l2[:, None, :]).astype(float)
        # A pair with no matching labels has kernel 0 and is not iterated.
        live = kv.reshape(len(members), -1).any(axis=1)
        kv = kv[live]
        members = [k for k, ok in zip(members, live) if ok]
        size = max(1, BATCH_BYTES // (8 * (n1 * n2) ** 2))
        for lo in range(0, len(members), size):
            batch = members[lo : lo + size]
            solved = _solve_batch([ordered[k] for k in batch], kv[lo : lo + size], config)
            for k, v in zip(batch, solved):
                values[k] = v
    return values


def _solve_batch(
    pairs: list[tuple[SceneGraph, SceneGraph]], kv: np.ndarray, config: KernelConfig
) -> list[float]:
    """Kernels of same-size pairs; ``kv`` stacks their node-kernel matrices."""
    b, n1, n2 = kv.shape
    w1 = np.array([g1.weight_array for g1, _ in pairs])
    w2 = np.array([g2.weight_array for _, g2 in pairs])

    # Edge kernel exp(-|e - e'| / (2 sigma^2)) on every (edge of g1) x (edge
    # of g2) combination, in place: -x / c and x / -c are the same float.
    m = w1[:, :, None, :, None] - w2[:, None, :, None, :]
    np.abs(m, out=m)
    np.divide(m, -(2.0 * config.sigma**2), out=m)
    np.exp(m, out=m)
    # Every graph is complete, so each step of a walk on g1 has probability
    # (1-gamma)/(n1-1) and each on g2 (1-gamma)/(n2-1). M is the edge kernel
    # times their product, times the 0/1 mask of pairs of real (off-diagonal)
    # edges, times the node kernel, multiplied in that order.
    m *= ((1.0 - config.gamma) / (n1 - 1)) * ((1.0 - config.gamma) / (n2 - 1))
    off1, off2 = ~np.eye(n1, dtype=bool), ~np.eye(n2, dtype=bool)
    m *= off1[:, None, :, None] & off2[None, :, None, :]
    m *= kv[:, None, None, :, :]
    m = m.reshape(b, n1 * n2, n1 * n2)

    q = np.full(n1 * n2, config.gamma**2)
    r = np.tile(q, (b, 1))
    active = np.ones(b, dtype=bool)
    residual = np.full(b, math.inf)
    for _ in range(config.max_iter):
        r_next = q + np.matmul(m, r[:, :, None])[:, :, 0]
        residual = np.max(np.abs(r_next - r), axis=1)
        np.copyto(r, r_next, where=active[:, None])
        active &= ~(residual < config.tol)
        if not active.any():
            break
    else:
        raise ConvergenceError(
            "marginalized kernel fixed point did not converge", float(residual[active].max())
        )

    start = 1.0 / (n1 * n2)
    return [float(start * (kv[p].reshape(-1) @ r[p])) for p in range(b)]


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
