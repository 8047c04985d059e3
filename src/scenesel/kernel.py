"""Stage-2 metric: scene graphs and the marginalized random-walk kernel.

A scene becomes a complete directed graph over its confidence-filtered
objects plus an ego node at the origin; edge weights are inverse center
distances. Graph similarity is the expected product kernel over random-walk
path pairs, evaluated by fixed-point iteration on the product graph.
``sampler.SimilarityCache`` normalizes it by the self-kernels into a
similarity in [0, 1] with self-similarity exactly 1.

Random-walk model (the cited kernel's standard construction): uniform start
probability 1/|V|, per-step termination probability gamma, and transition
probability (1-gamma)/outdeg(u) to each out-neighbor of u.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ClassCatalog, ConvergenceError, Scene


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
        if not self.min_dist > 0:
            raise ValueError("min_dist must be positive")


class KernelEvalCounter:
    """Counts pairwise kernel evaluations, for complexity instrumentation."""

    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1


@dataclass(frozen=True)
class SceneGraph:
    """Complete directed graph with labeled nodes and positive edge weights.

    ``weights[i][j]`` is the weight of the directed edge i -> j; the diagonal
    is zero and ignored. Contains exactly one ego node; a mirror node stands
    in when the scene has no above-threshold objects.
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
                    continue
                if not (w > 0 and math.isfinite(w)):
                    raise ValueError(f"edge weight ({i},{j}) must be positive and finite")

    @property
    def num_nodes(self) -> int:
        return len(self.labels)


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


def _node_kernel_matrix(g1: SceneGraph, g2: SceneGraph) -> np.ndarray:
    l1 = np.array(g1.labels, dtype=object)
    l2 = np.array(g2.labels, dtype=object)
    return 0.5 * (l1[:, None] == l2[None, :]).astype(float)


def _transition_matrix(g: SceneGraph, gamma: float) -> np.ndarray:
    w = np.asarray(g.weights)
    adj = w > 0
    outdeg = adj.sum(axis=1)
    t = np.zeros_like(w)
    t[adj] = 1.0
    return (1.0 - gamma) * t / outdeg[:, None]


def marginalized_kernel(
    g1: SceneGraph,
    g2: SceneGraph,
    config: KernelConfig,
    counter: KernelEvalCounter | None = None,
) -> float:
    """Expected path-pair kernel between two graphs (unnormalized).

    Solves R = q + M R on the product graph by fixed-point iteration, where q
    is the joint termination probability gamma^2 and M combines transition
    probabilities with the edge kernel exp(-|e - e'| / (2 sigma^2)) and the
    node kernel [label == label'] / 2. The full kernel is then the start
    distribution contracted with the node kernel and R.
    """
    if counter is not None:
        counter.bump()
    # canonical argument order so K(a, b) and K(b, a) share one float result
    if (g2.labels, g2.weights) < (g1.labels, g1.weights):
        g1, g2 = g2, g1
    kv = _node_kernel_matrix(g1, g2)
    if not kv.any():
        return 0.0
    n1, n2 = g1.num_nodes, g2.num_nodes
    w1 = np.asarray(g1.weights)
    w2 = np.asarray(g2.weights)
    t1 = _transition_matrix(g1, config.gamma)
    t2 = _transition_matrix(g2, config.gamma)

    # Edge kernel on every (edge of g1) x (edge of g2) combination.
    ke = np.exp(-np.abs(w1[:, None, :, None] - w2[None, :, None, :]) / (2.0 * config.sigma**2))
    m = (t1[:, None, :, None] * t2[None, :, None, :] * ke * kv[None, None, :, :]).reshape(
        n1 * n2, n1 * n2
    )

    q = np.full(n1 * n2, config.gamma**2)
    r = q.copy()
    residual = math.inf
    for _ in range(config.max_iter):
        r_next = q + m @ r
        residual = float(np.max(np.abs(r_next - r)))
        r = r_next
        if residual < config.tol:
            break
    else:
        raise ConvergenceError("marginalized kernel fixed point did not converge", residual)

    start = 1.0 / (n1 * n2)
    return float(start * (kv.reshape(-1) @ r))


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
