"""Stage-1 metric: category entropy of confidence-filtered predicted classes."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .core import ClassCatalog, DEFAULT_TAU, Scene


@dataclass(frozen=True)
class EntropyConfig:
    tau: float = DEFAULT_TAU
    zeta: float = 1e-12

    def __post_init__(self):
        if not (0.0 <= self.tau <= 1.0):
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")
        if not (0.0 < self.zeta < math.inf):
            raise ValueError(f"zeta must be positive and finite, got {self.zeta}")


def scene_class_counts(scenes: list[Scene], catalog: ClassCatalog, config: EntropyConfig) -> np.ndarray:
    """(N, C) counts of each scene's detections per catalog class, in
    catalog order, keeping only those with confidence >= tau: one pass
    over the columns of all the scenes."""
    n = catalog.num_classes
    code = {c: i for i, c in enumerate(catalog.classes)}
    # Code n stands for the classes outside the catalog.
    labels = chain.from_iterable(s.labels for s in scenes)
    codes = np.fromiter(map(code.get, labels, repeat(n)), dtype=np.intp)
    owner = np.repeat(np.arange(len(scenes)), [len(s.labels) for s in scenes])
    if len(codes):
        keep = np.concatenate([s.boxes for s in scenes])[:, 7] >= config.tau
        codes, owner = codes[keep], owner[keep]
    counts = np.bincount(owner * (n + 1) + codes, minlength=len(scenes) * (n + 1))
    return counts.reshape(len(scenes), n + 1)[:, :n]


def filtered_class_counts(
    scenes: list[Scene], catalog: ClassCatalog, config: EntropyConfig
) -> dict[str, int]:
    """Count the detections of ``scenes`` per catalog class, keeping only
    those with confidence >= tau: the column sums of ``scene_class_counts``."""
    totals = scene_class_counts(scenes, catalog, config).sum(axis=0)
    return dict(zip(catalog.classes, totals.tolist()))


def counts_entropy(class_counts: dict[str, int], zeta: float = 0.0) -> float:
    """Shannon entropy (natural log) of a class-count histogram.

    A zero-total histogram scores 0. Only nonzero classes contribute, each
    with ``-p * ln(p + zeta)``; ``zeta = 0`` gives the plain entropy.
    """
    total = sum(class_counts.values())
    if total == 0:
        return 0.0
    ent = 0.0
    for n in class_counts.values():
        p = n / total
        if p > 0.0:
            ent -= p * math.log(p + zeta)
    # The stability constant makes a pure single-class histogram come out at
    # -ln(1 + zeta) < 0; clamp so the range contract [0, ln C + C*zeta] holds.
    return max(ent, 0.0)


def category_entropy(scene: Scene, catalog: ClassCatalog, config: EntropyConfig) -> float:
    """Entropy of the scene's filtered class proportions.

    A scene with no surviving detections scores 0: no class evidence means no
    balance contribution, placing it last in stage-1 ranking.
    """
    return counts_entropy(filtered_class_counts([scene], catalog, config), config.zeta)


def rank_by_entropy(
    scenes: list[Scene], catalog: ClassCatalog, config: EntropyConfig, top_n: int
) -> list[str]:
    """Ids of the top_n scenes by descending entropy, ties by ascending id."""
    if top_n > len(scenes):
        raise ValueError(f"top_n={top_n} exceeds pool size {len(scenes)}")
    # Scenes of equal counts have equal entropies: each distinct row is scored once.
    rows, inverse = np.unique(scene_class_counts(scenes, catalog, config), axis=0, return_inverse=True)
    negated = [-counts_entropy(dict(zip(catalog.classes, row)), config.zeta) for row in rows.tolist()]
    ranked = sorted(zip(map(negated.__getitem__, inverse.reshape(-1).tolist()), (s.id for s in scenes)))
    return [sid for _, sid in ranked[:top_n]]
