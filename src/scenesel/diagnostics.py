"""Dataset-level diagnostics: class balance, similarity spread, uncertainty.

These embody the selection objectives as measurable quantities over a chosen
subset: KL of the class histogram against the uniform target, summary stats
of sampled pairwise similarities, and binned per-scene uncertainty.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .core import AnchorTable, DataError, Scene
from .entropy import EntropyConfig, counts_entropy, filtered_class_counts
from .sampler import SimilarityCache
from .uncertainty import UncertaintyConfig, scene_uncertainties

log = logging.getLogger(__name__)

# Scene pairs whose similarities a report samples.
REPORT_PAIRS = 200


@dataclass
class DiagReport:
    class_histogram: dict[str, int]
    object_count: int
    discrete_entropy: float | None
    category_kl: float | None
    similarity_mean: float | None
    similarity_std: float | None
    pair_sample_count: int
    uncertainty_histogram: dict[str, list] = field(default_factory=dict)


def category_kl_to_uniform(class_counts: dict[str, int], num_classes: int) -> float:
    """KL divergence of the count histogram against the uniform distribution.

    Equals ln(C) minus the histogram entropy; zero iff counts are uniform
    over the full catalog.
    """
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    total = sum(class_counts.values())
    if total == 0:
        raise DataError("cannot compute category KL of an empty histogram")
    return math.log(num_classes) - counts_entropy(class_counts)


def sample_pair_similarities(
    scenes: list[Scene],
    n_pairs: int,
    rng_seed: int,
    cache: SimilarityCache,
) -> list[float]:
    """Similarity of n_pairs random unordered scene pairs, seeded, from ``cache``.

    Pairs are drawn without replacement across pairs; n_pairs is capped at
    the number of distinct pairs.
    """
    n = len(scenes)
    if n < 2:
        raise DataError("need at least two scenes to sample pairs")
    total_pairs = n * (n - 1) // 2
    n_pairs = min(n_pairs, total_pairs)
    rng = np.random.default_rng(rng_seed)
    chosen = rng.choice(total_pairs, size=n_pairs, replace=False)
    index_pairs = []
    for flat in sorted(int(c) for c in chosen):
        # Unrank the flat upper-triangle index into (i, j).
        i = int((2 * n - 1 - math.sqrt((2 * n - 1) ** 2 - 8 * flat)) // 2)
        j = flat - i * (2 * n - i - 1) // 2 + i + 1
        index_pairs.append((i, j))
    return cache.pair_similarities(scenes, index_pairs)


def selection_report(
    selected: list[Scene],
    pool: list[Scene],
    entropy_cfg: EntropyConfig,
    uncertainty_cfg: UncertaintyConfig,
    anchors: AnchorTable,
    cache: SimilarityCache,
    rng_seed: int = 0,
) -> DiagReport:
    """Summarize a selection: class balance over the classes of
    ``cache.catalog``, similarity spread over REPORT_PAIRS sampled pairs from
    ``cache``, uncertainty.

    An empty selection yields a zeroed report with KL marked not applicable.
    """
    pool_ids = {s.id for s in pool}
    for s in selected:
        if s.id not in pool_ids:
            raise ValueError(f"selected scene {s.id!r} not in pool")

    catalog = cache.catalog
    counts = filtered_class_counts(selected, catalog, entropy_cfg)
    total = sum(counts.values())

    if not selected or total == 0:
        return DiagReport(
            class_histogram=counts,
            object_count=total,
            discrete_entropy=None,
            category_kl=None,
            similarity_mean=None,
            similarity_std=None,
            pair_sample_count=0,
        )

    entropy = counts_entropy(counts)
    kl = category_kl_to_uniform(counts, catalog.num_classes)

    sim_mean = sim_std = None
    pair_count = 0
    if len(selected) >= 2:
        sims = sample_pair_similarities(selected, REPORT_PAIRS, rng_seed, cache)
        sim_mean = float(np.mean(sims))
        sim_std = float(np.std(sims))
        pair_count = len(sims)

    unc_hist: dict[str, list] = {}
    try:
        unc = scene_uncertainties(selected, anchors, uncertainty_cfg)
        hist, edges = np.histogram(unc, bins=10)
        unc_hist = {"bin_edges": [float(e) for e in edges], "counts": [int(c) for c in hist]}
    except DataError as exc:
        log.warning("uncertainty histogram omitted: %s", exc)

    return DiagReport(
        class_histogram=counts,
        object_count=total,
        discrete_entropy=entropy,
        category_kl=kl,
        similarity_mean=sim_mean,
        similarity_std=sim_std,
        pair_sample_count=pair_count,
        uncertainty_histogram=unc_hist,
    )
