"""The one summary of a selection: class balance, similarity spread, uncertainty.

``selection_report`` embodies the selection objectives as measurable
quantities over a chosen subset: its class histogram with the histogram's
entropy and KL against the uniform target, summary stats of its pairwise
similarities, and its per-scene uncertainty. ``sampler.run_al_rounds``
makes one per round, over every pair of the round's selection; ``stats``
makes one for a pool or a selection of it, over a seeded sample of
REPORT_PAIRS pairs.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import AnchorTable, DataError, Scene
from .entropy import EntropyConfig, counts_entropy, filtered_class_counts
from .uncertainty import UncertaintyConfig, scene_uncertainties

if TYPE_CHECKING:  # sampler imports this module to summarize its rounds
    from .sampler import SimilarityCache

log = logging.getLogger(__name__)

# Scene pairs whose similarities a sampled report takes.
REPORT_PAIRS = 200


@dataclass
class SelectionReport:
    """The summary of a selection.

    ``entropy`` is the class histogram's entropy with ``EntropyConfig.zeta``,
    as the entropy stage scores a scene; ``discrete_entropy`` is its plain
    entropy, and it and ``category_kl`` are None for a histogram of no
    objects. The similarity stats, over ``pair_sample_count`` pairs, are None
    below two scenes. ``uncertainties`` holds each scene's score in
    selection order, and is empty, with a ``mean_uncertainty`` of None, when
    the selection is empty or cannot be scored.
    """

    class_counts: dict[str, int]
    object_count: int
    entropy: float
    discrete_entropy: float | None
    category_kl: float | None
    similarity_mean: float | None
    similarity_std: float | None
    pair_sample_count: int
    mean_uncertainty: float | None
    uncertainties: tuple[float, ...]

    @property
    def uncertainty_histogram(self) -> dict[str, list]:
        """The uncertainties in 10 equal bins: their edges and counts; empty
        without uncertainties. Made when read, as only report files show it."""
        if not self.uncertainties:
            return {}
        hist, edges = np.histogram(self.uncertainties, bins=10)
        return {"bin_edges": [float(e) for e in edges], "counts": [int(c) for c in hist]}


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
    cache: SimilarityCache,
    anchors: AnchorTable,
    entropy_cfg: EntropyConfig,
    uncertainty_cfg: UncertaintyConfig,
    sample_seed: int | None = None,
) -> SelectionReport:
    """Summarize a selection: class balance over the classes of
    ``cache.catalog``, similarity spread from ``cache``, uncertainty.

    The similarity stats are taken over every pair of the selection, in
    the order of the upper triangle of ``cache.matrix``; with a
    ``sample_seed``, over REPORT_PAIRS pairs sampled with that seed
    (``sample_pair_similarities``), all of them when the selection has no
    more pairs. A selection that cannot be scored for uncertainty is
    logged and summarized without it.
    """
    catalog = cache.catalog
    counts = filtered_class_counts(selected, catalog, entropy_cfg)
    total = sum(counts.values())
    discrete = kl = None
    if total:
        discrete = counts_entropy(counts)
        kl = category_kl_to_uniform(counts, catalog.num_classes)

    sim_mean = sim_std = None
    pair_count = 0
    if len(selected) >= 2:
        if sample_seed is None:
            n = len(selected)
            sims = cache.matrix(selected)[np.arange(n)[:, None] < np.arange(n)]
        else:
            sims = sample_pair_similarities(selected, REPORT_PAIRS, sample_seed, cache)
        sim_mean = float(np.mean(sims))
        sim_std = float(np.std(sims))
        pair_count = len(sims)

    mean_unc, unc = None, ()
    if selected:
        try:
            scores = scene_uncertainties(selected, anchors, uncertainty_cfg)
        except DataError as exc:
            log.warning("uncertainty omitted: %s", exc)
        else:
            mean_unc, unc = float(np.mean(scores)), tuple(scores.tolist())

    return SelectionReport(
        class_counts=counts,
        object_count=total,
        entropy=counts_entropy(counts, entropy_cfg.zeta),
        discrete_entropy=discrete,
        category_kl=kl,
        similarity_mean=sim_mean,
        similarity_std=sim_std,
        pair_sample_count=pair_count,
        mean_uncertainty=mean_unc,
        uncertainties=unc,
    )
