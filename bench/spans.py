"""Spans and counters recorded around calls into each scenesel module.

The program itself is not changed: ``Instrumentation.install`` replaces
public functions with timing wrappers at every name a caller looks them up
by (for example both ``kernel.marginalized_kernel`` and
``sampler.marginalized_kernel``), and ``remove`` puts the originals back.
Spans stay in memory as flat arrays and are written out once, at the end of
the run.
"""
from __future__ import annotations

import functools
import gzip
import json
import logging
import math
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from scenesel import cli, diagnostics, entropy, kernel, kitti, sampler, state, synth, uncertainty


class Tracer:
    """Flat in-memory span store plus the counters that sit next to it.

    A span is (name, start, end, parent span, round). ``round`` is the
    identifier every span of one selection round shares; set-up spans carry
    -1. Nested spans never overlap their siblings (one thread), so a span's
    self time is its duration minus the summed durations of its children.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.round = array("i")
        self._open: list[int] = []
        self.round_id = -1
        self.counts: Counter = Counter()
        # Distinct (graph, graph) pairs evaluated in the current round.
        self.pairs_seen: set = set()
        self.t0 = perf_counter()

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.round.append(self.round_id)
        self.end.append(math.nan)
        self.start.append(perf_counter() - self.t0)
        self._open.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter() - self.t0
        self._open.pop()

    def inside(self, name: str) -> bool:
        """Whether a span of this name is open (an ancestor of the caller)."""
        nid = self._name_ids.get(name)
        return nid is not None and any(self.name[i] == nid for i in self._open)

    def reset_counts(self) -> None:
        # Cleared in place: wrappers hold references to both.
        self.counts.clear()
        self.pairs_seen.clear()

    def totals(self, lo: int) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive seconds, self seconds and call counts per span name,
        over the spans recorded since index ``lo``."""
        hi = len(self.start)
        names = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64))[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=hi - lo)
        self_dur = dur - child_time
        n = len(self.names)
        incl = np.bincount(names, weights=dur, minlength=n)
        excl = np.bincount(names, weights=self_dur, minlength=n)
        calls = np.bincount(names, minlength=n)
        return (
            {k: float(incl[i]) for i, k in enumerate(self.names)},
            {k: float(excl[i]) for i, k in enumerate(self.names)},
            {k: int(calls[i]) for i, k in enumerate(self.names)},
        )

    def write(self, path: Path, header: dict) -> None:
        doc = dict(header)
        doc["names"] = self.names
        doc["spans"] = {
            "name": self.name.tolist(),
            "start": [round(v, 7) for v in self.start],
            "end": [round(v, 7) for v in self.end],
            "parent": self.parent.tolist(),
            "round": self.round.tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


class _ExclusionCounter(logging.Handler):
    """Counts the uncertainty stage's near-singular-yaw exclusion warnings."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("excluding scene"):
            self.tracer.counts["uncertainty.excluded"] += 1


class Instrumentation:
    """Installs and removes the timing wrappers for one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.active = False
        self._saved: list[tuple[object, str, object]] = []
        self._handler = _ExclusionCounter(tracer)

    def install(self) -> None:
        span = self._span
        self._patch(
            span("kernel.marginalized_kernel", kernel.marginalized_kernel, self._count_kernel),
            kernel,
            sampler,
            attr="marginalized_kernel",
        )
        self._patch(span("kernel.build_scene_graph", kernel.build_scene_graph), kernel, sampler, attr="build_scene_graph")
        self._patch(span("sampler.matrix", sampler.SimilarityCache.matrix), sampler.SimilarityCache, attr="matrix")
        self._patch(self._cache_requests(sampler.SimilarityCache.similarity), sampler.SimilarityCache, attr="similarity")
        self._patch(span("sampler.farthest_sampling", sampler.farthest_sampling), sampler, attr="farthest_sampling")
        self._patch(
            span("sampler.three_stage_select", sampler.three_stage_select, self._count_selection_log),
            sampler,
            attr="three_stage_select",
        )
        self._patch(
            span("sampler.run_al_rounds", sampler.run_al_rounds, self._count_round_reports),
            sampler,
            attr="run_al_rounds",
        )
        self._patch(span("synth.generate_pool", synth.generate_pool), synth, attr="generate_pool")
        self._patch(self._traced_predictors(synth.make_predictor), synth, attr="make_predictor")
        self._patch(span("kitti.load_pool_dir", kitti.load_pool_dir), kitti, attr="load_pool_dir")
        self._patch(span("kitti.parse_label_file", kitti.parse_label_file, self._count_bytes), kitti, attr="parse_label_file")
        self._patch(
            span("kitti.load_mixture_sidecar", kitti.load_mixture_sidecar, self._count_bytes),
            kitti,
            attr="load_mixture_sidecar",
        )
        self._patch(span("kitti.save_mixture_sidecar", kitti.save_mixture_sidecar), kitti, attr="save_mixture_sidecar")
        self._patch(
            span("uncertainty.rank_by_uncertainty", uncertainty.rank_by_uncertainty, self._count_scenes),
            uncertainty,
            sampler,
            attr="rank_by_uncertainty",
        )
        self._patch(
            span("entropy.rank_by_entropy", entropy.rank_by_entropy, self._count_scenes),
            entropy,
            sampler,
            attr="rank_by_entropy",
        )
        self._patch(
            span("diagnostics.selection_report", diagnostics.selection_report, self._count_report_pairs),
            diagnostics,
            attr="selection_report",
        )
        self._patch(span("state.load_round_state", state.load_round_state), state, attr="load_round_state")
        self._patch(span("state.save_round_state", state.save_round_state), state, attr="save_round_state")
        self._patch(span("cli.main", cli.main), cli, attr="main")
        logging.getLogger(uncertainty.__name__).addHandler(self._handler)
        self.active = True

    def remove(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        logging.getLogger(uncertainty.__name__).removeHandler(self._handler)

    def _patch(self, wrapper, *owners, attr: str) -> None:
        for owner in owners:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _span(self, name: str, fn, on_return=None):
        """Wrap ``fn`` in a span; ``on_return(name, args, result)`` records
        the counts that belong to the call."""
        t = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = t.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                t.finish(idx)
            if on_return is not None:
                on_return(name, args, result)
            return result

        return wrapper

    def _traced_predictors(self, make_predictor):
        """Predictors outlive ``remove``, so each call checks ``active``."""

        @functools.wraps(make_predictor)
        def factory(*args, **kwargs):
            predictor = make_predictor(*args, **kwargs)
            traced = self._span("synth.predict", predictor)

            def predict(scene):
                return traced(scene) if self.active else predictor(scene)

            return predict

        return factory

    def _cache_requests(self, similarity):
        """A request is a hit when it needed no kernel evaluation."""
        counts = self.tracer.counts

        @functools.wraps(similarity)
        def wrapper(cache, s1, s2, counter=None):
            before = counts["kernel.evals"]
            value = similarity(cache, s1, s2, counter)
            counts["sampler.cache.requests"] += 1
            if counts["kernel.evals"] == before:
                counts["sampler.cache.hits"] += 1
            return value

        return wrapper

    def _count_kernel(self, name, args, result) -> None:
        g1, g2 = args[0], args[1]
        counts = self.tracer.counts
        counts["kernel.evals"] += 1
        counts["kernel.product_nodes"] += g1.num_nodes * g2.num_nodes
        h1, h2 = hash((g1.labels, g1.weights)), hash((g2.labels, g2.weights))
        self.tracer.pairs_seen.add((h1, h2) if h1 <= h2 else (h2, h1))

    def _count_selection_log(self, name, args, result) -> None:
        # Inside run_al_rounds the round report already carries this count.
        if not self.tracer.inside("sampler.run_al_rounds"):
            self.tracer.counts["sampler.reported_kernel_evals"] += result[1].kernel_evals

    def _count_round_reports(self, name, args, result) -> None:
        for report in result[1]:
            self.tracer.counts["sampler.reported_kernel_evals"] += report.kernel_evals

    def _count_scenes(self, name, args, result) -> None:
        self.tracer.counts[name + ".scenes"] += len(args[0])

    def _count_bytes(self, name, args, result) -> None:
        self.tracer.counts["kitti.bytes_read"] += Path(args[0]).stat().st_size

    def _count_report_pairs(self, name, args, result) -> None:
        self.tracer.counts["diagnostics.pairs"] += result.pair_sample_count
