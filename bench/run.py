"""scenesel benchmark: closed-loop selection workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fs_pool --seed 1 --seconds 25 --trace 0

The program is imported from the checkout's ``src/``. With ``--trace 0`` the
run measures the end-to-end metrics that ``BENCHMARK.json`` lists under
``end_to_end``; with ``--trace 1`` it wraps calls into each scenesel module
and reports the ``per_layer`` metrics instead, plus the tracing overhead.
The end-to-end times are scaled to a reference machine speed, measured
while the run goes on by the probe in ``speed.py``; the wall times are
printed beside them. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See NOTES.md for the
workloads, the metric definitions and the spread seen while setting bounds.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("fs_pool", "funnel_sim", "select_disk")
# Set-up repeats at least SETUP_REPS times and until SETUP_SECONDS have
# passed, so that a cheap set-up still yields a steady median.
SETUP_REPS = 3
SETUP_SECONDS = 2.0
RUN_DIR = ".perfbench_run"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Put the checkout's ``src/`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "scenesel" / "__init__.py").is_file():
        raise SystemExit(f"error: no scenesel package under {src}")
    sys.path.insert(0, str(src))
    # The CLI reads SCENESEL_* settings from the environment; the workloads
    # are defined by their flags alone.
    for key in [k for k in os.environ if k.startswith("SCENESEL_")]:
        del os.environ[key]
    import scenesel

    if Path(scenesel.__file__).resolve().parent != (src / "scenesel").resolve():
        raise SystemExit(f"error: imported scenesel from {scenesel.__file__}, not {src}")


def run_episode(workload, meter, tracer=None):
    """One fixed sequence of rounds. Returns (round timings, selections,
    attempted, failed); a round that raises ends the episode. A timing is
    (seconds less the speed probes, start, end); see speed.py.

    Before each round, untimed, the garbage that set-up and the previous
    round's checks left is collected, so that no round pays for another's."""
    timings, selections, attempted, failed = [], [], 0, 0
    for i in range(workload.rounds):
        workload.prepare(i)
        gc.collect()
        attempted += 1
        if tracer is not None:
            tracer.round_id += 1
            tracer.pairs_seen.clear()
            span = tracer.begin("bench.round")
        clock = meter.clock()
        try:
            out = workload.run(i)
        except Exception:
            traceback.print_exc()
            print(f"round {workload.label(i)} raised", file=sys.stderr)
            failed += 1
            break
        finally:
            timing = meter.timing(clock)
            if tracer is not None:
                tracer.finish(span)
                tracer.counts["kernel.distinct_pairs"] += len(tracer.pairs_seen)
        selected, problems = workload.check(i, out)
        for problem in problems:
            print(f"round {workload.label(i)}: {problem}", file=sys.stderr)
        failed += bool(problems)
        timings.append(timing)
        selections.append(f"{workload.label(i)}:{','.join(selected)}")
    return timings, selections, attempted, failed


def digest(selections: list[str]) -> str:
    return hashlib.sha256("\n".join(selections).encode()).hexdigest()


def layer_metrics(tracer, lo: int) -> dict[str, float]:
    """Per-layer values for the spans recorded since index ``lo``."""
    incl, excl, calls, c = *tracer.totals(lo), tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    evals = c["kernel.evals"]
    kernel_s = incl.get("kernel.marginalized_kernel", 0.0)
    return {
        "kernel.evals": evals,
        "kernel.s": kernel_s,
        "kernel.us_per_eval": ratio(kernel_s * 1e6, evals),
        "kernel.product_nodes": c["kernel.product_nodes"],
        "kernel.distinct_ratio": ratio(c["kernel.distinct_pairs"], evals),
        "kernel.build_scene_graph.calls": calls.get("kernel.build_scene_graph", 0),
        "kernel.build_scene_graph.s": incl.get("kernel.build_scene_graph", 0.0),
        "sampler.cache.requests": c["sampler.cache.requests"],
        "sampler.cache.hits": c["sampler.cache.hits"],
        "sampler.cache.hit_ratio": ratio(c["sampler.cache.hits"], c["sampler.cache.requests"]),
        "sampler.matrix.s": excl.get("sampler.matrix", 0.0),
        "sampler.farthest_sampling.s": incl.get("sampler.farthest_sampling", 0.0),
        "sampler.three_stage_select.s": excl.get("sampler.three_stage_select", 0.0),
        "sampler.run_al_rounds.s": excl.get("sampler.run_al_rounds", 0.0),
        "sampler.reported_kernel_evals": c["sampler.reported_kernel_evals"],
        "synth.generate_pool.s": incl.get("synth.generate_pool", 0.0),
        "synth.predict.calls": calls.get("synth.predict", 0),
        "synth.predict.s": incl.get("synth.predict", 0.0),
        "kitti.load_pool_dir.s": incl.get("kitti.load_pool_dir", 0.0),
        "kitti.parse_label_file.calls": calls.get("kitti.parse_label_file", 0),
        "kitti.parse_label_file.s": incl.get("kitti.parse_label_file", 0.0),
        "kitti.load_mixture_sidecar.calls": calls.get("kitti.load_mixture_sidecar", 0),
        "kitti.load_mixture_sidecar.s": incl.get("kitti.load_mixture_sidecar", 0.0),
        "kitti.bytes_read": c["kitti.bytes_read"],
        "kitti.save_mixture_sidecar.s": incl.get("kitti.save_mixture_sidecar", 0.0),
        "uncertainty.rank_by_uncertainty.s": incl.get("uncertainty.rank_by_uncertainty", 0.0),
        "uncertainty.rank_by_uncertainty.scenes": c["uncertainty.rank_by_uncertainty.scenes"],
        "uncertainty.excluded": c["uncertainty.excluded"],
        "entropy.rank_by_entropy.s": incl.get("entropy.rank_by_entropy", 0.0),
        "entropy.rank_by_entropy.scenes": c["entropy.rank_by_entropy.scenes"],
        "diagnostics.selection_report.s": incl.get("diagnostics.selection_report", 0.0),
        "diagnostics.pairs": c["diagnostics.pairs"],
        "state.load_round_state.s": incl.get("state.load_round_state", 0.0),
        "state.save_round_state.s": incl.get("state.save_round_state", 0.0),
        "cli.main.s": excl.get("cli.main", 0.0),
    }


# Layers that run only while setting up; reported per set-up, not per episode.
SETUP_LAYERS = ("synth.generate_pool.s", "kitti.save_mixture_sidecar.s")


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def measure(workload, spot_check, seconds: float, meter, tracer=None, instr=None):
    """Set up, run the untimed ``spot_check``, then run episodes until
    ``seconds`` are spent, all under the speed meter. Returns (set-up
    timings, traced set-up layers, problems, episodes)."""
    meter.start()
    try:
        return _measure(workload, spot_check, seconds, meter, tracer, instr)
    finally:
        meter.stop()


def _measure(workload, spot_check, seconds, meter, tracer, instr):
    setups, setup_layers = [], []
    if instr:
        instr.install()
    try:
        while len(setups) < SETUP_REPS or sum(s[0] for s in setups) < SETUP_SECONDS:
            lo = len(tracer.start) if tracer else 0
            gc.collect()
            clock = meter.clock()
            workload.setup()
            setups.append(meter.timing(clock))
            if tracer:
                setup_layers.append(layer_metrics(tracer, lo))
                tracer.reset_counts()
    finally:
        if instr:
            instr.remove()
    problems = spot_check(workload)

    # Whole episodes until the run's time is spent: another one starts if it
    # should end within half an episode of the deadline. Traced runs
    # alternate untraced and traced episodes so that both get measured.
    episodes = []
    t0 = perf_counter()
    while True:
        traced = tracer is not None and len(episodes) % 2 == 1
        lo = len(tracer.start) if traced else 0
        if traced:
            tracer.reset_counts()
            instr.install()
        t = perf_counter()
        try:
            timings, selections, attempted, failed = run_episode(workload, meter, tracer if traced else None)
        finally:
            if traced:
                instr.remove()
        episodes.append(
            {"timings": timings, "wall": perf_counter() - t, "digest": digest(selections),
             "attempted": attempted, "failed": failed, "traced": traced,
             "layers": layer_metrics(tracer, lo) if traced else None}
        )
        typical = statistics.median(e["wall"] for e in episodes)
        enough = len(episodes) >= (2 if tracer else 1)
        if enough and perf_counter() - t0 + typical / 2 >= seconds:
            return setups, setup_layers, problems, episodes


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_program()
    import environment
    import workloads
    from spans import Instrumentation, Tracer

    shipped = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
    expected_digest = shipped.get(args.workload, {}).get(str(args.seed))
    workdir = ROOT / RUN_DIR / f"{args.workload}-seed{args.seed}"
    workload = workloads.make_workload(args.workload, args.seed, workdir)
    meter = speed.SpeedMeter()
    tracer = Tracer() if args.trace else None
    instr = Instrumentation(tracer) if args.trace else None
    try:
        setups, setup_layers, problems, episodes = measure(
            workload, lambda w: workloads.kernel_spot_check(w, args.seed), args.seconds, meter, tracer, instr
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(e["attempted"] for e in episodes)
    failed = sum(e["failed"] for e in episodes)
    digests = sorted({e["digest"] for e in episodes})
    if len(digests) > 1:
        problems.append(f"episodes selected different ids: {digests}")
    if expected_digest is not None and digests != [expected_digest]:
        problems.append(f"selection digest {digests} differs from the shipped {expected_digest}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"selection digest {' '.join(digests)} (shipped: {expected_digest or 'none for this seed'})")
    correct = not failed and not problems

    complete = [e for e in episodes if e["attempted"] == workload.rounds and not e["failed"]]
    untraced = [e for e in complete if not e["traced"]]
    traced = [e for e in complete if e["traced"]]
    if not untraced or (args.trace and not traced):
        print("error: no episode completed; nothing to report", file=sys.stderr)
        return 1
    wall_run_s = statistics.median(sum(t[0] for t in e["timings"]) for e in untraced)
    env = environment.describe(ROOT)
    if args.trace:
        values = medians([e["layers"] for e in traced])
        values.update({k: v for k, v in medians(setup_layers).items() if k in SETUP_LAYERS})
        values["trace.run_s"] = statistics.median(sum(t[0] for t in e["timings"]) for e in traced)
        values["trace.untraced_run_s"] = wall_run_s
        values["trace.overhead_s"] = values["trace.run_s"] - wall_run_s
        values["speed.probe_ms"] = statistics.median(meter.probes) * 1e3
        declared = spec["per_layer"]
        trace_path = ROOT / RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        tracer.write(trace_path, {"run_id": run_id, "workload": args.workload, "seed": args.seed, "env": env})
        print(f"trace: {len(tracer.start)} spans written to {trace_path.relative_to(ROOT)}")
    else:
        # Time metrics are in seconds at the reference speed (see speed.py);
        # the wall seconds, less the probes, are printed beside them.
        rounds = [[meter.scaled(t) for t in e["timings"]] for e in untraced]
        wall = {
            "setup_s": statistics.median(s[0] for s in setups),
            "run_s": wall_run_s,
            "round_s.p50": statistics.median(t[0] for e in untraced for t in e["timings"]),
        }
        values = {
            "setup_s": statistics.median(meter.scaled(s) for s in setups),
            "run_s": statistics.median(sum(r) for r in rounds),
            "round_s.p50": statistics.median(s for r in rounds for s in r),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
        samples = {"setup_s": f"{len(setups)} set-ups", "run_s": f"{len(untraced)} episodes",
                   "round_s.p50": f"{sum(map(len, rounds))} rounds", "peak_rss_mb": "1 process"}
        for name, value in values.items():
            raw = f"wall {wall[name]:.6g} s, " if name in wall else ""
            print(f"{args.workload:<12} {name:<12} {value:>12.6g}  ({raw}median of {samples[name]})")
        print(f"{args.workload:<12} {'probe_ms':<12} {statistics.median(meter.probes) * 1e3:>12.6g}"
              f"  (median of {len(meter.probes)} probes; reference {speed.REFERENCE_S * 1e3:g} ms)")
        print(f"{args.workload:<12} {'error_rate':<12} {failed / attempted:>12.6g}  ({failed} of {attempted} rounds failed)")

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
