"""Command-line frontend: synth, score, select, simulate, stats.

Exit codes: 0 success, 2 usage error, 3 data error. All randomness flows
from the ``--seed`` flag.
"""
from __future__ import annotations

import argparse
import csv
import fcntl
import io
import logging
import sys
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path

from . import diagnostics, kitti, sampler, state as state_mod, synth
from .config import CliConfig, build_config
from .core import DataError, SceneSelError, open_binary, read_text, write_text_atomic
from .entropy import category_entropy
from .kernel import DistanceOverflowError
from .sampler import STRATEGIES, SimilarityCache
from .uncertainty import (
    NearSingularYawError,
    PropagationOverflowError,
    UncertaintyShortfallError,
    scene_uncertainties,
)

log = logging.getLogger("scenesel")
# What a failed rewrite of the parsed-pool file loses, in either mode of ``select``.
_LABELS_AGAIN = "the next run parses the label files again"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_text_atomic(path, buf.getvalue())


# The file at fault, under a pool directory, in each error that names a
# scene by id alone.
_SCENE_FILES = {
    DistanceOverflowError: kitti.label_path,
    NearSingularYawError: kitti.sidecar_path,
    PropagationOverflowError: kitti.sidecar_path,
    UncertaintyShortfallError: kitti.sidecar_path,
}


@contextmanager
def _naming_scene_file(pool_dir):
    """Prefix a scene's error with the path of the file at fault: scenes are
    scored after their files are parsed, where the paths are not known."""
    try:
        yield
    except tuple(_SCENE_FILES) as exc:
        raise DataError(f"{_SCENE_FILES[type(exc)](pool_dir, exc.scene_id)}: {exc}") from exc


def _pool_spec_from_args(args) -> synth.PoolSpec:
    try:
        class_mix = tuple(float(v) for v in args.class_mix.split(","))
    except ValueError:
        raise ValueError(f"--class-mix must be comma-separated numbers, got {args.class_mix!r}") from None
    try:
        objects_min, objects_max = (int(v) for v in args.objects.split(","))
    except ValueError:
        raise ValueError(f"--objects must be two comma-separated integers min,max, got {args.objects!r}") from None
    return synth.PoolSpec(
        n_scenes=args.n_scenes,
        class_mix=class_mix,
        objects_min=objects_min,
        objects_max=objects_max,
        spatial_extent=args.extent,
        redundancy_groups=args.groups,
        rng_seed=args.seed,
    )


def _noise_from_args(args) -> synth.NoiseModel:
    return synth.NoiseModel(
        confidence_noise=args.conf_noise,
        position_noise_per_meter=args.pos_noise,
        false_positive_rate=args.fp_rate,
        misclass_rate=args.misclass,
        mixture_components=args.components,
        mean_spread=args.mean_spread,
    )


def _add_pool_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-scenes", type=int, default=200)
    p.add_argument("--class-mix", default="0.9,0.05,0.05")
    p.add_argument("--objects", default="2,6", help="min,max objects per scene")
    p.add_argument("--extent", type=float, default=60.0)
    p.add_argument("--groups", type=int, default=None, help="redundancy groups")
    p.add_argument("--conf-noise", type=float, default=0.5)
    p.add_argument("--pos-noise", type=float, default=0.005)
    p.add_argument("--fp-rate", type=float, default=0.3)
    p.add_argument("--misclass", type=float, default=0.05)
    p.add_argument("--components", type=int, default=3)
    p.add_argument("--mean-spread", type=float, default=0.1)


def _add_plan_flags(p: argparse.ArgumentParser) -> None:
    """The flags of one round's plan, for the commands that select."""
    p.add_argument("--n-r", type=int, default=None)
    p.add_argument("--k1", type=float, default=None)
    p.add_argument("--k2", type=float, default=None)
    p.add_argument("--order", default=None, help="comma-separated stage order")


def _check_counts(args, *flags: str) -> None:
    """A negative count flag is a usage error that names the flag."""
    for f in flags:
        value = getattr(args, f)
        if value is not None and value < 0:
            raise ValueError(f"--{f} must be >= 0, got {value}")


def _config_from_args(args) -> CliConfig:
    overrides = {f"plan.{f}": getattr(args, f, None) for f in ("n_r", "k1", "k2", "order", "rounds")}
    return build_config(path=args.config, overrides=overrides)


def cmd_synth(args) -> int:
    cfg = _config_from_args(args)
    spec = _pool_spec_from_args(args)
    noise = _noise_from_args(args)
    pool = synth.generate_pool(spec, cfg.catalog, cfg.anchors)
    predictor = synth.make_predictor(noise, cfg.anchors, cfg.catalog, args.seed)
    out = Path(args.out)
    # Each scene leaves the pool as it is written, and with it the
    # predictor's copy of its prediction.
    for sid in sorted(pool):
        scene = pool.pop(sid)
        pred = predictor(scene)
        kitti.write_label_file(scene, out / "ground_truth" / f"{sid}.txt")
        kitti.write_label_file(pred, kitti.label_path(out, sid))
        kitti.save_mixture_sidecar(pred, kitti.sidecar_path(out, sid))
    print(f"wrote {spec.n_scenes} scenes to {out}")
    return 0


def cmd_score(args) -> int:
    cfg = _config_from_args(args)
    scenes = kitti.load_pool_dir(args.pool, cfg.catalog)
    if args.metric == "uncertainty":
        scenes = list(map(kitti.sidecar_reader(args.pool, scenes), scenes))
    if not scenes:
        raise DataError(f"no label files under {args.pool}")
    out = Path(args.out)
    if args.metric == "entropy":
        rows = [[s.id, f"{category_entropy(s, cfg.catalog, cfg.entropy):.9f}"] for s in scenes]
        _write_csv(out, ["scene_id", "entropy"], rows)
    elif args.metric == "uncertainty":
        with _naming_scene_file(args.pool):
            scores = scene_uncertainties(scenes, cfg.anchors, cfg.uncertainty).tolist()
            rows = [[s.id, f"{u:.9f}"] for s, u in zip(scenes, scores)]
        _write_csv(out, ["scene_id", "uncertainty"], rows)
    else:  # similarity: emit the pairwise matrix
        with _naming_scene_file(args.pool):
            sim = SimilarityCache(cfg.catalog, cfg.kernel).matrix(scenes)
        ids = [s.id for s in scenes]
        rows = [[ids[i]] + [f"{v:.9f}" for v in sim[i]] for i in range(len(ids))]
        _write_csv(out, ["scene_id"] + ids, rows)
    print(f"wrote {args.metric} scores for {len(scenes)} scenes to {out}")
    return 0


def cmd_select(args) -> int:
    """Initialize the round state (``--init``) or run one selection round.

    A round is one ``tscenejal`` round of ``sampler.run_al_rounds``. Every
    pool scene must have its mixture sidecar, but a sidecar is read only
    for a scene that reaches the uncertainty stage (with the default order,
    floor(k2*n_r) scenes), and parsed only if the sidecar store next to the
    state (``state.json`` -> ``state.sidecars.npz``) lacks its bytes'
    digest; ``--init`` reads none. A label file is parsed only if the
    parsed-pool file (``state.pool.npz``) lacks its bytes' digest. A round
    writes its selection and the report files of its summary, then saves
    the state, which commits the round, then rewrites the similarity cache
    file it read (``state.similarity.npz``) and the sidecar store, each
    without the values of the scenes it labeled, and last the parsed-pool
    file, if the label files read are not those it holds; a failed write of
    any of the three is a warning. ``--init`` saves the state and then the
    parsed-pool file, and leaves the similarity cache file and the sidecar
    store alone. Both modes hold the lock file next to the state
    (``state.lock``) from before they read the pool or the state to their
    end, so that two runs never work on one state at once; a run that finds
    it held writes nothing (a data error naming it). A round whose state
    file cannot be opened fails before it makes the lock or its directory.
    A flag of the other mode (``--n0`` and ``--budget`` are ``--init``'s,
    the plan flags a round's), or a negative ``--n0`` or ``--budget``, is a
    usage error, raised before any file is read. ``--budget`` defaults to
    the pool size; a budget of 0 is kept, and the first round stops on it.
    """
    other_mode = ("n_r", "k1", "k2", "order") if args.init else ("n0", "budget")
    ignored = ["--" + f.replace("_", "-") for f in other_mode if getattr(args, f) is not None]
    if ignored:
        raise ValueError(f"{'select --init' if args.init else 'a select round'} takes no {', '.join(ignored)}")
    _check_counts(args, "n0", "budget")
    cfg = _config_from_args(args)
    state_path = Path(args.state)
    if not args.init:
        with open_binary(state_path):  # the read error of a missing state
            pass
    with _holding_lock(state_path.with_suffix(".lock")):
        pool_path = state_path.with_suffix(".pool.npz")
        parsed = kitti.ParsedPool()
        parsed.load(pool_path, cfg.catalog)
        scenes = kitti.load_pool_dir(args.pool, cfg.catalog, parsed)
        log.info("label files: %d parsed, %d from %s", parsed.parsed, len(scenes) - parsed.parsed, pool_path)
        # The store is loaded for a round only; the reader looks it up per call.
        sidecars, sidecars_path = kitti.SidecarStore(), state_path.with_suffix(".sidecars.npz")
        with_mixtures = kitti.sidecar_reader(args.pool, scenes, sidecars)
        by_id = {s.id: s for s in scenes}
        out = Path(args.out)

        if args.init:
            n0 = args.n0 or 0
            if n0 > len(by_id):
                raise DataError(f"--n0 {n0} exceeds pool size {len(by_id)}")
            st = state_mod.RoundState.fresh(by_id, n0, len(by_id) if args.budget is None else args.budget, args.seed)
            state_mod.save_round_state(st, state_path)
            _save_after_commit(lambda: parsed.save(pool_path, cfg.catalog), _LABELS_AGAIN)
            print(f"initialized state: {len(st.labeled_ids)} labeled, {len(st.unlabeled_ids)} unlabeled")
            return 0

        st = state_mod.load_round_state(state_path)
        missing = sorted(st.unlabeled_ids - by_id.keys())
        if missing:
            raise DataError(f"{state_path}: unlabeled ids not in pool: {missing[:5]}")
        # One cache serves the selection and its summary, so the summary's pairs
        # are cache hits. Likewise the parsed sidecars: every selected scene went
        # through the uncertainty stage. The cache starts from the kernel values
        # the rounds before kept in its file.
        cache = SimilarityCache(cfg.catalog, cfg.kernel)
        cache_path = state_path.with_suffix(".similarity.npz")  # next to the state
        cache.load(cache_path)
        sidecars.load(sidecars_path)
        try:
            with _naming_scene_file(args.pool):
                new_st, (report,) = sampler.run_al_rounds(
                    by_id,
                    cfg.plan,
                    1,
                    lambda scene: scene,
                    lambda scene_id: None,
                    st,
                    cfg.catalog,
                    cfg.anchors,
                    cfg.entropy,
                    cfg.kernel,
                    cfg.uncertainty,
                    strategy="tscenejal",
                    cache=cache,
                    with_mixtures=with_mixtures,
                )
        except sampler.ShortfallError as exc:  # exit 2 in ``simulate``, whose flags make the pool
            raise DataError(str(exc)) from exc
        selected = report.selected_ids
        # The kernel values the round needed: what it would have evaluated
        # without the file.
        needed = report.kernel_evals + cache.reused
        write_text_atomic(out / f"selected_round_{report.round_index:03d}.txt", "\n".join(selected) + "\n")
        _write_report(out / f"report_round_{report.round_index:03d}", report.summary)
        # The commit: a round that fails before it leaves the state as it was.
        state_mod.save_round_state(new_st, state_path)
        # Last, so that a failure here only loses the round's new values.
        _save_after_commit(
            lambda: cache.save(cache_path, [by_id[i] for i in selected]),
            f"round {report.round_index} is committed without its new kernel values",
        )
        _save_after_commit(
            lambda: sidecars.save(sidecars_path, selected), "the next round parses the sidecars of this one again"
        )
        _save_after_commit(lambda: parsed.save(pool_path, cfg.catalog), _LABELS_AGAIN)
        log.info("sidecars: %d parsed, %d from %s", sidecars.parsed, len(sidecars.read) - sidecars.parsed, sidecars_path)
        log.info("stage sizes %s, kernel evals %d, %d evaluated", report.stage_sizes, needed, report.kernel_evals)
        log.info("similarity cache: %d pairs hit, %d missed (selection and summary)", cache.hits, cache.misses)
        print(
            f"round {report.round_index}: selected {len(selected)} scenes "
            f"(stage sizes {report.stage_sizes}, kernel evals {needed}, {report.kernel_evals} evaluated)"
        )
        return 0


@contextmanager
def _holding_lock(path: Path):
    """Hold an exclusive ``flock`` on ``path``, made if missing, while the
    block runs. The lock goes when the file closes, at the block's end or
    the process's, so it is never stale. A file that cannot be opened, or
    a lock another open file holds, is a ``DataError`` naming the file."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "a")
    except OSError as exc:
        raise DataError(f"{path}: cannot open lock file: {exc}") from exc
    with fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise DataError(f"{path}: another select holds this lock on the state; nothing written") from None
        yield


def _save_after_commit(save: Callable[[], None], lost: str) -> None:
    """Rewrite a file beside the state after the state committed the run:
    the file only saves work, so a failed ``save`` is a warning that says
    what is ``lost``, and the run still succeeds."""
    try:
        save()
    except DataError as exc:
        log.warning("%s; %s", exc, lost)


def _write_report(prefix: Path, report: diagnostics.SelectionReport) -> None:
    _write_csv(
        prefix.with_suffix(".hist.csv"),
        ["class", "count"],
        [[c, n] for c, n in sorted(report.class_counts.items())],
    )
    # A selection of no objects is written with no similarity or
    # uncertainty, although ``rounds.csv`` gives its similarity.
    shown = report.object_count > 0
    lines = [
        f"object_count = {report.object_count}",
        f"discrete_entropy = {report.discrete_entropy}",
        f"category_kl = {report.category_kl}",
        f"similarity_mean = {report.similarity_mean if shown else None}",
        f"similarity_std = {report.similarity_std if shown else None}",
        f"pair_sample_count = {report.pair_sample_count if shown else 0}",
        f"uncertainty_histogram = {report.uncertainty_histogram if shown else dict()}",
    ]
    write_text_atomic(prefix.with_suffix(".summary.txt"), "\n".join(lines) + "\n")


def cmd_simulate(args) -> int:
    _check_counts(args, "n0")
    cfg = _config_from_args(args)
    strategies = [s.strip() for s in args.strategies.split(",")]
    for i, s in enumerate(strategies):
        if s not in STRATEGIES:
            raise DataError(f"unknown strategy {s!r}; valid: {', '.join(STRATEGIES)}")
        if s in strategies[:i]:
            raise DataError(f"strategy {s!r} is listed more than once; valid: {', '.join(STRATEGIES)}")
    spec = _pool_spec_from_args(args)
    noise = _noise_from_args(args)
    pool = synth.generate_pool(spec, cfg.catalog, cfg.anchors)
    predictor = synth.make_predictor(noise, cfg.anchors, cfg.catalog, args.seed)
    out = Path(args.out)
    initial = state_mod.RoundState.fresh(pool, min(args.n0, len(pool)), len(pool), args.seed)

    header = ["round", "selected", "entropy", "mean_similarity", "mean_uncertainty", "kernel_evals", *cfg.catalog.classes]
    comparison_rows = []
    for strategy in strategies:
        cache = SimilarityCache(cfg.catalog, cfg.kernel)
        st, reports = sampler.run_al_rounds(
            pool,
            cfg.plan,
            cfg.rounds,
            predictor,
            lambda sid: pool[sid],
            initial,
            cfg.catalog,
            cfg.anchors,
            cfg.entropy,
            cfg.kernel,
            cfg.uncertainty,
            strategy=strategy,
            cache=cache,
        )
        sdir = out / strategy
        rows = []
        for rep in reports:
            summary = rep.summary
            rows.append(
                [
                    rep.round_index,
                    len(rep.selected_ids),
                    f"{summary.entropy:.6f}",
                    "" if summary.similarity_mean is None else f"{summary.similarity_mean:.6f}",
                    "" if summary.mean_uncertainty is None else f"{summary.mean_uncertainty:.6f}",
                    rep.kernel_evals,
                ]
                + [summary.class_counts[c] for c in cfg.catalog.classes]
            )
            comparison_rows.append([strategy] + rows[-1])
            write_text_atomic(
                sdir / f"selected_round_{rep.round_index:03d}.txt",
                "\n".join(rep.selected_ids) + "\n",
            )
        _write_csv(sdir / "rounds.csv", header, rows)
        state_mod.save_round_state(st, sdir / "state.json")
    _write_csv(out / "comparison.csv", ["strategy"] + header, comparison_rows)
    print(f"simulated {cfg.rounds} rounds for {len(strategies)} strategies -> {out}")
    return 0


def cmd_stats(args) -> int:
    cfg = _config_from_args(args)
    labeled = kitti.load_pool_dir(args.pool, cfg.catalog)
    try:
        scenes = list(map(kitti.sidecar_reader(args.pool, labeled), labeled))
        # A sidecar whose scene cannot be scored is a faulty sidecar too.
        with _naming_scene_file(args.pool):
            scene_uncertainties(scenes, cfg.anchors, cfg.uncertainty)
    except DataError as exc:
        log.warning("loading the pool without sidecars: %s", exc)
        scenes = labeled
    by_id = {s.id: s for s in scenes}
    if args.ids:
        wanted = [line.strip() for line in read_text(args.ids).splitlines() if line.strip()]
        seen = set()
        for w in wanted:
            if w in seen:
                raise DataError(f"{args.ids}: id {w!r} is listed more than once")
            seen.add(w)
        missing = [w for w in wanted if w not in by_id]
        if missing:
            raise DataError(f"{args.ids}: ids not in pool: {missing[:5]}")
        selected = [by_id[w] for w in wanted]
    else:
        selected = scenes
    with _naming_scene_file(args.pool):
        # It may summarize a whole pool, so it alone samples the pairs.
        report = diagnostics.selection_report(
            selected,
            SimilarityCache(cfg.catalog, cfg.kernel),
            cfg.anchors,
            cfg.entropy,
            cfg.uncertainty,
            sample_seed=args.seed,
        )
    _write_report(Path(args.out) / "stats", report)
    print(f"wrote stats for {len(selected)} of {len(scenes)} scenes to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scenesel", description=__doc__)
    parser.add_argument("--config", default=None, help="key-value configuration file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic pool on disk")
    p.add_argument("--out", required=True)
    _add_pool_spec_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("score", help="score a pool by one metric")
    p.add_argument("--pool", required=True)
    p.add_argument("--metric", choices=("entropy", "similarity", "uncertainty"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("select", help="run one selection round against a state file")
    p.add_argument("--pool", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--init", action="store_true", help="initialize the state and exit")
    p.add_argument("--n0", type=int, default=None, help="with --init: initial random labeled count (default 0)")
    p.add_argument("--budget", type=int, default=None, help="with --init: scenes to label in all (default: the pool)")
    _add_plan_flags(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("simulate", help="in-memory multi-round comparison of strategies")
    p.add_argument("--out", required=True)
    p.add_argument("--strategies", default="random,tscenejal")
    p.add_argument("--n0", type=int, default=10)
    _add_pool_spec_flags(p)
    _add_plan_flags(p)
    p.add_argument("--rounds", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stats", help="diagnostics for a pool or a selection")
    p.add_argument("--pool", required=True)
    p.add_argument("--ids", default=None, help="file with one selected id per line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, SceneSelError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
