"""Golden selections: the ids every strategy selects for fixed seeds.

A numerical refactor of the kernel, the entropy or the uncertainty path must
leave every selection, every round's kernel-evaluation count and every
``run_al_rounds`` report's mean pairwise similarity, selection entropy and
mean uncertainty (as ``repr``), class counts and object count exactly as
recorded in ``golden_selections.json``; the predictor's mixtures and the
scene uncertainties computed from them are pinned by digest. The ids and
counts were recorded before the batched kernel engine replaced the per-pair
solver, the similarities before the round report moved onto
``SimilarityCache.matrix``, the mixture digests before the predictor, the
``MixtureParams`` validation and the uncertainty scoring were made one pass
per mixture, and the digests of every file ``select`` writes before the
rounds parsed mixture sidecars only for the scenes of the uncertainty stage.
The similarities and the report summaries' digests were recorded again when
the kernel came to be solved on the label-matched product nodes only: that
changes the order of the kernel's sums and, where the stop test no longer
sees the unmatched nodes, its last iteration, so those floats moved by at
most 1.7e-8 relative; the ids, counts and mixture digests did not move.
The report's selection entropy, mean uncertainty, class counts and object
count were added before the ``random`` strategy came to predict only the
scenes it picks. The sidecar digests were recorded before a scene's mixtures
became one array, which ``mixture_digests`` renders as the tuples they were.
The similarities and the report summaries' digests were recorded again when
every kernel came to run the same ``KernelConfig.steps`` steps in place of
stopping each pair at its own residual: those floats moved by at most
9.8e-8 relative; the ids, counts, entropies, uncertainties and mixture
digests did not move.
The digests of the label files that ``synth`` writes, predicted and ground
truth, were recorded before a scene came to hold its boxes as one array.
To record it again after a deliberate change of behaviour, run
``PYTHONPATH=src python tests/test_golden.py`` and explain the change.
"""
import contextlib
import dataclasses
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from scenesel import sampler, synth
from scenesel.cli import main
from scenesel.config import build_config
from scenesel.state import RoundState

from uncertainty_oracle import scene_uncertainty

FIXTURE = Path(__file__).resolve().parent / "golden_selections.json"
SEEDS = (1, 2)
# The synth/simulate CLI defaults.
NOISE = synth.NoiseModel(
    confidence_noise=0.5,
    position_noise_per_meter=0.005,
    false_positive_rate=0.3,
    misclass_rate=0.05,
    mixture_components=3,
    mean_spread=0.1,
)

# Noise models whose predictions are pinned: the default, and the two that
# take the predictor's no-draw branches (equal component means; no box noise
# and zero variances).
MIXTURE_NOISE = {
    "default": NOISE,
    "k1_no_spread": dataclasses.replace(NOISE, mixture_components=1, mean_spread=0.0),
    "no_position_noise": dataclasses.replace(NOISE, position_noise_per_meter=0.0),
}


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def tuple_repr(scene) -> str:
    """``repr`` of a predicted scene as it read when each detection held its
    mixture as three 7xK tuples of tuples, so that the recorded predictions
    digest still pins the same floats."""
    dets = []
    for det, (w, m, v) in zip(scene.detections, scene.mixtures.block.tolist()):
        rows = lambda field: tuple(map(tuple, field))  # noqa: E731
        mixture = f"MixtureParams(weights={rows(w)!r}, means={rows(m)!r}, variances={rows(v)!r})"
        dets.append(
            f"ScoredDetection(class_label={det.class_label!r}, confidence={det.confidence!r}, "
            f"box={det.box!r}, mixture={mixture})"
        )
    return f"Scene(id={scene.id!r}, detections={'(' + ', '.join(dets) + (',)' if len(dets) == 1 else ')')})"


def mixture_digests(seed: int, noise: synth.NoiseModel) -> dict:
    """Digests of the predictions for a 200-scene pool (2-6 objects): the
    tuple-form ``repr`` of every predicted scene (``tuple_repr``), and
    ``float.hex`` of its scene uncertainty."""
    cfg = build_config(environ={})
    spec = synth.PoolSpec(n_scenes=200, class_mix=(0.9, 0.05, 0.05), objects_min=2, objects_max=6, rng_seed=seed)
    pool = synth.generate_pool(spec, cfg.catalog, cfg.anchors)
    predictor = synth.make_predictor(noise, cfg.anchors, cfg.catalog, seed)
    preds = [predictor(pool[sid]) for sid in sorted(pool)]
    return {
        "predictions": _sha256(tuple_repr(p) for p in preds),
        "uncertainty": _sha256(scene_uncertainty(p, cfg.anchors, cfg.uncertainty).hex() for p in preds),
    }


def library_rounds(seed: int, strategy: str) -> dict:
    """Three ``run_al_rounds`` rounds of 4 on a 60-scene pool (2-6 objects)."""
    cfg = build_config(overrides={"plan.n_r": 4}, environ={})
    spec = synth.PoolSpec(n_scenes=60, class_mix=(0.9, 0.05, 0.05), objects_min=2, objects_max=6, rng_seed=seed)
    pool = synth.generate_pool(spec, cfg.catalog, cfg.anchors)
    predictor = synth.make_predictor(NOISE, cfg.anchors, cfg.catalog, seed)
    state = RoundState.fresh(pool, n0=0, budget_total=len(pool), rng_seed=seed)
    _, reports = sampler.run_al_rounds(
        pool,
        cfg.plan,
        3,
        predictor,
        pool.__getitem__,
        state,
        cfg.catalog,
        cfg.anchors,
        cfg.entropy,
        cfg.kernel,
        cfg.uncertainty,
        strategy=strategy,
    )
    return {
        "selected": [list(r.selected_ids) for r in reports],
        "kernel_evals": [r.kernel_evals for r in reports],
        "mean_pairwise_similarity": [repr(r.summary.similarity_mean) for r in reports],
        "selection_entropy": [repr(r.summary.entropy) for r in reports],
        "mean_uncertainty": [repr(r.summary.mean_uncertainty) for r in reports],
        "class_counts": [r.summary.class_counts for r in reports],
        "object_count": [sum(r.summary.class_counts.values()) for r in reports],
    }


def cli_rounds(seed: int, work: Path) -> dict:
    """``synth`` 40 scenes of 8-20 objects, ``select --init``, two rounds of 3."""
    pool, state, out = work / "pool", work / "state.json", work / "sel"

    def run(*argv):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main(["--seed", str(seed)] + [str(a) for a in argv])
        assert code == 0, argv
        return printed.getvalue()

    run("synth", "--out", pool, "--n-scenes", 40, "--objects", "8,20")
    run("select", "--pool", pool, "--state", state, "--out", out, "--init", "--n0", 4)
    selected, evals = [], []
    for r in (1, 2):
        printed = run("select", "--pool", pool, "--state", state, "--out", out, "--n-r", 3)
        evals.append(int(re.search(r"kernel evals (\d+)", printed).group(1)))
        selected.append((out / f"selected_round_{r:03d}.txt").read_text().split())
    return {"selected": selected, "kernel_evals": evals}


def cli_select_digests(work: Path) -> dict:
    """sha256 of every file ``select`` writes (the state and the round's
    selection and report), after ``select --init --n0 6`` and after each of
    two ``--n-r 4`` rounds, on a ``synth --seed 2`` pool of 60 scenes of
    8-20 objects."""
    pool, state, out = work / "pool", work / "state.json", work / "sel"

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["--seed", "2"] + [str(a) for a in argv])
        assert code == 0, argv

    def digests():
        files = [state] + sorted(out.iterdir() if out.exists() else [])
        return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}

    run("synth", "--out", pool, "--n-scenes", 60, "--objects", "8,20")
    select = ("select", "--pool", pool, "--state", state, "--out", out)
    run(*select, "--init", "--n0", 6)
    steps = {"init": digests()}
    for r in (1, 2):
        run(*select, "--n-r", 4)
        steps[f"round_{r:03d}"] = digests()
    return steps


SYNTH_RUNS = {"default": (), "k8_no_fp": ("--components", 8, "--fp-rate", 0)}


def synth_pools(work: Path) -> dict[str, Path]:
    """``synth --seed 2`` pools of 30 scenes, with the default flags and with
    8 components and no false positives."""
    pools = {}
    for name, flags in SYNTH_RUNS.items():
        pool = pools[name] = work / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--seed", "2", "synth", "--out", str(pool), "--n-scenes", "30", *map(str, flags)]) == 0
    return pools


def _directory_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for f in sorted(directory.iterdir()):
        digest.update(f.name.encode() + b"\n" + f.read_bytes() + b"\n")
    return digest.hexdigest()


def synth_sidecar_digests(pools: dict[str, Path]) -> dict:
    """sha256 of every sidecar of each ``synth_pools`` pool."""
    return {name: _directory_digest(pool / "sidecars") for name, pool in pools.items()}


def synth_label_digests(pools: dict[str, Path]) -> dict:
    """sha256 of every predicted and every ground-truth label file of each
    ``synth_pools`` pool."""
    return {
        name: {part: _directory_digest(pool / part) for part in ("labels", "ground_truth")}
        for name, pool in pools.items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("strategy", sampler.STRATEGIES)
def test_library_selections_match_golden(golden, seed, strategy):
    assert library_rounds(seed, strategy) == golden["run_al_rounds"][str(seed)][strategy]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("noise", MIXTURE_NOISE)
def test_mixture_digests_match_golden(golden, seed, noise):
    assert mixture_digests(seed, MIXTURE_NOISE[noise]) == golden["mixtures"][str(seed)][noise]


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_selections_match_golden(golden, seed, tmp_path):
    assert cli_rounds(seed, tmp_path) == golden["cli"][str(seed)]


def test_cli_select_outputs_match_golden(golden, tmp_path):
    assert cli_select_digests(tmp_path) == golden["select_outputs"]


@pytest.fixture(scope="module")
def synth_pool_dirs(tmp_path_factory):
    return synth_pools(tmp_path_factory.mktemp("synth"))


def test_synth_sidecars_match_golden(golden, synth_pool_dirs):
    assert synth_sidecar_digests(synth_pool_dirs) == golden["sidecars"]


def test_synth_labels_match_golden(golden, synth_pool_dirs):
    assert synth_label_digests(synth_pool_dirs) == golden["synth_labels"]


if __name__ == "__main__":
    import tempfile

    doc = {"run_al_rounds": {}, "cli": {}, "mixtures": {}, "select_outputs": {}, "sidecars": {}, "synth_labels": {}}
    for seed in SEEDS:
        doc["run_al_rounds"][str(seed)] = {s: library_rounds(seed, s) for s in sampler.STRATEGIES}
        doc["mixtures"][str(seed)] = {name: mixture_digests(seed, n) for name, n in MIXTURE_NOISE.items()}
        with tempfile.TemporaryDirectory() as tmp:
            doc["cli"][str(seed)] = cli_rounds(seed, Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        doc["select_outputs"] = cli_select_digests(Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        pools = synth_pools(Path(tmp))
        doc["sidecars"] = synth_sidecar_digests(pools)
        doc["synth_labels"] = synth_label_digests(pools)
    # One line per list of ids or counts.
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]", json.dumps(doc, indent=1))
    FIXTURE.write_text(text + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
