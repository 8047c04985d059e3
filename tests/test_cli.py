import fcntl
import hashlib
import json
import logging
import math
import os
import re
import shutil
import signal
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scenesel import kernel, kitti, sampler, state as state_mod, synth
from scenesel.cli import main
from scenesel.config import build_config


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def pool_dir(tmp_path):
    out = tmp_path / "pool"
    code = run("--seed", 3, "synth", "--out", out, "--n-scenes", 24, "--groups", 6)
    assert code == 0
    return out


class TestConfigFile:
    def test_missing_config_file_is_data_error_naming_it(self, tmp_path, capsys):
        config = tmp_path / "no_such.conf"
        assert run("--config", config, "synth", "--out", tmp_path / "pool", "--n-scenes", 4) == 3
        assert f"{config}: cannot read file" in capsys.readouterr().err
        assert not (tmp_path / "pool").exists()


class TestSynth:
    def test_layout_and_counts(self, pool_dir):
        labels = sorted(p.name for p in (pool_dir / "labels").iterdir())
        assert len(labels) == 24
        assert labels[0] == "scene_000000.txt"
        assert len(list((pool_dir / "ground_truth").iterdir())) == 24
        assert len(list((pool_dir / "sidecars").iterdir())) == 24
        sidecar = json.loads((pool_dir / "sidecars" / "scene_000000.mdn").read_text())
        assert sidecar["version"] == 1

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("--seed", 5, "synth", "--out", a, "--n-scenes", 6) == 0
        assert run("--seed", 5, "synth", "--out", b, "--n-scenes", 6) == 0
        for sub in ("labels", "ground_truth"):
            for pa in sorted((a / sub).iterdir()):
                assert pa.read_text() == (b / sub / pa.name).read_text()

    def test_bad_class_mix_is_usage_error(self, tmp_path):
        assert run("synth", "--out", tmp_path / "x", "--class-mix", "0.5,0.2,0.2") == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--objects", "5", "--objects must be two comma-separated integers min,max, got '5'"),
            ("--class-mix", "0.9,lots,0.05", "--class-mix must be comma-separated numbers, got '0.9,lots,0.05'"),
            ("--class-mix", "nan,0.5,0.5", "class_mix entries must be finite, got (nan, 0.5, 0.5)"),
        ],
    )
    def test_a_flag_value_that_does_not_parse_is_a_usage_error_naming_the_flag(self, tmp_path, capsys, flag, value, message):
        # --objects 5 was "not enough values to unpack (expected 2, got 1)".
        assert run("synth", "--out", tmp_path / "x", flag, value) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_a_confidence_logit_below_the_exp_range_is_confidence_zero(self, tmp_path):
        out = tmp_path / "pool"
        assert run("--seed", 1, "synth", "--out", out, "--n-scenes", 50, "--conf-noise", 1000) == 0
        confidences = [
            float(line.split()[-1]) for path in (out / "labels").iterdir() for line in path.read_text().splitlines()
        ]
        assert confidences and all(0.0 <= c <= 1.0 for c in confidences)
        assert 0.0 in confidences


# A noise flag, the NoiseModel field it sets, and the values that are no
# setting: a non-finite or negative noise is a usage error naming the field.
NOISE_FLAGS = [
    ("--conf-noise", "confidence_noise"),
    ("--pos-noise", "position_noise_per_meter"),
    ("--fp-rate", "false_positive_rate"),
    ("--mean-spread", "mean_spread"),
]


@pytest.mark.parametrize("command", ["synth", "simulate"])
@pytest.mark.parametrize("flag, field", NOISE_FLAGS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
def test_a_noise_flag_that_is_no_finite_non_negative_number_is_a_usage_error(tmp_path, capsys, command, flag, field, value):
    out = tmp_path / "out"
    assert run(command, "--out", out, "--n-scenes", 12, f"{flag}={value}") == 2
    assert f"{field} must be finite and non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "simulate"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
def test_an_extent_that_is_no_finite_positive_number_is_a_usage_error(tmp_path, capsys, command, value):
    out = tmp_path / "out"
    assert run("--seed", 1, command, "--out", out, "--n-scenes", 5, f"--extent={value}") == 2
    assert "spatial_extent must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


class TestScore:
    def test_entropy_csv_sorted_by_id(self, pool_dir, tmp_path):
        out = tmp_path / "entropy.csv"
        assert run("score", "--pool", pool_dir, "--metric", "entropy", "--out", out) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "scene_id,entropy"
        ids = [r.split(",")[0] for r in rows[1:]]
        assert ids == sorted(ids)
        assert len(ids) == 24
        assert all(float(r.split(",")[1]) >= 0.0 for r in rows[1:])

    def test_similarity_single_scene_unit_matrix(self, tmp_path):
        pool = tmp_path / "tiny"
        assert run("--seed", 1, "synth", "--out", pool, "--n-scenes", 1) == 0
        out = tmp_path / "sim.csv"
        assert run("score", "--pool", pool, "--metric", "similarity", "--out", out) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "scene_id,scene_000000"
        sid, value = rows[1].split(",")
        assert sid == "scene_000000"
        assert float(value) == pytest.approx(1.0, abs=1e-9)

    def test_uncertainty_without_sidecars_names_missing_file(self, pool_dir, tmp_path, capsys):
        shutil.rmtree(pool_dir / "sidecars")
        code = run("score", "--pool", pool_dir, "--metric", "uncertainty", "--out", tmp_path / "u.csv")
        assert code == 3
        err = capsys.readouterr().err
        assert "scene_000000" in err

    @pytest.mark.parametrize(
        "field, value", [("weights", "NaN"), ("variances", "NaN"), ("variances", "Infinity")]
    )
    def test_nonfinite_sidecar_is_data_error_naming_the_file(self, pool_dir, tmp_path, capsys, field, value):
        # Was exit 2, "propagated variances must be finite and non-negative",
        # without the file: the mixture was accepted and failed when scored.
        sidecar = pool_dir / "sidecars" / "scene_000003.mdn"
        doc = json.loads(sidecar.read_text())
        doc["detections"][0][field][2][0] = float(value.replace("Infinity", "inf"))
        sidecar.write_text(json.dumps(doc))
        assert value in sidecar.read_text()
        code = run("score", "--pool", pool_dir, "--metric", "uncertainty", "--out", tmp_path / "u.csv")
        assert code == 3
        err = capsys.readouterr().err
        assert f"{sidecar}: entry 0: mixture {field} must be finite" in err

    def test_a_missing_sidecar_is_named_before_an_earlier_malformed_one(self, pool_dir, tmp_path, capsys):
        # Was the malformed sidecar: each was checked just before it was parsed.
        (pool_dir / "sidecars" / "scene_000001.mdn").write_text("{not json")
        missing = pool_dir / "sidecars" / "scene_000005.mdn"
        missing.unlink()
        code = run("score", "--pool", pool_dir, "--metric", "uncertainty", "--out", tmp_path / "u.csv")
        assert code == 3
        assert capsys.readouterr().err == f"error: missing mixture sidecar: {missing}\n"
        assert not (tmp_path / "u.csv").exists()

    def test_empty_pool_is_data_error(self, tmp_path):
        empty = tmp_path / "empty"
        (empty / "labels").mkdir(parents=True)
        assert run("score", "--pool", empty, "--metric", "entropy", "--out", tmp_path / "e.csv") == 3

    @pytest.mark.parametrize("max_iter", ["0", "-5"])
    def test_nonpositive_max_iter_is_config_error(self, pool_dir, tmp_path, capsys, monkeypatch, max_iter):
        # The kernel runs KernelConfig.steps steps, derived from gamma and
        # tol: there is no iteration cap to set, so the variable is unknown.
        monkeypatch.setenv("SCENESEL_KERNEL_MAX_ITER", max_iter)
        code = run("score", "--pool", pool_dir, "--metric", "similarity", "--out", tmp_path / "s.csv")
        assert code == 3
        assert "unknown configuration variable SCENESEL_KERNEL_MAX_ITER" in capsys.readouterr().err


class TestKernelSettings:
    """Kernel settings under which no similarity is a finite float fail
    before any is written, naming the setting."""

    @pytest.fixture()
    def tiny_pool(self, tmp_path):
        pool = tmp_path / "tiny"
        assert run("--seed", 2, "synth", "--out", pool, "--n-scenes", 4) == 0
        return pool

    def score(self, pool, out, monkeypatch, key, value):
        monkeypatch.setenv(f"SCENESEL_KERNEL_{key.upper()}", value)
        return run("score", "--pool", pool, "--metric", "similarity", "--out", out)

    # 2 sigma^2 underflows to 0, overflows to inf (1e154, inf), or the
    # square alone overflows (1e200, which was an OverflowError traceback).
    @pytest.mark.parametrize("sigma", ["1e-170", "1e154", "inf", "1e200"])
    def test_a_sigma_with_no_finite_2_sigma_squared_is_config_error(self, tiny_pool, tmp_path, capsys, monkeypatch, sigma):
        # Was exit 0 with NaN similarities written.
        out = tmp_path / "s.csv"
        assert self.score(tiny_pool, out, monkeypatch, "sigma", sigma) == 3
        err = capsys.readouterr().err
        assert "invalid configuration: sigma must make 2 sigma^2 a positive finite float" in err
        assert not out.exists()

    # Self-kernels scale with gamma^2: at 1e-100 the product of two
    # underflows to 0 (was a ZeroDivisionError traceback), at 1e-80 it is
    # subnormal and the similarity inexact.
    @pytest.mark.parametrize("gamma", ["1e-100", "1e-80"])
    def test_a_gamma_whose_self_kernels_multiply_below_the_normal_floats_is_data_error(
        self, tiny_pool, tmp_path, capsys, monkeypatch, gamma
    ):
        out = tmp_path / "s.csv"
        assert self.score(tiny_pool, out, monkeypatch, "gamma", gamma) == 3
        err = capsys.readouterr().err
        assert f"kernel.gamma={float(gamma)}: the self-kernels of scenes 'scene_000000' and 'scene_000001'" in err
        assert not out.exists()

    def test_a_small_gamma_with_normal_self_kernels_is_scored(self, tiny_pool, tmp_path, monkeypatch):
        out = tmp_path / "s.csv"
        assert self.score(tiny_pool, out, monkeypatch, "gamma", "1e-60") == 0
        values = [float(v) for row in out.read_text().splitlines()[1:] for v in row.split(",")[1:]]
        assert len(values) == 16
        assert all(0.0 < v <= 1.0 for v in values)


class TestSelect:
    def init_state(self, pool_dir, tmp_path, n0=4):
        state = tmp_path / "state.json"
        out = tmp_path / "sel"
        code = run("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, "--init", "--n0", n0)
        assert code == 0
        return state, out

    def test_init_splits_pool(self, pool_dir, tmp_path):
        state, _ = self.init_state(pool_dir, tmp_path)
        doc = json.loads(state.read_text())
        assert len(doc["labeled_ids"]) == 4
        assert len(doc["unlabeled_ids"]) == 20
        assert doc["round_index"] == 0

    def test_round_appends_selection(self, pool_dir, tmp_path):
        state, out = self.init_state(pool_dir, tmp_path)
        code = run("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3)
        assert code == 0
        selected = (out / "selected_round_001.txt").read_text().splitlines()
        assert len(selected) == 3
        doc = json.loads(state.read_text())
        assert doc["round_index"] == 1
        assert len(doc["labeled_ids"]) == 7
        assert doc["per_round_selected"] == [selected]
        assert (out / "report_round_001.hist.csv").exists()
        assert (out / "report_round_001.summary.txt").exists()

    def test_rerun_from_snapshot_is_identical(self, pool_dir, tmp_path):
        state, out = self.init_state(pool_dir, tmp_path)
        snapshot = state.read_bytes()
        run("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3)
        first = (out / "selected_round_001.txt").read_text()
        state.write_bytes(snapshot)
        run("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3)
        assert (out / "selected_round_001.txt").read_text() == first

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--init", "--n0", 4, "--n-r", 7, "--k1", 9), "select --init takes no --n-r, --k1"),
            (("--init", "--k2", 2, "--order", "entropy,similarity,uncertainty"), "select --init takes no --k2, --order"),
            (("--n-r", 3, "--n0", 25, "--budget", 2), "a select round takes no --n0, --budget"),
            (("--n-r", 3, "--budget", 0), "a select round takes no --budget"),
            (("--n0", 0), "a select round takes no --n0"),
        ],
    )
    def test_a_flag_of_the_other_mode_is_a_usage_error_before_any_file_is_read(self, tmp_path, capsys, flags, named):
        # No pool: a command that read a file first would exit 3.
        state, out = tmp_path / "state.json", tmp_path / "sel"
        assert run("select", "--pool", tmp_path / "no_pool", "--state", state, "--out", out, *flags) == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_exhausted_pool_is_data_error(self, pool_dir, tmp_path):
        state, out = self.init_state(pool_dir, tmp_path, n0=23)
        assert run("select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3) == 3

    def test_exhausted_budget_is_data_error(self, pool_dir, tmp_path, capsys, monkeypatch):
        # A budget of 5 covers one round of 3, not two. The second round
        # stops before any kernel work and writes nothing.
        state, out = tmp_path / "state.json", tmp_path / "sel"
        select = ("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out)
        assert run(*select, "--init", "--n0", 4, "--budget", 5) == 0
        assert run(*select, "--n-r", 3) == 0
        before = state.read_bytes()

        def no_kernel_work(*args, **kwargs):
            raise AssertionError("kernel evaluated after the budget ran out")

        monkeypatch.setattr(sampler, "indexed_kernels", no_kernel_work)
        capsys.readouterr()
        assert run(*select, "--n-r", 3) == 3
        assert "budget of 5 scenes has 2 left" in capsys.readouterr().err
        assert state.read_bytes() == before
        assert not (out / "selected_round_002.txt").exists()

    def test_init_creates_missing_state_directory(self, pool_dir, tmp_path):
        state = tmp_path / "missing" / "state.json"
        code = run("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", tmp_path / "o", "--init", "--n0", 4)
        assert code == 0
        assert json.loads(state.read_text())["round_index"] == 0

    def test_report_reuses_the_selection_cache(self, pool_dir, tmp_path, capsys, monkeypatch):
        # Every kernel evaluation of the round, report included, is one the
        # selection counted: the report's pairs are cache hits.
        state, out = self.init_state(pool_dir, tmp_path)
        capsys.readouterr()
        calls = []
        kernel, kernels = sampler.marginalized_kernel, sampler.indexed_kernels

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        def counting_batch(graphs, first, *args, **kwargs):
            calls.extend([1] * len(first))
            return kernels(graphs, first, *args, **kwargs)

        monkeypatch.setattr(sampler, "marginalized_kernel", counting)
        monkeypatch.setattr(sampler, "indexed_kernels", counting_batch)
        assert run("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3) == 0
        reported = int(re.search(r"kernel evals (\d+)", capsys.readouterr().out).group(1))
        assert reported > 0
        assert len(calls) == reported

    def test_verbose_round_logs_the_cache_hits_and_misses(self, pool_dir, tmp_path, capsys, caplog):
        state, out = self.init_state(pool_dir, tmp_path)
        capsys.readouterr()
        with caplog.at_level(logging.INFO, logger="scenesel"):
            assert run("-v", "select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3) == 0
        hits, misses = map(int, re.search(r"similarity cache: (\d+) pairs hit, (\d+) missed", caplog.text).groups())
        # The similarity stage asks for the 36 pairs of the 9 scenes the
        # entropy stage keeps, cold; the 3 pairs among the 3 selected are
        # hits once, for the round's summary, which writes the report files.
        assert (hits, misses) == (3, 36)
        # The summary scores the selected scenes with their sidecars.
        assert "uncertainty omitted" not in caplog.text
        assert re.fullmatch(
            r"round 1: selected 3 scenes \(stage sizes \(9, 7, 3\), kernel evals \d+, \d+ evaluated\)\n",
            capsys.readouterr().out,
        )

    def parsed_sidecars(self, monkeypatch):
        """Record the path of every sidecar parsed from now on."""
        parsed = []
        load = kitti.load_mixture_sidecar

        def counting(path, scene, data=None):
            parsed.append(str(path))
            return load(path, scene, data)

        monkeypatch.setattr(kitti, "load_mixture_sidecar", counting)
        return parsed

    def clean_round(self, pool_dir, tmp_path, monkeypatch):
        """A round of 3 on a copy of the pool, in its own directory: the
        sidecars it parsed and every file it wrote."""
        work = tmp_path / "clean"
        shutil.copytree(pool_dir, work / "pool")
        state, out = self.init_state(work / "pool", work)
        parsed = self.parsed_sidecars(monkeypatch)
        assert run("--seed", 9, "select", "--pool", work / "pool", "--state", state, "--out", out, "--n-r", 3) == 0
        monkeypatch.undo()
        written = {f.name: f.read_bytes() for f in [state, *sorted(out.iterdir())]}
        return {Path(p).stem for p in parsed}, written

    @pytest.mark.parametrize("order", [None, "uncertainty,entropy,similarity"])
    def test_round_parses_only_the_uncertainty_stage_sidecars(self, pool_dir, tmp_path, capsys, monkeypatch, order):
        parsed = self.parsed_sidecars(monkeypatch)
        state, out = self.init_state(pool_dir, tmp_path)
        assert parsed == []  # --init parses none
        unlabeled = json.loads(state.read_text())["unlabeled_ids"]
        capsys.readouterr()
        flags = ("--n-r", 3) if order is None else ("--n-r", 3, "--order", order)
        assert run("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, *flags) == 0
        sizes = re.search(r"stage sizes \((\d+), (\d+), (\d+)\)", capsys.readouterr().out).groups()
        assert len(parsed) == len(set(parsed))
        if order is None:
            assert len(parsed) == int(sizes[1]) == 7
        else:
            assert sorted(Path(p).stem for p in parsed) == sorted(unlabeled)

    def ranked_by_uncertainty(self, monkeypatch):
        """Record, from now on, the scenes of each uncertainty ranking."""
        ranked = []
        rank = sampler.rank_by_uncertainty

        def recording(scenes, *args):
            ranked.append(list(scenes))
            return rank(scenes, *args)

        monkeypatch.setattr(sampler, "rank_by_uncertainty", recording)
        return ranked

    def test_a_second_round_parses_only_the_sidecars_new_to_the_uncertainty_stage(
        self, pool_dir, tmp_path, caplog, monkeypatch
    ):
        # The sidecar store next to the state keeps the mixtures of the
        # sidecars a round read, less those of the scenes it labeled.
        parsed = self.parsed_sidecars(monkeypatch)
        ranked = self.ranked_by_uncertainty(monkeypatch)
        state, out = self.init_state(pool_dir, tmp_path)
        store = state.with_suffix(".sidecars.npz")
        assert not store.exists()  # --init reads no sidecar
        per_round, logs = [], []
        for _ in range(2):
            parsed.clear()
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="scenesel"):
                assert run("--seed", 9, "-v", "select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3) == 0
            per_round.append(sorted(Path(p).stem for p in parsed))
            logs.append(caplog.text)
        first, second = ({s.id for s in scenes} for scenes in ranked)
        assert per_round == [sorted(first), sorted(second - first)]
        assert 0 < len(second - first) < len(second) == 7
        assert f"sidecars: {len(first)} parsed, 0 from {store}" in logs[0]
        assert f"sidecars: {len(second - first)} parsed, {len(second & first)} from {store}" in logs[1]

    def test_a_sidecar_edited_between_rounds_is_parsed_again(self, pool_dir, tmp_path, monkeypatch):
        # Round 2 after an edit of a sidecar whose mixtures the store holds,
        # with the store round 1 left and without it.
        warm, cold, probe = tmp_path / "warm", tmp_path / "cold", tmp_path / "probe"
        select = ("--seed", 9, "select", "--pool", pool_dir)
        assert run(*select, "--state", warm / "state.json", "--out", warm / "sel", "--init", "--n0", 4) == 0
        assert run(*select, "--state", warm / "state.json", "--out", warm / "sel", "--n-r", 3) == 0
        shutil.copytree(warm, cold)
        (cold / "state.sidecars.npz").unlink()
        shutil.copytree(warm, probe)
        with monkeypatch.context() as m:
            ranked = self.ranked_by_uncertainty(m)
            assert run(*select, "--state", probe / "state.json", "--out", probe / "sel", "--n-r", 3) == 0
        with np.load(warm / "state.sidecars.npz") as npz:
            stored = set(npz["digests"].tolist())
        # a scene that round 2 ranks, from the store
        sid = min(
            s.id for s in ranked[0]
            if hashlib.blake2b(kitti.sidecar_path(pool_dir, s.id).read_bytes(), digest_size=16).hexdigest() in stored
        )
        sidecar = kitti.sidecar_path(pool_dir, sid)
        doc = json.loads(sidecar.read_text())
        for entry in doc["detections"]:
            entry["variances"] = [[2.0 * v for v in row] for row in entry["variances"]]
        sidecar.write_text(json.dumps(doc))
        parsed = self.parsed_sidecars(monkeypatch)
        ranked = self.ranked_by_uncertainty(monkeypatch)
        outputs = []
        for work in (warm, cold):
            assert run(*select, "--state", work / "state.json", "--out", work / "sel", "--n-r", 3) == 0
            outputs.append({f.name: f.read_bytes() for f in [work / "state.json", *sorted((work / "sel").iterdir())]})
        assert parsed.count(str(sidecar)) == 2
        scene = next(s for s in kitti.load_pool_dir(pool_dir, build_config(environ={}).catalog) if s.id == sid)
        edited = kitti.load_mixture_sidecar(sidecar, scene).mixtures
        assert [s.mixtures for scenes in ranked for s in scenes if s.id == sid] == [edited, edited]
        assert outputs[0] == outputs[1]

    def test_nan_sidecar_is_data_error(self, pool_dir, tmp_path, capsys, monkeypatch):
        # The NaN goes into a sidecar that a clean round parses, for a scene
        # the uncertainty stage ranks.
        ranked, _ = self.clean_round(pool_dir, tmp_path, monkeypatch)
        state, out = self.init_state(pool_dir, tmp_path)
        sidecar = pool_dir / "sidecars" / f"{min(ranked)}.mdn"
        doc = json.loads(sidecar.read_text())
        doc["detections"][-1]["variances"][6] = [float("nan")] * len(doc["detections"][-1]["variances"][6])
        sidecar.write_text(json.dumps(doc))
        before = state.read_bytes()
        capsys.readouterr()
        assert run("select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3) == 3
        assert str(sidecar) in capsys.readouterr().err
        assert state.read_bytes() == before

    def test_nan_sidecar_of_an_unranked_scene_is_not_read(self, pool_dir, tmp_path, monkeypatch):
        # An unlabeled scene that the uncertainty stage never sees: its
        # sidecar is not parsed, and the round writes what a clean pool gives.
        ranked, clean = self.clean_round(pool_dir, tmp_path, monkeypatch)
        state, out = self.init_state(pool_dir, tmp_path)
        unranked = sorted(set(json.loads(state.read_text())["unlabeled_ids"]) - ranked)
        sidecar = pool_dir / "sidecars" / f"{unranked[0]}.mdn"
        doc = json.loads(sidecar.read_text())
        doc["detections"][0]["weights"][0][0] = float("nan")
        sidecar.write_text(json.dumps(doc))
        assert run("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3) == 0
        assert {f.name: f.read_bytes() for f in [state, *sorted(out.iterdir())]} == clean

    @pytest.mark.parametrize("which", ["labeled", "unlabeled"])
    def test_deleted_sidecar_of_any_pool_scene_is_data_error(self, pool_dir, tmp_path, capsys, which):
        # Every pool scene needs its sidecar, whether or not a round would
        # parse it; --init checks too.
        state, out = self.init_state(pool_dir, tmp_path)
        sid = sorted(json.loads(state.read_text())[f"{which}_ids"])[0]
        sidecar = pool_dir / "sidecars" / f"{sid}.mdn"
        sidecar.unlink()
        before = state.read_bytes()
        capsys.readouterr()
        assert run("select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3) == 3
        assert f"missing mixture sidecar: {sidecar}" in capsys.readouterr().err
        assert state.read_bytes() == before
        assert not out.exists() or not list(out.iterdir())
        fresh = tmp_path / "fresh.json"
        assert run("select", "--pool", pool_dir, "--state", fresh, "--out", out, "--init", "--n0", 4) == 3
        assert f"missing mixture sidecar: {sidecar}" in capsys.readouterr().err
        assert not fresh.exists()

    def test_missing_sidecar_directory_is_data_error_naming_the_first_scene(self, pool_dir, tmp_path, capsys):
        state, out = self.init_state(pool_dir, tmp_path)
        shutil.rmtree(pool_dir / "sidecars")
        before = state.read_bytes()
        capsys.readouterr()
        for init in ((), ("--init",)):
            assert run("select", "--pool", pool_dir, "--state", state, "--out", out, *init) == 3
            assert f"missing mixture sidecar: {pool_dir / 'sidecars' / 'scene_000000.mdn'}" in capsys.readouterr().err
        assert state.read_bytes() == before

    def test_unlabeled_ids_missing_from_pool_are_data_error(self, pool_dir, tmp_path, capsys):
        # Scenes removed from the pool after --init would otherwise stay
        # unlabeled forever without a word; the error names the first five.
        state, out = self.init_state(pool_dir, tmp_path)
        gone = sorted(json.loads(state.read_text())["unlabeled_ids"])[:7]
        for sid in gone:
            (pool_dir / "labels" / f"{sid}.txt").unlink()
            (pool_dir / "sidecars" / f"{sid}.mdn").unlink()
        before = state.read_bytes()
        capsys.readouterr()
        assert run("select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3) == 3
        err = capsys.readouterr().err
        assert "unlabeled ids not in pool" in err
        assert all(sid in err for sid in gone[:5]) and gone[5] not in err
        assert state.read_bytes() == before
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("mode", [("--n-r", 3), ("--init",)], ids=["round", "init"])
    def test_a_held_lock_is_a_data_error_naming_it_and_writes_nothing(self, pool_dir, tmp_path, capsys, mode):
        state, out = self.init_state(pool_dir, tmp_path)
        lock = state.with_suffix(".lock")
        before = state.read_bytes()
        capsys.readouterr()
        # Held on another open file description of the lock file, as by another run.
        with open(lock, "a") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert run("select", "--pool", pool_dir, "--state", state, "--out", out, *mode) == 3
            assert f"error: {lock}: another select holds this lock" in capsys.readouterr().err
        assert state.read_bytes() == before
        assert not out.exists() or not list(out.iterdir())
        # The lock goes with the file that held it.
        assert run("select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3) == 0

    @pytest.mark.parametrize("where", ["nodir/state.json", "state.json"], ids=["missing directory", "missing file"])
    def test_a_round_without_its_state_leaves_nothing_behind(self, pool_dir, tmp_path, capsys, where):
        work = tmp_path / "work"
        work.mkdir()
        state = work / where
        assert run("select", "--pool", pool_dir, "--state", state, "--out", work / "sel", "--n-r", 2) == 3
        assert f"error: {state}: cannot read file: " in capsys.readouterr().err
        assert not list(work.iterdir())
        # --init makes the state's directory, and the round then runs.
        assert run("select", "--pool", pool_dir, "--state", state, "--out", work / "sel", "--init") == 0
        assert run("select", "--pool", pool_dir, "--state", state, "--out", work / "sel", "--n-r", 2) == 0

    def test_no_sidecars_flag_is_usage_error(self, pool_dir, tmp_path, capsys):
        # Every stage order ranks by uncertainty, which needs the sidecars.
        state, out = self.init_state(pool_dir, tmp_path)
        with pytest.raises(SystemExit) as exc:
            run("select", "--pool", pool_dir, "--state", state, "--out", out, "--no-sidecars")
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-sidecars" in capsys.readouterr().err

    def test_similarity_cache_file_keeps_the_unlabeled_scenes_values(self, pool_dir, tmp_path):
        # The file next to the state holds the kernel values of the scenes
        # still unlabeled; ``--init`` leaves it alone.
        state, out = self.init_state(pool_dir, tmp_path)
        cache_file = tmp_path / "state.similarity.npz"
        assert not cache_file.exists()
        select = ("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3)
        for _ in range(2):
            assert run(*select) == 0
        cfg = build_config(environ={})
        pool = {s.id: s for s in kitti.load_pool_dir(pool_dir, cfg.catalog)}
        doc = json.loads(state.read_text())
        reused = {}
        for which in ("labeled_ids", "unlabeled_ids"):
            cache = sampler.SimilarityCache(cfg.catalog, cfg.kernel)
            cache.load(cache_file)
            cache.matrix([pool[i] for i in doc[which]])
            reused[which] = cache.reused
        assert reused["labeled_ids"] == 0 < reused["unlabeled_ids"]
        before = cache_file.read_bytes()
        assert run("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, "--init", "--n0", 4) == 0
        assert cache_file.read_bytes() == before

    def test_crash_before_the_cache_save_only_loses_values(self, pool_dir, tmp_path, monkeypatch):
        # Round 2 dies after it wrote the state, the selection and the
        # report: the file keeps round 1's values, and round 3 writes what a
        # round 3 without a crash writes.
        rounds = []
        for crash in (False, True):
            work = tmp_path / f"crash_{crash}"
            state, out = self.init_state(pool_dir, work)
            select = ("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3)
            assert run(*select) == 0
            kept = (work / "state.similarity.npz").read_bytes()
            if crash:

                def killed(*args):
                    raise KeyboardInterrupt

                with monkeypatch.context() as m:
                    m.setattr(sampler.SimilarityCache, "save", killed)
                    with pytest.raises(KeyboardInterrupt):
                        run(*select)
                assert (work / "state.similarity.npz").read_bytes() == kept
            else:
                assert run(*select) == 0
            assert run(*select) == 0
            rounds.append({f.name: f.read_bytes() for f in [state, *sorted(out.iterdir())]})
        assert rounds[1] == rounds[0]

    def test_an_unwritable_report_commits_no_round_and_a_rerun_writes_a_clean_one(
        self, pool_dir, tmp_path, capsys, monkeypatch
    ):
        # The state save commits the round: a report file that cannot be
        # written leaves the state, and the similarity cache file, as they
        # were.
        _, clean = self.clean_round(pool_dir, tmp_path, monkeypatch)
        state, out = self.init_state(pool_dir, tmp_path)
        blocker = out / "report_round_001.hist.csv"
        blocker.mkdir(parents=True)
        before = state.read_bytes()
        select = ("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3)
        capsys.readouterr()
        assert run(*select) == 3
        assert f"error: {blocker}: cannot write file: " in capsys.readouterr().err
        assert state.read_bytes() == before
        assert not state.with_suffix(".similarity.npz").exists()
        blocker.rmdir()
        assert run(*select) == 0
        assert {f.name: f.read_bytes() for f in [state, *sorted(out.iterdir())]} == clean

    def test_an_unwritable_cache_file_warns_after_the_round_is_committed(
        self, pool_dir, tmp_path, caplog, monkeypatch
    ):
        # The cache file is rewritten after the state save commits the
        # round, and it only saves kernel work: failing to write it is a
        # warning, and the round's files are those of a clean round.
        _, clean = self.clean_round(pool_dir, tmp_path, monkeypatch)
        state, out = self.init_state(pool_dir, tmp_path)
        cache_file = state.with_suffix(".similarity.npz")
        save = state_mod.save_round_state

        def save_then_block_the_cache_file(st, path):
            save(st, path)
            cache_file.mkdir()

        monkeypatch.setattr(state_mod, "save_round_state", save_then_block_the_cache_file)
        with caplog.at_level(logging.WARNING):
            assert run("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3) == 0
        assert f"{cache_file}: cannot write file: " in caplog.text
        assert "round 1 is committed without its new kernel values" in caplog.text
        assert {f.name: f.read_bytes() for f in [state, *sorted(out.iterdir())]} == clean

    def test_an_unwritable_sidecar_store_warns_after_the_round_is_committed(
        self, pool_dir, tmp_path, caplog, monkeypatch
    ):
        # Like the cache file: the store only saves parsing.
        _, clean = self.clean_round(pool_dir, tmp_path, monkeypatch)
        state, out = self.init_state(pool_dir, tmp_path)
        store_file = state.with_suffix(".sidecars.npz")
        save = state_mod.save_round_state

        def save_then_block_the_store_file(st, path):
            save(st, path)
            store_file.mkdir()

        monkeypatch.setattr(state_mod, "save_round_state", save_then_block_the_store_file)
        with caplog.at_level(logging.WARNING):
            assert run("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3) == 0
        assert f"{store_file}: cannot write file: " in caplog.text
        assert "the next round parses the sidecars of this one again" in caplog.text
        assert {f.name: f.read_bytes() for f in [state, *sorted(out.iterdir())]} == clean

    def parsed_labels(self, monkeypatch):
        """Record the id of every label file parsed from now on."""
        parsed = []
        parse = kitti.parse_label_file

        def counting(path, *args):
            parsed.append(Path(path).stem)
            return parse(path, *args)

        monkeypatch.setattr(kitti, "parse_label_file", counting)
        return parsed

    def test_a_round_after_init_parses_no_label_file_and_an_edited_one_once(
        self, pool_dir, tmp_path, caplog, monkeypatch
    ):
        parsed = self.parsed_labels(monkeypatch)
        pool_file = tmp_path / "state.pool.npz"
        state, out = tmp_path / "state.json", tmp_path / "sel"
        select = ("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out)
        logged = []
        for step in ("--init", "round", "edit, round"):
            if step == "edit, round":
                label = kitti.label_path(pool_dir, "scene_000005")
                label.write_text(label.read_text().replace(" ", "  ", 1))
            parsed.clear()
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="scenesel"):
                assert run("-v", *select, *(("--init", "--n0", 4) if step == "--init" else ("--n-r", 3))) == 0
            logged.append((len(parsed), re.findall(r"label files: .*", caplog.text)))
        assert parsed == ["scene_000005"]
        assert logged == [
            (24, [f"label files: 24 parsed, 0 from {pool_file}"]),
            (0, [f"label files: 0 parsed, 24 from {pool_file}"]),
            (1, [f"label files: 1 parsed, 23 from {pool_file}"]),
        ]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert run(*select, "--n-r", 3) == 0
        assert "label files" not in caplog.text  # not without -v

    @pytest.mark.parametrize("mode", ["--init", "a round"])
    def test_a_directory_in_place_of_the_parsed_pool_file_is_a_warning(
        self, pool_dir, tmp_path, caplog, monkeypatch, mode
    ):
        # The file is written after the state and only saves parsing: a
        # write that fails is a warning, and the run writes what a clean one
        # does.
        pool_file = tmp_path / "state.pool.npz"
        if mode == "a round":
            _, clean = self.clean_round(pool_dir, tmp_path, monkeypatch)
            state, out = self.init_state(pool_dir, tmp_path)
            pool_file.unlink()  # so that the round writes it
            flags = ("--n-r", 3)
        else:
            state, out = tmp_path / "state.json", tmp_path / "sel"
            flags = ("--init", "--n0", 4)
        save = state_mod.save_round_state

        def save_then_block_the_pool_file(st, path):
            save(st, path)
            pool_file.mkdir()

        monkeypatch.setattr(state_mod, "save_round_state", save_then_block_the_pool_file)
        with caplog.at_level(logging.WARNING):
            assert run("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, *flags) == 0
        assert f"{pool_file}: cannot write file: " in caplog.text
        assert "the next run parses the label files again" in caplog.text
        if mode == "a round":
            assert {f.name: f.read_bytes() for f in [state, *sorted(out.iterdir())]} == clean
        else:
            assert json.loads(state.read_text())["round_index"] == 0

    def test_another_catalog_replaces_the_parsed_pool_file_with_a_warning(self, pool_dir, tmp_path, caplog):
        state, out = self.init_state(pool_dir, tmp_path)
        pool_file = tmp_path / "state.pool.npz"
        config = tmp_path / "scenesel.conf"
        config.write_text("classes = car,pedestrian,cyclist,truck\nanchor.truck = 10.0,2.6,3.2\n")
        select = ("--config", config, "--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out)
        with caplog.at_level(logging.WARNING):
            assert run(*select, "--n-r", 3) == 0
        assert f"{pool_file}: made for another catalog or format; replacing it" in caplog.text
        with np.load(pool_file) as npz:
            assert npz["catalog"].tolist() == ["car", "pedestrian", "cyclist", "truck"]
            assert len(npz["digests"]) == 24

    def test_a_later_round_reads_the_files_beside_the_state_as_current(self, pool_dir, tmp_path, caplog):
        # The files keep their members, stamp first, and their dtypes, so
        # that the files an earlier version wrote are read, not replaced.
        state, out = self.init_state(pool_dir, tmp_path)
        select = ("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3)
        assert run(*select) == 0
        with caplog.at_level(logging.WARNING):
            assert run(*select) == 0
        assert "replacing it" not in caplog.text
        string, int64, float64 = "U", "i8", "f8"  # any string length
        layouts = {
            ".similarity.npz": dict(
                fingerprint=(string, 0), digests=(string, 1), self_kernels=(float64, 1), pairs=(int64, 2),
                values=(float64, 1),
            ),
            ".sidecars.npz": dict(
                format=(int64, 0), digests=(string, 1), counts=(int64, 1), components=(int64, 1), values=(float64, 1)
            ),
            ".pool.npz": dict(
                format=(int64, 0), catalog=(string, 1), digests=(string, 1), counts=(int64, 1), labels=(int64, 1),
                boxes=(float64, 2),
            ),
        }
        for suffix, layout in layouts.items():
            with np.load(state.with_suffix(suffix)) as npz:
                assert npz.files == list(layout)
                arrays = {name: npz[name] for name in npz.files}
            members = {n: ("U" if a.dtype.kind == "U" else a.dtype.str[1:], a.ndim) for n, a in arrays.items()}
            assert members == layout, suffix

    def test_init_budget_0_is_kept_and_stops_the_first_round(self, pool_dir, tmp_path, capsys):
        state, out = tmp_path / "state.json", tmp_path / "sel"
        select = ("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out)
        assert run(*select, "--init", "--n0", 4, "--budget", 0) == 0
        assert json.loads(state.read_text())["budget_total"] == 0
        before = state.read_bytes()
        capsys.readouterr()
        assert run(*select, "--n-r", 3) == 3
        assert "budget of 0 scenes has 0 left" in capsys.readouterr().err
        assert state.read_bytes() == before
        assert not out.exists()

    def test_init_n0_above_pool_is_data_error(self, pool_dir, tmp_path):
        state = tmp_path / "state.json"
        code = run("select", "--pool", pool_dir, "--state", state, "--out", tmp_path / "o", "--init", "--n0", 99)
        assert code == 3


class TestSimulate:
    def test_strategy_reports_and_comparison(self, tmp_path):
        out = tmp_path / "sim"
        code = run(
            "--seed", 4, "simulate", "--out", out, "--n-scenes", 20, "--n0", 10,
            "--strategies", "random,tscenejal", "--n-r", 2, "--rounds", 2,
        )
        assert code == 0
        for strategy in ("random", "tscenejal"):
            rows = (out / strategy / "rounds.csv").read_text().splitlines()
            assert len(rows) == 3  # header + 2 rounds
            assert (out / strategy / "state.json").exists()
            assert (out / strategy / "selected_round_001.txt").exists()
            assert (out / strategy / "selected_round_002.txt").exists()
        comparison = (out / "comparison.csv").read_text().splitlines()
        assert len(comparison) == 5  # header + 2 strategies x 2 rounds

    def test_unknown_strategy_rejected(self, tmp_path):
        code = run("simulate", "--out", tmp_path / "s", "--strategies", "oracle")
        assert code == 3

    @pytest.mark.parametrize(
        "strategies, message",
        [
            ("", "unknown strategy ''"),
            ("random,", "unknown strategy ''"),
            ("random,tscenejal,random", "strategy 'random' is listed more than once"),
            ("fs-only, fs-only", "strategy 'fs-only' is listed more than once"),
        ],
    )
    def test_empty_or_repeated_strategy_rejected_before_any_file_is_written(self, tmp_path, capsys, strategies, message):
        out = tmp_path / "s"
        assert run("simulate", "--out", out, "--n-scenes", 20, "--strategies", strategies) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_each_scene_is_predicted_once_across_strategies_and_rounds(self, tmp_path, monkeypatch):
        predicted = []
        simulate_predictions = synth.simulate_predictions

        def counting(gt_scene, *args):
            predicted.append(gt_scene.id)
            return simulate_predictions(gt_scene, *args)

        monkeypatch.setattr(synth, "simulate_predictions", counting)
        code = run(
            "--seed", 4, "simulate", "--out", tmp_path / "sim", "--n-scenes", 30, "--n0", 6,
            "--strategies", ",".join(sampler.STRATEGIES), "--n-r", 3, "--rounds", 2,
        )
        assert code == 0
        assert len(predicted) == len(set(predicted)) == 24  # every unlabeled scene, once

    def test_pool_below_n_r_names_pool_and_n_r(self, tmp_path, capsys):
        # The default --n0 10 labels all five scenes, leaving none to select.
        code = run("simulate", "--out", tmp_path / "s", "--n-scenes", 5, "--n-r", 1, "--rounds", 1)
        assert code == 2
        assert "pool of 0 scenes is below n_r=1" in capsys.readouterr().err


class TestPlanFlags:
    """Only the commands that run a plan take its flags, and ``select``,
    which runs one round, takes no ``--rounds``."""

    @pytest.mark.parametrize("flag", [("--n-r", 3), ("--k1", 3), ("--rounds", 2)])
    @pytest.mark.parametrize("command", ["synth", "score", "stats"])
    def test_commands_without_a_plan_reject_its_flags(self, pool_dir, tmp_path, capsys, command, flag):
        argv = {
            "synth": ("synth", "--out", tmp_path / "new", "--n-scenes", 4),
            "score": ("score", "--pool", pool_dir, "--metric", "entropy", "--out", tmp_path / "e.csv"),
            "stats": ("stats", "--pool", pool_dir, "--out", tmp_path / "stats"),
        }[command]
        with pytest.raises(SystemExit) as exc:
            run(*argv, *flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_select_rejects_rounds(self, pool_dir, tmp_path, capsys):
        state, out = tmp_path / "state.json", tmp_path / "sel"
        assert run("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, "--init", "--n0", 4) == 0
        with pytest.raises(SystemExit) as exc:
            run("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3, "--rounds", 2)
        assert exc.value.code == 2
        assert "unrecognized arguments: --rounds" in capsys.readouterr().err
        assert json.loads(state.read_text())["round_index"] == 0


    @pytest.mark.parametrize(
        "argv, named",
        [
            (("select", "--init", "--n0", -1), "--n0 must be >= 0, got -1"),
            (("select", "--init", "--budget", -3), "--budget must be >= 0, got -3"),
            (("select", "--init", "--n0", 2, "--budget", -1), "--budget must be >= 0, got -1"),
            (("simulate", "--n0", -2), "--n0 must be >= 0, got -2"),
        ],
    )
    def test_a_negative_count_is_a_usage_error_naming_the_flag_before_any_file_is_read(
        self, tmp_path, capsys, argv, named
    ):
        # No pool and no config file: a command that read one first would exit 3.
        paths = ("--pool", tmp_path / "no_pool", "--state", tmp_path / "state.json") if argv[0] == "select" else ()
        config = ("--config", tmp_path / "no.conf")
        assert run(*config, argv[0], *paths, "--out", tmp_path / "out", *argv[1:]) == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # Not an OverflowError traceback from floor(inf * n_r), exit 1.
    @pytest.mark.parametrize("command", ["select", "simulate"])
    def test_infinite_multipliers_are_invalid_configuration(self, pool_dir, tmp_path, capsys, command):
        state, out = tmp_path / "state.json", tmp_path / "out"
        if command == "select":
            assert run("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, "--init", "--n0", 4) == 0
            argv = ("select", "--pool", pool_dir, "--state", state, "--out", out)
        else:
            argv = ("simulate", "--out", out, "--n-scenes", 12)
        before = sorted(tmp_path.rglob("*"))
        assert run("--seed", 9, *argv, "--n-r", 1, "--k1", "inf", "--k2", "inf") == 3
        assert "error: invalid configuration: need k1 * n_r finite, got k1=inf n_r=1" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "n_r, k1, k2, warning, plain",
        [
            (1, "1e308", 2, "floor(k1*n_r)=1e+308, stage sizes now (4, 1, 1)", (4, 1)),  # not 309 digits
            (2, "123456.5", 2, "floor(k1*n_r)=246913, stage sizes now (4, 2, 2)", (2, 1)),
        ],
    )
    def test_the_degraded_round_warning_gives_floor_k1_n_r_to_six_digits(self, tmp_path, caplog, n_r, k1, k2, warning, plain):
        # The degraded round of a 4-scene pool selects what the plan of its
        # stage sizes, ``plain``, selects without degrading.
        pool = tmp_path / "pool"
        assert run("--seed", 2, "synth", "--out", pool, "--n-scenes", 4) == 0
        selected, warnings = [], []
        for plan in ((k1, k2), plain):
            state, out = tmp_path / str(plan) / "state.json", tmp_path / str(plan) / "sel"
            select = ("--seed", 9, "select", "--pool", pool, "--state", state, "--out", out)
            assert run(*select, "--init") == 0
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                assert run(*select, "--n-r", n_r, "--k1", plan[0], "--k2", plan[1]) == 0
            warnings.append([r.getMessage() for r in caplog.records if r.getMessage().startswith("degraded round")])
            selected.append((out / "selected_round_001.txt").read_bytes())
        assert warnings == [[f"degraded round: pool 4 < {warning}"], []]
        assert selected[0] == selected[1]


class TestStats:
    def test_pool_stats_written(self, pool_dir, tmp_path):
        out = tmp_path / "stats"
        assert run("stats", "--pool", pool_dir, "--out", out) == 0
        summary = (out / "stats.summary.txt").read_text()
        assert "category_kl" in summary
        hist = (out / "stats.hist.csv").read_text().splitlines()
        assert hist[0] == "class,count"
        assert len(hist) == 4

    def test_stats_deterministic(self, pool_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("--seed", 2, "stats", "--pool", pool_dir, "--out", a)
        run("--seed", 2, "stats", "--pool", pool_dir, "--out", b)
        assert (a / "stats.summary.txt").read_text() == (b / "stats.summary.txt").read_text()

    def test_selection_subset(self, pool_dir, tmp_path):
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("scene_000001\nscene_000002\n")
        out = tmp_path / "stats"
        assert run("stats", "--pool", pool_dir, "--ids", ids_file, "--out", out) == 0

    def test_missing_sidecars_fallback_is_logged(self, pool_dir, tmp_path, caplog):
        shutil.rmtree(pool_dir / "sidecars")
        with caplog.at_level(logging.WARNING):
            assert run("stats", "--pool", pool_dir, "--out", tmp_path / "stats") == 0
        assert "loading the pool without sidecars" in caplog.text
        assert "missing mixture sidecar" in caplog.text

    def test_non_json_sidecar_falls_back_like_a_missing_one(self, pool_dir, tmp_path, caplog):
        (pool_dir / "sidecars" / "scene_000002.mdn").write_text("{not json")
        with caplog.at_level(logging.WARNING):
            assert run("stats", "--pool", pool_dir, "--out", tmp_path / "bad") == 0
        assert "loading the pool without sidecars" in caplog.text
        assert "scene_000002.mdn: invalid sidecar JSON" in caplog.text
        shutil.rmtree(pool_dir / "sidecars")
        assert run("stats", "--pool", pool_dir, "--out", tmp_path / "none") == 0
        for name in ("stats.summary.txt", "stats.hist.csv"):
            assert (tmp_path / "bad" / name).read_bytes() == (tmp_path / "none" / name).read_bytes()

    def test_bad_label_file_is_data_error_without_fallback(self, pool_dir, tmp_path, caplog, capsys):
        (pool_dir / "labels" / "scene_000002.txt").write_text("car 0.9 notanumber\n")
        with caplog.at_level(logging.WARNING):
            assert run("stats", "--pool", pool_dir, "--out", tmp_path / "stats") == 3
        assert "scene_000002.txt" in capsys.readouterr().err
        assert "without sidecars" not in caplog.text

    def test_missing_ids_file_is_data_error_naming_it(self, pool_dir, tmp_path, capsys):
        ids_file = tmp_path / "no_such_ids.txt"
        assert run("stats", "--pool", pool_dir, "--ids", ids_file, "--out", tmp_path / "o") == 3
        assert f"{ids_file}: cannot read file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_ids_rejected(self, pool_dir, tmp_path, capsys):
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("scene_999999\n")
        assert run("stats", "--pool", pool_dir, "--ids", ids_file, "--out", tmp_path / "o") == 3
        assert f"{ids_file}: ids not in pool: ['scene_999999']" in capsys.readouterr().err


class TestOneSummary:
    """``select``, ``simulate`` and ``stats`` write one summary of a selection,
    ``diagnostics.selection_report``."""

    def first_round(self, tmp_path, *flags):
        """A round of ``flags`` on a 66-scene ``synth`` pool; its pool and --out."""
        pool, state, out = tmp_path / "pool", tmp_path / "state.json", tmp_path / "sel"
        assert run("--seed", 4, "synth", "--out", pool, "--n-scenes", 66) == 0
        assert run("select", "--pool", pool, "--state", state, "--out", out, "--init") == 0
        assert run("--seed", 4, "select", "--pool", pool, "--state", state, "--out", out, *flags) == 0
        return pool, out

    def test_stats_of_a_round_selection_writes_the_round_report(self, tmp_path):
        pool, out = self.first_round(tmp_path, "--n-r", 20)
        # 190 pairs are within REPORT_PAIRS: stats takes every pair, whatever its seed.
        ids = out / "selected_round_001.txt"
        assert run("--seed", 11, "stats", "--pool", pool, "--ids", ids, "--out", tmp_path / "stats") == 0
        for suffix in (".summary.txt", ".hist.csv"):
            assert (tmp_path / "stats" / f"stats{suffix}").read_bytes() == (out / f"report_round_001{suffix}").read_bytes()
        assert "pair_sample_count = 190\n" in (out / "report_round_001.summary.txt").read_text()

    def test_a_round_report_takes_every_pair_of_the_selection(self, tmp_path):
        _, out = self.first_round(tmp_path, "--n-r", 21)
        assert "pair_sample_count = 210\n" in (out / "report_round_001.summary.txt").read_text()

    def test_a_selection_of_no_objects_has_no_similarity_in_its_report_files(self, tmp_path):
        # No predicted confidence reaches a tau of 1, so no scene has an object.
        config = tmp_path / "tau.conf"
        config.write_text("entropy.tau = 1.0\n")
        pool, state, out = tmp_path / "pool", tmp_path / "state.json", tmp_path / "sel"
        assert run("--seed", 1, "synth", "--out", pool, "--n-scenes", 12) == 0
        assert run("--config", config, "select", "--pool", pool, "--state", state, "--out", out, "--init") == 0
        assert run("--config", config, "select", "--pool", pool, "--state", state, "--out", out, "--n-r", 3) == 0
        assert (out / "report_round_001.summary.txt").read_text() == (
            "object_count = 0\ndiscrete_entropy = None\ncategory_kl = None\nsimilarity_mean = None\n"
            "similarity_std = None\npair_sample_count = 0\nuncertainty_histogram = {}\n"
        )
        # ``rounds.csv`` gives the same kind of round its mean similarity.
        sim = tmp_path / "sim"
        argv = ("simulate", "--out", sim, "--n-scenes", 12, "--n0", 0, "--n-r", 3, "--rounds", 1, "--strategies", "tscenejal")
        assert run("--config", config, "--seed", 1, *argv) == 0
        assert (sim / "tscenejal" / "rounds.csv").read_text().splitlines()[1] == "1,3,0.000000,1.000000,0.000000,0,0,0,0"


LABEL_LINE = "car 0.0 0 0.0 0 0 0 0 1.5 1.6 3.9 5.0 1.0 0.5 0.1 0.8"


def _append_label(target, line: bytes):
    target.write_bytes(target.read_bytes() + line + b"\n")


# Where LABEL_LINE keeps the fields that label faults change.
_LABEL_FIELD = {"h": 8, "w": 9, "l": 10, "x": 11, "rotation_y": 14, "score": 15}


def _label_fault(**values):
    """A fault that appends LABEL_LINE with some fields replaced."""
    fields = LABEL_LINE.split()
    for name, value in values.items():
        fields[_LABEL_FIELD[name]] = value
    return lambda p: _append_label(p, " ".join(fields).encode())


def _edit_sidecar(edit):
    """A fault that rewrites a sidecar's list of entries in place."""

    def inject(target):
        doc = json.loads(target.read_text())
        edit(doc["detections"])
        target.write_text(json.dumps(doc))

    return inject


def _nan_means(entries):
    entries[0]["means"][0] = [float("nan")] * len(entries[0]["means"][0])


def _short_row(entries):
    entries[0]["weights"][4] = entries[0]["weights"][4][:-1]


def _one_component(entries):
    entries[1] = {name: [[1.0 if name == "weights" else 0.0]] * 7 for name in entries[1]}


def _non_numeric(entries):
    entries[0]["means"][0][0] = "wide"


def _overflowing_w_mean(target):
    # A finite w mean whose propagated variance is not: on the first
    # detection that passes the confidence filter (the score column).
    labels = target.parent.parent / "labels" / f"{target.stem}.txt"
    kept = next(i for i, line in enumerate(labels.read_text().splitlines()) if float(line.split()[-1]) >= 0.3)

    def edit(entries):
        entries[kept]["means"][3] = [1e200] * len(entries[kept]["means"][3])

    _edit_sidecar(edit)(target)


def _far_center(target):
    # x = 1e200 on the first line that passes the confidence filter: the
    # squared distance to the ego node overflows.
    lines = target.read_text().splitlines()
    kept = next(i for i, line in enumerate(lines) if float(line.split()[-1]) >= 0.3)
    fields = lines[kept].split()
    fields[11] = "1e200"
    lines[kept] = " ".join(fields)
    target.write_text("\n".join(lines) + "\n")


def _singular_yaw_everywhere(target):
    # Every scene with a kept detection drops out of the uncertainty ranking.
    for sidecar in target.parent.glob("*.mdn"):
        doc = json.loads(sidecar.read_text())
        for entry in doc["detections"]:
            entry["means"][6] = [math.pi / 2] * len(entry["means"][6])
        sidecar.write_text(json.dumps(doc))


def _cache_file(edit=lambda arrays: None):
    """A fault that writes a similarity cache file: one valid file of the
    CLI's default kernel config and catalog, with two scenes and their
    pair, after ``edit`` changed its arrays."""
    cfg = build_config(environ={})

    def inject(target):
        arrays = {
            "fingerprint": np.str_(sampler.SimilarityCache(cfg.catalog, cfg.kernel).fingerprint),
            "digests": np.array(["d1", "d2"]),
            "self_kernels": np.array([0.5, 0.5]),
            "pairs": np.array([[0, 1]]),
            "values": np.array([0.1]),
        }
        edit(arrays)
        with open(target, "wb") as fh:
            np.savez(fh, **arrays)

    return inject


def _cut_short(write):
    """A fault that keeps the first half of the valid file ``write`` writes."""

    def inject(target):
        write(target)
        target.write_bytes(target.read_bytes()[: target.stat().st_size // 2])

    return inject


def _npy(target):
    with open(target, "wb") as fh:
        np.save(fh, np.zeros(3))  # an npy array, not an npz


def _sidecar_store(edit=lambda arrays: None):
    """A fault that writes a sidecar store file: one valid file holding one
    sidecar of one one-component detection, after ``edit`` changed its
    arrays."""

    def inject(target):
        block = np.zeros((1, 3, 7, 1))
        block[0, 0] = block[0, 2] = 1.0  # weight 1, mean 0, variance 1
        arrays = {
            "format": np.int64(kitti.SIDECAR_STORE_FORMAT),
            "digests": np.array(["0" * 32]),
            "counts": np.array([1]),
            "components": np.array([1]),
            "values": block.reshape(-1),
        }
        edit(arrays)
        with open(target, "wb") as fh:
            np.savez(fh, **arrays)

    return inject


def _pool_arrays(edit):
    """A fault that rewrites the arrays of a parsed-pool file."""

    def inject(target):
        with np.load(target) as npz:
            arrays = dict(npz)
        edit(arrays)
        with open(target, "wb") as fh:
            np.savez(fh, **arrays)

    return inject


def _set(name, at, value):
    def edit(arrays):
        arrays[name][at] = value

    return edit


def _unopenable(target):
    # ``select --init`` made the file.
    if os.geteuid() == 0:
        pytest.skip("root opens a file of mode 000")
    target.chmod(0o000)


def _directory_in_place(target):
    target.unlink()
    target.mkdir()


def _string_labeled_ids(target):
    # One id as a string, not a list: it would load as its characters.
    doc = json.loads(target.read_text())
    doc["labeled_ids"] = doc["labeled_ids"][0]
    target.write_text(json.dumps(doc))


def _float_seed(target):
    # ``int`` would load it as 7.
    doc = json.loads(target.read_text())
    doc["rng_seed"] = 7.9
    target.write_text(json.dumps(doc))


ALL_POOL_COMMANDS = {"select": 3, "score": 3, "stats": 3}
# A malformed label line fails every command that parses the pool.
LABEL_EXITS = {"select --init": 3, **ALL_POOL_COMMANDS}
# A sidecar fault is a data error for ``select`` and ``score``; ``stats``
# logs it and reports on the labels alone.
SIDECAR_EXITS = {"select": 3, "score": 3, "stats": 0}
# Both modes of ``select`` read the parsed-pool file next to the state,
# and take the lock file next to it.
POOL_FILE_EXITS = {"select": 3, "select --init over the state": 3}
# fault: (the file it goes into, how it is injected, {command: exit code})
FAULTS = {
    "label: inf occluded": (
        "label", lambda p: _append_label(p, LABEL_LINE.replace(" 0 0.0 ", " inf 0.0 ", 1).encode()), LABEL_EXITS
    ),
    "label: nan location": ("label", _label_fault(x="nan"), LABEL_EXITS),
    "label: not UTF-8": ("label", lambda p: _append_label(p, b"car \xff" + LABEL_LINE[3:].encode()), LABEL_EXITS),
    "label: 14 fields": ("label", lambda p: _append_label(p, LABEL_LINE.rsplit(" ", 2)[0].encode()), LABEL_EXITS),
    "label: bad number": ("label", _label_fault(w="wide"), LABEL_EXITS),
    "label: zero size": ("label", _label_fault(h="0"), LABEL_EXITS),
    "label: negative size": ("label", _label_fault(w="-1.6"), LABEL_EXITS),
    "label: inf size": ("label", _label_fault(l="inf"), LABEL_EXITS),
    "label: nan yaw": ("label", _label_fault(rotation_y="nan"), LABEL_EXITS),
    "label: confidence above 1": ("label", _label_fault(score="1.5"), LABEL_EXITS),
    "label: negative confidence": ("label", _label_fault(score="-0.25"), LABEL_EXITS),
    "state: not UTF-8": ("state", lambda p: p.write_bytes(b"\xff\xfe{"), {"select": 3}),
    "state: labeled_ids is a string": ("state", _string_labeled_ids, {"select": 3}),
    "state: float seed": ("state", _float_seed, {"select": 3}),
    "sidecar: not UTF-8": ("sidecar", lambda p: p.write_bytes(b"\xff" + p.read_bytes()), SIDECAR_EXITS),
    "sidecar: missing": ("sidecar", lambda p: p.unlink(), SIDECAR_EXITS),
    "sidecar: not JSON": ("sidecar", lambda p: p.write_text("{not json"), SIDECAR_EXITS),
    "sidecar: NaN": ("sidecar", _edit_sidecar(_nan_means), SIDECAR_EXITS),
    "sidecar: entry rows differ in K": ("sidecar", _edit_sidecar(_short_row), SIDECAR_EXITS),
    "sidecar: entries differ in K": ("sidecar", _edit_sidecar(_one_component), SIDECAR_EXITS),
    "sidecar: non-numeric value": ("sidecar", _edit_sidecar(_non_numeric), SIDECAR_EXITS),
    "sidecar: overflowing w mean": ("sidecar", _overflowing_w_mean, SIDECAR_EXITS),
    "sidecar: not an object": ("sidecar", lambda p: p.write_text("[1]"), SIDECAR_EXITS),
    "sidecar: detections not a list": (
        "sidecar", lambda p: p.write_text('{"version": 1, "detections": 5}'), SIDECAR_EXITS
    ),
    "similarity cache: not a zip": ("cache", lambda p: p.write_text("{not json"), {"select": 3}),
    "similarity cache: cut short": ("cache", _cut_short(_cache_file()), {"select": 3}),
    "similarity cache: an npy, not an npz": ("cache", _npy, {"select": 3}),
    "similarity cache: missing array": ("cache", _cache_file(lambda a: a.pop("values")), {"select": 3}),
    "similarity cache: NaN kernel": ("cache", _cache_file(_set("self_kernels", 0, float("nan"))), {"select": 3}),
    "similarity cache: kernel above 1": ("cache", _cache_file(_set("values", 0, 1.5)), {"select": 3}),
    "similarity cache: zero self-kernel": ("cache", _cache_file(_set("self_kernels", 0, 0.0)), {"select": 3}),
    "similarity cache: string kernel": (
        "cache", _cache_file(lambda a: a.update(self_kernels=np.array(["0.5", "0.5"]))), {"select": 3}
    ),
    "similarity cache: pair without self-kernels": ("cache", _cache_file(_set("pairs", (0, 1), 2)), {"select": 3}),
    "similarity cache: unsorted digests": (
        "cache", _cache_file(lambda a: a.update(digests=np.array(["d2", "d1"]))), {"select": 3}
    ),
    "similarity cache: stale fingerprint": (
        "cache", _cache_file(lambda a: a.update(fingerprint=np.str_("0" * 64))), {"select": 0}
    ),
    "sidecar store: not a zip": ("sidecar store", lambda p: p.write_bytes(b"not a zip"), {"select": 3}),
    "sidecar store: missing array": ("sidecar store", _sidecar_store(lambda a: a.pop("components")), {"select": 3}),
    "sidecar store: float32 values": (
        "sidecar store", _sidecar_store(lambda a: a.update(values=a["values"].astype(np.float32))), {"select": 3}
    ),
    "sidecar store: counts that do not fit the values": (
        "sidecar store", _sidecar_store(_set("counts", 0, 2)), {"select": 3}
    ),
    "sidecar store: NaN mean": ("sidecar store", _sidecar_store(_set("values", 7, float("nan"))), {"select": 3}),
    "sidecar store: stale format": ("sidecar store", _sidecar_store(lambda a: a.update(format=np.int64(99))), {"select": 0}),
    "sidecar store: cut short": ("sidecar store", _cut_short(_sidecar_store()), {"select": 3}),
    "sidecar store: an npy, not an npz": ("sidecar store", _npy, {"select": 3}),
    "parsed pool: not a zip": ("pool", lambda p: p.write_bytes(b"not a zip"), POOL_FILE_EXITS),
    "parsed pool: missing array": ("pool", _pool_arrays(lambda a: a.pop("counts")), POOL_FILE_EXITS),
    "parsed pool: float32 boxes": (
        "pool", _pool_arrays(lambda a: a.update(boxes=a["boxes"].astype(np.float32))), POOL_FILE_EXITS
    ),
    "parsed pool: 7 box columns": ("pool", _pool_arrays(lambda a: a.update(boxes=a["boxes"][:, :7])), POOL_FILE_EXITS),
    "parsed pool: counts that do not sum to the rows": ("pool", _pool_arrays(_set("counts", 0, 99)), POOL_FILE_EXITS),
    "parsed pool: label outside the catalog": ("pool", _pool_arrays(_set("labels", 0, 3)), POOL_FILE_EXITS),
    "parsed pool: NaN box": ("pool", _pool_arrays(_set("boxes", (0, 0), float("nan"))), POOL_FILE_EXITS),
    "parsed pool: zero width": ("pool", _pool_arrays(_set("boxes", (0, 3), 0.0)), POOL_FILE_EXITS),
    "parsed pool: stale format": ("pool", _pool_arrays(lambda a: a.update(format=np.int64(99))), {"select": 0}),
    "parsed pool: cut short": ("pool", _cut_short(_pool_arrays(lambda a: None)), POOL_FILE_EXITS),
    "parsed pool: an npy, not an npz": ("pool", _npy, POOL_FILE_EXITS),
    "config: missing": ("config", lambda p: None, {**ALL_POOL_COMMANDS, "simulate": 3}),
    "config: not UTF-8": ("config", lambda p: p.write_bytes(b"plan.n_r = \xff\n"), {**ALL_POOL_COMMANDS, "simulate": 3}),
    "label: center too far out": (
        "label", _far_center, {"select, similarity first": 3, "score --metric similarity": 3, "stats": 3}
    ),
    "sidecar: every yaw near pi/2": ("sidecar", _singular_yaw_everywhere, SIDECAR_EXITS),
    "ids: missing": ("ids", lambda p: None, {"stats": 3}),
    "ids: not UTF-8": ("ids", lambda p: p.write_bytes(b"scene_000001\n\xff\n"), {"stats": 3}),
    "ids: repeated id": ("ids", lambda p: p.write_text("scene_000001\nscene_000002\nscene_000001\n"), {"stats": 3}),
    "report: a directory in the way": ("report", lambda p: p.mkdir(parents=True), {"select": 3}),
    "lock: unopenable": ("lock", _unopenable, POOL_FILE_EXITS),
    "lock: a directory in the way": ("lock", _directory_in_place, POOL_FILE_EXITS),
}


# What a fault's message, or for exit 0 its warning, says besides the file,
# or {command: what it says} where the commands differ; "{sid}" is the
# faulty scene's id, and "{line}" is "<file>:<n>" for the file's last line n.
_NEAR_SINGULAR_YAW = ("scene '{sid}': detection ", "yaw residual mean 1.5707963267948966 is too close to +-pi/2")
SAID = {
    "label: inf occluded": ("{line}: occluded must be finite, got inf",),
    "label: nan location": ("{line}: box center must be finite, got x=nan y=1.0 z=0.5",),
    "label: not UTF-8": ("{line}: not UTF-8: ",),
    "label: 14 fields": ("{line}: expected 15 or 16 fields, got 14",),
    "label: bad number": ("{line}: bad numeric field: could not convert string to float: 'wide'",),
    "label: zero size": ("{line}: box dimensions must be positive and finite, got w=1.6 l=3.9 h=0.0",),
    "label: negative size": ("{line}: box dimensions must be positive and finite, got w=-1.6 l=3.9 h=1.5",),
    "label: inf size": ("{line}: box dimensions must be positive and finite, got w=1.6 l=inf h=1.5",),
    "label: nan yaw": ("{line}: yaw must be finite",),
    "label: confidence above 1": ("{line}: confidence must be in [0, 1], got 1.5",),
    "label: negative confidence": ("{line}: confidence must be in [0, 1], got -0.25",),
    "sidecar: entry rows differ in K": ("entry 0: all dimensions must share the same component count",),
    "sidecar: entries differ in K": ("entry 1: mixture has 1 components but entry 0 has 3",),
    "sidecar: non-numeric value": ("entry 0: could not convert string to float: 'wide'",),
    "sidecar: overflowing w mean": ("scene '{sid}': detection ", "propagated variances are not finite"),
    "state: labeled_ids is a string": ("invalid round state: labeled_ids must be a list, got str",),
    "state: float seed": ("invalid round state: rng_seed must be an integer, got 7.9",),
    "ids: repeated id": ("id 'scene_000001' is listed more than once",),
    "report: a directory in the way": (": cannot write file: ",),
    "lock: unopenable": (": cannot open lock file: ",),
    "lock: a directory in the way": (": cannot open lock file: ",),
    "label: center too far out": ("scene '{sid}': the distance from (0.0, 0.0, 0.0) to (1e+200, ",),
    "sidecar: every yaw near pi/2": {
        "select": ("excluded for a yaw residual near +-pi/2, the first '{sid}'",),
        "score": _NEAR_SINGULAR_YAW,
        "stats": _NEAR_SINGULAR_YAW,
    },
    "sidecar: not an object": ("sidecar is not a JSON object",),
    "sidecar: detections not a list": ("sidecar detections must be a list, got int",),
    "similarity cache: not a zip": ("invalid similarity cache file: ",),
    "similarity cache: cut short": ("invalid similarity cache file: ",),
    "similarity cache: an npy, not an npz": ("invalid similarity cache file: ",),
    "similarity cache: missing array": ("invalid similarity cache file: ", "values"),
    "similarity cache: NaN kernel": ("invalid similarity cache file: kernel value nan is not in (0, 1]",),
    "similarity cache: kernel above 1": ("invalid similarity cache file: kernel value 1.5 is not in [0, 1]",),
    "similarity cache: zero self-kernel": ("invalid similarity cache file: kernel value 0.0 is not in (0, 1]",),
    "similarity cache: string kernel": ("invalid similarity cache file: self_kernels has dtype <U3 and shape (2,)",),
    "similarity cache: pair without self-kernels": (
        "invalid similarity cache file: pair (0, 2) is not two places i < j among the 2 scenes with self-kernels",
    ),
    "similarity cache: unsorted digests": ("invalid similarity cache file: the digests must be sorted and distinct",),
    "similarity cache: stale fingerprint": ("made for another kernel config, catalog or format; replacing it",),
    "sidecar store: not a zip": ("invalid sidecar store file: ",),
    "sidecar store: missing array": ("invalid sidecar store file: ", "components"),
    "sidecar store: float32 values": ("invalid sidecar store file: values has dtype float32 and shape (21,)",),
    "sidecar store: counts that do not fit the values": (
        "invalid sidecar store file: the counts and components make 42 values, not the 21 stored",
    ),
    "sidecar store: NaN mean": ("invalid sidecar store file: sidecar 0000", ": entry 0: mixture means must be finite"),
    "sidecar store: stale format": ("made for another format; replacing it",),
    "sidecar store: cut short": ("invalid sidecar store file: ",),
    "sidecar store: an npy, not an npz": ("invalid sidecar store file: ",),
    "parsed pool: not a zip": ("invalid parsed-pool file: ",),
    "parsed pool: missing array": ("invalid parsed-pool file: ", "counts"),
    "parsed pool: float32 boxes": ("invalid parsed-pool file: boxes has dtype float32 and shape",),
    "parsed pool: 7 box columns": ("invalid parsed-pool file: boxes has dtype float64 and shape (",),
    "parsed pool: counts that do not sum to the rows": (
        "invalid parsed-pool file: the counts must be non-negative and sum to the",
    ),
    "parsed pool: label outside the catalog": (
        "invalid parsed-pool file: a label is not the index of one of the catalog's 3 classes",
    ),
    "parsed pool: NaN box": ("invalid parsed-pool file: box center must be finite, got x=nan",),
    "parsed pool: zero width": ("invalid parsed-pool file: box dimensions must be positive and finite, got w=0.0",),
    "parsed pool: stale format": ("made for another catalog or format; replacing it",),
    "parsed pool: cut short": ("invalid parsed-pool file: ",),
    "parsed pool: an npy, not an npz": ("invalid parsed-pool file: ",),
}


# The output half of the fault matrix. command: (its argv for a pool and an
# --out path, the file under --out that a directory is put in place of).
OUTPUTS = {
    "synth": (lambda pool, out: ("synth", "--out", out, "--n-scenes", 4), "labels/scene_000001.txt"),
    "score": (lambda pool, out: ("score", "--pool", pool, "--metric", "similarity", "--out", out), ""),
    "simulate": (
        lambda pool, out: ("simulate", "--out", out, "--n-scenes", 12, "--n-r", 2, "--rounds", 1),
        "tscenejal/rounds.csv",
    ),
    "stats": (lambda pool, out: ("stats", "--pool", pool, "--out", out), "stats.summary.txt"),
}


def _faulty_out(tmp_path, fault, under_out=""):
    """An --out path with an output fault, and the path its error names."""
    if fault == "a directory at a target path":
        (tmp_path / "out" / under_out).mkdir(parents=True)
        return tmp_path / "out", tmp_path / "out" / under_out
    if fault == "an --out whose parent is a regular file":
        (tmp_path / "file").write_text("")
        return tmp_path / "file" / "out", tmp_path / "file" / "out"
    if os.geteuid() == 0:
        pytest.skip("root writes into a directory of mode 500")
    (tmp_path / "locked").mkdir(mode=0o500)
    return tmp_path / "locked" / "out", tmp_path / "locked" / "out"


class TestFaultMatrix:
    @pytest.fixture()
    def pool(self, tmp_path):
        """The pool's path; afterwards a locked --out is made writable again,
        so that ``tmp_path`` can be removed."""
        yield tmp_path / "pool"
        if (tmp_path / "locked").exists():
            (tmp_path / "locked").chmod(0o700)

    @pytest.mark.parametrize(
        "fault", ["a directory at a target path", "an --out whose parent is a regular file", "an unwritable --out"]
    )
    @pytest.mark.parametrize("command", OUTPUTS)
    def test_output_fault_exits_3_naming_the_path(self, tmp_path, pool, capsys, command, fault):
        argv, under_out = OUTPUTS[command]
        out, named = _faulty_out(tmp_path, fault, under_out)
        assert run("--seed", 3, "synth", "--out", pool, "--n-scenes", 12, "--groups", 3) == 0
        capsys.readouterr()
        assert run("--seed", 3, *argv(pool, out)) == 3
        assert f"error: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["an --out whose parent is a regular file", "an unwritable --out"])
    def test_select_output_fault_exits_3_naming_the_path_and_commits_no_round(self, tmp_path, pool, capsys, fault):
        out, named = _faulty_out(tmp_path, fault)
        state = tmp_path / "state" / "state.json"
        assert run("--seed", 3, "synth", "--out", pool, "--n-scenes", 12, "--groups", 3) == 0
        assert run("--seed", 3, "select", "--pool", pool, "--state", state, "--out", out, "--init", "--n0", 4) == 0
        before = state.read_bytes()
        capsys.readouterr()
        assert run("--seed", 3, "select", "--pool", pool, "--state", state, "--out", out, "--n-r", 2) == 3
        assert f"error: {named}" in capsys.readouterr().err
        assert state.read_bytes() == before
        assert not state.with_suffix(".similarity.npz").exists()

    def test_a_killed_kernel_process_is_a_warning_and_the_round_is_the_same(self, tmp_path, caplog, monkeypatch):
        # The out-of-memory killer's SIGKILL on every forked kernel process:
        # the round solves their shares itself, warns, and writes what a
        # round without a split writes.
        def sigkill_self(*args):
            try:
                os.kill(os.getpid(), signal.SIGKILL)
            finally:
                os._exit(9)  # never reached: the child is already dead

        pool = tmp_path / "pool"
        assert run("--seed", 3, "synth", "--out", pool, "--n-scenes", 12, "--groups", 3) == 0
        written = []
        for killed in (False, True):
            state, sel = tmp_path / f"killed_{killed}" / "state.json", tmp_path / f"killed_{killed}" / "sel"
            select = ("--seed", 9, "select", "--pool", pool, "--state", state, "--out", sel)
            assert run(*select, "--init", "--n0", 4) == 0
            caplog.clear()
            with monkeypatch.context() as m, caplog.at_level(logging.WARNING):
                if killed:  # every call of more than one live-matrix entry split in two
                    m.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
                    m.setattr(kernel, "SPLIT_ENTRIES", 1)
                    m.setattr(kernel, "_child", sigkill_self)
                assert run(*select, "--n-r", 2) == 0
            written.append({f.name: f.read_bytes() for f in [state, *sorted(sel.iterdir())]})
        assert re.search(r"kernel process \d+ ended with exit code -9 and 0 of \d+ bytes; solving its share", caplog.text)
        assert written[1] == written[0]

    @pytest.mark.parametrize("fault", FAULTS)
    def test_fault_exits_with_its_code_naming_the_file(self, tmp_path, capsys, caplog, fault):
        where, inject, exits = FAULTS[fault]
        pool, state, sel = tmp_path / "pool", tmp_path / "state.json", tmp_path / "sel"
        assert run("--seed", 3, "synth", "--out", pool, "--n-scenes", 12, "--groups", 3) == 0
        assert run("--seed", 9, "select", "--pool", pool, "--state", state, "--out", sel, "--init", "--n0", 4) == 0
        # An unlabeled scene: with uncertainty first, ``select`` parses the
        # sidecar of every unlabeled scene.
        sid = sorted(json.loads(state.read_text())["unlabeled_ids"])[0]
        target = {
            "label": pool / "labels" / f"{sid}.txt",
            "sidecar": pool / "sidecars" / f"{sid}.mdn",
            "state": state,
            "config": tmp_path / "scenesel.conf",
            "ids": tmp_path / "ids.txt",
            "cache": state.with_suffix(".similarity.npz"),
            "sidecar store": state.with_suffix(".sidecars.npz"),
            "pool": state.with_suffix(".pool.npz"),
            "lock": state.with_suffix(".lock"),
            "report": sel / "report_round_001.hist.csv",
        }[where]
        inject(target)
        state_before = state.read_bytes()
        config = ("--config", target) if where == "config" else ()
        ids = ("--ids", target) if where == "ids" else ()
        last_line = f"{target}:{len(target.read_bytes().splitlines())}" if where == "label" else None
        commands = {
            "select --init": ("select", "--pool", pool, "--state", tmp_path / "fresh.json", "--out", tmp_path / "fresh",
                              "--init", "--n0", 4),
            "select --init over the state": ("select", "--pool", pool, "--state", state, "--out", sel,
                                             "--init", "--n0", 4),
            "select": ("select", "--pool", pool, "--state", state, "--out", sel,
                       "--n-r", 2, "--order", "uncertainty,entropy,similarity"),
            "select, similarity first": ("select", "--pool", pool, "--state", state, "--out", sel,
                                         "--n-r", 2, "--order", "similarity,entropy,uncertainty"),
            "score": ("score", "--pool", pool, "--metric", "uncertainty", "--out", tmp_path / "score.csv"),
            "score --metric similarity": ("score", "--pool", pool, "--metric", "similarity", "--out", tmp_path / "score.csv"),
            "stats": ("stats", "--pool", pool, *ids, "--out", tmp_path / "stats"),
            "simulate": ("simulate", "--out", tmp_path / "sim", "--n-scenes", 12, "--n-r", 2, "--rounds", 1),
        }
        for command, code in exits.items():
            capsys.readouterr()
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                assert run(*config, *commands[command]) == code, command
            # A fallback (exit 0) names the file in the warning it logs.
            said = capsys.readouterr().err if code else caplog.text
            parts = SAID.get(fault, ())
            if isinstance(parts, dict):
                parts = parts[command]
            for part in [str(target), *(part.format(sid=sid, line=last_line) for part in parts)]:
                assert part in said, (command, said)
            if code == 0 and where == "sidecar":
                assert "loading the pool without sidecars" in caplog.text
            if code:  # a failed command commits no round
                assert state.read_bytes() == state_before, command


class TestInvariance:
    """A selection depends on the inputs and the seed alone: not on the order
    a pool is built or its files are written in, nor on what a cache already
    holds (metamorphic relations, as in Segura et al., IEEE TSE 2016)."""

    @staticmethod
    def pool_and_predictor(seed=4, n=40):
        cfg = build_config(overrides={"plan.n_r": 4}, environ={})
        spec = synth.PoolSpec(n_scenes=n, class_mix=(0.7, 0.2, 0.1), rng_seed=seed)
        pool = synth.generate_pool(spec, cfg.catalog, cfg.anchors)
        noise = synth.NoiseModel(
            confidence_noise=0.5, position_noise_per_meter=0.005, false_positive_rate=0.3,
            misclass_rate=0.05, mixture_components=3, mean_spread=0.1,
        )
        return cfg, pool, synth.make_predictor(noise, cfg.anchors, cfg.catalog, seed)

    @pytest.mark.parametrize("strategy", sampler.STRATEGIES)
    def test_rounds_do_not_depend_on_the_pool_order(self, strategy):
        cfg, pool, predictor = self.pool_and_predictor()
        reverse = {sid: pool[sid] for sid in sorted(pool, reverse=True)}

        def rounds(p):
            state = state_mod.RoundState.fresh(p, n0=0, budget_total=len(p), rng_seed=4)
            _, reports = sampler.run_al_rounds(
                p, cfg.plan, 2, predictor, p.__getitem__, state, cfg.catalog, cfg.anchors,
                cfg.entropy, cfg.kernel, cfg.uncertainty, strategy=strategy,
            )
            return reports

        assert rounds(reverse) == rounds(pool)

    @pytest.mark.parametrize("strategy", sampler.STRATEGIES)
    def test_rounds_do_not_depend_on_how_they_are_split(self, strategy):
        # One call of three rounds against three calls of one round that
        # pass the state along, sharing one cache or each with its own.
        # ``kernel_evals`` counts the evaluations a round made, not the pairs
        # it needed: a new cache evaluates again the pairs an earlier round
        # left in a shared one, so only that field may differ, and only up.
        cfg, pool, predictor = self.pool_and_predictor()
        start = state_mod.RoundState.fresh(pool, n0=4, budget_total=len(pool), rng_seed=4)

        def rounds(state, n, cache):
            return sampler.run_al_rounds(
                pool, cfg.plan, n, predictor, pool.__getitem__, state, cfg.catalog, cfg.anchors,
                cfg.entropy, cfg.kernel, cfg.uncertainty, strategy=strategy, cache=cache,
            )

        whole_state, whole = rounds(start, 3, sampler.SimilarityCache(cfg.catalog, cfg.kernel))
        shared = sampler.SimilarityCache(cfg.catalog, cfg.kernel)
        for new_cache in (False, True):
            state, split = start, []
            for _ in range(3):
                cache = sampler.SimilarityCache(cfg.catalog, cfg.kernel) if new_cache else shared
                state, reports = rounds(state, 1, cache)
                split += reports
            assert state == whole_state
            if new_cache:
                assert all(r.kernel_evals >= w.kernel_evals for r, w in zip(split, whole))
                split = [replace(r, kernel_evals=w.kernel_evals) for r, w in zip(split, whole)]
            assert split == whole, new_cache

    @pytest.mark.parametrize("strategy", sampler.STRATEGIES)
    def test_rounds_do_not_depend_on_a_warm_predictor(self, strategy):
        # A predictor that has already predicted every scene, in reverse
        # order, against a fresh one.
        cfg, pool, cold = self.pool_and_predictor()
        _, _, warm = self.pool_and_predictor()
        for sid in sorted(pool, reverse=True):
            warm(pool[sid])

        def rounds(predictor):
            state = state_mod.RoundState.fresh(pool, n0=4, budget_total=len(pool), rng_seed=4)
            return sampler.run_al_rounds(
                pool, cfg.plan, 2, predictor, pool.__getitem__, state, cfg.catalog, cfg.anchors,
                cfg.entropy, cfg.kernel, cfg.uncertainty, strategy=strategy,
            )

        assert rounds(warm) == rounds(cold)

    def test_selection_does_not_depend_on_a_warm_cache(self):
        cfg, pool, predictor = self.pool_and_predictor()
        preds = [predictor(pool[sid]) for sid in sorted(pool)]
        warm = sampler.SimilarityCache(cfg.catalog, cfg.kernel)
        warm.matrix(preds[::-1])
        evaluated = warm.evaluations

        def select(cache):
            return sampler.three_stage_select(preds, cfg.plan, cfg.anchors, cfg.entropy, cfg.uncertainty, cache)

        cold_ids, cold_sizes = select(sampler.SimilarityCache(cfg.catalog, cfg.kernel))
        warm_ids, warm_sizes = select(warm)
        assert warm_ids == cold_ids
        assert warm_sizes == cold_sizes
        assert warm.evaluations == evaluated  # every pair was a hit

    def test_select_does_not_depend_on_the_order_files_are_written(self, pool_dir, tmp_path):
        reverse = tmp_path / "reverse"
        for sub in ("labels", "sidecars"):
            (reverse / sub).mkdir(parents=True)
            for path in sorted((pool_dir / sub).iterdir(), reverse=True):
                (reverse / sub / path.name).write_bytes(path.read_bytes())
        outputs = []
        for pool in (pool_dir, reverse):
            state, out = tmp_path / pool.name / "state.json", tmp_path / pool.name / "sel"
            select = ("--seed", 9, "select", "--pool", pool, "--state", state, "--out", out)
            assert run(*select, "--init", "--n0", 4) == 0
            assert run(*select, "--n-r", 3) == 0
            outputs.append({f.name: f.read_bytes() for f in [state, *sorted(out.iterdir())]})
        assert outputs[1] == outputs[0]

    def test_n_select_rounds_are_one_run_al_rounds_call_of_n_rounds(self, pool_dir, tmp_path):
        # Three ``select`` processes that keep the similarity cache file,
        # against one in-memory call of three rounds over the parsed labels
        # that attaches each sidecar when the uncertainty stage first asks.
        state, out = tmp_path / "state.json", tmp_path / "sel"
        select = ("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out)
        assert run(*select, "--init", "--n0", 4) == 0
        start = state_mod.load_round_state(state)
        for _ in range(3):
            assert run(*select, "--n-r", 3) == 0
        cfg = build_config(overrides={"plan.n_r": 3}, environ={})
        scenes = kitti.load_pool_dir(pool_dir, cfg.catalog)
        final, reports = sampler.run_al_rounds(
            {s.id: s for s in scenes}, cfg.plan, 3, lambda scene: scene, lambda sid: None, start, cfg.catalog,
            cfg.anchors, cfg.entropy, cfg.kernel, cfg.uncertainty, with_mixtures=kitti.sidecar_reader(pool_dir, scenes),
        )
        per_round = [(out / f"selected_round_{r:03d}.txt").read_text().split() for r in (1, 2, 3)]
        assert [list(r.selected_ids) for r in reports] == per_round
        assert state_mod.load_round_state(state) == final

    def test_select_does_not_depend_on_the_similarity_cache_file(self, pool_dir, tmp_path, capsys):
        # Rounds that keep the file, and rounds that start each without it,
        # write the same bytes and print the same count of kernel values
        # needed; only the count evaluated falls with the file.
        outputs, printed = [], []
        for keep in (True, False):
            state, out = tmp_path / f"keep_{keep}" / "state.json", tmp_path / f"keep_{keep}" / "sel"
            select = ("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out)
            assert run(*select, "--init", "--n0", 4) == 0
            counts = []
            for _ in range(3):
                if not keep:
                    state.with_suffix(".similarity.npz").unlink(missing_ok=True)
                capsys.readouterr()
                assert run(*select, "--n-r", 3) == 0
                line = capsys.readouterr().out
                counts.append(tuple(map(int, re.search(r"kernel evals (\d+), (\d+) evaluated", line).groups())))
            outputs.append({f.name: f.read_bytes() for f in [state, *sorted(out.iterdir())]})
            printed.append(counts)
        assert outputs[0] == outputs[1]
        assert [n for n, _ in printed[0]] == [n for n, _ in printed[1]]
        assert all(n == e for n, e in printed[1])
        assert all(e < n for n, e in printed[0][1:])

    def test_select_does_not_depend_on_the_parsed_pool_file(self, pool_dir, tmp_path):
        # Rounds that keep the file, and rounds that start each without it.
        outputs = []
        for keep in (True, False):
            state, out = tmp_path / f"keep_{keep}" / "state.json", tmp_path / f"keep_{keep}" / "sel"
            select = ("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out)
            assert run(*select, "--init", "--n0", 4) == 0
            for _ in range(3):
                if not keep:
                    state.with_suffix(".pool.npz").unlink()
                assert run(*select, "--n-r", 3) == 0
            outputs.append({f.name: f.read_bytes() for f in [state, *sorted(out.iterdir())]})
        assert outputs[0] == outputs[1]

    def test_a_label_file_edited_between_rounds_is_ranked_with_its_new_content(self, pool_dir, tmp_path, monkeypatch):
        # Round 2 after an edit, with the file round 1 left and without it.
        warm, cold = tmp_path / "warm", tmp_path / "cold"
        select = ("--seed", 9, "select", "--pool", pool_dir, "--state", warm / "state.json", "--out", warm / "sel")
        assert run(*select, "--init", "--n0", 4) == 0
        assert run(*select, "--n-r", 3) == 0
        shutil.copytree(warm, cold)
        (cold / "state.pool.npz").unlink()
        sid = sorted(json.loads((warm / "state.json").read_text())["unlabeled_ids"])[0]
        label = kitti.label_path(pool_dir, sid)
        lines = []
        for line in label.read_text().splitlines():
            fields = line.split()
            fields[11] = f"{float(fields[11]) + 5.0:.6f}"  # every box 5 m further along x
            lines.append(" ".join(fields))
        label.write_text("\n".join(lines) + "\n")
        ranked = []
        rank = sampler.rank_by_entropy

        def recording(scenes, *args):
            ranked.extend(s for s in scenes if s.id == sid)
            return rank(scenes, *args)

        outputs = []
        for work in (warm, cold):
            with monkeypatch.context() as m:
                m.setattr(sampler, "rank_by_entropy", recording)
                assert run(*select[:5], "--state", work / "state.json", "--out", work / "sel", "--n-r", 3) == 0
            outputs.append({f.name: f.read_bytes() for f in [work / "state.json", *sorted((work / "sel").iterdir())]})
        edited = kitti.parse_label_file(label, build_config(environ={}).catalog)
        assert ranked == [edited, edited]
        assert outputs[0] == outputs[1]

    def test_an_unknown_class_warns_alike_in_every_run(self, pool_dir, tmp_path, caplog):
        # A file whose parse warns is never stored, so every run parses it.
        label = kitti.label_path(pool_dir, "scene_000003")
        label.write_text(label.read_text() + "truck" + " 0" * 14 + "\n")
        line = len(label.read_text().splitlines())
        state, out = tmp_path / "state.json", tmp_path / "sel"
        select = ("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out)
        warned = []
        for flags in (("--init", "--n0", 4), ("--n-r", 3), ("--n-r", 3)):
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                assert run(*select, *flags) == 0
            warned.append([r.getMessage() for r in caplog.records if "unknown class" in r.getMessage()])
        assert warned == [[f"{label}:{line}: skipping unknown class 'truck'"]] * 3
