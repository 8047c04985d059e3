import json
import logging
import math
import re
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from scenesel import kitti, sampler, state as state_mod, synth
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
        # entropy stage keeps, cold; the report's 3 pairs among the 3
        # selected are hits.
        assert (hits, misses) == (3, 36)
        assert re.fullmatch(
            r"round 1: selected 3 scenes \(stage sizes \(9, 7, 3\), kernel evals \d+, \d+ evaluated\)\n",
            capsys.readouterr().out,
        )

    def parsed_sidecars(self, monkeypatch):
        """Record the path of every sidecar parsed from now on."""
        parsed = []
        load = kitti.load_mixture_sidecar

        def counting(path, scene):
            parsed.append(str(path))
            return load(path, scene)

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

    def test_state_advanced_during_the_round_is_not_overwritten(self, pool_dir, tmp_path, capsys, monkeypatch):
        # Another run saves round 1 between this run's load and its save.
        state, out = self.init_state(pool_dir, tmp_path)
        select = sampler.three_stage_select

        def racing(unlabeled, *args, **kwargs):
            other = state_mod.load_round_state(state).with_selection((unlabeled[0].id,))
            state_mod.save_round_state(other, state)
            return select(unlabeled, *args, **kwargs)

        monkeypatch.setattr(sampler, "three_stage_select", racing)
        capsys.readouterr()
        assert run("--seed", 9, "select", "--pool", pool_dir, "--state", state, "--out", out, "--n-r", 3) == 3
        assert "round_index moved from 0 to 1" in capsys.readouterr().err
        doc = json.loads(state.read_text())
        assert doc["round_index"] == 1 and len(doc["per_round_selected"][0]) == 1
        assert not out.exists() or not list(out.iterdir())

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
        cache_file = tmp_path / "state.similarity.json"
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
            kept = (work / "state.similarity.json").read_bytes()
            if crash:

                def killed(*args):
                    raise KeyboardInterrupt

                with monkeypatch.context() as m:
                    m.setattr(sampler.SimilarityCache, "save", killed)
                    with pytest.raises(KeyboardInterrupt):
                        run(*select)
                assert (work / "state.similarity.json").read_bytes() == kept
            else:
                assert run(*select) == 0
            assert run(*select) == 0
            rounds.append({f.name: f.read_bytes() for f in [state, *sorted(out.iterdir())]})
        assert rounds[1] == rounds[0]

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


LABEL_LINE = "car 0.0 0 0.0 0 0 0 0 1.5 1.6 3.9 5.0 1.0 0.5 0.1 0.8"


def _append_label(target, line: bytes):
    target.write_bytes(target.read_bytes() + line + b"\n")


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


def _cache_file(scenes=None, pairs=None, fingerprint=None):
    """A fault that writes a similarity cache file: by default one valid,
    empty file of the CLI's default kernel config and catalog."""
    cfg = build_config(environ={})

    def inject(target):
        doc = {
            "fingerprint": fingerprint or sampler.SimilarityCache(cfg.catalog, cfg.kernel).fingerprint,
            "scenes": scenes if scenes is not None else {},
            "pairs": pairs if pairs is not None else {},
        }
        target.write_text(json.dumps(doc))

    return inject


def _string_labeled_ids(target):
    # One id as a string, not a list: it would load as its characters.
    doc = json.loads(target.read_text())
    doc["labeled_ids"] = doc["labeled_ids"][0]
    target.write_text(json.dumps(doc))


ALL_POOL_COMMANDS = {"select": 3, "score": 3, "stats": 3}
# A sidecar fault is a data error for ``select`` and ``score``; ``stats``
# logs it and reports on the labels alone.
SIDECAR_EXITS = {"select": 3, "score": 3, "stats": 0}
# fault: (the file it goes into, how it is injected, {command: exit code})
FAULTS = {
    "label: inf occluded": (
        "label", lambda p: _append_label(p, LABEL_LINE.replace(" 0 0.0 ", " inf 0.0 ", 1).encode()), ALL_POOL_COMMANDS
    ),
    "label: nan location": (
        "label", lambda p: _append_label(p, LABEL_LINE.replace("5.0", "nan").encode()), ALL_POOL_COMMANDS
    ),
    "label: not UTF-8": ("label", lambda p: _append_label(p, b"car \xff" + LABEL_LINE[3:].encode()), ALL_POOL_COMMANDS),
    "state: not UTF-8": ("state", lambda p: p.write_bytes(b"\xff\xfe{"), {"select": 3}),
    "state: labeled_ids is a string": ("state", _string_labeled_ids, {"select": 3}),
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
    "similarity cache: not JSON": ("cache", lambda p: p.write_text("{not json"), {"select": 3}),
    "similarity cache: not UTF-8": ("cache", lambda p: p.write_bytes(b"{\xff}"), {"select": 3}),
    "similarity cache: not an object": ("cache", lambda p: p.write_text("[1]"), {"select": 3}),
    "similarity cache: NaN kernel": ("cache", _cache_file(scenes={"d1": float("nan")}), {"select": 3}),
    "similarity cache: kernel above 1": (
        "cache", _cache_file(scenes={"d1": 0.5, "d2": 0.5}, pairs={"d1": {"d2": 1.5}}), {"select": 3}
    ),
    "similarity cache: zero self-kernel": ("cache", _cache_file(scenes={"d1": 0.0}), {"select": 3}),
    "similarity cache: string kernel": ("cache", _cache_file(scenes={"d1": "0.5"}), {"select": 3}),
    "similarity cache: pair without self-kernels": (
        "cache", _cache_file(scenes={"d1": 0.5}, pairs={"d1": {"d2": 0.1}}), {"select": 3}
    ),
    "similarity cache: stale fingerprint": ("cache", _cache_file(fingerprint="0" * 64), {"select": 0}),
    "config: missing": ("config", lambda p: None, {**ALL_POOL_COMMANDS, "simulate": 3}),
    "config: not UTF-8": ("config", lambda p: p.write_bytes(b"plan.n_r = \xff\n"), {**ALL_POOL_COMMANDS, "simulate": 3}),
    "label: center too far out": (
        "label", _far_center, {"select, similarity first": 3, "score --metric similarity": 3, "stats": 3}
    ),
    "sidecar: every yaw near pi/2": ("sidecar", _singular_yaw_everywhere, SIDECAR_EXITS),
    "ids: missing": ("ids", lambda p: None, {"stats": 3}),
    "ids: not UTF-8": ("ids", lambda p: p.write_bytes(b"scene_000001\n\xff\n"), {"stats": 3}),
    "ids: repeated id": ("ids", lambda p: p.write_text("scene_000001\nscene_000002\nscene_000001\n"), {"stats": 3}),
}


# What a fault's message, or for exit 0 its warning, says besides the file,
# or {command: what it says} where the commands differ; "{sid}" is the
# faulty scene's id.
_NEAR_SINGULAR_YAW = ("scene '{sid}': detection ", "yaw residual mean 1.5707963267948966 is too close to +-pi/2")
SAID = {
    "sidecar: entry rows differ in K": ("entry 0: all dimensions must share the same component count",),
    "sidecar: entries differ in K": ("entry 1: mixture has 1 components but entry 0 has 3",),
    "sidecar: non-numeric value": ("entry 0: could not convert string to float: 'wide'",),
    "sidecar: overflowing w mean": ("scene '{sid}': detection ", "propagated variances are not finite"),
    "state: labeled_ids is a string": ("invalid round state: labeled_ids must be a list, got str",),
    "ids: repeated id": ("id 'scene_000001' is listed more than once",),
    "label: center too far out": ("scene '{sid}': the distance from (0.0, 0.0, 0.0) to (1e+200, ",),
    "sidecar: every yaw near pi/2": {
        "select": ("excluded for a yaw residual near +-pi/2, the first '{sid}'",),
        "score": _NEAR_SINGULAR_YAW,
        "stats": _NEAR_SINGULAR_YAW,
    },
    "sidecar: not an object": ("sidecar is not a JSON object",),
    "sidecar: detections not a list": ("sidecar detections must be a list, got int",),
    "similarity cache: not JSON": ("invalid similarity cache JSON",),
    "similarity cache: not an object": ("similarity cache is not a JSON object",),
    "similarity cache: NaN kernel": ("kernel value nan is not in (0, 1]",),
    "similarity cache: kernel above 1": ("kernel value 1.5 is not in [0, 1]",),
    "similarity cache: zero self-kernel": ("kernel value 0.0 is not in (0, 1]",),
    "similarity cache: string kernel": ("kernel value '0.5' is not a number",),
    "similarity cache: pair without self-kernels": ("pair (d1, d2) of a scene with no self-kernel",),
    "similarity cache: stale fingerprint": ("made for another kernel config, catalog or format; replacing it",),
}


class TestFaultMatrix:
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
            "cache": state.with_suffix(".similarity.json"),
        }[where]
        inject(target)
        config = ("--config", target) if where == "config" else ()
        ids = ("--ids", target) if where == "ids" else ()
        commands = {
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
            for part in [str(target), *(part.format(sid=sid) for part in parts)]:
                assert part in said, (command, said)
            if code == 0 and where == "sidecar":
                assert "loading the pool without sidecars" in caplog.text


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

    def test_selection_does_not_depend_on_a_warm_cache(self):
        cfg, pool, predictor = self.pool_and_predictor()
        preds = [predictor(pool[sid]) for sid in sorted(pool)]
        warm = sampler.SimilarityCache(cfg.catalog, cfg.kernel)
        warm.matrix(preds[::-1])
        evaluated = warm.evaluations

        def select(cache):
            return sampler.three_stage_select(preds, cfg.plan, cfg.anchors, cfg.entropy, cfg.uncertainty, cache)

        cold_ids, cold_log = select(sampler.SimilarityCache(cfg.catalog, cfg.kernel))
        warm_ids, warm_log = select(warm)
        assert warm_ids == cold_ids
        assert warm_log.stage_sizes == cold_log.stage_sizes
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
                    state.with_suffix(".similarity.json").unlink(missing_ok=True)
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
