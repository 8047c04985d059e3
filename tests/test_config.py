import math
import re
from pathlib import Path

import pytest

from scenesel.cli import main
from scenesel.config import ENV_PREFIX, KEYS, build_config, parse_config_file
from scenesel.core import DataError
from scenesel.entropy import EntropyConfig
from scenesel.kernel import KernelConfig
from scenesel.uncertainty import UncertaintyConfig


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "cfg.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def test_defaults_without_file(self):
        cfg = build_config(environ={})
        assert cfg.entropy.tau == 0.3
        assert cfg.entropy.zeta == 1e-12
        assert cfg.kernel.gamma == 0.1
        assert cfg.kernel.sigma == 1.0
        assert cfg.uncertainty.eta == 0.5
        assert cfg.plan.n_r == 20
        assert cfg.plan.k1 == 3.0
        assert cfg.plan.k2 == 2.5
        assert cfg.plan.order == ("entropy", "similarity", "uncertainty")
        assert cfg.rounds == 3
        assert cfg.catalog.classes == ("car", "pedestrian", "cyclist")

    def test_file_values_and_comments(self, tmp_path):
        path = self.write(
            tmp_path,
            "# comment line\n"
            "entropy.tau = 0.5\n"
            "plan.n_r = 7  # trailing comment\n"
            "\n"
            "plan.order = uncertainty,similarity,entropy\n",
        )
        cfg = build_config(path=path, environ={})
        assert cfg.entropy.tau == 0.5
        assert cfg.plan.n_r == 7
        assert cfg.plan.order == ("uncertainty", "similarity", "entropy")

    def test_shared_tau_propagates(self, tmp_path):
        path = self.write(tmp_path, "entropy.tau = 0.45\n")
        cfg = build_config(path=path, environ={})
        assert cfg.kernel.tau == 0.45
        assert cfg.uncertainty.tau == 0.45

    def test_unknown_key_rejected(self, tmp_path):
        path = self.write(tmp_path, "kernel.gamam = 0.1\n")
        with pytest.raises(DataError, match="unknown configuration key"):
            parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = self.write(tmp_path, "entropy.tau 0.5\n")
        with pytest.raises(DataError, match="key = value"):
            parse_config_file(path)

    def test_custom_classes_need_anchor_coverage(self, tmp_path):
        path = self.write(tmp_path, "classes = car,truck\n")
        with pytest.raises((DataError, ValueError)):
            build_config(path=path, environ={})

    def test_custom_classes_with_anchors(self, tmp_path):
        path = self.write(tmp_path, "classes = car,truck\nanchor.truck = 10.0,2.6,3.2\n")
        cfg = build_config(path=path, environ={})
        assert cfg.catalog.classes == ("car", "truck")
        truck = cfg.anchors.for_class("truck")
        assert (truck.length, truck.width, truck.height) == (10.0, 2.6, 3.2)

    def test_invalid_value_wrapped_as_data_error(self, tmp_path):
        path = self.write(tmp_path, "plan.n_r = many\n")
        with pytest.raises(DataError, match="invalid configuration"):
            build_config(path=path, environ={})


class TestOverrides:
    def test_env_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("entropy.tau = 0.2\n")
        cfg = build_config(path=path, environ={"SCENESEL_ENTROPY_TAU": "0.6"})
        assert cfg.entropy.tau == 0.6

    def test_flag_overrides_env(self, tmp_path):
        cfg = build_config(
            overrides={"plan.n_r": 9}, environ={"SCENESEL_PLAN_N_R": "4"}
        )
        assert cfg.plan.n_r == 9

    def test_unknown_env_var_rejected(self):
        with pytest.raises(DataError, match="unknown configuration variable"):
            build_config(environ={"SCENESEL_PLAN_NR": "4"})

    def test_unrelated_env_ignored(self):
        cfg = build_config(environ={"PATH": "/usr/bin", "HOME": "/root"})
        assert cfg.plan.n_r == 20

    def test_env_anchor_override(self):
        cfg = build_config(environ={"SCENESEL_ANCHOR_CAR": "4.0,1.7,1.5"})
        assert cfg.anchors.for_class("car").length == 4.0

    def test_none_overrides_skipped(self):
        cfg = build_config(overrides={"plan.n_r": None}, environ={})
        assert cfg.plan.n_r == 20

    def test_bad_rounds_rejected(self):
        with pytest.raises(DataError, match="rounds"):
            build_config(overrides={"plan.rounds": 0}, environ={})


class TestReadmeTable:
    """The README's configuration table is the one copy of the defaults
    outside their dataclasses: it must list every key and every default."""

    @staticmethod
    def rows():
        """(keys, defaults, line) of each row, each cell's backticked parts."""
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = text.split("## Configuration", 1)[1].split("\n\n")[2]
        for line in table.splitlines()[2:]:
            keys, defaults = line.split("|")[1:3]
            yield re.findall(r"`([^`]+)`", keys), re.findall(r"`([^`]+)`", defaults), line

    def test_keys_are_the_config_keys(self):
        keys = [k for ks, _, _ in self.rows() for k in ks]
        assert sorted(keys) == sorted([*KEYS, "anchor.<class>"])

    @staticmethod
    def value(cfg, key):
        if key == "classes":
            return cfg.catalog.classes
        if key == "plan.rounds":
            return cfg.rounds
        section, name = key.split(".")
        return getattr(getattr(cfg, section), name)

    def test_defaults_are_build_configs(self):
        cfg = build_config(environ={})
        for keys, defaults, line in self.rows():
            if keys == ["anchor.<class>"]:
                for name, value in re.findall(r"(\w+) `([^`]+)`", line.split("|")[2]):
                    anchor = cfg.anchors.for_class(name)
                    assert tuple(map(float, value.split(","))) == (anchor.length, anchor.width, anchor.height)
                continue
            assert len(keys) == len(defaults), line
            for key, default in zip(keys, defaults):
                assert KEYS[key](default) == self.value(cfg, key), key


class TestNonFiniteValues:
    """No float setting is infinite or NaN: each such value is an invalid
    configuration before any file is read or written. The one exception is
    ``kernel.tol = inf``, a bound every series meets with no step."""

    @pytest.fixture(scope="class")
    def tiny_pool(self, tmp_path_factory):
        pool = tmp_path_factory.mktemp("pool") / "pool"
        assert main(["--seed", "2", "synth", "--out", str(pool), "--n-scenes", "4"]) == 0
        return pool

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "key, setting",
        [*((key, "{}") for key, convert in KEYS.items() if convert is float), ("anchor.car", "{},1.6,1.56")],
    )
    def test_every_float_key_rejects_a_non_finite_value(self, tiny_pool, tmp_path, capsys, monkeypatch, key, setting, value):
        monkeypatch.setenv(ENV_PREFIX + key.replace(".", "_").upper(), setting.format(value))
        out = tmp_path / "scores.csv"
        code = main(["score", "--pool", str(tiny_pool), "--metric", "similarity", "--out", str(out)])
        if (key, value) == ("kernel.tol", "inf"):
            assert build_config().kernel.steps == 0
            assert code == 0 and out.exists()
            return
        assert code == 3
        assert "error: invalid configuration: " in capsys.readouterr().err
        assert not out.exists()

    # Not an OverflowError traceback (exit 1) from squaring the diagonal
    # in the uncertainty terms.
    @pytest.mark.parametrize("setting", ["1e200,1.6,1.56", "3.9,1.6,1e200"])
    def test_an_anchor_whose_square_overflows_is_invalid_configuration(self, tiny_pool, tmp_path, capsys, monkeypatch, setting):
        monkeypatch.setenv(ENV_PREFIX + "ANCHOR_CAR", setting)
        out = tmp_path / "scores.csv"
        assert main(["score", "--pool", str(tiny_pool), "--metric", "uncertainty", "--out", str(out)]) == 3
        assert "error: invalid configuration: anchor diagonal and height must have finite squares" in capsys.readouterr().err
        assert not out.exists()


# The CLI checks entropy.tau and copies it into the other two; a library
# caller's NaN kernel tau kept no detection, so every similarity was 1.
@pytest.mark.parametrize("config", [EntropyConfig, KernelConfig, UncertaintyConfig])
@pytest.mark.parametrize("tau", [math.nan, 2.0, -1.0, math.inf, -math.inf])
def test_every_config_checks_its_tau_alike(config, tau):
    with pytest.raises(ValueError, match=re.escape(f"tau must be in [0, 1], got {tau}")):
        config(tau=tau)
    assert config(tau=0.0).tau == 0.0 and config(tau=1.0).tau == 1.0
