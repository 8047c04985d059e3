"""Key-value configuration: one file, env overrides, flag overrides.

File format: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored. The recognized keys are those of ``KEYS`` and ``anchor.<class>``
("length,width,height" in meters); ``entropy.tau`` is the confidence filter
of all three metrics. A key left unset keeps the default of its dataclass
field; the README's configuration table lists them.

Environment variables override file values with the prefix ``SCENESEL_`` and
dots mapped to underscores, e.g. ``SCENESEL_ENTROPY_TAU=0.5``. Command-line
flags override both. Unknown keys are rejected.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .core import Anchor, AnchorTable, ClassCatalog, DataError, DEFAULT_ANCHORS, DEFAULT_CATALOG, read_text
from .entropy import EntropyConfig
from .kernel import KernelConfig
from .sampler import StagePlan
from .uncertainty import UncertaintyConfig

ENV_PREFIX = "SCENESEL_"


#: Each scalar key, "<section>.<field>" or "classes", with the converter of
#: its value.
KEYS = {
    "classes": lambda value: tuple(c.strip() for c in value.split(",") if c.strip()),
    "entropy.tau": float,
    "entropy.zeta": float,
    "kernel.gamma": float,
    "kernel.sigma": float,
    "kernel.tol": float,
    "kernel.min_dist": float,
    "uncertainty.eta": float,
    "plan.order": lambda value: tuple(s.strip() for s in value.split(",")),
    "plan.k1": float,
    "plan.k2": float,
    "plan.n_r": int,
    "plan.rounds": int,
}


@dataclass(frozen=True)
class CliConfig:
    catalog: ClassCatalog
    anchors: AnchorTable
    entropy: EntropyConfig
    kernel: KernelConfig
    uncertainty: UncertaintyConfig
    plan: StagePlan
    rounds: int


def parse_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        _check_key(key, f"{path}:{line_no}")
        values[key] = value
    return values


def _check_key(key: str, where: str) -> None:
    if key in KEYS or key.startswith("anchor."):
        return
    raise DataError(f"{where}: unknown configuration key {key!r}")


def _env_overrides(environ) -> dict[str, str]:
    values = {}
    known = {k.replace(".", "_").upper(): k for k in KEYS}
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        stripped = name[len(ENV_PREFIX):]
        if stripped in known:
            values[known[stripped]] = value
        elif stripped.startswith("ANCHOR_"):
            values["anchor." + stripped[len("ANCHOR_"):].lower()] = value
        else:
            raise DataError(f"unknown configuration variable {name}")
    return values


def build_config(
    path: str | Path | None = None,
    overrides: dict[str, str] | None = None,
    environ=None,
) -> CliConfig:
    """Merge file, environment, and explicit overrides into one config."""
    values: dict[str, str] = {}
    if path is not None:
        values.update(parse_config_file(path))
    values.update(_env_overrides(os.environ if environ is None else environ))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        _check_key(key, "override")
        values[key] = str(value)

    try:
        given = {key: KEYS[key](value) for key, value in values.items() if key in KEYS}
        catalog = ClassCatalog(classes=given.pop("classes")) if "classes" in given else DEFAULT_CATALOG

        anchor_map = {name: anchor for name, anchor in DEFAULT_ANCHORS.entries}
        for key, value in values.items():
            if not key.startswith("anchor."):
                continue
            parts = [float(v) for v in value.split(",")]
            if len(parts) != 3:
                raise DataError(f"{key}: expected 'length,width,height', got {value!r}")
            anchor_map[key[len("anchor."):]] = Anchor(*parts)
        anchors = AnchorTable.from_dict(anchor_map)
        anchors.check_covers(catalog)

        if "entropy.tau" in given:
            given["kernel.tau"] = given["uncertainty.tau"] = given["entropy.tau"]
        fields = {"entropy": {}, "kernel": {}, "uncertainty": {}, "plan": {}}
        for key, value in given.items():
            section, name = key.split(".")
            fields[section][name] = value
        entropy = EntropyConfig(**fields["entropy"])
        kernel = KernelConfig(**fields["kernel"])
        unc = UncertaintyConfig(**fields["uncertainty"])
        # No dataclass holds these two defaults: StagePlan.n_r has none, and
        # rounds is no field of a plan.
        rounds = fields["plan"].pop("rounds", 3)
        plan = StagePlan(**{"n_r": 20, **fields["plan"]})
    except ValueError as exc:
        raise DataError(f"invalid configuration: {exc}") from exc
    if rounds < 1:
        raise DataError("plan.rounds must be >= 1")
    return CliConfig(
        catalog=catalog,
        anchors=anchors,
        entropy=entropy,
        kernel=kernel,
        uncertainty=unc,
        plan=plan,
        rounds=rounds,
    )
