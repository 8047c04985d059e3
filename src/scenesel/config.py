"""Key-value configuration: one file, env overrides, flag overrides.

File format: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored. Recognized keys:

    classes                  comma-separated class names
    anchor.<class>           "length,width,height" in meters
    entropy.tau              shared confidence filter, default 0.3
    entropy.zeta             entropy stability constant, default 1e-12
    kernel.gamma             walk termination probability, default 0.1
    kernel.sigma             edge-kernel bandwidth, default 1.0
    kernel.tol               fixed-point tolerance, default 1e-8
    kernel.max_iter          fixed-point iteration cap, default 1000
    kernel.min_dist          distance clamp in meters, default 0.1
    uncertainty.eta          epistemic weight, default 0.5
    plan.order               stage order, default entropy,similarity,uncertainty
    plan.k1 / plan.k2        stage multipliers, defaults 3.0 / 2.5
    plan.n_r                 per-round selection count, default 20
    plan.rounds              number of rounds, default 3

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
from .sampler import STAGE_NAMES, StagePlan
from .uncertainty import UncertaintyConfig

ENV_PREFIX = "SCENESEL_"

_SCALAR_KEYS = {
    "classes",
    "entropy.tau",
    "entropy.zeta",
    "kernel.gamma",
    "kernel.sigma",
    "kernel.tol",
    "kernel.max_iter",
    "kernel.min_dist",
    "uncertainty.eta",
    "plan.order",
    "plan.k1",
    "plan.k2",
    "plan.n_r",
    "plan.rounds",
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
    if key in _SCALAR_KEYS or key.startswith("anchor."):
        return
    raise DataError(f"{where}: unknown configuration key {key!r}")


def _env_overrides(environ) -> dict[str, str]:
    values = {}
    known = {k.replace(".", "_").upper(): k for k in _SCALAR_KEYS}
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
        if "classes" in values:
            catalog = ClassCatalog(
                classes=tuple(c.strip() for c in values["classes"].split(",") if c.strip())
            )
        else:
            catalog = DEFAULT_CATALOG

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

        tau = float(values.get("entropy.tau", 0.3))
        entropy = EntropyConfig(tau=tau, zeta=float(values.get("entropy.zeta", 1e-12)))
        kernel = KernelConfig(
            gamma=float(values.get("kernel.gamma", 0.1)),
            sigma=float(values.get("kernel.sigma", 1.0)),
            tol=float(values.get("kernel.tol", 1e-8)),
            max_iter=int(values.get("kernel.max_iter", 1000)),
            min_dist=float(values.get("kernel.min_dist", 0.1)),
            tau=tau,
        )
        unc = UncertaintyConfig(eta=float(values.get("uncertainty.eta", 0.5)), tau=tau)
        order = tuple(
            s.strip() for s in values.get("plan.order", ",".join(STAGE_NAMES)).split(",")
        )
        plan = StagePlan(
            n_r=int(values.get("plan.n_r", 20)),
            k1=float(values.get("plan.k1", 3.0)),
            k2=float(values.get("plan.k2", 2.5)),
            order=order,
        )
        rounds = int(values.get("plan.rounds", 3))
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
