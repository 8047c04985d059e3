"""Persistent bookkeeping for the multi-round selection loop."""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import DataError, read_text, write_text_atomic

STATE_VERSION = 1


@dataclass(frozen=True)
class RoundState:
    round_index: int
    labeled_ids: frozenset[str]
    unlabeled_ids: frozenset[str]
    budget_total: int
    per_round_selected: tuple[tuple[str, ...], ...]
    rng_seed: int

    def __post_init__(self):
        if self.round_index < 0:
            raise ValueError("round_index must be >= 0")
        overlap = self.labeled_ids & self.unlabeled_ids
        if overlap:
            raise ValueError(f"labeled and unlabeled ids overlap: {sorted(overlap)[:5]}")
        selected_total = sum(len(r) for r in self.per_round_selected)
        if selected_total > self.budget_total:
            raise ValueError(
                f"selections ({selected_total}) exceed budget ({self.budget_total})"
            )
        if len(self.per_round_selected) != self.round_index:
            raise ValueError(
                f"round_index {self.round_index} does not match "
                f"{len(self.per_round_selected)} recorded rounds"
            )

    @property
    def budget_left(self) -> int:
        """Scenes the budget still allows later rounds to select."""
        return self.budget_total - sum(len(r) for r in self.per_round_selected)

    @classmethod
    def fresh(cls, pool_ids, n0: int, budget_total: int, rng_seed: int) -> "RoundState":
        """Round 0 of a pool: n0 ids drawn without replacement by the seed's
        generator from the sorted ids are labeled, the rest unlabeled."""
        ids = sorted(pool_ids)
        picked = np.random.default_rng(rng_seed).choice(len(ids), size=n0, replace=False)
        labeled = frozenset(ids[i] for i in picked)
        return cls(
            round_index=0,
            labeled_ids=labeled,
            unlabeled_ids=frozenset(ids) - labeled,
            budget_total=budget_total,
            per_round_selected=(),
            rng_seed=rng_seed,
        )

    def with_selection(self, selected: tuple[str, ...]) -> "RoundState":
        """Advance one round, moving the selected ids to the labeled set."""
        missing = [s for s in selected if s not in self.unlabeled_ids]
        if missing:
            raise ValueError(f"selected ids not in unlabeled pool: {missing[:5]}")
        return replace(
            self,
            round_index=self.round_index + 1,
            labeled_ids=self.labeled_ids | set(selected),
            unlabeled_ids=self.unlabeled_ids - set(selected),
            per_round_selected=self.per_round_selected + (tuple(selected),),
        )


def save_round_state(state: RoundState, path: str | Path) -> None:
    doc = {
        "version": STATE_VERSION,
        "round_index": state.round_index,
        "labeled_ids": sorted(state.labeled_ids),
        "unlabeled_ids": sorted(state.unlabeled_ids),
        "budget_total": state.budget_total,
        "per_round_selected": [list(r) for r in state.per_round_selected],
        "rng_seed": state.rng_seed,
    }
    write_text_atomic(path, json.dumps(doc, indent=1))


def load_round_state(path: str | Path) -> RoundState:
    """Load and re-validate a persisted state; never yields partial state."""
    path = Path(path)
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: cannot read round state: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: invalid round state: not a JSON object")
    # ``type`` and not ``==``: true and 1.0 equal 1 in Python.
    if type(doc.get("version")) is not int or doc["version"] != STATE_VERSION:
        raise DataError(f"{path}: unsupported state version {doc.get('version')!r}")
    try:
        return RoundState(
            round_index=_int(doc["round_index"], "round_index"),
            labeled_ids=frozenset(_ids(doc["labeled_ids"], "labeled_ids")),
            unlabeled_ids=frozenset(_ids(doc["unlabeled_ids"], "unlabeled_ids")),
            budget_total=_int(doc["budget_total"], "budget_total"),
            per_round_selected=tuple(
                _ids(r, "per_round_selected entry") for r in _list(doc["per_round_selected"], "per_round_selected")
            ),
            rng_seed=_int(doc["rng_seed"], "rng_seed"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: invalid round state: {exc}") from exc


def _int(value, what: str) -> int:
    """A JSON integer; anything else, ``true`` and ``7.0`` too, is a
    ``TypeError`` (``int`` would pass 7.9 as 7)."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _ids(value, what: str) -> tuple[str, ...]:
    """A list of id strings as a tuple; anything else is a ``TypeError``
    (a string would otherwise pass as its characters)."""
    for v in _list(value, what):
        if not isinstance(v, str):
            raise TypeError(f"{what} must hold id strings, got {v!r}")
    return tuple(value)
