"""The three selection-loop workloads and the checks on their outputs.

Every workload is a closed loop with one client in this process: a round
starts only after the previous one has returned, as in an active-learning
loop that waits for a selection before it labels. An episode is a fixed
sequence of rounds from a fixed starting state, so repeated episodes in one
run do the same work and must select the same ids.

A round runs in three steps: ``prepare`` (untimed), ``run`` (timed) and
``check`` (untimed), which returns the selected ids and any problems seen.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from scenesel import cli, kitti, sampler, synth
from scenesel.config import build_config
from scenesel.core import Scene
from scenesel.kernel import build_scene_graph, kernel_brute_force, marginalized_kernel
from scenesel.state import RoundState

N_R = 20
# The synth/simulate CLI defaults, so the pools look like the ones users make.
CLASS_MIX = (0.9, 0.05, 0.05)
NOISE = synth.NoiseModel(
    confidence_noise=0.5,
    position_noise_per_meter=0.005,
    false_positive_rate=0.3,
    misclass_rate=0.05,
    mixture_components=3,
    mean_spread=0.1,
)


class SetupError(RuntimeError):
    """Set-up did not produce the inputs the timed part needs."""


def _selection_problems(selected, unlabeled_before) -> list[str]:
    problems = []
    if len(selected) != N_R:
        problems.append(f"selected {len(selected)} ids, expected {N_R}")
    if len(set(selected)) != len(selected):
        problems.append("selected ids are not distinct")
    outside = [s for s in selected if s not in unlabeled_before]
    if outside:
        problems.append(f"selected ids not unlabeled before the round: {outside[:3]}")
    return problems


class LoopWorkload:
    """Rounds driven through ``sampler.run_al_rounds``, one round per call,
    passing the state and the ``SimilarityCache`` from round to round.

    Each strategy starts from the same initial state with a fresh cache, as
    ``scenesel simulate`` does. A strategy listed a second time runs its
    rounds again from the initial state on the cache its first pass filled,
    so that every round of that pass is a cache hit; it must select the
    same ids.
    """

    def __init__(self, seed: int, n_scenes: int, strategies: tuple[str, ...], rounds: int, n0: int = 10):
        self.seed = seed
        self.n_scenes = n_scenes
        self.strategies = strategies
        self.rounds_per_strategy = rounds
        self.rounds = rounds * len(strategies)
        self.n0 = n0
        self.cfg = build_config(overrides={"plan.n_r": N_R}, environ={})

    def setup(self) -> None:
        cfg = self.cfg
        spec = synth.PoolSpec(n_scenes=self.n_scenes, class_mix=CLASS_MIX, objects_min=2, objects_max=6, rng_seed=self.seed)
        self.pool = synth.generate_pool(spec, cfg.catalog, cfg.anchors)
        self.predictor = synth.make_predictor(NOISE, cfg.anchors, cfg.catalog, self.seed)
        ids = sorted(self.pool)
        picked = np.random.default_rng(self.seed).choice(len(ids), size=self.n0, replace=False)
        labeled = frozenset(ids[i] for i in picked)
        self.initial = RoundState(
            round_index=0,
            labeled_ids=labeled,
            unlabeled_ids=frozenset(ids) - labeled,
            budget_total=len(ids),
            per_round_selected=(),
            rng_seed=self.seed,
        )

    def label(self, i: int) -> str:
        block, k = divmod(i, self.rounds_per_strategy)
        strategy = self.strategies[block]
        warm = ".warm" if strategy in self.strategies[:block] else ""
        return f"{strategy}#{k + 1}{warm}"

    def prepare(self, i: int) -> None:
        if i == 0:
            self.caches = {}
            self.first_pass = {}
        if i % self.rounds_per_strategy == 0:
            self.state = self.initial
            strategy = self.strategies[i // self.rounds_per_strategy]
            if strategy not in self.caches:
                self.caches[strategy] = sampler.SimilarityCache(self.cfg.catalog, self.cfg.kernel)
            self.cache = self.caches[strategy]

    def run(self, i: int):
        cfg = self.cfg
        return sampler.run_al_rounds(
            self.pool,
            cfg.plan,
            1,
            self.predictor,
            self.pool.__getitem__,
            self.state,
            cfg.catalog,
            cfg.anchors,
            cfg.entropy,
            cfg.kernel,
            cfg.uncertainty,
            strategy=self.strategies[i // self.rounds_per_strategy],
            cache=self.cache,
        )

    def check(self, i: int, out) -> tuple[tuple[str, ...], list[str]]:
        before = self.state
        after, reports = out
        selected = after.per_round_selected[-1] if after.per_round_selected else ()
        problems = _selection_problems(selected, before.unlabeled_ids)
        if after.round_index != before.round_index + 1:
            problems.append(f"round_index {after.round_index} after {before.round_index}")
        if len(reports) != 1 or reports[0].selected_ids != tuple(selected):
            problems.append("round report does not match the state's selection")
        block, k = divmod(i, self.rounds_per_strategy)
        first = self.first_pass.setdefault((self.strategies[block], k), tuple(selected))
        if first != tuple(selected):
            problems.append("the warm pass selected other ids than the first pass")
        self.state = after
        return tuple(selected), problems

    def kernel_scenes(self, ids: list[str]) -> list[Scene]:
        """Scenes as the kernel sees them in a round: the predictions."""
        return [self.predictor(self.pool[i]) for i in ids]

    def pool_ids(self) -> list[str]:
        return sorted(self.pool)


class DiskWorkload:
    """``scenesel select`` rounds on a pool that ``scenesel synth`` wrote to
    disk, run through ``cli.main`` in this process."""

    def __init__(self, seed: int, workdir: Path, n_scenes: int = 1000, objects: str = "8,20", rounds: int = 6):
        self.seed = seed
        self.workdir = workdir
        self.n_scenes = n_scenes
        self.objects = objects
        self.rounds = rounds
        self.pool_dir = workdir / "pool"
        self.state_path = workdir / "state" / "state.json"
        self.out_dir = workdir / "out"
        self.catalog = build_config(environ={}).catalog

    def _cli(self, *argv: str) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--seed", str(self.seed), *argv])
        return code, buf.getvalue()

    def setup(self) -> None:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        code, _ = self._cli("synth", "--out", str(self.pool_dir), "--n-scenes", str(self.n_scenes), "--objects", self.objects)
        if code != 0:
            raise SetupError(f"synth exited {code}")
        # select --init does not create the state file's directory; it crashes
        # with FileNotFoundError instead (see NOTES.md). Create it as a user would.
        self.state_path.parent.mkdir(parents=True)
        code, _ = self._cli(
            "select", "--pool", str(self.pool_dir), "--state", str(self.state_path),
            "--out", str(self.out_dir), "--init", "--n0", "20",
        )
        if code != 0:
            raise SetupError(f"select --init exited {code}")
        self.initial_state = self.state_path.read_bytes()

    def label(self, i: int) -> str:
        return f"select#{i + 1}"

    def prepare(self, i: int) -> None:
        if i == 0:
            self.state_path.write_bytes(self.initial_state)
        self.before = json.loads(self.state_path.read_text(encoding="utf-8"))
        self.selected_path = self.out_dir / f"selected_round_{self.before['round_index'] + 1:03d}.txt"
        self.selected_path.unlink(missing_ok=True)

    def run(self, i: int):
        return self._cli(
            "select", "--pool", str(self.pool_dir), "--state", str(self.state_path),
            "--out", str(self.out_dir), "--n-r", str(N_R),
        )

    def check(self, i: int, out) -> tuple[tuple[str, ...], list[str]]:
        code, _ = out
        if code != 0:
            return (), [f"select exited {code}"]
        after = json.loads(self.state_path.read_text(encoding="utf-8"))
        if not self.selected_path.is_file():
            return (), [f"select did not write {self.selected_path.name}"]
        selected = tuple(self.selected_path.read_text(encoding="utf-8").split())
        problems = _selection_problems(selected, set(self.before["unlabeled_ids"]))
        if after["round_index"] != self.before["round_index"] + 1:
            problems.append(f"round_index {after['round_index']} after {self.before['round_index']}")
        if tuple(after["per_round_selected"][-1]) != selected:
            problems.append(f"{self.selected_path.name} does not match the state's selection")
        return selected, problems

    def kernel_scenes(self, ids: list[str]) -> list[Scene]:
        return [kitti.parse_label_file(self.pool_dir / "labels" / f"{i}.txt", self.catalog) for i in ids]

    def pool_ids(self) -> list[str]:
        return sorted(p.stem for p in (self.pool_dir / "labels").glob("*.txt"))


def make_workload(name: str, seed: int, workdir: Path):
    if name == "fs_pool":
        # The second pass times the cache-hit path again: the warm rounds are
        # short and the noisiest, so they get twice the samples.
        return LoopWorkload(seed, n_scenes=250, strategies=("fs-only", "fs-only"), rounds=8)
    if name == "funnel_sim":
        return LoopWorkload(
            seed, n_scenes=1000, strategies=("random", "entropy-only", "uncertainty-only", "tscenejal"), rounds=3
        )
    if name == "select_disk":
        return DiskWorkload(seed, workdir)
    raise KeyError(name)


def kernel_spot_check(workload, seed: int, n_pairs: int = 20) -> list[str]:
    """Compare ``marginalized_kernel`` with the ``kernel_brute_force`` oracle
    on graph pairs from the workload's own pool.

    The oracle accepts at most 64 product-graph nodes, so each scene keeps
    only its first few above-threshold detections: one graph gets 1-6 of
    them and its partner as many as still fit.
    """
    cfg = build_config(environ={})
    kcfg, catalog = cfg.kernel, cfg.catalog
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    ids = workload.pool_ids()
    picked = [ids[i] for i in rng.choice(len(ids), size=2 * n_pairs, replace=False)]
    scenes = workload.kernel_scenes(picked)
    problems = []
    for a, b in zip(scenes[0::2], scenes[1::2]):
        m1 = int(rng.integers(1, 7))
        m2 = min(7, 64 // (m1 + 1) - 1)
        g1 = build_scene_graph(_first_kept(a, m1, kcfg, catalog), catalog, kcfg)
        g2 = build_scene_graph(_first_kept(b, m2, kcfg, catalog), catalog, kcfg)
        fast = marginalized_kernel(g1, g2, kcfg)
        oracle = kernel_brute_force(g1, g2, kcfg, 40)
        if not abs(fast - oracle) <= 1e-12 + 1e-6 * abs(oracle):
            problems.append(f"kernel({a.id}, {b.id}) = {fast!r}, brute force {oracle!r}")
    return problems


def _first_kept(scene: Scene, m: int, kcfg, catalog) -> Scene:
    kept = [d for d in scene.detections if d.confidence >= kcfg.tau and d.class_label in catalog]
    return Scene(id=scene.id, detections=tuple(kept[:m]))
