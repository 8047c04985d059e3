"""The benchmark's workload drivers, run at toy size.

``bench/run.py`` drives each workload through set-up, then ``prepare``,
``run`` and ``check`` for every round, and runs the kernel spot check on the
workload's pool. These tests drive the same loop on pools of 100 scenes, so
a program change that breaks a call the benchmark makes fails the unit suite
and not only the benchmark run.
"""
import math
import sys
from pathlib import Path

import pytest

from scenesel import uncertainty
from scenesel.core import DEFAULT_ANCHORS, MixtureParams, ScoredDetection
from conftest import make_box, scene_of, uniform_mixture

REPO_ROOT = Path(__file__).resolve().parent.parent
SEED = 1


@pytest.fixture(scope="module")
def workloads():
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from bench import workloads

    return workloads


def problems_of_one_episode(workloads, workload) -> list[str]:
    workload.setup()
    problems = workloads.kernel_spot_check(workload, SEED)
    for i in range(workload.rounds):
        workload.prepare(i)
        _, seen = workload.check(i, workload.run(i))
        problems += [f"round {workload.label(i)}: {p}" for p in seen]
    return problems


def test_loop_workload_runs_every_strategy(workloads):
    # fs-only is listed twice: its second pass runs on the warm cache and
    # must select what the first pass did.
    strategies = ("random", "entropy-only", "fs-only", "uncertainty-only", "tscenejal", "fs-only")
    workload = workloads.LoopWorkload(SEED, n_scenes=100, strategies=strategies, rounds=2)
    assert problems_of_one_episode(workloads, workload) == []
    assert workload.rounds == 12


def test_disk_workload_runs_select_rounds(workloads, tmp_path):
    workload = workloads.DiskWorkload(SEED, tmp_path / "work", n_scenes=100, objects="2,6", rounds=2)
    assert problems_of_one_episode(workloads, workload) == []


def test_traced_episodes_count_every_layer_the_benchmark_reads(workloads, tmp_path):
    # The traced benchmark wraps ``load_mixture_sidecar(path, scene)``,
    # ``rank_by_uncertainty(scenes, ...)`` and the predictors by name and
    # reads their arguments, and counts the "excluding scene" warning: a
    # change to any of them that leaves a counter at 0 fails here.
    from bench.spans import Instrumentation, Tracer

    tracer = Tracer()
    instr = Instrumentation(tracer)
    originals = (uncertainty.rank_by_uncertainty, workloads.kitti.load_mixture_sidecar)
    loop = workloads.LoopWorkload(SEED, n_scenes=100, strategies=("tscenejal",), rounds=1)
    disk = workloads.DiskWorkload(SEED, tmp_path / "work", n_scenes=100, objects="2,6", rounds=1)
    block = uniform_mixture(var=0.1).block.copy()
    block[0, 1, 6] = math.pi / 2  # a yaw residual mean the ranking excludes
    singular = scene_of("singular", (ScoredDetection("car", 0.9, make_box()),), MixtureParams(block))
    instr.install()
    try:
        assert problems_of_one_episode(workloads, loop) == []
        assert problems_of_one_episode(workloads, disk) == []
        assert uncertainty.rank_by_uncertainty([singular], DEFAULT_ANCHORS, uncertainty.UncertaintyConfig(), 0) == []
    finally:
        instr.remove()
    assert (uncertainty.rank_by_uncertainty, workloads.kitti.load_mixture_sidecar) == originals
    _, _, calls = tracer.totals(0)
    assert calls["synth.predict"] > 0
    assert calls["kitti.load_mixture_sidecar"] > 0
    assert tracer.counts["kitti.bytes_read"] > 0
    assert tracer.counts["uncertainty.rank_by_uncertainty.scenes"] > 0
    assert tracer.counts["uncertainty.excluded"] == 1
