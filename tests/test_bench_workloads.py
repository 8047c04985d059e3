"""The benchmark's workload drivers, run at toy size.

``bench/run.py`` drives each workload through set-up, then ``prepare``,
``run`` and ``check`` for every round, and runs the kernel spot check on the
workload's pool. These tests drive the same loop on pools of 100 scenes, so
a program change that breaks a call the benchmark makes fails the unit suite
and not only the benchmark run.
"""
import sys
from pathlib import Path

import pytest

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
