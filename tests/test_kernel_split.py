"""``indexed_kernels`` split across forked processes: the same floats as
the in-process solve, a child's failure raised in the caller, and no
process left behind."""
import logging
import os

import numpy as np
import pytest

from scenesel import kernel as kernel_module
from scenesel import synth
from scenesel.core import DEFAULT_ANCHORS, DEFAULT_CATALOG
from scenesel.kernel import KernelConfig, build_scene_graph, indexed_kernels

CFG = KernelConfig()


@pytest.fixture(scope="module")
def call():
    """Every pair, self-pairs included, of 60 predicted 8-20-object scenes:
    the candidate set of a ``select`` round on such a pool."""
    spec = synth.PoolSpec(n_scenes=60, class_mix=(0.9, 0.05, 0.05), objects_min=8, objects_max=20, rng_seed=3)
    pool = synth.generate_pool(spec, DEFAULT_CATALOG, DEFAULT_ANCHORS)
    noise = synth.NoiseModel(
        confidence_noise=0.5,
        position_noise_per_meter=0.005,
        false_positive_rate=0.3,
        misclass_rate=0.05,
        mixture_components=3,
        mean_spread=0.1,
    )
    predictor = synth.make_predictor(noise, DEFAULT_ANCHORS, DEFAULT_CATALOG, 3)
    graphs = [build_scene_graph(predictor(pool[i]), DEFAULT_CATALOG, CFG) for i in sorted(pool)]
    first, second = np.triu_indices(len(graphs))
    return graphs, first, second


@pytest.fixture(scope="module")
def in_process(call):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_module, "SPLIT_ENTRIES", float("inf"))
        return indexed_kernels(*call, CFG)


@pytest.fixture
def forks(monkeypatch):
    """The forks made, one entry each."""
    made = []
    fork = os.fork

    def counted():
        made.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made


@pytest.fixture
def three_cpus(monkeypatch, forks):
    """Split a call into three shares, whatever this machine's CPUs; the forks made."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(kernel_module, "SPLIT_ENTRIES", 1)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def hexes(values):
    return [float(v).hex() for v in values]


def test_a_split_call_gets_the_in_process_floats(call, in_process, three_cpus):
    assert hexes(indexed_kernels(*call, CFG)) == hexes(in_process)
    assert len(three_cpus) == 2
    assert_no_child_left()


def test_the_select_shaped_call_splits_by_the_rule(call, in_process, monkeypatch, forks):
    # 1,830 pairs of tens to hundreds of live nodes: many times the rule,
    # so one share per CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert hexes(indexed_kernels(*call, CFG)) == hexes(in_process)
    assert len(forks) == 1
    assert_no_child_left()


def test_a_call_below_the_rule_never_forks(call, in_process, monkeypatch):
    def no_fork():
        raise AssertionError("forked below the rule")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    graphs, first, second = call
    few = slice(0, 3)  # three pairs, well below the rule
    values = indexed_kernels(graphs, first[few], second[few], CFG)
    assert hexes(values) == hexes(in_process[few])


def test_a_child_exception_is_raised_with_its_type_and_message(call, three_cpus, monkeypatch):
    parent = os.getpid()
    solve = kernel_module._solve_live

    def fails_in_a_child(*args):
        if os.getpid() != parent:
            raise ArithmeticError("no kernel in this child")
        return solve(*args)

    monkeypatch.setattr(kernel_module, "_solve_live", fails_in_a_child)
    with pytest.raises(ArithmeticError, match="^no kernel in this child$"):
        indexed_kernels(*call, CFG)
    assert_no_child_left()


def test_a_failing_parent_kills_and_reaps_its_children(call, three_cpus, monkeypatch):
    parent = os.getpid()
    solve = kernel_module._solve_live

    def fails_in_the_parent(*args):
        if os.getpid() == parent:
            raise KeyError("parent share")
        return solve(*args)

    monkeypatch.setattr(kernel_module, "_solve_live", fails_in_the_parent)
    with pytest.raises(KeyError, match="parent share"):
        indexed_kernels(*call, CFG)
    assert_no_child_left()


def test_a_failed_fork_solves_in_process_with_one_warning(call, in_process, monkeypatch, caplog):
    def no_fork():
        raise OSError("fork: Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(kernel_module, "SPLIT_ENTRIES", 1)
    with caplog.at_level(logging.WARNING, logger="scenesel.kernel"):
        values = indexed_kernels(*call, CFG)
    assert hexes(values) == hexes(in_process)
    assert len(caplog.records) == 1
    assert "Resource temporarily unavailable" in caplog.records[0].getMessage()


def test_a_platform_without_fork_solves_in_process_with_one_warning(call, in_process, monkeypatch, caplog):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(kernel_module, "SPLIT_ENTRIES", 1)
    with caplog.at_level(logging.WARNING, logger="scenesel.kernel"):
        values = indexed_kernels(*call, CFG)
    assert hexes(values) == hexes(in_process)
    assert len(caplog.records) == 1
