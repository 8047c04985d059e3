"""The traced benchmark wraps program functions by name; every one must exist.

``bench/spans.py`` replaces public functions at each name a caller looks them
up by. A refactor that removes or renames one of them breaks the traced run;
this test makes the same break fail the unit suite. So does a refactor that
binds one of them before the wrappers are installed, so that the traced run
records no span for it.
"""
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def instrumentation():
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from bench.spans import Instrumentation, Tracer

    return Instrumentation(Tracer())


def test_instrumentation_installs_and_removes():
    from scenesel import sampler

    originals = (sampler.marginalized_kernel, sampler.SimilarityCache.similarity)
    inst = instrumentation()
    inst.install()
    try:
        assert sampler.marginalized_kernel is not originals[0]
    finally:
        inst.remove()
    assert (sampler.marginalized_kernel, sampler.SimilarityCache.similarity) == originals


def test_the_similarity_stage_records_its_spans():
    from scenesel import sampler
    from scenesel.core import DEFAULT_ANCHORS, DEFAULT_CATALOG
    from scenesel.kernel import KernelConfig, scene_content
    from scenesel.synth import PoolSpec, generate_pool

    pool = generate_pool(PoolSpec(n_scenes=6, class_mix=(0.6, 0.2, 0.2), rng_seed=4), DEFAULT_CATALOG, DEFAULT_ANCHORS)
    scenes = [pool[i] for i in sorted(pool)]
    inst = instrumentation()
    inst.install()
    try:
        sim = sampler.SimilarityCache(DEFAULT_CATALOG, KernelConfig()).matrix(scenes)
        sampler.farthest_sampling([s.id for s in scenes], sim, 3)
    finally:
        inst.remove()
    _, _, calls = inst.tracer.totals(0)
    assert calls["sampler.matrix"] == 1
    assert calls["kernel.build_scene_graph"] == len({scene_content(s, DEFAULT_CATALOG, KernelConfig()) for s in scenes})
    assert calls["sampler.farthest_sampling"] == 1


def test_a_select_round_records_one_round_driver_span(tmp_path, capsys):
    # ``select`` runs its round through ``sampler.run_al_rounds``, looked up
    # on the module, so the traced run records the round and its kernel
    # count; a direct import in ``cli`` would record neither.
    from scenesel import cli

    pool, state, out = tmp_path / "pool", tmp_path / "state.json", tmp_path / "sel"
    select = ["select", "--pool", str(pool), "--state", str(state), "--out", str(out)]
    assert cli.main(["--seed", "2", "synth", "--out", str(pool), "--n-scenes", "12"]) == 0
    assert cli.main([*select, "--init", "--n0", "2"]) == 0
    inst = instrumentation()
    inst.install()
    try:
        capsys.readouterr()
        assert cli.main([*select, "--n-r", "2"]) == 0
    finally:
        inst.remove()
    evaluated = int(re.search(r", (\d+) evaluated\)", capsys.readouterr().out).group(1))
    _, _, calls = inst.tracer.totals(0)
    assert calls["sampler.run_al_rounds"] == 1
    assert calls["sampler.three_stage_select"] == 1
    assert evaluated > 0
    assert inst.tracer.counts["sampler.reported_kernel_evals"] == evaluated
