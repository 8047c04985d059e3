"""The traced benchmark wraps program functions by name; every one must exist.

``bench/spans.py`` replaces public functions at each name a caller looks them
up by. A refactor that removes or renames one of them breaks the traced run;
this test makes the same break fail the unit suite.
"""
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_instrumentation_installs_and_removes():
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from bench.spans import Instrumentation, Tracer
    from scenesel import sampler

    originals = (sampler.marginalized_kernel, sampler.SimilarityCache.similarity)
    inst = Instrumentation(Tracer())
    inst.install()
    try:
        assert sampler.marginalized_kernel is not originals[0]
    finally:
        inst.remove()
    assert (sampler.marginalized_kernel, sampler.SimilarityCache.similarity) == originals
