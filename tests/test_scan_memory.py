"""What a pool-scale similarity scan holds: the ``tracemalloc`` peak of one
cold ``SimilarityCache.matrix`` over a 240-scene pool of 2-6-object
predicted scenes, the shape of the first round of ``fs-only``.

The scan makes one ``indexed_kernels`` call for the whole pool, so its peak
is the scan's per-pair state, the call's and one stacked batch. The bound
is the peak the scan had when it cut the same matrix into calls of 4,096
pairs, so a larger state per pair shows here, not only as a larger peak
RSS. ``tracemalloc`` counts numpy's allocations too, the same on every run
of the same code. Runs in a fresh interpreter, so that no other test's
allocations count.
"""
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Bytes above the base: the peak of this matrix in calls of 4,096 pairs,
# 5.03 MB. In one call it peaks at 4.40 MB.
PEAK_BOUND = 5_030_000

SCRIPT = """
import tracemalloc
from scenesel import synth
from scenesel.core import DEFAULT_ANCHORS, DEFAULT_CATALOG
from scenesel.kernel import KernelConfig
from scenesel.sampler import SimilarityCache

# the pool and noise of ``scenesel synth`` and ``simulate`` by default
spec = synth.PoolSpec(n_scenes=240, class_mix=(0.9, 0.05, 0.05), objects_min=2, objects_max=6, rng_seed=1)
pool = synth.generate_pool(spec, DEFAULT_CATALOG, DEFAULT_ANCHORS)
noise = synth.NoiseModel(
    confidence_noise=0.5,
    position_noise_per_meter=0.005,
    false_positive_rate=0.3,
    misclass_rate=0.05,
    mixture_components=3,
    mean_spread=0.1,
)
predictor = synth.make_predictor(noise, DEFAULT_ANCHORS, DEFAULT_CATALOG, 1)
scenes = [predictor(pool[i]) for i in sorted(pool)]
cache = SimilarityCache(DEFAULT_CATALOG, KernelConfig())
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
cache.matrix(scenes)
print(cache.evaluations, tracemalloc.get_traced_memory()[1] - base)
"""


def test_a_cold_pool_matrix_peaks_below_the_bound():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    evaluations, peak = map(int, done.stdout.split())
    assert evaluations > 28_000  # nearly every pair of the pool is evaluated
    assert peak <= PEAK_BOUND, f"peak {peak / 1e6:.2f} MB above the base"
