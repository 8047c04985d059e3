"""Three-stage active-learning scene selection for 3D detection datasets.

Scenes are scored by category entropy, graph-kernel similarity, and
mixture-density uncertainty, then selected round by round through a
three-stage joint sampler.
"""
from .core import (
    Anchor,
    AnchorTable,
    Box3D,
    ClassCatalog,
    DataError,
    DEFAULT_ANCHORS,
    DEFAULT_CATALOG,
    MixtureError,
    MixtureParams,
    ParseError,
    RESIDUAL_DIMS,
    Scene,
    SceneSelError,
    ScoredDetection,
)
from .entropy import EntropyConfig, category_entropy, filtered_class_counts, rank_by_entropy
from .kernel import (
    KernelConfig,
    SceneGraph,
    build_scene_graph,
    indexed_kernels,
    kernel_brute_force,
    marginalized_kernel,
)
from .sampler import (
    RoundReport,
    SimilarityCache,
    StagePlan,
    STRATEGIES,
    farthest_sampling,
    run_al_rounds,
    three_stage_select,
)
from .state import RoundState, load_round_state, save_round_state
from .uncertainty import UncertaintyConfig, rank_by_uncertainty, scene_uncertainties

__version__ = "0.1.0"
