"""Permutation-equivalent map element modeling, matching, losses and AP."""

from ._kernels import BACKEND as KERNEL_BACKEND
from .fitter import FitConfig, FitMode, FitTrace, fit
from .geometry import (
    ElementClass,
    ElementKind,
    MapElement,
    PermutationDescriptor,
    PermutationGroup,
    SceneRange,
    apply_permutation,
    denormalize,
    edges,
    normalize,
    permutation_group,
    resample,
)
from .losses import (
    LossBreakdown,
    LossGradients,
    LossWeights,
    loss_gradients,
    total_loss,
)
from .matching import (
    CostConfig,
    HierarchicalMatch,
    InstanceAssignment,
    PointAssignment,
    PositionCost,
    PredictedElement,
    focal_class_cost,
    hierarchical_match,
    instance_match,
    manhattan_distance,
    point_level_match,
)
from .metrics import (
    APConfig,
    APCounts,
    APReport,
    SceneGroundTruth,
    ScenePredictions,
    chamfer_distance,
    evaluate_ap,
)
from .scenegen import MapScene, PerturbSpec, SceneSpec, generate_scene, perturb

__version__ = "0.1.0"
