"""Gradient-descent fitting of prediction slots to a ground-truth scene.

The desk-scale analogue of set-prediction training: a fixed budget of
prediction slots (random points, low-confidence logits) is fitted to one
scene by iterating match -> loss -> analytic gradient -> adaptive update.
Two modes reproduce the modeling ablation: permutation-equivalent
matching over the full ordering group, versus supervision with the
single stored point order (the fixed-permutation baseline).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _kernels

# fit binds the array core once (BoundMatcher, BoundLoss, the Adam steps) to
# one set of parameter buffers and runs its kernels raw every iteration.  The
# dataclass entry points apply_permutation, hierarchical_match, total_loss
# and loss_gradients stay bound here: perfbench/tracer.py wraps these names.
from .geometry import (  # noqa: F401
    KIND_FOR_CLASS,
    apply_permutation,
    normalize_stack,
    permutation_group,
)
from .losses import (  # noqa: F401
    BoundLoss,
    LossBreakdown,
    LossWeights,
    loss_gradients,
    total_loss,
)
from .matching import BoundMatcher, PredictedElement, hierarchical_match  # noqa: F401
from .metrics import APConfig, APReport, SceneGroundTruth, ScenePredictions, evaluate_ap
from .scenegen import DEFAULT_SLOTS, MapScene, check_integers


#: Adam's step size, first and second moment decays and epsilon.
STEP_SIZE, MOMENT_DECAY_1, MOMENT_DECAY_2, ADAM_EPS = 0.01, 0.9, 0.999, 1e-8


class FitMode(enum.Enum):
    PERMUTATION_EQUIVALENT = "permutation_equivalent"
    FIXED_ORDER = "fixed_order"


@dataclass(frozen=True)
class FitConfig:
    mode: FitMode = FitMode.PERMUTATION_EQUIVALENT
    iterations: int = 500
    seed: int = 0
    n_slots: int = DEFAULT_SLOTS

    def __post_init__(self):
        if not isinstance(self.mode, FitMode):
            raise ValueError("mode must be a FitMode")
        check_integers(self, iterations=1, seed=0, n_slots=1)


@dataclass(frozen=True)
class FitTrace:
    losses: tuple[LossBreakdown, ...]
    final_predictions: tuple[PredictedElement, ...]
    final_report: APReport


def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), computed into out."""
    np.exp(np.negative(x, out=out), out=out)
    return np.divide(1.0, np.add(1.0, out, out=out), out=out)


def fit(gt: MapScene, cfg: FitConfig = FitConfig()) -> FitTrace:
    """Fit prediction slots to a scene; deterministic for a fixed config.

    The assignment is recomputed every iteration.  Points live in the
    unit square (clamped after each update); scores are parameterized by
    logits so the classification loss is exercised end-to-end.  Updates
    use bias-corrected first/second-moment estimates, which cope with
    the piecewise-constant Manhattan subgradients.

    Each iteration presents every ground-truth element in a freshly
    drawn ordering from its equivalence group, emulating the arbitrary
    annotation order a detector sees across training samples.  The
    permutation-equivalent mode is invariant to this by construction;
    the fixed-order baseline receives conflicting supervision, which is
    precisely the start-point/direction ambiguity under study.
    """
    if not gt.elements:
        raise ValueError("ground-truth scene is empty")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    n, nv = cfg.n_slots, gt.n_points
    # The parameters: every kernel below reads and writes these buffers.
    points = rng.uniform(0.0, 1.0, size=(n, nv, 2))
    logits = np.full((n, 3), -2.0)
    scores = _sigmoid(logits, np.empty_like(logits))

    stacked = SceneGroundTruth.stack(gt.elements)
    classes = stacked.classes
    # Bound before normalizing: on a ragged stack the bind names the odd element.
    matcher = BoundMatcher(points, scores, stacked.points, classes, cfg.mode is FitMode.FIXED_ORDER)
    maps = [permutation_group(KIND_FOR_CLASS[c], nv).index_maps() for c in classes.tolist()]
    # The maps padded into one (G, K, nv) table: one fancy index gathers them.
    all_maps = np.zeros((len(maps), max(map(len, maps)), nv), dtype=np.int64)
    for g, m in enumerate(maps):
        all_maps[g, : len(m)] = m
    flat = normalize_stack(stacked.points, gt.range)
    at = np.arange(len(maps))[:, None]
    n_orderings = np.array([len(m) for m in maps])
    order_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1,)))
    )
    n_pairs = len(maps)  # the bind checked n >= G: the assignment matches every element
    loss = BoundLoss(points, scores, np.arange(n_pairs), np.zeros(n_pairs, dtype=np.int64),
                     np.zeros((n_pairs, nv, 2)), LossWeights())
    # Points stay in the unit square; logits are unbounded.
    steps = [_kernels._bind_adam(x, g, np.zeros_like(x), np.zeros_like(x), clip, MOMENT_DECAY_1,
                                 MOMENT_DECAY_2, STEP_SIZE, ADAM_EPS)
             for x, g, clip in ((points, loss.d_points, True), (logits, loss.d_logits, False))]

    trace = []
    for t in range(1, cfg.iterations + 1):
        gts_iter = flat[at, all_maps[at[:, 0], order_rng.integers(n_orderings)]]
        rows, cols, orderings, _ = matcher(gts_iter)
        aligned = gts_iter[cols[:, None], all_maps[cols, orderings]]
        trace.append(loss(rows, classes[cols], aligned))
        if t == cfg.iterations:  # the final predictions: no step after the last loss
            break
        c1, c2 = 1 - MOMENT_DECAY_1**t, 1 - MOMENT_DECAY_2**t
        for step in steps:
            step(c1, c2)
        _sigmoid(logits, scores)

    report = evaluate_ap([ScenePredictions(points, scores)], [stacked], APConfig(), gt.range)
    preds = tuple(PredictedElement(scores=s, points=p) for p, s in zip(points, scores))
    return FitTrace(losses=tuple(trace), final_predictions=preds, final_report=report)


def trace_table(trace: FitTrace) -> str:
    """Columnar text export of a loss trace: iteration, cls, p2p, dir, total."""
    lines = ["iteration cls p2p dir total"]
    for i, row in enumerate(trace.losses):
        lines.append(f"{i} {row.cls:.9g} {row.p2p:.9g} {row.dir:.9g} {row.total:.9g}")
    return "\n".join(lines) + "\n"
