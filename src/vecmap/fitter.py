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
from .geometry import apply_permutation, normalize_stack  # noqa: F401
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
#: Iterations whose orderings ``fit`` draws at once; memory stays flat in ``iterations``.
_DRAW_BLOCK = 256


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
    precisely the start-point/direction ambiguity under study.  The bound
    matcher reads the ground truth through orderings drawn ``_DRAW_BLOCK``
    iterations at a time, and the loss reads the pairs the matcher writes.
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
    # Normalized after the bind, which names the odd element of a ragged stack.
    matcher = BoundMatcher(points, scores, stacked.points, stacked.classes,
                           cfg.mode is FitMode.FIXED_ORDER)
    matcher.gt_points[...] = normalize_stack(matcher.gt_points, gt.range)
    order_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1,)))
    )
    # The loss reads each iteration's pairs where the matcher writes them.
    loss = BoundLoss(points, scores, matcher.rows, matcher.pair_classes, matcher.aligned,
                     LossWeights())
    # Points stay in the unit square; logits are unbounded.
    steps = [_kernels._bind_adam(x, g, np.zeros_like(x), np.zeros_like(x), clip, MOMENT_DECAY_1,
                                 MOMENT_DECAY_2, STEP_SIZE, ADAM_EPS)
             for x, g, clip in ((points, loss.d_points, True), (logits, loss.d_logits, False))]

    trace, finite = [], False  # the first call checks the initial points and scores
    for t in range(1, cfg.iterations + 1):
        b = (t - 1) % _DRAW_BLOCK
        if not b:  # one draw per block gives the stream of one draw per iteration
            block = (_DRAW_BLOCK, len(matcher.n_orderings))
            matcher.present(order_rng.integers(matcher.n_orderings, size=block))
        matcher(b, finite)
        trace.append(loss.run())
        if t == cfg.iterations:  # the final predictions: no step after the last loss
            break
        c1, c2 = 1 - MOMENT_DECAY_1**t, 1 - MOMENT_DECAY_2**t
        finite = all([step(c1, c2) for step in steps])
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
