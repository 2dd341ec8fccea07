"""Training objective: classification, point2point and edge-direction terms.

The total loss is a weighted sum of a sigmoid focal classification loss
over all prediction slots, the summed Manhattan distance over
point-level-aligned pairs, and the negative cosine similarity between
paired edges of aligned elements.  Gradients are analytic, with the
hierarchical assignment held fixed (no differentiation through either
argmin), which is how set-prediction losses are trained in practice.

The classification term and its gradient are numpy here; the point2point
and edge-direction terms and their gradient come from one kernel pass over
the matched pairs (``pair_terms`` in ``_kernels``), bound by
:class:`BoundLoss`, which ``fit`` binds once per fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels._pure import EDGE_NORM_FLOOR, FOCAL_EPS  # noqa: F401
from .geometry import ElementKind, MapElement, apply_permutation
from .matching import (
    CostConfig,
    HierarchicalMatch,
    PredictedElement,
    stack_predictions,
)

@dataclass(frozen=True)
class LossWeights:
    lambda_cls: float = 2.0
    alpha_p2p: float = 5.0
    beta_dir: float = 5e-3

    def __post_init__(self):
        if not all(0 <= w < np.inf for w in (self.lambda_cls, self.alpha_p2p, self.beta_dir)):
            raise ValueError("loss weights must be finite and non-negative")


@dataclass(frozen=True)
class LossBreakdown:
    """The terms of the training objective and their weighted sum.

    ``cls``: sigmoid focal loss over every prediction slot and class;
    matched predictions get a one-hot target at the assigned class,
    no-object predictions an all-zero target.  ``p2p``: summed Manhattan
    distance over aligned point pairs of matched elements.  ``dir``:
    negative summed cosine similarity between paired edges.
    """

    cls: float
    p2p: float
    dir: float
    total: float


@dataclass(frozen=True)
class LossGradients:
    d_points: np.ndarray  # (n_preds, n_points, 2)
    d_scores: np.ndarray  # (n_preds, 3)


def _focal_terms(scores: np.ndarray, targets: np.ndarray, cfg: CostConfig):
    """Per-slot sigmoid focal loss and its gradient wrt the scores."""
    gamma, alpha = cfg.focal_gamma, cfg.focal_alpha
    p = scores
    pos_log = np.log(p + FOCAL_EPS)
    neg_log = np.log(1.0 - p + FOCAL_EPS)
    loss = np.where(
        targets > 0.5,
        alpha * (1.0 - p) ** gamma * -pos_log,
        (1.0 - alpha) * p**gamma * -neg_log,
    )
    grad = np.where(
        targets > 0.5,
        alpha * (gamma * (1.0 - p) ** (gamma - 1.0) * pos_log - (1.0 - p) ** gamma / (p + FOCAL_EPS)),
        (1.0 - alpha) * (-gamma * p ** (gamma - 1.0) * neg_log + p**gamma / (1.0 - p + FOCAL_EPS)),
    )
    return loss, grad


class BoundLoss:
    """:func:`loss_and_gradients` bound to buffers for a fixed pair count.

    Binding checks its arguments as :func:`loss_and_gradients` does and
    keeps those already contiguous in the kernel's dtype as its buffers.  A
    call copies valid predictions and pairs of the bound shapes into them,
    unchecked, and runs the pair kernel raw; the ``d_points`` it returns is
    the bound output, which the next call refills.
    """

    def __init__(self, points, rows, classes, aligned, closed,
                 weights: LossWeights = LossWeights(), cfg: CostConfig = CostConfig()):
        (self.points, self.rows, self.aligned, self.closed, self.p2p_each, self.dir_each,
         self.d_points, self._run) = _kernels._bind_pair_terms(
            points, rows, aligned, closed, weights.alpha_p2p, weights.beta_dir)
        self.classes = np.array(classes, dtype=np.int64)
        if self.classes.shape != self.rows.shape or not np.isin(self.classes, (0, 1, 2)).all():
            raise ValueError(f"classes must be one of 0, 1, 2 per row, got {classes}")
        self.targets = np.zeros((len(self.points), 3))
        self.weights, self.cfg = weights, cfg

    def __call__(self, points, scores, rows, classes, aligned, closed):
        for buf, new in zip((self.points, self.rows, self.classes, self.aligned, self.closed),
                            (points, rows, classes, aligned, closed)):
            np.copyto(buf, new)
        return self.run(scores)

    def run(self, scores) -> tuple[LossBreakdown, LossGradients]:
        """The loss and gradients of the bound buffers' contents with scores (P, 3)."""
        w = self.weights
        self.targets.fill(0.0)
        self.targets[self.rows, self.classes] = 1.0
        cls_each, d_cls = _focal_terms(scores, self.targets, self.cfg)
        self._run()
        p2p = dir_ = 0.0
        for a, c in zip(self.p2p_each.tolist(), self.dir_each.tolist()):
            p2p += a
            dir_ -= c
        cls = float(cls_each.sum())
        total = w.lambda_cls * cls + w.alpha_p2p * p2p + w.beta_dir * dir_
        return (
            LossBreakdown(cls=cls, p2p=p2p, dir=dir_, total=total),
            LossGradients(d_points=self.d_points, d_scores=w.lambda_cls * d_cls),
        )


def loss_and_gradients(
    points: np.ndarray,
    scores: np.ndarray,
    rows,
    classes,
    aligned: np.ndarray,
    closed: np.ndarray,
    weights: LossWeights = LossWeights(),
    cfg: CostConfig = CostConfig(),
) -> tuple[LossBreakdown, LossGradients]:
    """Weighted loss and its analytic gradient in one pass over the pairs.

    points (P, n, 2) and scores (P, 3) describe the predictions.  Matched
    pair i joins prediction ``rows[i]`` (ascending) to a ground truth of
    class ``classes[i]`` whose points, in the matched ordering, are
    ``aligned[i]`` (n, 2); ``closed[i]`` is True for a polygon.  Raises
    ValueError, naming the argument, unless the rows strictly ascend within
    [0, P), each class is 0, 1 or 2, both point stacks are finite with
    ``aligned`` (len(rows), n, 2), ``closed`` has one entry per row, and
    ``scores`` is (P, 3) with every value in [0, 1].

    The assignment is frozen; the Manhattan term uses the minimum-norm
    subgradient (0 at exact coordinate ties).  No-object predictions get
    zero point gradients and only the negative-target score gradient.
    """
    loss = BoundLoss(points, rows, classes, aligned, closed, weights, cfg)
    scores = np.asarray(scores, dtype=np.float64)
    want = (len(loss.points), 3)
    # Written so that NaN, which fails every comparison, is rejected too.
    if scores.shape != want or not ((scores >= 0) & (scores <= 1)).all():
        raise ValueError(f"scores must have shape {want} with every value in [0, 1], "
                         f"got shape {scores.shape}")
    return loss.run(scores)


def _fused(preds, gts, match, weights=LossWeights(), cfg=CostConfig()):
    """:func:`loss_and_gradients` on dataclass inputs."""
    points, scores = stack_predictions(preds)
    pairs = match.instance.pairs
    aligned = [apply_permutation(gts[g].points, match.point_level[(p, g)].perm) for p, g in pairs]
    return loss_and_gradients(
        points,
        scores,
        [p for p, _ in pairs],
        [int(gts[g].element_class) for _, g in pairs],
        np.stack(aligned) if aligned else np.zeros((0,) + points.shape[1:]),
        [gts[g].kind is ElementKind.POLYGON for _, g in pairs],
        weights,
        cfg,
    )


def total_loss(
    preds: list[PredictedElement],
    gts: list[MapElement],
    match: HierarchicalMatch,
    weights: LossWeights = LossWeights(),
    cfg: CostConfig = CostConfig(),
) -> LossBreakdown:
    """The loss terms and their weighted total; see :class:`LossBreakdown`."""
    return _fused(preds, gts, match, weights, cfg)[0]


def loss_gradients(
    preds: list[PredictedElement],
    gts: list[MapElement],
    match: HierarchicalMatch,
    weights: LossWeights = LossWeights(),
    cfg: CostConfig = CostConfig(),
) -> LossGradients:
    """Analytic gradient of the weighted total wrt predicted points and scores.

    See :func:`loss_and_gradients`.
    """
    return _fused(preds, gts, match, weights, cfg)[1]
