"""Training objective: classification, point2point and edge-direction terms.

The total loss is a weighted sum of a sigmoid focal classification loss
over all prediction slots, the summed Manhattan distance over
point-level-aligned pairs, and the negative cosine similarity between
paired edges of aligned elements.  Gradients are analytic, with the
hierarchical assignment held fixed (no differentiation through either
argmin), which is how set-prediction losses are trained in practice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ElementKind, MapElement, apply_permutation
from .matching import (
    FOCAL_EPS,
    CostConfig,
    HierarchicalMatch,
    PredictedElement,
    stack_predictions,
)

#: Edges shorter than this are treated as degenerate: cosine similarity 0.
EDGE_NORM_FLOOR = 1e-8


@dataclass(frozen=True)
class LossWeights:
    lambda_cls: float = 2.0
    alpha_p2p: float = 5.0
    beta_dir: float = 5e-3

    def __post_init__(self):
        if min(self.lambda_cls, self.alpha_p2p, self.beta_dir) < 0:
            raise ValueError("loss weights must be non-negative")


@dataclass(frozen=True)
class LossBreakdown:
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


def _edge_cosines(pred: np.ndarray, aligned: np.ndarray, closed: np.ndarray):
    """Per-edge cosine similarities and their gradient wrt predicted points.

    pred and aligned are (M, n, 2); edge j runs from point j to point
    j+1 mod n.  Polylines (``closed`` False) have no wrap-around edge: its
    cosine and gradient are 0.
    """
    pe = pred - np.roll(pred, -1, axis=1)
    ge = aligned - np.roll(aligned, -1, axis=1)
    pn = np.linalg.norm(pe, axis=-1)
    gn = np.linalg.norm(ge, axis=-1)
    n = pred.shape[1]
    ok = (pn > EDGE_NORM_FLOOR) & (gn > EDGE_NORM_FLOOR)
    ok &= closed[:, None] | (np.arange(n) < n - 1)
    safe_pn = np.where(ok, pn, 1.0)
    safe_gn = np.where(ok, gn, 1.0)
    cos = np.where(ok, (pe * ge).sum(axis=-1) / (safe_pn * safe_gn), 0.0)

    # d cos / d pred_edge; degenerate edges contribute nothing.
    dcos = ge / (safe_pn * safe_gn)[..., None] - cos[..., None] * pe / (safe_pn**2)[..., None]
    dcos[~ok] = 0.0
    # Point j starts edge j and ends edge j-1.
    return cos, dcos - np.roll(dcos, 1, axis=1)


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
    ``aligned[i]`` (n, 2); ``closed[i]`` is True for a polygon.

    The assignment is frozen; the Manhattan term uses the minimum-norm
    subgradient (0 at exact coordinate ties).  No-object predictions get
    zero point gradients and only the negative-target score gradient.
    """
    rows = np.asarray(rows, dtype=np.int64)
    closed = np.asarray(closed, dtype=bool)
    targets = np.zeros((len(scores), 3))
    targets[rows, np.asarray(classes, dtype=np.int64)] = 1.0
    cls_each, d_cls = _focal_terms(scores, targets, cfg)

    pred = points[rows]
    diff = pred - aligned
    # Per-pair sums, each over that pair's own elements, then added pair by pair.
    p2p_each = np.abs(diff).reshape(len(rows), 2 * diff.shape[1]).sum(axis=1)
    cos, d_dir = _edge_cosines(pred, aligned, closed)
    # Each pair sums only its own edges (n - 1 for a polyline): summing a
    # padded 0 as well could change numpy's pairwise rounding.
    dir_each = np.empty(len(rows))
    dir_each[closed] = cos[closed].sum(axis=1)
    dir_each[~closed] = cos[~closed, :-1].sum(axis=1)
    p2p = dir_ = 0.0
    for a, c in zip(p2p_each.tolist(), dir_each.tolist()):
        p2p += a
        dir_ -= c
    cls = float(cls_each.sum())
    total = weights.lambda_cls * cls + weights.alpha_p2p * p2p + weights.beta_dir * dir_

    d_points = np.zeros_like(points)
    d_points[rows] += weights.alpha_p2p * np.sign(diff)
    d_points[rows] -= weights.beta_dir * d_dir
    return (
        LossBreakdown(cls=cls, p2p=p2p, dir=dir_, total=total),
        LossGradients(d_points=d_points, d_scores=weights.lambda_cls * d_cls),
    )


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


def classification_loss(
    preds: list[PredictedElement],
    gts: list[MapElement],
    match: HierarchicalMatch,
    cfg: CostConfig = CostConfig(),
) -> float:
    """Sigmoid focal loss over every prediction slot and class.

    Matched predictions get a one-hot target at the assigned class;
    no-object predictions get an all-zero target.
    """
    return _fused(preds, gts, match, cfg=cfg)[0].cls


def point2point_loss(
    preds: list[PredictedElement],
    gts: list[MapElement],
    match: HierarchicalMatch,
) -> float:
    """Summed Manhattan distance over aligned point pairs of matched elements."""
    return _fused(preds, gts, match)[0].p2p


def edge_direction_loss(
    preds: list[PredictedElement],
    gts: list[MapElement],
    match: HierarchicalMatch,
) -> float:
    """Negative summed cosine similarity between paired edges."""
    return _fused(preds, gts, match)[0].dir


def total_loss(
    preds: list[PredictedElement],
    gts: list[MapElement],
    match: HierarchicalMatch,
    weights: LossWeights = LossWeights(),
    cfg: CostConfig = CostConfig(),
) -> LossBreakdown:
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
