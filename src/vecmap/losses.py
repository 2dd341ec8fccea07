"""Training objective: classification, point2point and edge-direction terms.

The total loss is a weighted sum of a sigmoid focal classification loss
over all prediction slots (the class cost's ``FOCAL_GAMMA`` and
``FOCAL_ALPHA``, from ``matching``), the summed Manhattan distance over
point-level-aligned pairs, and the negative cosine similarity between
paired edges of aligned elements.  Gradients are analytic, with the
hierarchical assignment held fixed (no differentiation through either
argmin), which is how set-prediction losses are trained in practice.

Two kernel passes give every term and its gradient: ``focal_terms`` in
``_kernels`` the classification term, from numpy's logs and powers of the
scores, and ``pair_terms`` the point2point and edge-direction terms of the
matched pairs.  A pair's class alone decides whether it has a closing edge
(a polygon's).  :class:`BoundLoss`, the loss's one array entry, binds
both; its bind raises ValueError on bad input, naming the argument, and
``fit`` binds it once per fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .geometry import MapElement, apply_permutation
from .matching import (
    FOCAL_ALPHA,
    FOCAL_GAMMA,
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


class BoundLoss:
    """The weighted loss and its analytic gradient, bound to buffers for a
    fixed pair count: the loss's one array entry.

    points (P, n, 2) and scores (P, 3) describe the predictions.  Matched
    pair i joins prediction ``rows[i]`` (ascending) to a ground truth of
    class ``classes[i]`` whose points, in the matched ordering, are
    ``aligned[i]`` (n, 2); the class's kind (``KIND_FOR_CLASS``) decides
    whether the pair has a closing edge, which only a polygon has.  Binding
    raises ValueError, naming the argument, unless the rows strictly ascend
    within [0, P), each class is 0, 1 or 2, both point stacks are finite
    with ``aligned`` (len(rows), n, 2), and ``scores`` is (P, 3) with every
    value in [0, 1].  It keeps those already contiguous in the kernels'
    dtypes as its buffers, so a caller updates ``points`` and ``scores`` in
    place, as with ``matching.BoundMatcher``, and ``fit``'s matcher refills
    the pair buffers ``rows``, ``classes`` and ``aligned`` in place.

    :meth:`run` runs both kernels raw on the buffers' current contents and
    returns the :class:`LossBreakdown`.  It refills the gradients, the
    bound outputs ``d_points`` (P, n, 2), ``d_scores`` (P, 3) and
    ``d_logits`` = ``d_scores * s * (1 - s)``, wrt the logits whose sigmoids
    the scores ``s`` are.  The assignment is frozen; the Manhattan term uses
    the minimum-norm subgradient (0 at exact coordinate ties).  No-object
    predictions get zero point gradients and only the negative-target
    score gradient.
    """

    def __init__(self, points, scores, rows, classes, aligned,
                 weights: LossWeights = LossWeights()):
        (self.points, self.scores, self.rows, self.classes, self.aligned, self.p2p_each,
         self.dir_each, self.d_points, self.cls_each, self.d_scores, self.d_logits,
         self._run) = _kernels._bind_loss(points, scores, rows, classes, aligned,
                                          FOCAL_GAMMA, FOCAL_ALPHA, weights.lambda_cls,
                                          weights.alpha_p2p, weights.beta_dir)
        self.weights = weights

    def run(self) -> LossBreakdown:
        """The loss of the bound buffers' contents; refills the gradients."""
        w = self.weights
        cls = self._run()
        p2p = dir_ = 0.0
        for a, c in zip(self.p2p_each.tolist(), self.dir_each.tolist()):
            p2p += a
            dir_ -= c
        total = w.lambda_cls * cls + w.alpha_p2p * p2p + w.beta_dir * dir_
        return LossBreakdown(cls=cls, p2p=p2p, dir=dir_, total=total)


def _fused(preds, gts, match, weights=LossWeights()):
    """:class:`BoundLoss` on dataclass inputs: the breakdown and the gradients."""
    points, scores = stack_predictions(preds)
    pairs = match.instance.pairs
    aligned = [apply_permutation(gts[g].points, match.point_level[(p, g)].perm) for p, g in pairs]
    aligned = np.stack(aligned) if aligned else np.zeros((0,) + points.shape[1:])
    loss = BoundLoss(points, scores, [p for p, _ in pairs],
                     [int(gts[g].element_class) for _, g in pairs], aligned, weights)
    return loss.run(), LossGradients(d_points=loss.d_points, d_scores=loss.d_scores)


def total_loss(
    preds: list[PredictedElement],
    gts: list[MapElement],
    match: HierarchicalMatch,
    weights: LossWeights = LossWeights(),
) -> LossBreakdown:
    """The loss terms and their weighted total; see :class:`LossBreakdown`."""
    return _fused(preds, gts, match, weights)[0]


def loss_gradients(
    preds: list[PredictedElement],
    gts: list[MapElement],
    match: HierarchicalMatch,
    weights: LossWeights = LossWeights(),
) -> LossGradients:
    """Analytic gradient of the weighted total wrt predicted points and
    scores; see :class:`BoundLoss`."""
    return _fused(preds, gts, match, weights)[1]
