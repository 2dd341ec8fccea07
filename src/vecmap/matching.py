"""Hierarchical bipartite matching.

Two levels, run in order: instance-level assignment between predicted
and ground-truth elements (Hungarian over a class + position cost), then
point-level assignment picking, per matched pair, the ordering from the
element's equivalent-permutation group with the lowest summed Manhattan
distance.

Costs are computed in whatever coordinate frame the caller supplies; by
convention predictions and ground truth are both normalized to the unit
square first (see MapElement.normalized), keeping class and position
terms commensurate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels._pure import focal_cost
from .geometry import (
    ElementClass,
    ElementKind,
    MapElement,
    PermutationDescriptor,
    as_points,
    permutation_group,
)
from .metrics import chamfer_distances


def linear_sum_assignment(cost):
    """scipy's assignment solver, imported on first call: scipy.optimize
    took most of the time of ``import vecmap``."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


class CapacityError(ValueError):
    """Raised when there are fewer predictions than ground-truth elements."""


class PositionCost(enum.Enum):
    POINT2POINT = "point2point"
    CHAMFER = "chamfer"


@dataclass(frozen=True)
class PredictedElement:
    """Per-class confidence scores plus a predicted point set."""

    scores: np.ndarray = field(repr=False)
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.shape != (3,):
            raise ValueError(f"expected 3 class scores, got shape {scores.shape}")
        # Written so that NaN, which fails every comparison, is rejected too.
        if not np.all((scores >= 0) & (scores <= 1)):
            raise ValueError(f"scores must lie in [0, 1], got {scores.tolist()}")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "points", as_points(self.points))


@dataclass(frozen=True)
class CostConfig:
    position_cost: PositionCost = PositionCost.POINT2POINT
    focal_gamma: float = 2.0
    focal_alpha: float = 0.25

    def __post_init__(self):
        if not 0 <= self.focal_gamma < np.inf:  # NaN fails too
            raise ValueError("focal_gamma must be finite and >= 0")
        if not 0 < self.focal_alpha < 1:
            raise ValueError("focal_alpha must lie in (0, 1)")


@dataclass(frozen=True)
class InstanceAssignment:
    """Matched (prediction index, ground-truth index) pairs.

    Predictions absent from ``pairs`` are implicitly assigned to the
    no-object label.
    """

    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PointAssignment:
    perm: PermutationDescriptor
    cost: float


@dataclass(frozen=True)
class HierarchicalMatch:
    instance: InstanceAssignment
    point_level: dict[tuple[int, int], PointAssignment]


def manhattan_distance(a, b) -> float:
    """Summed Manhattan distance between two equally long point sequences
    (a single point may be given 1-D): ``|dx| + |dy|`` added point by point
    in order, so it equals the matcher's cost for the same alignment."""
    a, b = (np.asarray(x, dtype=np.float64).reshape(-1, 2) for x in (a, b))
    return float(_kernels.manhattan_matrix(a[None], b[None], _orderings(None, len(b)))[0][0, 0])


def focal_class_cost(
    scores, target_class: ElementClass, cfg: CostConfig = CostConfig()
) -> float:
    """Focal matching cost for one class slot: positive minus negative term.

    Lower is better; approaches -inf (capped by the epsilon floor) as the
    target-class score approaches 1.
    """
    p = float(np.asarray(scores)[int(target_class)])
    return focal_cost(p, cfg.focal_gamma, cfg.focal_alpha)


def _orderings(kind: ElementKind | None, n: int) -> np.ndarray:
    """Index maps searched for a ground truth: its kind's group, or with
    ``kind`` None the stored order alone (the fixed-order baseline)."""
    return np.arange(n)[None, :] if kind is None else permutation_group(kind, n).index_maps()


def _best_orderings(points, gt_points, gt_kinds, fixed_order):
    """(P, G) least summed Manhattan costs over each ground truth's
    orderings, and the first ordering attaining each: (costs, best).

    One kernel call per element kind, over every ground truth of that kind;
    ``fixed_order`` makes one call over all ground truth with the identity
    ordering (its best is always 0).
    """
    costs = np.empty((len(points), len(gt_points)))
    best = np.empty(costs.shape, dtype=np.int64)
    keys = [None if fixed_order else kind for kind in gt_kinds]
    for key in dict.fromkeys(keys):
        gs = [g for g, k in enumerate(keys) if k is key]
        gts = np.stack([gt_points[g] for g in gs])
        costs[:, gs], best[:, gs] = _kernels.manhattan_matrix(
            points, gts, _orderings(key, gts.shape[1])
        )
    return costs, best


def point_level_match(pred_points, gt: MapElement) -> PointAssignment:
    """Best ordering of the ground-truth point set against a prediction.

    Minimizes the summed Manhattan distance over the element's
    equivalent-permutation group; ties break toward the first member in
    group enumeration order.
    """
    costs, best = _best_orderings(as_points(pred_points)[None], [gt.points], [gt.kind], False)
    return PointAssignment(perm=gt.group().members[int(best[0, 0])], cost=float(costs[0, 0]))


def _costs(points, scores, gt_points, gt_kinds, gt_classes, cfg, fixed_order):
    """Class + position cost matrix (P, G), plus the (costs, best) of
    :func:`_best_orderings` it added, or None under the Chamfer position
    cost."""
    table = _kernels.focal_cost_table(scores, cfg.focal_gamma, cfg.focal_alpha)
    cost = table[:, list(gt_classes)]
    if cfg.position_cost is PositionCost.CHAMFER:
        return cost + chamfer_distances(points, gt_points), None
    search = _best_orderings(points, gt_points, gt_kinds, fixed_order)
    return cost + search[0], search


def match_arrays(
    points: np.ndarray,
    scores: np.ndarray,
    gt_points,
    gt_kinds,
    gt_classes,
    cfg: CostConfig = CostConfig(),
    fixed_order: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hierarchical matching on arrays: the core of :func:`hierarchical_match`.

    points (P, n, 2) and scores (P, 3) describe the predictions; ground
    truth g has points ``gt_points[g]`` (n, 2), kind ``gt_kinds[g]`` and
    class ``gt_classes[g]``.  Inputs are trusted: callers check them with
    :func:`check_match_inputs`.

    Returns ``(rows, cols, orderings, costs)``, one entry per matched pair,
    with ``rows`` ascending: pair i joins prediction ``rows[i]`` to ground
    truth ``cols[i]``, ``orderings[i]`` indexes the members of that ground
    truth's permutation group, and ``costs[i]`` is the pair's point-level
    Manhattan cost under that ordering.  Under the point2point cost, each
    pair's ordering and cost are the ones the cost matrix already computed;
    under Chamfer, the diagonal of one ordering search over the matched
    elements.
    """
    cost, search = _costs(points, scores, gt_points, gt_kinds, gt_classes, cfg, fixed_order)
    rows, cols = linear_sum_assignment(cost)  # rows ascending, as scipy documents
    at = rows, cols
    if search is None:  # Chamfer cost: matched prediction i against matched ground truth i
        gts, kinds = [gt_points[g] for g in cols], [gt_kinds[g] for g in cols]
        search = _best_orderings(points[rows], gts, kinds, fixed_order)
        at = np.diag_indices(len(rows))
    costs, best = search
    return rows, cols, best[at], costs[at]


def stack_predictions(preds: list[PredictedElement]) -> tuple[np.ndarray, np.ndarray]:
    """Points (P, n, 2) and scores (P, 3) of equally sized predictions."""
    counts = sorted({len(p.points) for p in preds})
    if len(counts) > 1:
        raise ValueError(f"predictions have differing point counts {counts}")
    if not preds:
        return np.zeros((0, 0, 2)), np.zeros((0, 3))
    return np.stack([p.points for p in preds]), np.stack([p.scores for p in preds])


def _gt_arrays(gts: list[MapElement]):
    return (
        [gt.points for gt in gts],
        [gt.kind for gt in gts],
        [int(gt.element_class) for gt in gts],
    )


def check_match_inputs(n_preds: int, gts: list[MapElement], n_points: int | None = None) -> None:
    """Raise unless ``n_preds`` predictions can cover ``gts``.

    With ``n_points``, also raise unless every ground truth has that many
    points, as the Manhattan position cost needs.
    """
    if n_preds < len(gts):
        raise CapacityError(
            f"{n_preds} predictions cannot cover {len(gts)} ground-truth elements"
        )
    if n_points is None:
        return
    for g, gt in enumerate(gts):
        if gt.n_points != n_points:
            raise ValueError(
                f"point count mismatch: predictions have {n_points} points, "
                f"ground truth {g} has {gt.n_points}"
            )


def _cost_matrix(
    preds: list[PredictedElement],
    gts: list[MapElement],
    cfg: CostConfig,
    fixed_order: bool,
) -> np.ndarray:
    points, scores = stack_predictions(preds)
    return _costs(points, scores, *_gt_arrays(gts), cfg, fixed_order)[0]


def instance_match(
    preds: list[PredictedElement],
    gts: list[MapElement],
    cfg: CostConfig = CostConfig(),
    fixed_order: bool = False,
) -> InstanceAssignment:
    """Globally optimal prediction-to-ground-truth assignment.

    Solves the rectangular assignment problem over the class + position
    cost matrix; predictions left without a ground truth are implicitly
    no-object.  ``fixed_order`` restricts the point2point position cost
    to the stored point order (the fixed-permutation baseline).  The
    point2point cost needs every element to have the same point count.
    """
    points, scores = stack_predictions(preds)
    manhattan = cfg.position_cost is PositionCost.POINT2POINT
    check_match_inputs(len(preds), gts, points.shape[1] if manhattan else None)
    cost, _ = _costs(points, scores, *_gt_arrays(gts), cfg, fixed_order)
    rows, cols = linear_sum_assignment(cost)
    return InstanceAssignment(pairs=tuple(zip(rows.tolist(), cols.tolist())))


def hierarchical_match(
    preds: list[PredictedElement],
    gts: list[MapElement],
    cfg: CostConfig = CostConfig(),
    fixed_order: bool = False,
) -> HierarchicalMatch:
    """Instance-level matching followed by per-pair point-level matching.

    With ``fixed_order`` the point-level step is skipped in favor of the
    identity ordering, modeling supervision with a single imposed
    permutation.  Every element must have the same point count.
    """
    points, scores = stack_predictions(preds)
    check_match_inputs(len(preds), gts, points.shape[1])
    match = match_arrays(points, scores, *_gt_arrays(gts), cfg, fixed_order)
    rows, cols, orderings, costs = (a.tolist() for a in match)
    point_level = {
        (p, g): PointAssignment(perm=gts[g].group().members[k], cost=c)
        for p, g, k, c in zip(rows, cols, orderings, costs)
    }
    return HierarchicalMatch(
        instance=InstanceAssignment(pairs=tuple(zip(rows, cols))),
        point_level=point_level,
    )
