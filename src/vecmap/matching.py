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
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import _kernels
from .geometry import (
    ElementClass,
    ElementKind,
    MapElement,
    PermutationDescriptor,
    as_points,
    permutation_group,
)

#: Floor keeping log terms finite; also used in the classification loss.
FOCAL_EPS = 1e-12


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
        if np.any(scores < 0) or np.any(scores > 1):
            raise ValueError("scores must lie in [0, 1]")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "points", as_points(self.points))


@dataclass(frozen=True)
class CostConfig:
    position_cost: PositionCost = PositionCost.POINT2POINT
    focal_gamma: float = 2.0
    focal_alpha: float = 0.25

    def __post_init__(self):
        if self.focal_gamma < 0:
            raise ValueError("focal_gamma must be >= 0")
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
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.abs(a - b).sum())


def _focal_cost(p: float, gamma: float, alpha: float) -> float:
    pos = alpha * (1.0 - p) ** gamma * -math.log(p + FOCAL_EPS)
    neg = (1.0 - alpha) * p**gamma * -math.log(1.0 - p + FOCAL_EPS)
    return pos - neg


def focal_class_cost(
    scores, target_class: ElementClass, cfg: CostConfig = CostConfig()
) -> float:
    """Focal matching cost for one class slot: positive minus negative term.

    Lower is better; approaches -inf (capped by the epsilon floor) as the
    target-class score approaches 1.
    """
    p = float(np.asarray(scores)[int(target_class)])
    return _focal_cost(p, cfg.focal_gamma, cfg.focal_alpha)


def class_cost_table(scores: np.ndarray, cfg: CostConfig = CostConfig()) -> np.ndarray:
    """(P, 3) table of :func:`focal_class_cost` for every prediction and class.

    Evaluated entry by entry with scalar ``math.log`` and ``**``: numpy's
    vectorized ``log`` and ``power`` may round differently in the last ulp.
    """
    gamma, alpha = cfg.focal_gamma, cfg.focal_alpha
    table = [_focal_cost(p, gamma, alpha) for p in np.ravel(scores).tolist()]
    return np.array(table, dtype=np.float64).reshape(-1, 3)


def _search(pred_points: np.ndarray, gt_points: np.ndarray, kind: ElementKind):
    """Best ordering of one ground truth against each prediction: (costs, best)."""
    maps = permutation_group(kind, len(gt_points)).index_maps()
    return _kernels.min_manhattan_over_perms(pred_points, gt_points, maps)


def point_level_match(pred_points, gt: MapElement) -> PointAssignment:
    """Best ordering of the ground-truth point set against a prediction.

    Minimizes the summed Manhattan distance over the element's
    equivalent-permutation group; ties break toward the first member in
    group enumeration order.
    """
    pred = as_points(pred_points)
    if len(pred) != gt.n_points:
        raise ValueError(
            f"point count mismatch: {len(pred)} predicted vs {gt.n_points} ground truth"
        )
    costs, best = _search(pred[None, :, :], gt.points, gt.kind)
    return PointAssignment(perm=gt.group().members[int(best[0])], cost=float(costs[0]))


def chamfer_position_cost(pred_points, gt_points) -> float:
    """Symmetric mean Chamfer distance (ablation alternative cost)."""
    a = as_points(pred_points)
    b = as_points(gt_points)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("chamfer cost needs non-empty point sets")
    return float(_kernels.chamfer_mean(a, b))


@dataclass(frozen=True)
class ArrayMatch:
    """Array form of a hierarchical match, one entry per matched pair.

    Pairs ascend by prediction index.  ``orderings[i]`` indexes the members
    of ground truth ``cols[i]``'s permutation group; ``costs[i]`` is the
    point-level Manhattan cost of the pair under that ordering.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    orderings: tuple[int, ...]
    costs: tuple[float, ...]


def _costs(points, scores, gt_points, gt_kinds, gt_classes, cfg, fixed_order):
    """Class + position cost matrix (P, G), plus per ground truth the
    (costs, best ordering) of the order-free point2point search, else None."""
    cost = class_cost_table(scores, cfg)[:, list(gt_classes)]
    searches = []
    for g, (gt_pts, kind) in enumerate(zip(gt_points, gt_kinds)):
        search = None
        if cfg.position_cost is PositionCost.CHAMFER:
            for p in range(len(points)):
                cost[p, g] += chamfer_position_cost(points[p], gt_pts)
        elif fixed_order:
            identity = np.arange(len(gt_pts))[None, :]
            pos, _ = _kernels.min_manhattan_over_perms(points, gt_pts, identity)
            cost[:, g] += pos
        else:
            search = _search(points, gt_pts, kind)
            cost[:, g] += search[0]
        searches.append(search)
    return cost, searches


def _assign(points, scores, gt_points, gt_kinds, gt_classes, cfg, fixed_order):
    """Instance-level assignment: (rows ascending, cols, searches of _costs)."""
    cost, searches = _costs(points, scores, gt_points, gt_kinds, gt_classes, cfg, fixed_order)
    rows, cols = linear_sum_assignment(cost)
    order = np.argsort(rows, kind="stable")
    return rows[order].tolist(), cols[order].tolist(), searches


def match_arrays(
    points: np.ndarray,
    scores: np.ndarray,
    gt_points,
    gt_kinds,
    gt_classes,
    cfg: CostConfig = CostConfig(),
    fixed_order: bool = False,
) -> ArrayMatch:
    """Hierarchical matching on arrays: the core of :func:`hierarchical_match`.

    points (P, n, 2) and scores (P, 3) describe the predictions; ground
    truth g has points ``gt_points[g]`` (n, 2), kind ``gt_kinds[g]`` and
    class ``gt_classes[g]``.  Inputs are trusted: callers check them with
    :func:`check_match_inputs`.  The order-free point2point ordering of
    each pair is the argmin the cost matrix already computed.
    """
    if not len(gt_points):
        return ArrayMatch((), (), (), ())
    rows, cols, searches = _assign(
        points, scores, gt_points, gt_kinds, gt_classes, cfg, fixed_order
    )
    orderings, costs = [], []
    for p, g in zip(rows, cols):
        if fixed_order:
            k, c = 0, float(np.abs(points[p] - gt_points[g]).sum())
        elif searches[g] is None:
            pos, best = _search(points[p][None], gt_points[g], gt_kinds[g])
            k, c = int(best[0]), float(pos[0])
        else:
            k, c = int(searches[g][1][p]), float(searches[g][0][p])
        orderings.append(k)
        costs.append(c)
    return ArrayMatch(tuple(rows), tuple(cols), tuple(orderings), tuple(costs))


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
    if not gts:
        return InstanceAssignment(pairs=())
    rows, cols, _ = _assign(points, scores, *_gt_arrays(gts), cfg, fixed_order)
    return InstanceAssignment(pairs=tuple(zip(rows, cols)))


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
    m = match_arrays(points, scores, *_gt_arrays(gts), cfg, fixed_order)
    point_level = {
        (p, g): PointAssignment(perm=gts[g].group().members[k], cost=c)
        for p, g, k, c in zip(m.rows, m.cols, m.orderings, m.costs)
    }
    return HierarchicalMatch(
        instance=InstanceAssignment(pairs=tuple(zip(m.rows, m.cols))),
        point_level=point_level,
    )
