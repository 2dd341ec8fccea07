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
from ._kernels import _pure
from .geometry import (
    ElementClass,
    ElementKind,
    KIND_FOR_CLASS,
    MapElement,
    PermutationDescriptor,
    as_points,
    permutation_group,
)
from .metrics import SceneGroundTruth, ScenePredictions, chamfer_distances


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
        if not isinstance(self.position_cost, PositionCost):
            raise ValueError("position_cost must be a PositionCost")
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
    return _pure.focal_cost(p, cfg.focal_gamma, cfg.focal_alpha)


def _orderings(kind: ElementKind | None, n: int) -> np.ndarray:
    """Index maps searched for a ground truth: its kind's group, or with
    ``kind`` None the stored order alone (the fixed-order baseline)."""
    return np.arange(n)[None, :] if kind is None else permutation_group(kind, n).index_maps()


def point_level_match(pred_points, gt: MapElement) -> PointAssignment:
    """Best ordering of the ground-truth point set against a prediction.

    Minimizes the summed Manhattan distance over the element's
    equivalent-permutation group; ties break toward the first member in
    group enumeration order.
    """
    maps = _orderings(gt.kind, gt.n_points)
    costs, best = _kernels.manhattan_matrix(as_points(pred_points)[None], gt.points[None], maps)
    return PointAssignment(perm=gt.group().members[int(best[0, 0])], cost=float(costs[0, 0]))


class BoundMatcher:
    """Point2point hierarchical matching against one ground-truth set.

    Binding checks the input once: ``points`` (P, n, 2) and ``scores`` (P, 3)
    are C-contiguous float64 holding a valid prediction, P is at least G
    (else :class:`CapacityError`), each of the G sets of ``gt_points`` has n
    points, and ``gt_classes`` gives each a class 0, 1 or 2.  It groups the
    ground truth by kind, ``KIND_FOR_CLASS`` of its class (one identity group
    with ``fixed_order``), and binds the kernels to ``points`` and ``scores``.
    A call reads their current contents, so a caller that updates them in
    place copies nothing: it checks only that the points are finite and the
    scores lie in [0, 1], copies in ``gt_points`` (the bound ground truth, each
    element under any ordering) and runs the kernels raw.
    """

    def __init__(self, points, scores, gt_points, gt_classes,
                 cfg: CostConfig = CostConfig(), fixed_order: bool = False):
        _pure.check_buffer("points", points, (*getattr(points, "shape", ())[:2], 2))
        (P, n), G = points.shape[:2], len(gt_points)
        _pure.check_buffer("scores", scores, (P, 3))
        if P < G:
            raise CapacityError(f"{P} predictions cannot cover {G} ground-truth elements")
        for g, pts in enumerate(gt_points):
            if len(pts) != n:
                raise ValueError(f"point count mismatch: predictions have {n} points, "
                                 f"ground truth {g} has {len(pts)}")
        self.classes = np.asarray(gt_classes, dtype=np.int64)
        kinds = [KIND_FOR_CLASS.get(c) for c in self.classes.ravel().tolist()]
        if self.classes.shape != (G,) or None in kinds:
            raise ValueError(f"gt_classes must be {G} classes, each 0, 1 or 2, "
                             f"got {self.classes.tolist()}")
        self.points, self.scores = points, scores
        _, table, self._focal = _kernels._bind_focal(scores, cfg.focal_gamma, cfg.focal_alpha)
        self.table = table.reshape(-1, 3)
        self.manhattan = np.empty((P, G))  # least cost per pair
        self.best = np.empty(self.manhattan.shape, dtype=np.int64)  # its first ordering
        gt_points = np.asarray(gt_points, dtype=np.float64)
        keys = [None] * G if fixed_order else kinds
        self._groups = []
        for key in dict.fromkeys(keys):
            gs = np.array([g for g, k in enumerate(keys) if k is key])
            _, *bound = _kernels._bind_manhattan(points, gt_points[gs], _orderings(key, n))
            self._groups.append((gs, *bound))

    def cost(self, gt_points) -> np.ndarray:
        """The (P, G) class + position cost matrix; refills ``manhattan`` and ``best``."""
        # Written so that NaN, which fails every comparison, is rejected too.
        if not (np.isfinite(self.points).all() and ((self.scores >= 0) & (self.scores <= 1)).all()):
            raise ValueError("predicted points must be finite and scores lie in [0, 1]")
        for gs, gts, costs, best, run in self._groups:
            np.take(gt_points, gs, axis=0, out=gts)
            run()
            self.manhattan[:, gs], self.best[:, gs] = costs, best
        self._focal()
        return self.table[:, self.classes] + self.manhattan

    def __call__(self, gt_points):
        """``(rows, cols, orderings, costs)``, as :func:`match_arrays` returns."""
        rows, cols = linear_sum_assignment(self.cost(gt_points))  # rows ascending
        return rows, cols, self.best[rows, cols], self.manhattan[rows, cols]


def match_arrays(
    points: np.ndarray,
    scores: np.ndarray,
    gt_points,
    gt_classes,
    cfg: CostConfig = CostConfig(),
    fixed_order: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hierarchical matching on arrays: the core of :func:`hierarchical_match`.

    points (P, n, 2) and scores (P, 3) describe the predictions; ground
    truth g has points ``gt_points[g]`` (n, 2) and class ``gt_classes[g]``,
    whose ``KIND_FOR_CLASS`` is its kind.  The :class:`BoundMatcher` bind
    checks them, and raises :class:`CapacityError` when P < G.

    Returns ``(rows, cols, orderings, costs)``, one entry per matched pair,
    with ``rows`` ascending: pair i joins prediction ``rows[i]`` to ground
    truth ``cols[i]``, ``orderings[i]`` indexes the members of that ground
    truth's permutation group, and ``costs[i]`` is the pair's point-level
    Manhattan cost under that ordering.  Each pair's ordering and cost are
    the ones one :class:`BoundMatcher` computed for every (P, G) pair; under
    Chamfer, the assignment solves the class + Chamfer cost instead.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    matcher = BoundMatcher(points, scores, gt_points, gt_classes, cfg, fixed_order)
    gt_points = np.asarray(gt_points, dtype=np.float64)  # converted once, not per kind
    if cfg.position_cost is PositionCost.POINT2POINT:
        return matcher(gt_points)
    matcher.cost(gt_points)
    chamfer = matcher.table[:, matcher.classes] + chamfer_distances(points, gt_points)
    rows, cols = linear_sum_assignment(chamfer)
    return rows, cols, matcher.best[rows, cols], matcher.manhattan[rows, cols]


def stack_predictions(preds: list[PredictedElement]) -> tuple[np.ndarray, np.ndarray]:
    """Points (P, n, 2) and scores (P, 3) of equally sized predictions."""
    if not preds:
        return np.zeros((0, 0, 2)), np.zeros((0, 3))
    stacked = ScenePredictions.stack(preds)
    if isinstance(stacked.points, list):
        counts = sorted({len(p) for p in stacked.points})
        raise ValueError(f"predictions have differing point counts {counts}")
    return stacked.points, stacked.scores


def _cost_matrix(
    preds: list[PredictedElement],
    gts: list[MapElement],
    cfg: CostConfig,
    fixed_order: bool,
) -> np.ndarray:
    """The checked class + position cost matrix (P, G) of :func:`instance_match`."""
    gt = SceneGroundTruth.stack(gts)
    if cfg.position_cost is PositionCost.POINT2POINT:
        matcher = BoundMatcher(*stack_predictions(preds), gt.points, gt.classes, cfg, fixed_order)
        return matcher.cost(gt.points)
    P, G = len(preds), len(gts)  # Chamfer: point counts may differ on either side
    if P < G:
        raise CapacityError(f"{P} predictions cannot cover {G} ground-truth elements")
    pred = ScenePredictions.stack(preds)
    table = _kernels.focal_cost_table(pred.scores, cfg.focal_gamma, cfg.focal_alpha)
    return table[:, gt.classes] + chamfer_distances(pred.points, gt.points)


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
    point2point cost needs every element to have the same point count; the
    Chamfer cost takes any counts on either side.
    """
    rows, cols = linear_sum_assignment(_cost_matrix(preds, gts, cfg, fixed_order))
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
    gt = SceneGroundTruth.stack(gts)
    match = match_arrays(points, scores, gt.points, gt.classes, cfg, fixed_order)
    rows, cols, orderings, costs = (a.tolist() for a in match)
    point_level = {
        (p, g): PointAssignment(perm=gts[g].group().members[k], cost=c)
        for p, g, k, c in zip(rows, cols, orderings, costs)
    }
    return HierarchicalMatch(
        instance=InstanceAssignment(pairs=tuple(zip(rows, cols))),
        point_level=point_level,
    )
