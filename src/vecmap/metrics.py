"""Chamfer-distance average-precision evaluation.

Predictions are pooled per class across scenes, ranked by that class's
confidence, and greedily matched to same-scene ground truth under a
Chamfer-distance threshold in meters: each takes its nearest ground truth
not yet taken, and is a true positive if that is nearer than the
threshold.  AP per (class, threshold) comes from 101-point interpolation
of the precision-recall curve; the final score averages over thresholds
and then classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _kernels
from .geometry import ElementClass, MapElement, SceneRange, as_points, denormalize

if TYPE_CHECKING:  # matching imports this module for its Chamfer cost
    from .matching import PredictedElement

DEFAULT_THRESHOLDS = (0.5, 1.0, 1.5)


@dataclass(frozen=True)
class APConfig:
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    interpolation_points: int = 101
    score_floor: float = 0.0

    def __post_init__(self):
        t = self.thresholds
        if not t or any(x <= 0 for x in t) or any(a >= b for a, b in zip(t, t[1:])):
            raise ValueError("thresholds must be strictly positive and increasing")


@dataclass(frozen=True)
class APCounts:
    """What one AP cell is made of: its ranked candidates split into true
    and false positives, and the ground truth they could match."""

    tp: int
    fp: int
    n_gt: int


@dataclass(frozen=True)
class APReport:
    per_class_per_threshold: dict[tuple[ElementClass, float], float]
    per_class_ap: dict[ElementClass, float]
    mean_ap: float
    counts: dict[tuple[ElementClass, float], APCounts]


def chamfer_distance(a, b) -> float:
    """Symmetric mean Chamfer distance between two point sets, in their units."""
    a = as_points(a)
    b = as_points(b)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("chamfer distance needs non-empty point sets")
    return float(_kernels.chamfer_mean(a, b))


def _stack_by_count(point_sets) -> list[tuple[list[int], np.ndarray]]:
    """(indices, stacked (k, n, 2) points) per distinct point count n."""
    groups: dict[int, list[int]] = {}
    for i, pts in enumerate(point_sets):
        groups.setdefault(len(pts), []).append(i)
    return [(idx, np.stack([point_sets[i] for i in idx])) for idx in groups.values()]


def chamfer_distances(a_sets, b_sets) -> np.ndarray:
    """(len(a_sets), len(b_sets)) Chamfer distances between point sets.

    Entry (p, g) equals ``chamfer_distance(a_sets[p], b_sets[g])``.  The
    sets may differ in point count: one kernel call covers each pair of
    counts.  Inputs are trusted to be non-empty, finite (n, 2) arrays.
    """
    out = np.empty((len(a_sets), len(b_sets)))
    b_groups = _stack_by_count(b_sets)
    for ai, a in _stack_by_count(a_sets):
        for bi, b in b_groups:
            out[np.ix_(ai, bi)] = _kernels.chamfer_matrix(a, b)
    return out


def _interpolated_ap(tp_flags: list[bool], n_gt: int, n_interp: int) -> float:
    """101-point interpolated AP from confidence-ordered TP/FP flags."""
    if n_gt == 0 or not tp_flags:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    fp = np.cumsum(~np.asarray(tp_flags, dtype=bool))
    recall = tp / n_gt
    precision = tp / (tp + fp)
    levels = np.linspace(0.0, 1.0, n_interp)
    ap = 0.0
    for r in levels:
        mask = recall >= r - 1e-12
        ap += precision[mask].max() if mask.any() else 0.0
    return ap / n_interp


def _scene_distances(preds, gts, scene_range: SceneRange) -> np.ndarray:
    """One scene's (prediction, ground truth) Chamfer distances in meters."""
    if not preds:
        return np.empty((0, len(gts)))
    # Checked and mapped to meters as one array, then split per prediction.
    metric = denormalize(np.concatenate([p.points for p in preds]), scene_range)
    ends = np.cumsum([len(p.points) for p in preds])[:-1]
    return chamfer_distances(np.split(metric, ends), [gt.points for gt in gts])


def _greedy_flags(ranked, gt_idx: list[list[int]], tau: float) -> list[bool]:
    """TP/FP flag of each candidate, taken in rank order.

    A candidate is its scene and its distances to that scene's ground
    truth of the class.  It claims the nearest ground truth not yet
    claimed (the first on ties) and is a TP if that is closer than tau.
    """
    used = [[False] * len(g) for g in gt_idx]
    flags = []
    for si, row in ranked:
        taken = used[si]
        best_d, best_g = math.inf, -1
        for g, d in enumerate(row):
            if d < best_d and not taken[g]:
                best_d, best_g = d, g
        hit = best_g >= 0 and best_d < tau
        if hit:
            taken[best_g] = True
        flags.append(hit)
    return flags


def evaluate_ap(
    pred_scenes: list[list[PredictedElement]],
    gt_scenes: list[list[MapElement]],
    cfg: APConfig = APConfig(),
    scene_range: SceneRange = SceneRange(),
) -> APReport:
    """Evaluate predicted scenes against aligned ground-truth scenes.

    Predicted points are normalized; they are mapped back to meters via
    ``scene_range`` so thresholds keep their physical meaning.  Each
    scene's Chamfer distances are computed once and serve every class
    and threshold.
    """
    if len(pred_scenes) != len(gt_scenes):
        raise ValueError(
            f"scene count mismatch: {len(pred_scenes)} predicted vs {len(gt_scenes)} ground truth"
        )
    for si, (preds, gts) in enumerate(zip(pred_scenes, gt_scenes)):
        for what, elements in (("prediction", preds), ("ground truth", gts)):
            for i, el in enumerate(elements):
                if len(el.points) == 0:
                    raise ValueError(f"scene {si}: {what} {i} has an empty point set")

    scores = [[p.scores.tolist() for p in preds] for preds in pred_scenes]
    dists = [
        _scene_distances(preds, gts, scene_range)
        for preds, gts in zip(pred_scenes, gt_scenes)
    ]

    per_cell: dict[tuple[ElementClass, float], float] = {}
    counts: dict[tuple[ElementClass, float], APCounts] = {}
    for cls in ElementClass:
        gt_idx = [
            [g for g, gt in enumerate(gts) if gt.element_class is cls] for gts in gt_scenes
        ]
        n_gt = sum(len(g) for g in gt_idx)
        candidates = [
            (s[cls], si, pi)
            for si, scene_scores in enumerate(scores)
            for pi, s in enumerate(scene_scores)
            if s[cls] > cfg.score_floor
        ]
        # Descending score; ties keep stable scene/element order.
        candidates.sort(key=lambda c: -c[0])
        # Distances to this class's ground truth, as rows of Python floats.
        rows = [d[:, idx].tolist() for d, idx in zip(dists, gt_idx)]
        ranked = [(si, rows[si][pi]) for _, si, pi in candidates]
        for tau in cfg.thresholds:
            flags = _greedy_flags(ranked, gt_idx, tau)
            per_cell[(cls, tau)] = _interpolated_ap(flags, n_gt, cfg.interpolation_points)
            tp = sum(flags)
            counts[(cls, tau)] = APCounts(tp=tp, fp=len(flags) - tp, n_gt=n_gt)

    per_class = {
        cls: float(np.mean([per_cell[(cls, tau)] for tau in cfg.thresholds]))
        for cls in ElementClass
    }
    mean_ap = float(np.mean(list(per_class.values())))
    return APReport(
        per_class_per_threshold=per_cell,
        per_class_ap=per_class,
        mean_ap=mean_ap,
        counts=counts,
    )
