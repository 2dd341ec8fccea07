"""Chamfer-distance average-precision evaluation.

Predictions are pooled per class across scenes, ranked by that class's
confidence, and greedily matched to same-scene ground truth under a
Chamfer-distance threshold in meters.  AP per (class, threshold) comes
from 101-point interpolation of the precision-recall curve; the final
score averages over thresholds and then classes.
"""

from __future__ import annotations

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
class APReport:
    per_class_per_threshold: dict[tuple[ElementClass, float], float]
    per_class_ap: dict[ElementClass, float]
    mean_ap: float


def chamfer_distance(a, b) -> float:
    """Symmetric mean Chamfer distance between two point sets, in their units."""
    a = as_points(a)
    b = as_points(b)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("chamfer distance needs non-empty point sets")
    return float(_kernels.chamfer_mean(a, b))


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


def evaluate_ap(
    pred_scenes: list[list[PredictedElement]],
    gt_scenes: list[list[MapElement]],
    cfg: APConfig = APConfig(),
    scene_range: SceneRange = SceneRange(),
) -> APReport:
    """Evaluate predicted scenes against aligned ground-truth scenes.

    Predicted points are normalized; they are mapped back to meters via
    ``scene_range`` so thresholds keep their physical meaning.
    """
    if len(pred_scenes) != len(gt_scenes):
        raise ValueError(
            f"scene count mismatch: {len(pred_scenes)} predicted vs {len(gt_scenes)} ground truth"
        )

    # (scene, scores, metric points), pooled across scenes.
    pooled = [
        (si, pred.scores, denormalize(pred.points, scene_range))
        for si, preds in enumerate(pred_scenes)
        for pred in preds
    ]

    per_cell: dict[tuple[ElementClass, float], float] = {}
    for cls in ElementClass:
        gt_by_scene = [
            [gt.points for gt in gts if gt.element_class is cls] for gts in gt_scenes
        ]
        n_gt = sum(len(g) for g in gt_by_scene)
        candidates = [
            (float(scores[cls]), si, pts)
            for si, scores, pts in pooled
            if scores[cls] > cfg.score_floor
        ]
        # Descending score; ties keep stable scene/element order.
        order = sorted(range(len(candidates)), key=lambda i: -candidates[i][0])

        for tau in cfg.thresholds:
            used = [np.zeros(len(g), dtype=bool) for g in gt_by_scene]
            flags = []
            for i in order:
                _, si, pts = candidates[i]
                best_d, best_g = np.inf, -1
                for gi, gt_pts in enumerate(gt_by_scene[si]):
                    if used[si][gi]:
                        continue
                    d = chamfer_distance(pts, gt_pts)
                    if d < best_d:
                        best_d, best_g = d, gi
                if best_g >= 0 and best_d < tau:
                    used[si][best_g] = True
                    flags.append(True)
                else:
                    flags.append(False)
            per_cell[(cls, tau)] = _interpolated_ap(flags, n_gt, cfg.interpolation_points)

    per_class = {
        cls: float(np.mean([per_cell[(cls, tau)] for tau in cfg.thresholds]))
        for cls in ElementClass
    }
    mean_ap = float(np.mean(list(per_class.values())))
    return APReport(
        per_class_per_threshold=per_cell, per_class_ap=per_class, mean_ap=mean_ap
    )
