"""Chamfer-distance average-precision evaluation.

Predictions are pooled per class across scenes, ranked by that class's
confidence, and greedily matched to same-scene ground truth under a
Chamfer-distance threshold in meters: each takes its nearest ground truth
not yet taken, and is a true positive if that is nearer than the
threshold.  AP per (class, threshold) comes from 101-point interpolation
of the precision-recall curve; the final score averages over thresholds
and then classes.

:func:`evaluate_ap` runs on per-scene arrays and trusts their values: they
were checked where they entered, by the file readers (``sceneio``) or by
:class:`PredictedElement` and :class:`MapElement`.
It checks only what is its own to check: scene counts, that each scene
has one score row per predicted point set and one class (0, 1 or 2) per
ground-truth point set, and empty point sets.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _kernels
from .geometry import ElementClass, MapElement, SceneRange, as_points, denormalize_stack

if TYPE_CHECKING:  # matching imports this module for its Chamfer cost
    from .matching import PredictedElement

DEFAULT_THRESHOLDS = (0.5, 1.0, 1.5)
_CLASSES = frozenset(ElementClass)


@dataclass(frozen=True)
class APConfig:
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    interpolation_points: int = 101
    score_floor: float = 0.0

    def __post_init__(self):
        t = self.thresholds
        # Written so that NaN, which fails every comparison, is rejected too.
        if not t or not all(x > 0 for x in t) or not all(a < b for a, b in zip(t, t[1:])):
            raise ValueError("thresholds must be strictly positive and increasing")
        if self.interpolation_points < 1:
            raise ValueError("interpolation_points must be >= 1")
        if not np.isfinite(self.score_floor):
            raise ValueError("score_floor must be finite")


@dataclass(frozen=True)
class APCounts:
    """What one AP cell is made of: its ranked candidates split into true
    and false positives, and the ground truth they could match."""

    tp: int
    fp: int
    n_gt: int


def _stack_points(point_sets: list[np.ndarray]) -> np.ndarray | list[np.ndarray]:
    """One (E, n, 2) array of E point sets of n points each, else the list.
    np.array builds the same bits as np.stack here, in under half the time."""
    return np.array(point_sets) if len({len(p) for p in point_sets}) == 1 else point_sets


@dataclass(frozen=True)
class ScenePredictions:
    """One scene's predictions as arrays, in normalized coordinates.

    ``points`` is (E, n, 2), or a list of E (n_i, 2) arrays when point
    counts differ; ``scores`` is (E, 3), each in [0, 1] and never NaN.
    """

    points: np.ndarray | list[np.ndarray]
    scores: np.ndarray

    @classmethod
    def stack(cls, preds: list[PredictedElement]) -> ScenePredictions:
        """Arrays of already validated predictions; nothing is checked again."""
        points = _stack_points([p.points for p in preds])
        return cls(points, np.array([p.scores for p in preds]).reshape(-1, 3))


@dataclass(frozen=True)
class SceneGroundTruth:
    """One scene's ground truth as arrays, in meters: finite ``points`` shaped as
    :class:`ScenePredictions`'s, and ``classes`` (G,); ``KIND_FOR_CLASS`` gives each kind."""

    points: np.ndarray | list[np.ndarray]
    classes: np.ndarray

    @classmethod
    def stack(cls, elements: list[MapElement]) -> SceneGroundTruth:
        """Arrays of already validated elements; nothing is checked again."""
        classes = np.array([el.element_class for el in elements], dtype=np.int64)
        return cls(_stack_points([el.points for el in elements]), classes)


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


def _stack_by_count(point_sets) -> list[tuple[Sequence[int], np.ndarray]]:
    """(indices, stacked (k, n, 2) points) per point count n; a stack is one
    group, itself, and an empty stack none, whatever its shape."""
    if isinstance(point_sets, np.ndarray):
        return [(range(len(point_sets)), point_sets)] if len(point_sets) else []
    groups: dict[int, list[int]] = {}
    for i, pts in enumerate(point_sets):
        groups.setdefault(len(pts), []).append(i)
    return [(idx, np.stack([point_sets[i] for i in idx])) for idx in groups.values()]


def chamfer_distances(a_sets, b_sets, cutoff: float = np.inf) -> np.ndarray:
    """(len(a_sets), len(b_sets)) Chamfer distances between point sets.

    Entry (p, g) equals ``chamfer_distance(a_sets[p], b_sets[g])``, or +inf
    where ``_kernels.chamfer_matrix`` skips the pair for ``cutoff``.  The
    sets may differ in point count: one kernel call covers each pair of
    counts.  Inputs are trusted to be non-empty, finite (n, 2) arrays.
    """
    out = np.empty((len(a_sets), len(b_sets)))
    b_groups = _stack_by_count(b_sets)
    for ai, a in _stack_by_count(a_sets):
        for bi, b in b_groups:
            out[np.ix_(ai, bi)] = _kernels.chamfer_matrix(a, b, cutoff)
    return out


def _interpolated_ap(tp_flags, n_gt: int, n_interp: int) -> float:
    """101-point interpolated AP from confidence-ordered TP/FP flags."""
    flags = np.asarray(tp_flags, dtype=bool)
    if n_gt == 0 or not len(flags):
        return 0.0
    tp = np.cumsum(flags, dtype=np.float64)
    fp = np.cumsum(~flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    levels = np.linspace(0.0, 1.0, n_interp)
    # Recall never falls, so the points at or above a recall level are a
    # suffix, and their best precision is a reverse running maximum; 0
    # past the end.  Levels are added in order, as a running sum would.
    best = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    first = np.searchsorted(recall, levels - 1e-12)
    return float(np.cumsum(best[first])[-1]) / n_interp


def _to_meters(points, scene_range: SceneRange):
    """Normalized prediction points in meters: ``geometry.denormalize_stack``
    of the whole stack at once (or of each set of a ragged list)."""
    if isinstance(points, np.ndarray):
        return denormalize_stack(points, scene_range)
    return [denormalize_stack(p, scene_range) for p in points]


def _empty_index(point_sets) -> int | None:
    """Index of the first empty point set, if any; on a stack, a shape check."""
    if isinstance(point_sets, np.ndarray):
        return 0 if point_sets.size == 0 and len(point_sets) else None
    return next((i for i, p in enumerate(point_sets) if len(p) == 0), None)


def _greedy_flags(dist: np.ndarray, tau: float) -> np.ndarray:
    """TP flags (S, K) of ranked candidates, each scene's in rank order.

    ``dist[s, k]`` holds the distances of scene s's k-th candidate to the
    scene's ground truth of the class, padded with inf (as are missing
    candidates).  A candidate claims the nearest ground truth not yet
    claimed (the first on ties) and is a TP if that is closer than tau.
    Scenes share no ground truth, so every scene takes its k-th step at once.
    """
    n_scenes, n_steps, width = dist.shape
    flags = np.zeros((n_scenes, n_steps), dtype=bool)
    if width == 0:
        return flags
    taken = np.zeros((n_scenes, width), dtype=bool)
    scenes = np.arange(n_scenes)
    for k in range(n_steps):
        d = np.where(taken, np.inf, dist[:, k])
        g = d.argmin(axis=1)
        hit = d[scenes, g] < tau
        taken[scenes[hit], g[hit]] = True
        flags[:, k] = hit
    return flags


def evaluate_ap(
    pred_scenes: Sequence[ScenePredictions | list[PredictedElement]],
    gt_scenes: Sequence[SceneGroundTruth | list[MapElement]],
    cfg: APConfig = APConfig(),
    scene_range: SceneRange | Sequence[SceneRange] = SceneRange(),
) -> APReport:
    """Evaluate predicted scenes against aligned ground-truth scenes.

    Each scene's predictions are :class:`ScenePredictions`, or a list of
    :class:`PredictedElement`, and its ground truth :class:`SceneGroundTruth`,
    or a list of :class:`MapElement`; a list is stacked into one.  Predicted
    points are normalized; they are mapped back to meters with their scene's
    range (``scene_range`` is one range for every scene, or one per scene),
    so thresholds keep their physical meaning.  Each scene's
    Chamfer distances are computed once and serve every class and
    threshold.

    A pair whose bounding boxes lie at least twice the largest threshold
    apart is not computed: its distance is at least that gap, and it is
    read as +inf.  No cell can change: ``_greedy_flags`` reads distances
    only through an argmin and ``< tau``.  Where a candidate's nearest free
    distance is below tau, every skipped one was above it, so the argmin is
    the same; elsewhere the candidate misses either way.
    """
    n_scenes = len(pred_scenes)
    if n_scenes != len(gt_scenes):
        raise ValueError(
            f"scene count mismatch: {n_scenes} predicted vs {len(gt_scenes)} ground truth"
        )
    ranges = [scene_range] * n_scenes if isinstance(scene_range, SceneRange) else scene_range
    if len(ranges) != n_scenes:
        raise ValueError(f"{len(ranges)} scene ranges for {n_scenes} scenes")
    scenes = [
        s if isinstance(s, ScenePredictions) else ScenePredictions.stack(s)
        for s in pred_scenes
    ]
    gts = [g if isinstance(g, SceneGroundTruth) else SceneGroundTruth.stack(g) for g in gt_scenes]
    for si, (scene, gt) in enumerate(zip(scenes, gts)):
        E, G = len(scene.points), len(gt.points)
        if np.shape(scene.scores) != (E, 3):
            raise ValueError(f"scene {si}: scores must have shape ({E}, 3) for {E} "
                             f"predicted point sets, got {np.shape(scene.scores)}")
        classes = np.asarray(gt.classes)  # may be a list
        if classes.shape != (G,) or not _CLASSES.issuperset(classes.tolist()):
            raise ValueError(f"scene {si}: classes must be {G} classes, one per ground-truth "
                             f"point set, each 0, 1 or 2, got {classes.tolist()}")
        for what, sets in (("prediction", scene.points), ("ground truth", gt.points)):
            i = _empty_index(sets)
            if i is not None:
                raise ValueError(f"scene {si}: {what} {i} has an empty point set")

    dists = [
        chamfer_distances(_to_meters(scene.points, sr), gt.points, 2 * cfg.thresholds[-1])
        for scene, gt, sr in zip(scenes, gts, ranges)
    ]
    # Every prediction of every scene, in scene then element order.
    scores = np.concatenate([np.empty((0, 3)), *(s.scores for s in scenes)])
    sizes = [len(s.scores) for s in scenes]
    scene_of = np.repeat(np.arange(n_scenes), sizes)
    offsets = np.cumsum([0, *sizes])

    per_cell: dict[tuple[ElementClass, float], float] = {}
    counts: dict[tuple[ElementClass, float], APCounts] = {}
    for cls in ElementClass:
        gt_idx = [np.flatnonzero(np.equal(gt.classes, cls)) for gt in gts]  # classes may be a list
        n_gt = sum(len(g) for g in gt_idx)
        # Each prediction's distances to its scene's ground truth of this
        # class, padded with inf to a common width.
        padded = np.full((len(scores), max(map(len, gt_idx), default=0)), np.inf)
        for d, idx, start in zip(dists, gt_idx, offsets):
            padded[start:start + len(d), :len(idx)] = d[:, idx]
        class_scores = scores[:, cls]
        candidates = np.flatnonzero(class_scores > cfg.score_floor)
        # Descending score; ties keep scene/element order (scores are never NaN).
        order = candidates[np.argsort(-class_scores[candidates], kind="stable")]
        # Each candidate's scene, and its step: its rank among that scene's.
        scene = scene_of[order]
        by_scene = np.argsort(scene, kind="stable")
        grouped = scene[by_scene]
        step = np.empty_like(by_scene)
        step[by_scene] = np.arange(len(order)) - np.searchsorted(grouped, grouped)
        dist = np.full((n_scenes, step.max(initial=-1) + 1, padded.shape[1]), np.inf)
        dist[scene, step] = padded[order]
        for tau in cfg.thresholds:
            flags = _greedy_flags(dist, tau)[scene, step]
            per_cell[(cls, tau)] = _interpolated_ap(flags, n_gt, cfg.interpolation_points)
            tp = int(flags.sum())
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
