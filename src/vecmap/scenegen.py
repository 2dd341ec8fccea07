"""Seeded synthetic scenes and a controllable perturbation model.

Ground truth stands in for real map annotations: convex
quadrilateral-ish pedestrian crossings, smooth dividers spanning the
range longitudinally, and boundaries hugging the range edges.  Stored
point orderings are deliberately randomized (polygon start index,
polyline direction) so the start-point/direction ambiguity is present in
every fixture.

Randomness uses numpy's seeded PCG64 with one spawned child stream per
element, so adding elements never perturbs earlier draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ElementClass,
    ElementKind,
    MapElement,
    SceneRange,
    as_points,
    normalize,
    resample,
)
from .matching import PredictedElement

#: Prediction-slot budget scenes are padded to.
DEFAULT_SLOTS = 50
DEFAULT_N_POINTS = 20


def check_integers(config, **floors) -> None:
    """Raise ValueError, naming the field, unless each field of ``config``
    named in ``floors`` is an int or numpy integer at or above its floor.
    A bool is no integer here, as in ``sceneio``."""
    for name, low in floors.items():
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class SceneSpec:
    seed: int
    n_ped: int = 2
    n_divider: int = 3
    n_boundary: int = 2
    range: SceneRange = SceneRange()
    n_points: int = DEFAULT_N_POINTS

    def __post_init__(self):
        check_integers(self, seed=0, n_ped=0, n_divider=0, n_boundary=0, n_points=2)
        if self.n_ped + self.n_divider + self.n_boundary > DEFAULT_SLOTS:
            raise ValueError(f"total elements exceed the {DEFAULT_SLOTS}-slot budget")


class ScoreModel:
    ORACLE = "oracle"
    NOISY_CONFIDENCE = "noisy_confidence"


@dataclass(frozen=True)
class PerturbSpec:
    seed: int
    point_noise_sigma: float = 0.0
    drop_prob: float = 0.0
    false_positive_count: int = 0
    score_model: str = ScoreModel.ORACLE
    pad_to: int = DEFAULT_SLOTS

    def __post_init__(self):
        check_integers(self, seed=0, false_positive_count=0, pad_to=0)
        if not 0 <= self.point_noise_sigma < np.inf:  # NaN fails too
            raise ValueError("point_noise_sigma must be finite and >= 0")
        if not 0 <= self.drop_prob <= 1:
            raise ValueError("drop_prob must lie in [0, 1]")
        if self.score_model not in (ScoreModel.ORACLE, ScoreModel.NOISY_CONFIDENCE):
            raise ValueError(f"unknown score_model {self.score_model!r}")


@dataclass(frozen=True)
class MapScene:
    range: SceneRange
    n_points: int
    elements: tuple[MapElement, ...]


def _element_streams(seed: int, n: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def _randomize_order(pts: np.ndarray, kind: ElementKind, rng) -> np.ndarray:
    """Random start index (polygons) and traversal direction."""
    if kind is ElementKind.POLYGON:
        pts = np.roll(pts, int(rng.integers(len(pts))), axis=0)
    if rng.random() < 0.5:
        pts = pts[::-1].copy()
    return pts


def _ped_crossing(rng, sr: SceneRange, n_points: int) -> MapElement:
    cx = rng.uniform(sr.x_min + 4.0, sr.x_max - 4.0)
    cy = rng.uniform(sr.y_min + 5.0, sr.y_max - 5.0)
    w = rng.uniform(1.5, 3.5)
    h = rng.uniform(1.5, 3.5)
    theta = rng.uniform(0.0, np.pi)
    base = np.array([[-w, -h], [w, -h], [w, h], [-w, h]])
    # jitter corners while keeping convexity likely
    base += rng.uniform(-0.3, 0.3, size=base.shape)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    corners = base @ rot.T + [cx, cy]
    corners = _clip_to_range(corners, sr)
    pts = resample(corners, ElementKind.POLYGON, n_points)
    pts = _randomize_order(pts, ElementKind.POLYGON, rng)
    return MapElement(ElementClass.PED_CROSSING, ElementKind.POLYGON, pts)


def _divider(rng, sr: SceneRange, n_points: int) -> MapElement:
    x0 = rng.uniform(sr.x_min + 2.0, sr.x_max - 2.0)
    amp = rng.uniform(0.0, 2.0)
    phase = rng.uniform(0.0, 2 * np.pi)
    wavelen = rng.uniform(25.0, 60.0)
    y = np.linspace(sr.y_min + 1.0, sr.y_max - 1.0, 12)
    x = x0 + amp * np.sin(2 * np.pi * y / wavelen + phase)
    pts = resample(_clip_to_range(np.column_stack([x, y]), sr), ElementKind.POLYLINE, n_points)
    pts = _randomize_order(pts, ElementKind.POLYLINE, rng)
    return MapElement(ElementClass.DIVIDER, ElementKind.POLYLINE, pts)


def _boundary(rng, sr: SceneRange, n_points: int) -> MapElement:
    side = sr.x_min + 1.0 if rng.random() < 0.5 else sr.x_max - 1.0
    amp = rng.uniform(0.0, 1.0)
    phase = rng.uniform(0.0, 2 * np.pi)
    y = np.linspace(sr.y_min + 0.5, sr.y_max - 0.5, 12)
    x = side + amp * np.sin(2 * np.pi * y / 40.0 + phase) * (1 if side < 0 else -1)
    pts = resample(_clip_to_range(np.column_stack([x, y]), sr), ElementKind.POLYLINE, n_points)
    pts = _randomize_order(pts, ElementKind.POLYLINE, rng)
    return MapElement(ElementClass.BOUNDARY, ElementKind.POLYLINE, pts)


def _clip_to_range(pts: np.ndarray, sr: SceneRange) -> np.ndarray:
    return np.clip(pts, sr.lower, sr.lower + sr.extent)


def generate_scene(spec: SceneSpec) -> MapScene:
    """Deterministic ground-truth scene for a seed.

    Elements are emitted pedestrian crossings first, then dividers, then
    boundaries, each drawn from its own spawned RNG stream.
    """
    makers = [_ped_crossing] * spec.n_ped + [_divider] * spec.n_divider
    makers += [_boundary] * spec.n_boundary
    streams = _element_streams(spec.seed, len(makers))
    elements = tuple(make(rng, spec.range, spec.n_points) for make, rng in zip(makers, streams))
    return MapScene(range=spec.range, n_points=spec.n_points, elements=elements)


def _one_hot_scores(cls: ElementClass, value: float = 1.0) -> np.ndarray:
    scores = np.zeros(3)
    scores[int(cls)] = value
    return scores


def perturb(scene: MapScene, spec: PerturbSpec) -> list[PredictedElement]:
    """Imperfect predictions for a scene: noise, drops, false positives.

    Noise is Gaussian in meters (applied before normalization so sigma is
    physical); the output is padded to the slot budget with near-zero
    score placeholders at the scene center.
    """
    n_streams = len(scene.elements) + spec.false_positive_count
    streams = _element_streams(spec.seed, max(n_streams, 1))
    sr = scene.range
    preds: list[PredictedElement] = []

    for i, el in enumerate(scene.elements):
        rng = streams[i]
        dropped = rng.random() < spec.drop_prob
        noise = rng.normal(0.0, spec.point_noise_sigma or 0.0, size=el.points.shape)
        if dropped:
            continue
        pts = el.points + (noise if spec.point_noise_sigma > 0 else 0.0)
        norm = np.clip(normalize(pts, sr), 0.0, 1.0)
        if spec.score_model == ScoreModel.ORACLE:
            scores = _one_hot_scores(el.element_class)
        else:
            mean_err = float(np.abs(pts - el.points).mean())
            quality = float(np.exp(-mean_err / 0.5))
            conf = float(np.clip(quality * rng.uniform(0.85, 1.0), 1e-3, 1 - 1e-3))
            scores = np.full(3, float(rng.uniform(0.0, 0.05)))
            scores[int(el.element_class)] = conf
        preds.append(PredictedElement(scores=scores, points=norm))

    for k in range(spec.false_positive_count):
        rng = streams[len(scene.elements) + k]
        cls = ElementClass(int(rng.integers(3)))
        center = sr.lower + sr.extent * rng.uniform(0.15, 0.85, size=2)
        if cls is ElementClass.PED_CROSSING:
            ang = np.linspace(0, 2 * np.pi, scene.n_points, endpoint=False)
            radius = rng.uniform(1.0, 3.0)
            pts = center + radius * np.column_stack([np.cos(ang), np.sin(ang)])
        else:
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            t = np.linspace(-1, 1, scene.n_points)[:, None]
            pts = center + t * direction * rng.uniform(3.0, 8.0)
        pts = _clip_to_range(pts, sr)
        scores = _one_hot_scores(cls, float(rng.uniform(0.05, 0.3)))
        preds.append(PredictedElement(scores=scores, points=normalize(pts, sr)))

    center = np.full((scene.n_points, 2), 0.5)
    while len(preds) < spec.pad_to:
        preds.append(PredictedElement(scores=np.full(3, 1e-6), points=center.copy()))
    return preds
