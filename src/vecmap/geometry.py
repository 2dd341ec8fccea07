"""Point-set geometry for vectorized map elements.

Map elements are ordered 2D point sets in a bird's-eye-view frame:
open shapes (dividers, boundaries) are polylines, closed shapes
(pedestrian crossings) are polygons.  A point set describes the same
shape under several reorderings -- both traversal directions for a
polyline, and every start point in both directions for a polygon.
This module provides those equivalent-permutation groups plus the
resampling, normalization and edge helpers the rest of the package
builds on.  Everything here is a pure function on immutable inputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np


class DegenerateShapeError(ValueError):
    """Raised when a shape has no usable extent (zero boundary length)."""


class ElementKind(enum.Enum):
    POLYLINE = "polyline"
    POLYGON = "polygon"


class ElementClass(enum.IntEnum):
    PED_CROSSING = 0
    DIVIDER = 1
    BOUNDARY = 2


#: Shape kind each semantic class is discretized into.
KIND_FOR_CLASS = {
    ElementClass.PED_CROSSING: ElementKind.POLYGON,
    ElementClass.DIVIDER: ElementKind.POLYLINE,
    ElementClass.BOUNDARY: ElementKind.POLYLINE,
}


class Direction(enum.Enum):
    FORWARD = "forward"
    REVERSE = "reverse"


@dataclass(frozen=True)
class PermutationDescriptor:
    """One reordering: a cyclic offset traversed forward or reversed.

    Stored compactly as (direction, offset); the explicit index map
    j -> gamma(j) is materialized on demand.
    """

    direction: Direction
    offset: int

    def index_map(self, n_points: int) -> np.ndarray:
        j = np.arange(n_points)
        shifted = (j + self.offset) % n_points
        if self.direction is Direction.FORWARD:
            return shifted
        return (n_points - 1) - shifted


@dataclass(frozen=True)
class PermutationGroup:
    """All orderings of an n-point element that describe the same shape."""

    kind: ElementKind
    n_points: int
    members: tuple[PermutationDescriptor, ...]

    def index_maps(self) -> np.ndarray:
        """Stacked index maps, shape (len(members), n_points); read-only."""
        return self._index_maps

    @cached_property
    def _index_maps(self) -> np.ndarray:
        # Cached on the instance, which permutation_group shares per (kind, n);
        # an lru_cache keyed on the group would hash every member per lookup.
        maps = np.stack([m.index_map(self.n_points) for m in self.members])
        maps.flags.writeable = False
        return maps


@lru_cache(maxsize=None)
def permutation_group(kind: ElementKind, n_points: int) -> PermutationGroup:
    """Build the equivalent-permutation group for a shape kind.

    Polylines admit 2 orderings (two traversal directions, offset 0).
    Polygons admit 2 * n_points (every start point, both directions).
    Enumeration order is fixed for reproducible tie-breaking: forward
    members by ascending offset, then reverse members by ascending offset.
    """
    min_points = 2 if kind is ElementKind.POLYLINE else 3
    if n_points < min_points:
        raise ValueError(
            f"{kind.value} needs at least {min_points} points, got {n_points}"
        )
    if kind is ElementKind.POLYLINE:
        offsets = [0]
    else:
        offsets = list(range(n_points))
    members = tuple(
        PermutationDescriptor(direction, k)
        for direction in (Direction.FORWARD, Direction.REVERSE)
        for k in offsets
    )
    return PermutationGroup(kind=kind, n_points=n_points, members=members)


def apply_permutation(points: np.ndarray, perm: PermutationDescriptor) -> np.ndarray:
    """Reorder a point set: output[j] = points[gamma(j)]."""
    pts = as_points(points)
    return pts[perm.index_map(len(pts))]


@dataclass(frozen=True)
class SceneRange:
    """Perception range in meters; defaults x in [-15, 15], y in [-30, 30]."""

    x_min: float = -15.0
    x_max: float = 15.0
    y_min: float = -30.0
    y_max: float = 30.0

    def __post_init__(self):
        # An extent that overflows to inf would normalize every point to 0.
        finite = np.isfinite([self.x_min, self.y_min, *self.extent]).all()
        if not (finite and self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"scene range bounds and extent must be finite, and non-empty: {self}")

    @property
    def lower(self) -> np.ndarray:
        return np.array([self.x_min, self.y_min])

    @property
    def extent(self) -> np.ndarray:
        return np.array([self.x_max - self.x_min, self.y_max - self.y_min])

    def contains(self, points: np.ndarray) -> bool:
        pts = as_points(points)
        return bool(
            np.all(pts >= self.lower - 1e-9) and np.all(pts <= self.lower + self.extent + 1e-9)
        )


def as_points(points) -> np.ndarray:
    """Coerce to a float64 (n, 2) array and check finiteness."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) point array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain NaN or Inf")
    return pts


@dataclass(frozen=True)
class MapElement:
    """A classed point set: semantic class, shape kind, ordered points."""

    element_class: ElementClass
    kind: ElementKind
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points", as_points(self.points))
        expected = KIND_FOR_CLASS[self.element_class]
        if self.kind is not expected:
            raise ValueError(
                f"{self.element_class.name} must have kind {expected.value}"
            )
        permutation_group(self.kind, len(self.points))  # raises below the minimum count

    @property
    def n_points(self) -> int:
        return len(self.points)

    def group(self) -> PermutationGroup:
        return permutation_group(self.kind, self.n_points)

    def normalized(self, scene_range: SceneRange) -> "MapElement":
        return replace(self, points=normalize(self.points, scene_range))


def resample(raw_vertices, kind: ElementKind, n_points: int) -> np.ndarray:
    """Resample a shape boundary to n_points uniform in arc length.

    Polylines keep their exact endpoints; polygons treat the boundary as
    closed (last vertex connects back to the first) and keep the first
    raw vertex as output[0].
    """
    raw = as_points(raw_vertices)
    if len(raw) < 2:
        raise ValueError("need at least 2 vertices to resample")
    closed = kind is ElementKind.POLYGON
    verts = np.vstack([raw, raw[:1]]) if closed else raw

    seg = np.diff(verts, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    if total <= 0.0:
        raise DegenerateShapeError("boundary has zero length")

    if closed:
        # n equally spaced samples around the perimeter, start kept fixed.
        targets = total * np.arange(n_points) / n_points
    else:
        targets = total * np.arange(n_points) / (n_points - 1)

    idx = np.searchsorted(cum, targets, side="right") - 1
    idx = np.clip(idx, 0, len(seg_len) - 1)
    denom = np.where(seg_len[idx] > 0, seg_len[idx], 1.0)
    frac = (targets - cum[idx]) / denom
    out = verts[idx] + frac[:, None] * seg[idx]
    out[0] = raw[0]
    if not closed:
        out[-1] = raw[-1]
    return out


def normalize(points, scene_range: SceneRange) -> np.ndarray:
    """Map metric coordinates to the unit square defined by the range."""
    return normalize_stack(as_points(points), scene_range)


def denormalize(points, scene_range: SceneRange) -> np.ndarray:
    """Exact inverse of :func:`normalize`."""
    return denormalize_stack(as_points(points), scene_range)


def _columns(scene_range: SceneRange):
    """(lower bound, extent) of x, then of y."""
    r = scene_range
    return enumerate(((r.x_min, r.x_max - r.x_min), (r.y_min, r.y_max - r.y_min)))


def normalize_stack(points: np.ndarray, scene_range: SceneRange) -> np.ndarray:
    """``(points - lower) / extent`` of every point of a float array (..., 2),
    unchecked, into a new array, one coordinate column at a time, where
    broadcasting the range would run numpy's inner loop two elements long."""
    out = np.empty(points.shape)
    for k, (low, extent) in _columns(scene_range):
        np.subtract(points[..., k], low, out=out[..., k])
        np.divide(out[..., k], extent, out=out[..., k])
    return out


def denormalize_stack(points: np.ndarray, scene_range: SceneRange) -> np.ndarray:
    """``points * extent + lower``, the inverse of :func:`normalize_stack`."""
    out = np.empty(points.shape)
    for k, (low, extent) in _columns(scene_range):
        np.multiply(points[..., k], extent, out=out[..., k])
        np.add(out[..., k], low, out=out[..., k])
    return out


def edges(points, kind: ElementKind) -> np.ndarray:
    """Edge vectors edge[j] = points[j] - points[j+1 mod n].

    Polygons yield n edges including the closing one; polylines drop the
    fictitious wrap-around edge and yield n - 1.
    """
    pts = as_points(points)
    if len(pts) < 2:
        raise ValueError("need at least 2 points for edges")
    diff = pts - np.roll(pts, -1, axis=0)
    if kind is ElementKind.POLYLINE:
        return diff[:-1]
    return diff
