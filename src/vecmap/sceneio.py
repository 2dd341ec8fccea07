"""Scene file format: JSON with meta + elements.

Ground-truth files hold classed point sets in meters; prediction files
hold three per-class scores and a point set per element.  Numbers are
written with 9 significant digits, so a file re-serialized after reading
is byte-identical.  Unknown fields are rejected.

This module is where file input is validated.  A prediction file is read
into stacked arrays (:class:`~vecmap.metrics.ScenePredictions`) and
checked once as a whole: element keys, shapes, finite points and scores
in [0, 1].  Only when a check fails are its elements walked, to name the
first bad one.  Code downstream of the reader trusts the arrays.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .geometry import (
    ElementClass,
    ElementKind,
    KIND_FOR_CLASS,
    MapElement,
    SceneRange,
    as_points,
    denormalize,
)
from .matching import PredictedElement
from .metrics import ScenePredictions
from .scenegen import MapScene

CLASS_NAMES = {
    ElementClass.PED_CROSSING: "ped_crossing",
    ElementClass.DIVIDER: "divider",
    ElementClass.BOUNDARY: "boundary",
}
_CLASS_BY_NAME = {v: k for k, v in CLASS_NAMES.items()}
_KIND_BY_NAME = {k.value: k for k in ElementKind}
_PREDICTION_KEYS = frozenset({"scores", "points"})


class SceneFormatError(ValueError):
    """Raised for malformed scene files; carries the offending path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def _num(x: float) -> float:
    return float(f"{float(x):.9g}")


def _check_keys(path, obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise SceneFormatError(path, f"unknown fields in {where}: {sorted(unknown)}")


def write_scene(
    path,
    scene: MapScene,
    predictions: list[PredictedElement] | None = None,
) -> None:
    """Write a ground-truth scene, or predictions when given (in meters)."""
    sr = scene.range
    doc = {
        "meta": {
            "range": [_num(sr.x_min), _num(sr.x_max), _num(sr.y_min), _num(sr.y_max)],
            "n_points": scene.n_points,
        },
        "elements": [],
    }
    if predictions is None:
        for el in scene.elements:
            doc["elements"].append(
                {
                    "class": CLASS_NAMES[el.element_class],
                    "kind": el.kind.value,
                    "points": [[_num(x), _num(y)] for x, y in el.points],
                }
            )
    else:
        for pred in predictions:
            pts = denormalize(pred.points, sr)
            doc["elements"].append(
                {
                    "scores": [_num(s) for s in pred.scores],
                    "points": [[_num(x), _num(y)] for x, y in pts],
                }
            )
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def _parse_meta(path, doc) -> tuple[SceneRange, int]:
    if not isinstance(doc, dict):
        raise SceneFormatError(path, "top level must be an object")
    _check_keys(path, doc, {"meta", "elements"}, "document")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        raise SceneFormatError(path, "missing meta object")
    _check_keys(path, meta, {"range", "n_points"}, "meta")
    rng = meta.get("range")
    if not (isinstance(rng, list) and len(rng) == 4):
        raise SceneFormatError(path, "meta.range must be 4 numbers")
    try:
        sr = SceneRange(*map(float, rng))
    except ValueError as exc:
        raise SceneFormatError(path, str(exc)) from exc
    n_points = meta.get("n_points")
    if not isinstance(n_points, int) or n_points < 2:
        raise SceneFormatError(path, "meta.n_points must be an integer >= 2")
    return sr, n_points


def _load(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise SceneFormatError(path, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise SceneFormatError(path, f"invalid JSON at line {exc.lineno}") from exc


def _elements(path, doc) -> list:
    els = doc.get("elements", [])
    if not isinstance(els, list):
        raise SceneFormatError(path, "elements must be a list")
    return els


def read_scene(path) -> MapScene:
    """Read a ground-truth scene file."""
    doc = _load(path)
    sr, n_points = _parse_meta(path, doc)
    elements = []
    for i, el in enumerate(_elements(path, doc)):
        where = f"elements[{i}]"
        if not isinstance(el, dict):
            raise SceneFormatError(path, f"{where} must be an object")
        _check_keys(path, el, {"class", "kind", "points"}, where)
        cls = _CLASS_BY_NAME.get(el.get("class"))
        kind = _KIND_BY_NAME.get(el.get("kind"))
        if cls is None or kind is None:
            raise SceneFormatError(path, f"{where}: bad class or kind")
        if kind is not KIND_FOR_CLASS[cls]:
            raise SceneFormatError(path, f"{where}: class/kind mismatch")
        pts = np.asarray(el.get("points", []), dtype=np.float64)
        if pts.ndim != 2 or pts.shape != (n_points, 2):
            raise SceneFormatError(path, f"{where}: expected {n_points} [x, y] points")
        try:
            elements.append(MapElement(cls, kind, pts))
        except ValueError as exc:
            raise SceneFormatError(path, f"{where}: {exc}") from exc
    return MapScene(range=sr, n_points=n_points, elements=tuple(elements))


def _stacked(els: list, n_points: int):
    """Points (E, n, 2) and scores (E, 3) of well-formed prediction
    elements, from one array conversion per field; None if any is not."""
    if not els:
        return np.empty((0, n_points, 2)), np.empty((0, 3))
    if not all(isinstance(el, dict) and el.keys() <= _PREDICTION_KEYS for el in els):
        return None
    try:
        points = np.array([el["points"] for el in els], dtype=np.float64)
        scores = np.array([el["scores"] for el in els], dtype=np.float64)
    except (KeyError, TypeError, ValueError):
        return None
    if points.shape != (len(els), n_points, 2) or scores.shape != (len(els), 3):
        return None
    # Written so that NaN, which fails every comparison, is rejected too.
    if not (np.isfinite(points).all() and ((scores >= 0) & (scores <= 1)).all()):
        return None
    return points, scores


def _check_prediction(path, i: int, el, n_points: int) -> None:
    """Raise naming element ``i`` if it is malformed.  The rules are those
    :func:`_stacked` checks over a whole file, taken one element at a time."""
    where = f"elements[{i}]"
    if not isinstance(el, dict):
        raise SceneFormatError(path, f"{where} must be an object")
    _check_keys(path, el, _PREDICTION_KEYS, where)
    scores = el.get("scores")
    if not (isinstance(scores, list) and len(scores) == 3):
        raise SceneFormatError(path, f"{where}: scores must be 3 numbers")
    try:
        pts = np.asarray(el.get("points", []), dtype=np.float64)
    except (TypeError, ValueError):  # ragged or not numbers
        pts = None
    if pts is None or pts.shape != (n_points, 2):
        raise SceneFormatError(path, f"{where}: expected {n_points} [x, y] points")
    try:
        PredictedElement(scores=np.asarray(scores, dtype=np.float64), points=as_points(pts))
    except (TypeError, ValueError) as exc:
        raise SceneFormatError(path, f"{where}: {exc}") from exc


def read_predictions(path) -> tuple[SceneRange, ScenePredictions]:
    """Read a prediction file: its range, and its predictions as arrays
    with points normalized against that range."""
    doc = _load(path)
    sr, n_points = _parse_meta(path, doc)
    els = _elements(path, doc)
    stacked = _stacked(els, n_points)
    if stacked is None:
        for i, el in enumerate(els):
            _check_prediction(path, i, el, n_points)
        raise SceneFormatError(path, "malformed prediction elements")
    points, scores = stacked
    # Elementwise, so bit-identical to normalize() on each element.
    points = (points - sr.lower) / sr.extent
    return sr, ScenePredictions(points, scores)
