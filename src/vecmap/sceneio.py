"""Scene file format: JSON with meta + elements.

Ground-truth files hold classed point sets in meters; prediction files
additionally carry three per-class scores per element.  Numbers are
written with 9 significant digits, so a file re-serialized after reading
is byte-identical.  Unknown fields are rejected.
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
    denormalize,
    normalize,
)
from .matching import PredictedElement
from .scenegen import MapScene

CLASS_NAMES = {
    ElementClass.PED_CROSSING: "ped_crossing",
    ElementClass.DIVIDER: "divider",
    ElementClass.BOUNDARY: "boundary",
}
_CLASS_BY_NAME = {v: k for k, v in CLASS_NAMES.items()}
_KIND_BY_NAME = {k.value: k for k in ElementKind}


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


def read_scene(path) -> MapScene:
    """Read a ground-truth scene file."""
    doc = _load(path)
    sr, n_points = _parse_meta(path, doc)
    elements = []
    for i, el in enumerate(doc.get("elements", [])):
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


def read_predictions(path) -> tuple[MapScene, list[PredictedElement]]:
    """Read a prediction file; points are normalized against the file's range."""
    doc = _load(path)
    sr, n_points = _parse_meta(path, doc)
    preds = []
    for i, el in enumerate(doc.get("elements", [])):
        where = f"elements[{i}]"
        if not isinstance(el, dict):
            raise SceneFormatError(path, f"{where} must be an object")
        _check_keys(path, el, {"scores", "points"}, where)
        scores = el.get("scores")
        if not (isinstance(scores, list) and len(scores) == 3):
            raise SceneFormatError(path, f"{where}: scores must be 3 numbers")
        pts = np.asarray(el.get("points", []), dtype=np.float64)
        if pts.ndim != 2 or pts.shape != (n_points, 2):
            raise SceneFormatError(path, f"{where}: expected {n_points} [x, y] points")
        try:
            preds.append(
                PredictedElement(scores=np.asarray(scores, dtype=np.float64),
                                 points=normalize(pts, sr))
            )
        except ValueError as exc:
            raise SceneFormatError(path, f"{where}: {exc}") from exc
    scene = MapScene(range=sr, n_points=n_points, elements=())
    return scene, preds
