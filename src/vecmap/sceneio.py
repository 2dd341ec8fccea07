"""Scene file format: JSON with meta + elements.

Ground-truth files hold classed point sets in meters; prediction files
hold three per-class scores and a point set per element.  Numbers are
written with 9 significant digits, so a file re-serialized after reading
is byte-identical.  Unknown fields are rejected.

This module is where file input is validated.  Each reader has one
element parser, which checks the whole file at once with one array
conversion per field: element keys, shapes, numbers that are JSON ints or
floats (not strings or bools), finite points, classes and kinds, a point
count each kind allows, scores in [0, 1].  Only when it fails is the same
parser run on each element alone, to name the first bad one.
Code downstream of the readers trusts what they return.

A file in the layout ``write_scene`` writes (whitespace aside) is read
from one C token scan, ``_kernels.json_tokens`` (numbers parsed exactly,
whatever the process's locale).  Its layout must match, element by
element, the prediction template or one ground-truth template per class,
with the class and kind strings in place, and its values pass the same
checks.  Every other file, valid or not, is read with ``json``, so every
error message comes from there.  Ground truth is read as arrays, and only
``read_scene`` builds ``MapElement``s.
"""

from __future__ import annotations

import contextlib
import json
import re
from itertools import chain
from pathlib import Path

import numpy as np

from . import _kernels
from .geometry import (
    ElementClass,
    ElementKind,
    KIND_FOR_CLASS,
    MapElement,
    SceneRange,
    denormalize,
    normalize_stack,
    permutation_group,
)
from .matching import PredictedElement
from .metrics import SceneGroundTruth, ScenePredictions
from .scenegen import MapScene, check_integers

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


def _check_keys(path, keys, allowed: set, where: str):
    unknown = set(keys) - allowed
    if unknown:
        raise SceneFormatError(path, f"unknown fields in {where}: {sorted(unknown)}")


def write_scene(
    path,
    scene: MapScene,
    predictions: list[PredictedElement] | None = None,
) -> None:
    """Write a ground-truth scene, or predictions when given (in meters).

    Raises ValueError, writing nothing, when ``scene.n_points`` is no
    integer >= 2 or an element's point count is not that ``meta.n_points``:
    the readers reject either file."""
    check_integers(scene, n_points=2)
    for i, el in enumerate(scene.elements if predictions is None else predictions):
        if len(el.points) != scene.n_points:
            raise ValueError(f"{path}: elements[{i}] has {len(el.points)} points, "
                             f"not meta.n_points {scene.n_points}")
    sr = scene.range
    doc = {
        "meta": {
            "range": [_num(sr.x_min), _num(sr.x_max), _num(sr.y_min), _num(sr.y_max)],
            "n_points": int(scene.n_points),  # a numpy integer is no JSON number
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


#: The JSON types of numbers; a bool is neither, so ``true`` is not a number.
_NUMBERS = {int, float}


def _parse_meta(path, doc) -> tuple[SceneRange, int]:
    if not isinstance(doc, dict):
        raise SceneFormatError(path, "top level must be an object")
    _check_keys(path, doc, {"meta", "elements"}, "document")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        raise SceneFormatError(path, "missing meta object")
    _check_keys(path, meta, {"range", "n_points"}, "meta")
    rng = meta.get("range")
    if not (isinstance(rng, list) and len(rng) == 4 and set(map(type, rng)) <= _NUMBERS):
        raise SceneFormatError(path, "meta.range must be 4 numbers")
    try:
        sr = SceneRange(*map(float, rng))
    except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond float range
        raise SceneFormatError(path, str(exc)) from exc
    n_points = meta.get("n_points")
    if not isinstance(n_points, int) or n_points < 2:
        raise SceneFormatError(path, "meta.n_points must be an integer >= 2")
    return sr, n_points


def _floats(rows: list, shape: tuple) -> np.ndarray | None:
    """``rows``, lists nested as ``shape`` with JSON numbers at the bottom,
    as one float64 array; None when a list has the wrong length or an entry
    is not a number."""
    flat = rows
    try:
        # A JSON object or string in place of a list flattens to strings,
        # which the type check below rejects.
        for size in shape[1:]:
            if set(map(len, flat)) - {size}:
                return None
            flat = list(chain.from_iterable(flat))
        if not set(map(type, flat)) <= _NUMBERS:
            return None
        return np.fromiter(flat, np.float64, len(flat)).reshape(shape)
    # A number or null in place of a list, an int beyond float range, a huge shape.
    except (TypeError, OverflowError, ValueError):
        return None


def _points(path, els: list, n_points: int, allowed: set, where: str) -> np.ndarray:
    """Points (E, n, 2) of elements ``els``, with the rules both readers
    share: each element is an object with only ``allowed`` keys and exactly
    ``n_points`` [x, y] pairs.  Errors name ``where``."""
    if not all(isinstance(el, dict) for el in els):
        raise SceneFormatError(path, f"{where} must be an object")
    _check_keys(path, set().union(*els), allowed, where)
    points = _floats([el.get("points") for el in els], (len(els), n_points, 2))
    if points is None:  # missing, ragged or not numbers
        raise SceneFormatError(path, f"{where}: expected {n_points} [x, y] points")
    return points


def _lookup(table: dict, name):
    # A JSON list or object is unhashable, so only a string is looked up.
    return table.get(name) if isinstance(name, str) else None


def _check_ground_truth(path, points: np.ndarray, classes: list, where: str):
    """Ground truth of points (E, n, 2) and ``ElementClass``es, once the
    points are finite and n is a point count each class's kind allows."""
    if not np.isfinite(points).all():
        raise SceneFormatError(path, f"{where}: points contain NaN or Inf")
    try:
        for kind in {KIND_FOR_CLASS[cls] for cls in classes}:
            permutation_group(kind, points.shape[1])  # raises below the kind's minimum count
    except ValueError as exc:
        raise SceneFormatError(path, f"{where}: {exc}") from exc
    return SceneGroundTruth(points, np.array(classes, dtype=np.int64))


def _ground_truth(path, els: list, n_points: int, where: str) -> SceneGroundTruth:
    """The ground-truth element parser."""
    points = _points(path, els, n_points, {"class", "kind", "points"}, where)
    classes = [_lookup(_CLASS_BY_NAME, el.get("class")) for el in els]
    kinds = [_lookup(_KIND_BY_NAME, el.get("kind")) for el in els]
    if None in classes or None in kinds:
        raise SceneFormatError(path, f"{where}: bad class or kind")
    if any(kind is not KIND_FOR_CLASS[cls] for cls, kind in zip(classes, kinds)):
        raise SceneFormatError(path, f"{where}: class/kind mismatch")
    return _check_ground_truth(path, points, classes, where)


def _check_predictions(path, points: np.ndarray, scores: np.ndarray, where: str):
    """Points (E, n, 2) and scores (E, 3), once the points are finite and
    the scores in [0, 1]."""
    if not np.isfinite(points).all():
        raise SceneFormatError(path, f"{where}: points contain NaN or Inf")
    # Written so that NaN, which fails every comparison, is rejected too.
    if not ((scores >= 0) & (scores <= 1)).all():
        raise SceneFormatError(path, f"{where}: scores must lie in [0, 1]")
    return points, scores


def _prediction_arrays(path, els: list, n_points: int, where: str):
    """The prediction element parser."""
    points = _points(path, els, n_points, {"scores", "points"}, where)
    scores = _floats([el.get("scores") for el in els], (len(els), 3))
    if scores is None:
        raise SceneFormatError(path, f"{where}: scores must be 3 numbers")
    return _check_predictions(path, points, scores, where)


def _read(path, parse, scan):
    """Range, point count and parsed elements of file ``path``: from
    ``scan(path, text)`` when it gives them, else with ``json``, so that
    every error message comes from one place.  There ``parse(path,
    elements, n_points, where)`` runs once over the whole element list, and
    only if that fails on each element alone, to name the first bad one
    (as ``elements[i]``)."""
    try:
        data = Path(path).read_bytes()
        with contextlib.suppress(SceneFormatError):  # the json path reports it
            if read := scan(path, data):
                return read
        doc = json.loads(data.decode())
    except OSError as exc:
        raise SceneFormatError(path, str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise SceneFormatError(path, f"invalid UTF-8 at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise SceneFormatError(path, f"invalid JSON at line {exc.lineno}") from exc
    sr, n_points = _parse_meta(path, doc)
    els = doc.get("elements", [])
    if not isinstance(els, list):
        raise SceneFormatError(path, "elements must be a list")
    try:
        return sr, n_points, parse(path, els, n_points, "elements")
    except SceneFormatError:
        for i, el in enumerate(els):
            parse(path, [el], n_points, f"elements[{i}]")
        raise


#: write_scene's layout as ``json_tokens`` gives it, around the elements.
_HEAD, _TAIL = b'{"meta":{"range":[#,#,#,#],"n_points":i},"elements":[', b"]}"
#: What precedes "points" in each element write_scene writes: the scores
#: of a prediction, or the class and kind of a ground-truth element (by class).
_PREDICTION_HEAD = b'{"scores":[#,#,#],'
_GROUND_TRUTH_HEADS = {
    b'{"class":"%s","kind":"%s",' % (name.encode(), KIND_FOR_CLASS[cls].value.encode()): cls
    for cls, name in CLASS_NAMES.items()
}
_GROUND_TRUTH_HEAD = re.compile(b"|".join(map(re.escape, _GROUND_TRUTH_HEADS)))


def _scanned(path, data: bytes, width: int, heads_of):
    """Range, point count, element heads and the elements' numbers, flat,
    of text ``data`` in write_scene's layout, from the C token scan; else
    None.  Each element holds ``width`` numbers before its points, and
    ``heads_of(elements, count)`` gives what precedes "points" in each of
    the ``count`` elements of the skeleton ``elements``; the whole layout is
    then checked against those heads.  The numbers are a view of the scan's
    buffer, which is four times the text's size."""
    numbers, skeleton = _kernels.json_tokens(data) or (None, b"")
    # An n_points within the skeleton's length is an exact int, and its
    # points' layout no longer than the skeleton.
    if not (skeleton.startswith(_HEAD) and numbers[4] <= len(skeleton)):
        return None
    meta = {"range": numbers[:4].tolist(), "n_points": int(numbers[4])}
    sr, n = _parse_meta(path, {"meta": meta})
    count = (len(numbers) - 5) // (width + 2 * n)
    heads = heads_of(skeleton[len(_HEAD):-len(_TAIL)], count)
    points = b'"points":[%s]}' % b",".join([b"[#,#]"] * n)
    layout = (points + b",").join(heads) + points if heads else b""
    if skeleton != _HEAD + layout + _TAIL:
        return None
    return sr, n, heads, numbers[5:]


def _scanned_ground_truth(path, data: bytes):
    """What ``_read`` gives for ground-truth text ``data`` in write_scene's
    layout, from the C token scan; else None."""
    if not (read := _scanned(path, data, 0, lambda els, _: _GROUND_TRUTH_HEAD.findall(els))):
        return None
    sr, n, heads, numbers = read
    classes = [_GROUND_TRUTH_HEADS[h] for h in heads]
    points = numbers.reshape(len(heads), n, 2).copy()  # owns its memory
    return sr, n, _check_ground_truth(path, points, classes, "elements")


def _scanned_predictions(path, data: bytes):
    """What ``_read`` gives for prediction text ``data`` in write_scene's
    layout, from the C token scan; else None."""
    if not (read := _scanned(path, data, 3, lambda _, count: [_PREDICTION_HEAD] * count)):
        return None
    sr, n, heads, numbers = read
    rows = numbers.reshape(len(heads), 3 + 2 * n)
    points = rows[:, 3:].reshape(len(heads), n, 2)  # read_predictions copies it
    return sr, n, _check_predictions(path, points, rows[:, :3].copy(), "elements")


def read_scene(path) -> MapScene:
    """Read a ground-truth scene file."""
    sr, n_points, gt = _read(path, _ground_truth, _scanned_ground_truth)
    classes = map(ElementClass, gt.classes.tolist())
    elements = tuple(MapElement(c, KIND_FOR_CLASS[c], p) for c, p in zip(classes, gt.points))
    return MapScene(range=sr, n_points=n_points, elements=elements)


def read_ground_truth(path) -> tuple[SceneRange, SceneGroundTruth]:
    """Read a ground-truth file: its range, and its elements as arrays in meters."""
    sr, _, gt = _read(path, _ground_truth, _scanned_ground_truth)
    return sr, gt


def read_predictions(path) -> tuple[SceneRange, ScenePredictions]:
    """Read a prediction file: its range, and its predictions as arrays
    with points normalized against that range."""
    sr, _, (points, scores) = _read(path, _prediction_arrays, _scanned_predictions)
    return sr, ScenePredictions(normalize_stack(points, sr), scores)
