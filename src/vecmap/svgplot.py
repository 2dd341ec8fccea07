"""Minimal standalone SVG output: convergence curves and scene overlays.

Documents are self-contained (inline styles, no external references).
Colors are fixed per class; ground truth is dashed, predictions solid.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import KIND_FOR_CLASS, ElementClass, ElementKind, normalize
from .scenegen import MapScene

CLASS_COLORS = {
    ElementClass.PED_CROSSING: "#1f77b4",
    ElementClass.DIVIDER: "#ff7f0e",
    ElementClass.BOUNDARY: "#2ca02c",
}

_CURVE_COLORS = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd"]

#: A prediction is drawn when its highest class score reaches this.
SCORE_FLOOR = 0.3


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _polyline(points, color, width=1.5, dashed=False, closed=False) -> str:
    tag = "polygon" if closed else "polyline"
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (
        f'<{tag} points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="{width}"{dash}/>'
    )


def _document(width, height, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def convergence_svg(curves: dict[str, list[float]]) -> str:
    """Line plot of per-iteration total losses, one labeled curve per mode."""
    width, height, margin = 640, 420, 55
    all_vals = [v for c in curves.values() for v in c]
    n_iter = max(len(c) for c in curves.values())
    lo, hi = min(all_vals), max(all_vals)
    if math.isclose(lo, hi):
        lo, hi = lo - 1.0, hi + 1.0
    pw, ph = width - 2 * margin, height - 2 * margin

    def to_xy(i, v):
        x = margin + pw * i / max(n_iter - 1, 1)
        y = margin + ph * (1 - (v - lo) / (hi - lo))
        return x, y

    body = [
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#999" stroke-width="1"/>',
        f'<text x="{width / 2}" y="25" text-anchor="middle" '
        'font-family="sans-serif" font-size="15">total loss</text>',
        f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">iteration</text>',
        f'<text x="12" y="{margin - 8}" font-family="sans-serif" font-size="11">{_fmt(hi)}</text>',
        f'<text x="12" y="{height - margin}" font-family="sans-serif" font-size="11">{_fmt(lo)}</text>',
    ]
    for ci, (label, values) in enumerate(curves.items()):
        color = _CURVE_COLORS[ci % len(_CURVE_COLORS)]
        pts = [to_xy(i, v) for i, v in enumerate(values)]
        body.append(_polyline(pts, color))
        body.append(
            f'<text x="{width - margin - 5}" y="{margin + 18 + 16 * ci}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{color}">{label}</text>'
        )
    return _document(width, height, body)


def scene_overlay_svg(gt: MapScene, predictions) -> str:
    """Top-down overlay: dashed ground truth, solid predictions.

    Predictions (normalized points + scores) are drawn in the color of
    their highest-scoring class when that score reaches ``SCORE_FLOOR``.
    Both are drawn from the unit square of the scene's range.
    """
    sr = gt.range
    scale = 8.0
    margin = 20
    width = int(sr.extent[0] * scale) + 2 * margin
    height = int(sr.extent[1] * scale) + 2 * margin

    def to_xy(rel: np.ndarray):
        return [
            (margin + rel_x * (width - 2 * margin), margin + (1 - rel_y) * (height - 2 * margin))
            for rel_x, rel_y in rel
        ]

    body = [f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>']
    for el in gt.elements:
        body.append(
            _polyline(
                to_xy(normalize(el.points, sr)),
                CLASS_COLORS[el.element_class],
                dashed=True,
                closed=el.kind is ElementKind.POLYGON,
            )
        )
    for pred in predictions:
        best = int(np.argmax(pred.scores))
        if pred.scores[best] < SCORE_FLOOR:
            continue
        cls = ElementClass(best)
        body.append(
            _polyline(
                to_xy(pred.points),
                CLASS_COLORS[cls],
                width=1.0,
                closed=KIND_FOR_CLASS[cls] is ElementKind.POLYGON,
            )
        )
    return _document(width, height, body)
