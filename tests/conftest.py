import contextlib

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import strategies as st

from vecmap import _kernels
from vecmap.geometry import (
    ElementClass,
    ElementKind,
    KIND_FOR_CLASS,
    MapElement,
    apply_permutation,
)
from vecmap.matching import PredictedElement
from vecmap.metrics import SceneGroundTruth
from vecmap.sceneio import SceneFormatError, read_ground_truth, read_scene

CLASS_FOR_KIND = {
    ElementKind.POLYGON: ElementClass.PED_CROSSING,
    ElementKind.POLYLINE: ElementClass.DIVIDER,
}


def random_element(rng, kind=None, n_points=20, element_class=None):
    """Random classed point set in the unit square (no arc-uniformity needed)."""
    if element_class is None:
        if kind is None:
            element_class = ElementClass(int(rng.integers(3)))
        else:
            element_class = CLASS_FOR_KIND[kind]
    kind = KIND_FOR_CLASS[element_class]
    pts = rng.uniform(0.0, 1.0, size=(n_points, 2))
    return MapElement(element_class, kind, pts)


def ground_truth_readers_agree(path) -> str | None:
    """Assert that ``read_ground_truth`` gives the arrays of ``read_scene``'s
    elements stacked, or raises the same ``SceneFormatError``; return its
    message (None for a valid file)."""
    try:
        scene = read_scene(path)
    except SceneFormatError as exc:
        with pytest.raises(SceneFormatError) as info:
            read_ground_truth(path)
        assert str(info.value) == str(exc)
        return str(exc)
    scene_range, gt = read_ground_truth(path)
    want = SceneGroundTruth.stack(scene.elements)
    assert scene_range == scene.range
    assert gt.points.shape == (len(scene.elements), scene.n_points, 2)
    # An empty scene stacks to [], the reader's (0, n, 2) in another shape.
    assert np.array_equal(gt.points, np.reshape(want.points, gt.points.shape))
    assert gt.classes.dtype == want.classes.dtype and np.array_equal(gt.classes, want.classes)
    return None


def random_prediction(rng, n_points=20, score_lo=0.05, score_hi=0.95):
    return PredictedElement(
        scores=rng.uniform(score_lo, score_hi, size=3),
        points=rng.uniform(0.0, 1.0, size=(n_points, 2)),
    )


#: Quarter-grid coordinates: exact cost ties and zero-length edges are common.
_GRID = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
_UNIT = st.floats(0.0, 1.0)


@st.composite
def matching_problems(draw, classes=tuple(ElementClass), max_gts=4, max_preds=6):
    """(predictions, ground truths) of one point count; P >= G >= 1."""
    n = draw(st.integers(3, 10))
    n_gts = draw(st.integers(1, max_gts))
    n_preds = draw(st.integers(n_gts, max_preds))
    coord = _GRID if draw(st.booleans()) else _UNIT
    gt_classes = draw(st.lists(st.sampled_from(classes), min_size=n_gts, max_size=n_gts))
    gt_pts = draw(hnp.arrays(np.float64, (n_gts, n, 2), elements=coord))
    pred_pts = draw(hnp.arrays(np.float64, (n_preds, n, 2), elements=coord))
    scores = draw(hnp.arrays(np.float64, (n_preds, 3), elements=st.one_of(_GRID, _UNIT)))
    gts = [MapElement(c, KIND_FOR_CLASS[c], p) for c, p in zip(gt_classes, gt_pts)]
    preds = [PredictedElement(scores=s, points=p) for s, p in zip(scores, pred_pts)]
    return preds, gts


@st.composite
def reordering_problems(draw, **kwargs):
    """A matching problem, plus its ground truth with each element stored
    under a drawn member of its own ordering group: the same shapes."""
    preds, gts = draw(matching_problems(**kwargs))
    reordered = [
        MapElement(gt.element_class, gt.kind,
                   apply_permutation(gt.points, draw(st.sampled_from(gt.group().members))))
        for gt in gts
    ]
    return preds, gts, reordered


def unique_best_ordering(pred_points, gt) -> bool:
    """Whether one ordering alone attains the least in-order Manhattan cost,
    so that the first-minimum rule has no tie to break."""
    terms = np.abs(pred_points[None] - gt.points[gt.group().index_maps()]).sum(axis=2)
    costs = np.cumsum(terms, axis=1)[:, -1]  # in point order, as the kernel adds
    return np.count_nonzero(costs == costs.min()) == 1


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@contextlib.contextmanager
def matcher_backend(backend):
    """The matcher's binders: the loaded backend's, or with "numpy" the
    ``_pure`` bodies, whichever backend was loaded."""
    with pytest.MonkeyPatch.context() as m:
        if backend == "numpy":
            binders = _kernels._binders(None)
            m.setattr(_kernels, "_bind_manhattan", binders.manhattan)
            m.setattr(_kernels, "_bind_focal", binders.focal)
        yield
