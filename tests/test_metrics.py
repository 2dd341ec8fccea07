from types import SimpleNamespace
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vecmap import metrics
from vecmap.geometry import (
    KIND_FOR_CLASS,
    ElementClass,
    ElementKind,
    MapElement,
    SceneRange,
    denormalize,
    normalize,
)
from vecmap.matching import PredictedElement
from vecmap.metrics import (
    INTERPOLATION_POINTS,
    APConfig,
    APCounts,
    APReport,
    SceneGroundTruth,
    ScenePredictions,
    _interpolated_ap,
    _stack_by_count,
    chamfer_distance,
    evaluate_ap,
)
from vecmap.scenegen import PerturbSpec, SceneSpec, generate_scene, perturb


class TestChamferDistance:
    def test_identical_sets(self, rng):
        pts = rng.uniform(size=(15, 2)) * 10
        assert chamfer_distance(pts, pts.copy()) == 0.0

    def test_single_pair(self):
        assert chamfer_distance([[0, 0]], [[0, 2]]) == pytest.approx(2.0)

    def test_parallel_segments(self):
        a = np.column_stack([np.zeros(20), np.linspace(0, 10, 20)])
        b = a + [0.4, 0.0]
        assert chamfer_distance(a, b) == pytest.approx(0.4, abs=1e-12)

    def test_symmetric(self, rng):
        a, b = rng.uniform(size=(9, 2)), rng.uniform(size=(4, 2))
        assert chamfer_distance(a, b) == chamfer_distance(b, a)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chamfer_distance(np.empty((0, 2)), [[0, 0]])

    def test_stack_is_one_group_not_a_copy(self, rng):
        stack = rng.uniform(size=(4, 5, 2))
        [(idx, group)] = _stack_by_count(stack)
        assert group is stack and list(idx) == [0, 1, 2, 3]
        # A list is grouped by point count, each group stacked in order.
        sets = [stack[0], rng.uniform(size=(3, 2)), stack[1]]
        (i5, g5), (i3, g3) = _stack_by_count(sets)
        assert (i5, i3) == ([0, 2], [1])
        np.testing.assert_array_equal(g5, stack[:2])
        np.testing.assert_array_equal(g3, sets[1][None])


def _divider(points):
    return MapElement(ElementClass.DIVIDER, ElementKind.POLYLINE, points)


def _scored(points_metric, score, cls=ElementClass.DIVIDER, sr=SceneRange()):
    scores = np.zeros(3)
    scores[int(cls)] = score
    return PredictedElement(scores=scores, points=normalize(points_metric, sr))


def _full_scene(seed=3):
    scene = generate_scene(SceneSpec(seed=seed))
    preds = perturb(scene, PerturbSpec(seed=seed))
    return [preds], [list(scene.elements)], scene.range


class TestEvaluateAP:
    def test_perfect_detector(self):
        pred_scenes, gt_scenes, sr = _full_scene()
        report = evaluate_ap(pred_scenes, gt_scenes, APConfig(), sr)
        assert report.mean_ap == 1.0
        assert all(ap == 1.0 for ap in report.per_class_per_threshold.values())

    def test_no_predictions(self):
        _, gt_scenes, sr = _full_scene()
        report = evaluate_ap([[]], gt_scenes, APConfig(), sr)
        assert report.mean_ap == 0.0

    def test_two_divider_fixture(self):
        # hand-built PR curve: TP at rank 1, FP (2 m off) at rank 2, 2 GT
        # -> precision 1 up to recall 0.5, so 101-point AP = 51/101
        sr = SceneRange()
        gt1 = np.column_stack([np.full(20, -3.0), np.linspace(-20, 20, 20)])
        gt2 = np.column_stack([np.full(20, 6.0), np.linspace(-20, 20, 20)])
        gts = [[_divider(gt1), _divider(gt2)]]
        preds = [[_scored(gt1, 0.9), _scored(gt2 + [2.0, 0.0], 0.8)]]
        report = evaluate_ap(preds, gts, APConfig(), sr)
        for tau in (0.5, 1.0, 1.5):
            assert report.per_class_per_threshold[
                (ElementClass.DIVIDER, tau)
            ] == pytest.approx(51 / 101, abs=1e-9)
            assert report.counts[(ElementClass.DIVIDER, tau)] == APCounts(tp=1, fp=1, n_gt=2)
            assert report.counts[(ElementClass.BOUNDARY, tau)] == APCounts(tp=0, fp=0, n_gt=0)

    @pytest.mark.parametrize("edit, message", [
        (lambda p, g: (ScenePredictions(p.points[:2], p.scores), g),
         r"scene 1: scores must have shape \(2, 3\) for 2 predicted point sets, got \(3, 3\)"),
        (lambda p, g: (p, SceneGroundTruth(g.points, g.classes[:2])),
         r"scene 1: classes must be 3 classes, .* got \[0, 1\]"),
        (lambda p, g: (p, SceneGroundTruth(g.points, np.append(g.classes[:2], 7))),
         r"scene 1: classes must be 3 classes, .*each 0, 1 or 2, got \[0, 1, 7\]"),
    ], ids=["extra-score-row", "short-classes", "class-7"])
    def test_inconsistent_scene_arrays_rejected(self, edit, message):
        # Unchecked, each of these scores a perfect detector 2/3: a phantom
        # false positive, or a class whose ground truth is lost.
        scene = generate_scene(SceneSpec(seed=0, n_ped=1, n_divider=1, n_boundary=1))
        preds = ScenePredictions.stack(perturb(scene, PerturbSpec(seed=0))[:3])  # no padding
        gt = SceneGroundTruth.stack(list(scene.elements))
        assert gt.classes.tolist() == [0, 1, 2]
        assert evaluate_ap([preds], [gt], APConfig(), scene.range).mean_ap == 1.0
        bad_preds, bad_gt = edit(preds, gt)
        with pytest.raises(ValueError, match=message):
            evaluate_ap([preds, bad_preds], [gt, bad_gt], APConfig(), scene.range)

    def test_scene_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate_ap([[]], [[], []])

    def test_scene_range_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="1 scene ranges for 2 scenes"):
            evaluate_ap([[], []], [[], []], APConfig(), [SceneRange()])

    def test_arrays_equal_list_form(self):
        # The array forms and the list forms are one core; per-scene ranges
        # given as a list equal the one shared range.  Ground-truth classes
        # may be given as a list.
        scenes = [generate_scene(SceneSpec(seed=s)) for s in range(3)]
        preds = [perturb(sc, PerturbSpec(seed=s, point_noise_sigma=0.4, false_positive_count=3,
                                         score_model="noisy_confidence"))
                 for s, sc in enumerate(scenes)]
        gts = [list(sc.elements) for sc in scenes]
        arrays = [ScenePredictions(np.stack([p.points for p in ps]),
                                   np.stack([p.scores for p in ps])) for ps in preds]
        gt_arrays = [SceneGroundTruth(np.stack([el.points for el in g]),
                                      np.array([el.element_class for el in g])) for g in gts]
        gt_lists = [SceneGroundTruth(a.points, a.classes.tolist()) for a in gt_arrays]
        base = evaluate_ap(preds, gts, APConfig(), SceneRange())
        assert evaluate_ap(arrays, gts, APConfig(), [SceneRange()] * 3) == base
        assert evaluate_ap(arrays, gt_arrays, APConfig(), SceneRange()) == base
        assert evaluate_ap(preds, gt_lists, APConfig(), SceneRange()) == base
        assert base.mean_ap > 0

    def test_score_scaling_invariance(self):
        pred_scenes, gt_scenes, sr = _full_scene()
        preds = perturb(
            generate_scene(SceneSpec(seed=3)),
            PerturbSpec(seed=9, point_noise_sigma=0.3, score_model="noisy_confidence"),
        )
        base = evaluate_ap([preds], gt_scenes, APConfig(), sr)
        scaled = [
            PredictedElement(scores=p.scores * [1.0, 0.35, 1.0], points=p.points)
            for p in preds
        ]
        report = evaluate_ap([scaled], gt_scenes, APConfig(), sr)
        assert report.per_class_ap[ElementClass.DIVIDER] == pytest.approx(
            base.per_class_ap[ElementClass.DIVIDER], abs=1e-12
        )

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_threshold_monotonicity(self, seed):
        scene = generate_scene(SceneSpec(seed=seed))
        preds = perturb(
            scene,
            PerturbSpec(
                seed=seed,
                point_noise_sigma=0.4,
                false_positive_count=3,
                score_model="noisy_confidence",
            ),
        )
        report = evaluate_ap([preds], [list(scene.elements)], APConfig(), scene.range)
        for cls in ElementClass:
            aps = [report.per_class_per_threshold[(cls, t)] for t in (0.5, 1.0, 1.5)]
            assert aps[0] <= aps[1] <= aps[2]

    def test_low_score_false_positive_never_helps(self):
        sr = SceneRange()
        gt = np.column_stack([np.zeros(20), np.linspace(-20, 20, 20)])
        gts = [[_divider(gt)]]
        preds = [[_scored(gt, 0.9)]]
        base = evaluate_ap(preds, gts, APConfig(), sr).mean_ap
        with_fp = [[_scored(gt, 0.9), _scored(gt + [10.0, 0.0], 0.2)]]
        assert evaluate_ap(with_fp, gts, APConfig(), sr).mean_ap <= base

    def test_scene_order_invariance(self):
        s1 = generate_scene(SceneSpec(seed=1))
        s2 = generate_scene(SceneSpec(seed=2, n_ped=1, n_divider=2, n_boundary=1))
        p1 = perturb(s1, PerturbSpec(seed=1, point_noise_sigma=0.3))
        p2 = perturb(s2, PerturbSpec(seed=2, point_noise_sigma=0.3))
        fwd = evaluate_ap(
            [p1, p2], [list(s1.elements), list(s2.elements)], APConfig(), s1.range
        )
        rev = evaluate_ap(
            [p2, p1], [list(s2.elements), list(s1.elements)], APConfig(), s1.range
        )
        assert fwd.mean_ap == pytest.approx(rev.mean_ap, abs=1e-12)

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            APConfig(thresholds=(1.0, 0.5))


# A power-of-two range: dyadic coordinates survive normalize/denormalize
# exactly, so the fixtures below hit their distances to the last bit.
_DYADIC = SceneRange(-8.0, 8.0, -8.0, 8.0)


def _segment(x, score):
    """A 2-point vertical divider prediction at x meters."""
    return _scored([[x, -1.0], [x, 1.0]], score, sr=_DYADIC)


def _divider_segments(*xs):
    return [_divider([[x, -1.0], [x, 1.0]]) for x in xs]


class TestGreedyRule:
    def test_nearest_unused_not_nearest_overall(self):
        # The first prediction takes divider A.  The second is nearest to A
        # (0.25 m) but A is taken; it takes B (0.75 m) instead.  The mmdet
        # rule (nearest overall, else FP) would score it FP at every tau,
        # giving 51/101 at 1.0 and 1.5 m.
        gts = [_divider_segments(0.0, 1.0)]
        preds = [[_segment(0.0, 0.9), _segment(0.25, 0.8)]]
        report = evaluate_ap(preds, gts, APConfig(), _DYADIC)
        cells = {t: report.per_class_per_threshold[(ElementClass.DIVIDER, t)]
                 for t in (0.5, 1.0, 1.5)}
        assert cells == {0.5: 51 / 101, 1.0: 1.0, 1.5: 1.0}
        assert report.counts[(ElementClass.DIVIDER, 1.0)] == APCounts(tp=2, fp=0, n_gt=2)
        assert report.counts[(ElementClass.DIVIDER, 0.5)] == APCounts(tp=1, fp=1, n_gt=2)

    def test_strict_threshold_and_first_minimum(self):
        # The first prediction lies exactly 0.5 m from both A and B: FP at
        # tau = 0.5 (strict <); at 1.0 it takes A, the first of the tie, so
        # the second prediction (0.25 m from B, 1.25 m from A) takes B.
        gts = [_divider_segments(0.0, 1.0)]
        preds = [[_segment(0.5, 0.9), _segment(1.25, 0.8)]]
        report = evaluate_ap(preds, gts, APConfig(), _DYADIC)
        cells = {t: report.per_class_per_threshold[(ElementClass.DIVIDER, t)]
                 for t in (0.5, 1.0, 1.5)}
        assert cells == {0.5: 25.5 / 101, 1.0: 1.0, 1.5: 1.0}
        assert report.counts[(ElementClass.DIVIDER, 0.5)] == APCounts(tp=1, fp=1, n_gt=2)


class TestEmptyPointSets:
    def _scenes(self, scores):
        empty = PredictedElement(scores=scores, points=np.empty((0, 2)))
        gt = _divider([[0.0, -1.0], [0.0, 1.0]])
        return [[_segment(0.0, 0.9)], [_segment(0.0, 0.9), empty]], [[gt], [gt]]

    def test_scored_for_its_ground_truth_class(self):
        preds, gts = self._scenes([0.0, 0.7, 0.0])
        with pytest.raises(ValueError, match="scene 1: prediction 1 has an empty point set"):
            evaluate_ap(preds, gts, APConfig(), _DYADIC)

    def test_scored_only_for_a_class_without_ground_truth(self):
        # Scored on ped_crossing only, against dividers: no distance to it is
        # ever needed, and it is still rejected.
        preds, gts = self._scenes([0.7, 0.0, 0.0])
        with pytest.raises(ValueError, match="scene 1: prediction 1 has an empty point set"):
            evaluate_ap(preds, gts, APConfig(), _DYADIC)

    def test_empty_ground_truth(self):
        gt = SimpleNamespace(element_class=ElementClass.DIVIDER, points=np.empty((0, 2)))
        with pytest.raises(ValueError, match="scene 0: ground truth 0 has an empty point set"):
            evaluate_ap([[]], [[gt]], APConfig(), _DYADIC)


def _loop_interpolated_ap(tp_flags, n_gt, n_interp):
    """101-point interpolated AP as a loop over recall levels."""
    if n_gt == 0 or not tp_flags:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    fp = np.cumsum(~np.asarray(tp_flags, dtype=bool))
    recall = tp / n_gt
    precision = tp / (tp + fp)
    ap = 0.0
    for r in np.linspace(0.0, 1.0, n_interp):
        mask = recall >= r - 1e-12
        ap += precision[mask].max() if mask.any() else 0.0
    return ap / n_interp


class TestInterpolatedAP:
    @settings(max_examples=300, deadline=None)
    @given(flags=st.lists(st.booleans(), max_size=60), extra_gt=st.integers(0, 40),
           n_interp=st.sampled_from([2, 11, 101]))
    def test_equals_loop_over_levels(self, flags, extra_gt, n_interp):
        n_gt = sum(flags) + extra_gt
        with mock.patch.object(metrics, "INTERPOLATION_POINTS", n_interp):
            got = _interpolated_ap(flags, n_gt)
        assert got == _loop_interpolated_ap(flags, n_gt, n_interp)


def _oracle_evaluate_ap(pred_scenes, gt_scenes, cfg, scene_range):
    """The per-threshold loop evaluate_ap ran before it shared one distance
    matrix per scene: every distance computed pair by pair, per class and
    threshold."""
    pooled = [
        (si, pred.scores, denormalize(pred.points, scene_range))
        for si, preds in enumerate(pred_scenes)
        for pred in preds
    ]
    per_cell, counts = {}, {}
    for cls in ElementClass:
        gt_by_scene = [
            [gt.points for gt in gts if gt.element_class is cls] for gts in gt_scenes
        ]
        n_gt = sum(len(g) for g in gt_by_scene)
        candidates = [
            (float(scores[cls]), si, pts)
            for si, scores, pts in pooled
            if scores[cls] > 0.0
        ]
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
            per_cell[(cls, tau)] = _loop_interpolated_ap(flags, n_gt, INTERPOLATION_POINTS)
            counts[(cls, tau)] = APCounts(tp=sum(flags), fp=flags.count(False), n_gt=n_gt)
    per_class = {
        cls: float(np.mean([per_cell[(cls, tau)] for tau in cfg.thresholds]))
        for cls in ElementClass
    }
    return APReport(per_cell, per_class, float(np.mean(list(per_class.values()))), counts)


#: Normalized quarter-grid steps are 0.5 m in _SMALL: distances tie with
#: each other and with the thresholds.
_SMALL = SceneRange(-1.0, 1.0, -1.0, 1.0)
_QUARTER = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
_EIGHTH = st.sampled_from([i / 8 for i in range(5)])  # 0.25 m apart, 1 m wide


@st.composite
def _point_set(draw, mode, n_min):
    """Normalized points: a free set, or in "segments" mode a vertical
    segment, whose distance to another is exactly the x gap in meters."""
    if mode == "segments":
        n = draw(st.integers(n_min, 3))
        return np.column_stack([np.full(n, draw(_EIGHTH)), np.linspace(0.25, 0.75, n)])
    coord = _QUARTER if mode == "quarter" else st.floats(0.0, 1.0)
    return draw(hnp.arrays(np.float64, (draw(st.integers(n_min, 6)), 2), elements=coord))


@st.composite
def ap_problems(draw, scene_range=_SMALL):
    """Scenes of mixed classes and point counts, possibly empty on either
    side; each prediction is free or a shifted copy of a ground truth."""
    mode = draw(st.sampled_from(["segments", "quarter", "uniform"]))
    shift = st.sampled_from([-0.25, 0.0, 0.25]) if mode != "uniform" else st.floats(-0.3, 0.3)
    score = st.sampled_from([0.0, 0.3, 0.6, 0.9])  # ties, and 0 at the floor
    pred_scenes, gt_scenes = [], []
    for _ in range(draw(st.integers(1, 4))):
        gts = []
        for _ in range(draw(st.integers(0, 4))):
            # Segments share one class, so equidistant ground truth is common.
            cls = ElementClass.DIVIDER if mode == "segments" else draw(st.sampled_from(list(ElementClass)))
            kind = KIND_FOR_CLASS[cls]
            pts = draw(_point_set(mode, 3 if kind is ElementKind.POLYGON else 2))
            gts.append(MapElement(cls, kind, denormalize(pts, scene_range)))
        preds = []
        for _ in range(draw(st.integers(0, 5))):
            source = draw(st.integers(-1, len(gts) - 1))
            if source < 0:
                pts = draw(_point_set(mode, 2))
            else:
                base = normalize(gts[source].points, scene_range)
                pts = base + draw(hnp.arrays(np.float64, base.shape, elements=shift))
            scores = draw(hnp.arrays(np.float64, 3, elements=score))
            preds.append(PredictedElement(scores=scores, points=pts))
        pred_scenes.append(preds)
        gt_scenes.append(gts)
    return pred_scenes, gt_scenes


def _tie_problem():
    """Dividers 0.5 m apart and a prediction midway: whether the rank-2
    prediction, 0.25 m from the second divider and 0.75 m from the first,
    is a TP at 0.5 m depends on which divider the first one took."""

    def segment(x):
        return np.array([[x, 0.25], [x, 0.75]])

    gts = [MapElement(ElementClass.DIVIDER, ElementKind.POLYLINE,
                      denormalize(segment(x), _SMALL)) for x in (0.0, 0.25)]
    preds = [PredictedElement(scores=[0.0, score, 0.0], points=segment(x))
             for x, score in ((0.125, 0.9), (0.375, 0.8))]
    return [preds], [gts]


class TestEvaluateAPOracle:
    @settings(max_examples=200, deadline=None)
    @given(problem=ap_problems())
    @example(problem=_tie_problem())
    def test_equals_per_threshold_loop(self, problem):
        pred_scenes, gt_scenes = problem
        cfg = APConfig()
        got = evaluate_ap(pred_scenes, gt_scenes, cfg, _SMALL)
        assert got == _oracle_evaluate_ap(pred_scenes, gt_scenes, cfg, _SMALL)

    def test_equals_per_threshold_loop_where_pairs_are_skipped(self, monkeypatch):
        # On 8 m across, quarter steps are 2 m and eighth steps 1 m: some
        # pairs lie beyond 2 * 1.5 m, the distance past which evaluate_ap
        # skips a pair, some exactly there, and some within it.
        wide, skipped = SceneRange(-4.0, 4.0, -4.0, 4.0), []
        chamfer_matrix = metrics._kernels.chamfer_matrix

        def counted(a, b, cutoff=np.inf):
            out = chamfer_matrix(a, b, cutoff)
            skipped.append(int(np.isinf(out).sum()))
            return out

        monkeypatch.setattr(metrics._kernels, "chamfer_matrix", counted)

        @settings(max_examples=200, deadline=None)
        @given(problem=ap_problems(wide))
        def check(problem):
            pred_scenes, gt_scenes = problem
            cfg = APConfig()
            got = evaluate_ap(pred_scenes, gt_scenes, cfg, wide)
            assert got == _oracle_evaluate_ap(pred_scenes, gt_scenes, cfg, wide)

        check()
        assert sum(skipped) > 0

    def test_equals_per_threshold_loop_on_generated_scenes(self):
        scenes = [generate_scene(SceneSpec(seed=s, n_points=12 + s)) for s in range(3)]
        preds = [
            perturb(sc, PerturbSpec(seed=s, point_noise_sigma=0.4, false_positive_count=3,
                                    score_model="noisy_confidence"))
            for s, sc in enumerate(scenes)
        ]
        gts = [list(sc.elements) for sc in scenes]
        cfg = APConfig()
        got = evaluate_ap(preds, gts, cfg, scenes[0].range)
        assert got == _oracle_evaluate_ap(preds, gts, cfg, scenes[0].range)
