import itertools
import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    matcher_backend,
    matching_problems,
    random_element,
    random_prediction,
    reordering_problems,
    unique_best_ordering,
)
from vecmap import _kernels
from vecmap.geometry import (
    Direction,
    ElementClass,
    ElementKind,
    MapElement,
    apply_permutation,
    permutation_group,
)
from vecmap.matching import (
    BoundMatcher,
    CapacityError,
    CostConfig,
    PositionCost,
    PredictedElement,
    _cost_matrix,
    focal_class_cost,
    hierarchical_match,
    instance_match,
    manhattan_distance,
    match_arrays,
    point_level_match,
    stack_predictions,
)
from vecmap.metrics import SceneGroundTruth, chamfer_distance


class TestPredictedElement:
    @pytest.mark.parametrize("bad", [math.nan, -0.25, 1.5], ids=["nan", "negative", "above-one"])
    def test_score_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"scores must lie in \[0, 1\]"):
            PredictedElement(scores=[bad, 0.5, 0.5], points=np.zeros((3, 2)))

    def test_scores_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"expected 3 class scores, got shape \(2,\)"):
            PredictedElement(scores=[0.5, 0.5], points=np.zeros((3, 2)))


class TestManhattan:
    def test_unit_offsets(self):
        assert manhattan_distance((0, 0), (1, 1)) == 2.0

    def test_identity(self):
        assert manhattan_distance((3.5, -2.0), (3.5, -2.0)) == 0.0

    def test_direct(self):
        assert math.isclose(manhattan_distance((0.2, 0.7), (0.5, 0.1)), 0.9)

    @pytest.mark.parametrize("kind", list(ElementKind))
    def test_equals_point_level_cost(self, rng, kind):
        # The matcher adds |dx| + |dy| point by point in order; a pairwise
        # np.abs(a - b).sum() differs from it in the last bits on most
        # 20-point pairs.
        for _ in range(100):
            pred = rng.uniform(0.0, 1.0, size=(20, 2))
            gt = random_element(rng, kind)
            pa = point_level_match(pred, gt)
            assert manhattan_distance(pred, apply_permutation(gt.points, pa.perm)) == pa.cost


class TestFocalClassCost:
    def test_half_confidence_value(self):
        # independent scalar evaluation of the positive-minus-negative form
        p, gamma, alpha, eps = 0.5, 2.0, 0.25, 1e-12
        expected = alpha * (1 - p) ** gamma * -math.log(p + eps) - (
            1 - alpha
        ) * p**gamma * -math.log(1 - p + eps)
        got = focal_class_cost([0.1, 0.5, 0.2], ElementClass.DIVIDER)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(-0.0866434, abs=1e-7)

    def test_confident_match_strongly_preferred(self):
        assert focal_class_cost([1.0, 0, 0], ElementClass.PED_CROSSING) < -15
        assert math.isfinite(focal_class_cost([1.0, 0, 0], ElementClass.PED_CROSSING))

    def test_zero_score_strongly_dispreferred(self):
        cost = focal_class_cost([0.0, 0, 0], ElementClass.PED_CROSSING)
        assert cost > 5 and math.isfinite(cost)


class TestClassCostTable:
    @settings(max_examples=60, deadline=None)
    @given(
        scores=hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 6), st.just(3)),
            elements=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
        ),
        gamma=st.sampled_from([0.0, 0.5, 2.0, 3.0]),
        alpha=st.sampled_from([0.01, 0.25, 0.9]),
    )
    def test_entries_equal_focal_class_cost(self, scores, gamma, alpha):
        cfg = CostConfig(focal_gamma=gamma, focal_alpha=alpha)
        table = _kernels.focal_cost_table(scores, cfg.focal_gamma, cfg.focal_alpha)
        assert table.shape == (len(scores), 3)
        for p in range(len(scores)):
            for cls in ElementClass:
                assert table[p, int(cls)] == focal_class_cost(scores[p], cls, cfg)

    @pytest.mark.parametrize("gamma", [2.0, 0.5])
    def test_entries_equal_focal_class_cost_in_bulk(self, rng, gamma):
        # numpy's vectorized log and power differ from the scalar ones in
        # the last ulp on a fraction of a percent of inputs: check many.
        cfg = CostConfig(focal_gamma=gamma)
        scores = rng.uniform(size=(5000, 3))
        expected = [[focal_class_cost(row, cls, cfg) for cls in ElementClass] for row in scores]
        table = _kernels.focal_cost_table(scores, cfg.focal_gamma, cfg.focal_alpha)
        np.testing.assert_array_equal(table, expected)


def _oracle_point_match(pred_pts, gt):
    """Exhaustive enumeration over the group, plain-python accumulation."""
    group = permutation_group(gt.kind, gt.n_points)
    best_cost, best_member = None, None
    for member in group.members:
        idx = member.index_map(gt.n_points)
        acc = 0.0
        for j in range(gt.n_points):
            g = idx[j]
            acc += abs(pred_pts[j][0] - gt.points[g][0]) + abs(
                pred_pts[j][1] - gt.points[g][1]
            )
        if best_cost is None or acc < best_cost:
            best_cost, best_member = acc, member
    return best_cost, best_member


class TestPointLevelMatch:
    def test_exact_polyline_is_forward_zero(self, rng):
        gt = random_element(rng, kind=ElementKind.POLYLINE)
        result = point_level_match(gt.points, gt)
        assert result.perm.direction is Direction.FORWARD
        assert result.perm.offset == 0
        assert result.cost == 0.0

    def test_reversed_polyline_is_reverse_zero(self, rng):
        gt = random_element(rng, kind=ElementKind.POLYLINE)
        result = point_level_match(gt.points[::-1], gt)
        assert result.perm.direction is Direction.REVERSE
        assert result.cost == 0.0

    def test_random_polygon_matches_exhaustive_enumeration(self, rng):
        for _ in range(20):
            gt = random_element(rng, kind=ElementKind.POLYGON, n_points=8)
            pred = rng.uniform(size=(8, 2))
            result = point_level_match(pred, gt)
            cost, member = _oracle_point_match(pred, gt)
            assert result.cost == cost
            assert result.perm == member

    def test_cost_invariant_under_gt_reordering(self, rng):
        gt = random_element(rng, kind=ElementKind.POLYGON, n_points=9)
        pred = rng.uniform(size=(9, 2))
        base = point_level_match(pred, gt).cost
        for member in gt.group().members:
            reordered = MapElement(
                gt.element_class, gt.kind, apply_permutation(gt.points, member)
            )
            assert point_level_match(pred, reordered).cost == base

    def test_zero_cost_iff_reordering(self, rng):
        gt = random_element(rng, kind=ElementKind.POLYGON, n_points=6)
        shifted = apply_permutation(gt.points, gt.group().members[3])
        assert point_level_match(shifted, gt).cost == 0.0
        assert point_level_match(shifted + 0.01, gt).cost > 0.0

    def test_length_mismatch_rejected(self, rng):
        gt = random_element(rng, n_points=10)
        with pytest.raises(ValueError):
            point_level_match(rng.uniform(size=(9, 2)), gt)


class TestChamferPositionCost:
    def test_identical_sets(self, rng):
        pts = rng.uniform(size=(12, 2))
        assert chamfer_distance(pts, pts.copy()) == 0.0

    def test_single_pair_euclidean(self):
        assert chamfer_distance([[0, 0]], [[3, 4]]) == pytest.approx(5.0)

    def test_two_vs_one(self):
        got = chamfer_distance([[0, 0], [1, 0]], [[0, 1]])
        expected = 0.5 * ((1 + math.sqrt(2)) / 2 + 1)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_symmetric(self, rng):
        a, b = rng.uniform(size=(8, 2)), rng.uniform(size=(5, 2))
        assert chamfer_distance(a, b) == chamfer_distance(b, a)

    def test_translation_invariant(self, rng):
        a, b = rng.uniform(size=(6, 2)), rng.uniform(size=(6, 2))
        shift = np.array([1.7, -0.3])
        assert chamfer_distance(a + shift, b + shift) == pytest.approx(
            chamfer_distance(a, b), abs=1e-12
        )


def _pair_cost(pred, gt, cfg):
    cost = focal_class_cost(pred.scores, gt.element_class, cfg)
    if cfg.position_cost is PositionCost.CHAMFER:
        return cost + chamfer_distance(pred.points, gt.points)
    return cost + _oracle_point_match(pred.points, gt)[0]


def _oracle_instance_match(preds, gts, cfg):
    """Brute force over all injections of ground truths into predictions."""
    best_cost, best_pairs = None, None
    for combo in itertools.permutations(range(len(preds)), len(gts)):
        total = sum(_pair_cost(preds[p], gts[g], cfg) for g, p in enumerate(combo))
        if best_cost is None or total < best_cost:
            best_cost = total
            best_pairs = sorted((p, g) for g, p in enumerate(combo))
    return best_cost, best_pairs


class TestInstanceMatch:
    def test_singleton(self, rng):
        gt = random_element(rng)
        pred = PredictedElement(
            scores=np.eye(3)[int(gt.element_class)] * 0.99, points=gt.points
        )
        assert instance_match([pred], [gt]).pairs == ((0, 0),)

    def test_diagonal_dominance(self, rng):
        gts = [random_element(rng) for _ in range(4)]
        preds = [
            PredictedElement(scores=np.eye(3)[int(g.element_class)] * 0.95, points=g.points)
            for g in gts
        ]
        assert instance_match(preds, gts).pairs == ((0, 0), (1, 1), (2, 2), (3, 3))

    @pytest.mark.parametrize("position_cost", list(PositionCost))
    def test_random_matches_brute_force(self, rng, position_cost):
        cfg = CostConfig(position_cost=position_cost)
        for _ in range(5):
            preds = [random_prediction(rng, n_points=8) for _ in range(5)]
            gts = [random_element(rng, n_points=8) for _ in range(4)]
            got = instance_match(preds, gts, cfg)
            oracle_cost, oracle_pairs = _oracle_instance_match(preds, gts, cfg)
            total = sum(_pair_cost(preds[p], gts[g], cfg) for p, g in got.pairs)
            assert total == pytest.approx(oracle_cost, rel=1e-12)
            assert list(got.pairs) == oracle_pairs

    def test_capacity_error(self, rng):
        with pytest.raises(CapacityError):
            instance_match([random_prediction(rng)], [random_element(rng)] * 2)

    def test_chamfer_capacity_error(self, rng):
        cfg = CostConfig(position_cost=PositionCost.CHAMFER)
        with pytest.raises(CapacityError, match="^1 predictions cannot cover 2 ground-truth"):
            instance_match([random_prediction(rng)], [random_element(rng)] * 2, cfg)


class TestHierarchicalMatch:
    def test_empty_gt(self, rng):
        match = hierarchical_match([random_prediction(rng)], [])
        assert match.instance.pairs == ()
        assert match.point_level == {}

    @pytest.mark.parametrize("position_cost", list(PositionCost))
    @pytest.mark.parametrize("n_preds", [0, 1])
    def test_nothing_to_match(self, rng, position_cost, n_preds):
        # No ground truth, with or without predictions: under either cost
        # both entries return empty results rather than failing in a kernel.
        cfg = CostConfig(position_cost=position_cost)
        preds = [random_prediction(rng) for _ in range(n_preds)]
        assert instance_match(preds, [], cfg).pairs == ()
        match = hierarchical_match(preds, [], cfg)
        assert match.instance.pairs == () and match.point_level == {}

    def test_perfect_predictions(self, rng):
        gts = [random_element(rng) for _ in range(3)]
        preds = [
            PredictedElement(scores=np.eye(3)[int(g.element_class)], points=g.points)
            for g in gts
        ]
        match = hierarchical_match(preds, gts)
        assert match.instance.pairs == ((0, 0), (1, 1), (2, 2))
        for pa in match.point_level.values():
            assert pa.cost == 0.0

    def test_joint_brute_force(self, rng):
        cfg = CostConfig()
        preds = [random_prediction(rng, n_points=6) for _ in range(6)]
        gts = [random_element(rng, n_points=6) for _ in range(4)]
        match = hierarchical_match(preds, gts, cfg)
        oracle_cost, oracle_pairs = _oracle_instance_match(preds, gts, cfg)
        assert list(match.instance.pairs) == oracle_pairs
        for pair, pa in match.point_level.items():
            cost, member = _oracle_point_match(preds[pair[0]].points, gts[pair[1]])
            assert pa.cost == cost
            assert pa.perm == member

    def test_fixed_order_forces_identity_perm(self, rng):
        gts = [random_element(rng, kind=ElementKind.POLYGON)]
        preds = [
            PredictedElement(scores=np.array([0.9, 0.0, 0.0]), points=gts[0].points)
        ]
        match = hierarchical_match(preds, gts, fixed_order=True)
        pa = match.point_level[(0, 0)]
        assert pa.perm.direction is Direction.FORWARD and pa.perm.offset == 0

    def test_deterministic(self, rng):
        preds = [random_prediction(rng) for _ in range(6)]
        gts = [random_element(rng) for _ in range(3)]
        assert hierarchical_match(preds, gts) == hierarchical_match(preds, gts)

    @settings(max_examples=80, deadline=None)
    @given(
        problem=matching_problems(),
        position_cost=st.sampled_from(list(PositionCost)),
        fixed_order=st.booleans(),
    )
    def test_point_level_entries_equal_point_level_match(
        self, problem, position_cost, fixed_order
    ):
        # The entries come from the point2point matcher's argmin at the
        # matched pairs, whichever cost chose the pairs.  Either way each
        # pair gets its own search's result.
        preds, gts = problem
        cfg = CostConfig(position_cost=position_cost)
        match = hierarchical_match(preds, gts, cfg, fixed_order)
        assert set(match.point_level) == set(match.instance.pairs)
        pos = _fixed_order_positions(preds, gts)
        for (p, g), pa in match.point_level.items():
            if fixed_order:
                assert pa.perm == gts[g].group().members[0]
                assert pa.cost == pos[p, g]
            else:
                assert pa == point_level_match(preds[p].points, gts[g])


_BACKENDS = pytest.mark.parametrize("backend", ["loaded", "numpy"])


@_BACKENDS
@settings(max_examples=80, deadline=None)
@given(problem=matching_problems(), fixed_order=st.booleans())
def test_grouped_costs_equal_per_ground_truth_loop(backend, problem, fixed_order):
    # One kernel call per kind (or one identity call) against one call per
    # ground truth: the same cost bits and the same orderings.
    preds, gts = problem
    points, scores = stack_predictions(preds)
    cfg = CostConfig()
    stacked = SceneGroundTruth.stack(gts)
    with matcher_backend(backend):
        matcher = BoundMatcher(points, scores, stacked.points, stacked.classes, cfg, fixed_order)
        cost = matcher.cost(stacked.points)
    grouped_pos, grouped_best = matcher.manhattan, matcher.best
    table = _kernels.focal_cost_table(scores, cfg.focal_gamma, cfg.focal_alpha)
    for g, gt in enumerate(gts):
        if fixed_order:
            maps = np.arange(gt.n_points)[None, :]
        else:
            maps = permutation_group(gt.kind, gt.n_points).index_maps()
        pos, best = _kernels.min_manhattan_over_perms(points, gt.points, maps)
        np.testing.assert_array_equal(cost[:, g], table[:, int(gt.element_class)] + pos)
        np.testing.assert_array_equal(grouped_pos[:, g], pos)
        np.testing.assert_array_equal(grouped_best[:, g], best)


@_BACKENDS
@pytest.mark.parametrize("fixed_order", [False, True], ids=["order-free", "fixed-order"])
def test_bound_matcher_keeps_no_stale_state(rng, fixed_order, backend):
    # One matcher, called again and again with fresh predictions written
    # into its bound buffers and its ground truth stored under freshly drawn
    # orderings, equals a fresh match_arrays on the same inputs every time.
    # A NaN point or score raises, and the call after it is unaffected;
    # returned arrays are not overwritten by later calls.
    kinds = [ElementKind.POLYGON, ElementKind.POLYLINE, ElementKind.POLYGON, ElementKind.POLYLINE]
    gts = [random_element(rng, kind, n_points=8) for kind in kinds]
    stacked = SceneGroundTruth.stack(gts)
    cfg = CostConfig()
    bound_points, bound_scores = np.zeros((6, 8, 2)), np.zeros((6, 3))
    with matcher_backend(backend):
        matcher = BoundMatcher(bound_points, bound_scores, stacked.points, stacked.classes, cfg,
                               fixed_order)

    def call(points, scores, gt_points):
        bound_points[...], bound_scores[...] = points, scores
        return matcher(gt_points)

    seen = []
    for step in range(12):
        points, scores = rng.uniform(size=(6, 8, 2)), rng.uniform(size=(6, 3))
        if step % 3 == 1:  # quarter grid: tied costs and orderings
            points, scores = np.round(points * 4) / 4, np.round(scores * 4) / 4
        if step % 3 == 2:  # every prediction at the same points: the scores decide
            points[1:] = points[0]
        maps = [gt.group().index_maps() for gt in gts]
        reordered = np.stack([gt.points[m[rng.integers(len(m))]] for gt, m in zip(gts, maps)])
        if step == 5:
            bad_points, bad_scores = points.copy(), scores.copy()
            bad_points[2, 3, 0], bad_scores[4, 1] = math.nan, math.nan
            with pytest.raises(ValueError, match="finite"):
                call(bad_points, scores, reordered)
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                call(points, bad_scores, reordered)
        got = call(points, scores, reordered)
        with matcher_backend(backend):
            want = match_arrays(points, scores, list(reordered), stacked.classes, cfg,
                                fixed_order)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        seen.append((got, [a.copy() for a in got]))
    for got, copies in seen:
        for a, b in zip(got, copies):
            assert np.array_equal(a, b)


def test_bound_matcher_reads_buffers_updated_in_place(rng):
    # Bound to the caller's points and scores, the matcher copies nothing:
    # each call sees their current contents, which it leaves as they are.
    kinds = [ElementKind.POLYGON, ElementKind.POLYLINE, ElementKind.POLYLINE]
    gts = [random_element(rng, kind, n_points=6) for kind in kinds]
    stacked = SceneGroundTruth.stack(gts)
    points, scores = rng.uniform(size=(5, 6, 2)), rng.uniform(size=(5, 3))
    matcher = BoundMatcher(points, scores, stacked.points, stacked.classes)
    for _ in range(5):
        points[...], scores[...] = rng.uniform(size=points.shape), rng.uniform(size=scores.shape)
        want = match_arrays(points.copy(), scores.copy(), list(stacked.points), stacked.classes)
        for a, b in zip(matcher(stacked.points.copy()), want):
            assert np.array_equal(a, b)
        assert matcher.points is points and matcher.scores is scores


@pytest.mark.parametrize("name, buf", [
    ("points", np.zeros((5, 6, 2), dtype=np.float32)),
    ("points", np.zeros((5, 6, 4))[..., ::2]),
    ("points", np.zeros((5, 7, 2))),
    ("scores", np.zeros((5, 3)).tolist()),
    ("scores", np.zeros((3, 5)).T),
])
def test_bound_matcher_rejects_buffers_it_would_copy(rng, name, buf):
    # A converted copy would never see the caller's updates.  P and n come
    # from the points: 7 of them against 6-point ground truth is a mismatch.
    stacked = SceneGroundTruth.stack([random_element(rng, ElementKind.POLYLINE, n_points=6)])
    bufs = {"points": np.zeros((5, 6, 2)), "scores": np.zeros((5, 3)), name: buf}
    message = "have 7 points.* has 6" if np.shape(buf) == (5, 7, 2) else f"^{name} "
    with pytest.raises(ValueError, match=message):
        BoundMatcher(bufs["points"], bufs["scores"], stacked.points, stacked.classes)


@pytest.mark.parametrize("entry", [match_arrays, BoundMatcher], ids=["match_arrays", "bind"])
@pytest.mark.parametrize("n_preds, classes, error, message", [
    (3, [0, 1], ValueError, r"^gt_classes must be 3 classes, each 0, 1 or 2, got \[0, 1\]"),
    (3, [0, 1, 2, 0], ValueError, "^gt_classes must be 3 classes"),
    (3, [0, 5, 1], ValueError, r"^gt_classes must be 3 classes, each 0, 1 or 2, got \[0, 5, 1\]"),
    (3, [0, -1, 1], ValueError, "^gt_classes must be 3 classes"),
    (2, [0, 1, 2], CapacityError, "^2 predictions cannot cover 3 ground-truth elements"),
], ids=["short-classes", "long-classes", "class-5", "class-minus-1", "capacity"])
def test_matcher_rejects_inconsistent_input(rng, entry, n_preds, classes, error, message):
    # Every matching entry binds a matcher, and the bind checks its input:
    # none drops a ground truth, returns a partial assignment or a KeyError.
    gt_points = rng.uniform(size=(3, 6, 2))
    points, scores = rng.uniform(size=(n_preds, 6, 2)), rng.uniform(size=(n_preds, 3))
    with pytest.raises(error, match=message):
        entry(points, scores, gt_points, classes)


def _fixed_order_positions(preds, gts):
    """Position entries of the fixed-order cost matrix: the in-order
    Manhattan sum of every (prediction, ground truth) in stored order."""
    points, _ = stack_predictions(preds)
    identity = np.arange(points.shape[1])[None, :]
    return _kernels.manhattan_matrix(points, np.stack([gt.points for gt in gts]), identity)[0]


class TestFixedOrderCost:
    """The reported fixed-order cost is the one the assignment used."""

    @settings(max_examples=80, deadline=None)
    @given(problem=matching_problems())
    def test_equals_cost_matrix_entry(self, problem):
        preds, gts = problem
        match = hierarchical_match(preds, gts, fixed_order=True)
        pos = _fixed_order_positions(preds, gts)
        for (p, g), pa in match.point_level.items():
            assert pa.perm == gts[g].group().members[0]
            assert pa.cost == pos[p, g]

    def test_equals_cost_matrix_entry_on_20_points(self, rng):
        # A pairwise sum of the same terms differs in the last bits on
        # most of these pairs.
        for _ in range(40):
            gts = [random_element(rng, n_points=20) for _ in range(4)]
            preds = [random_prediction(rng, n_points=20) for _ in range(6)]
            match = hierarchical_match(preds, gts, fixed_order=True)
            pos = _fixed_order_positions(preds, gts)
            for (p, g), pa in match.point_level.items():
                assert pa.cost == pos[p, g]


class TestReorderingInvariance:
    """Storing a ground truth under an equivalent ordering changes nothing
    the matcher reports; the aligned ground truth is the same wherever the
    least-cost ordering is unique."""

    @settings(max_examples=100, deadline=None)
    @given(problem=reordering_problems())
    def test_hierarchical_match(self, problem):
        preds, gts, reordered = problem
        base = hierarchical_match(preds, gts)
        got = hierarchical_match(preds, reordered)
        assert got.instance == base.instance
        for p, g in base.instance.pairs:
            assert got.point_level[(p, g)].cost == base.point_level[(p, g)].cost
            if unique_best_ordering(preds[p].points, gts[g]):
                np.testing.assert_array_equal(
                    apply_permutation(reordered[g].points, got.point_level[(p, g)].perm),
                    apply_permutation(gts[g].points, base.point_level[(p, g)].perm),
                )

    @settings(max_examples=60, deadline=None)
    @given(problem=reordering_problems())
    def test_cost_matrix(self, problem):
        preds, gts, reordered = problem
        cfg = CostConfig()
        base = _cost_matrix(preds, gts, cfg, False)
        got = _cost_matrix(preds, reordered, cfg, False)
        np.testing.assert_array_equal(got, base)


class TestPointCountValidation:
    @pytest.mark.parametrize("n_pred", [6, 3])
    @pytest.mark.parametrize("entry", [instance_match, hierarchical_match])
    def test_mismatch_rejected_with_both_counts(self, rng, entry, n_pred):
        gts = [random_element(rng, n_points=4) for _ in range(2)]
        preds = [random_prediction(rng, n_points=n_pred) for _ in range(3)]
        with pytest.raises(ValueError, match=f"have {n_pred} points.* has 4"):
            entry(preds, gts)

    def test_chamfer_instance_match_allows_mismatch(self, rng):
        gts = [random_element(rng, n_points=4)]
        preds = [random_prediction(rng, n_points=6) for _ in range(2)]
        cfg = CostConfig(position_cost=PositionCost.CHAMFER)
        assert len(instance_match(preds, gts, cfg).pairs) == 1
        with pytest.raises(ValueError, match="have 6 points"):
            hierarchical_match(preds, gts, cfg)

    def test_chamfer_cost_takes_any_counts_on_both_sides(self, rng):
        # Ragged predictions against ragged ground truth: each entry is the
        # pair's focal class cost plus its Chamfer distance, bit for bit.
        cfg = CostConfig(position_cost=PositionCost.CHAMFER)
        preds = [random_prediction(rng, n_points=n) for n in (4, 6, 4, 9)]
        gts = [random_element(rng, n_points=n) for n in (5, 4, 7)]
        want = [[focal_class_cost(p.scores, g.element_class, cfg)
                 + chamfer_distance(p.points, g.points) for g in gts] for p in preds]
        np.testing.assert_array_equal(_cost_matrix(preds, gts, cfg, False), want)
        assert len(instance_match(preds, gts, cfg).pairs) == 3

    def test_unequal_predictions_rejected(self, rng):
        preds = [random_prediction(rng, n_points=4), random_prediction(rng, n_points=5)]
        with pytest.raises(ValueError, match="differing point counts"):
            instance_match(preds, [random_element(rng, n_points=4)])


class TestTranslationInvariance:
    def test_point_cost_translation_invariant(self, rng):
        gt = random_element(rng, n_points=7)
        pred = rng.uniform(size=(7, 2))
        shift = np.array([0.25, -0.1])
        shifted_gt = MapElement(gt.element_class, gt.kind, gt.points + shift)
        assert point_level_match(pred + shift, shifted_gt).cost == pytest.approx(
            point_level_match(pred, gt).cost, abs=1e-12
        )
