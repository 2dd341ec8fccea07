import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    matching_problems,
    random_element,
    random_prediction,
    reordering_problems,
    unique_best_ordering,
)
import vecmap._kernels
from vecmap._kernels import _binders
from vecmap._kernels._pure import EDGE_NORM_FLOOR
from vecmap.geometry import ElementClass
from vecmap.geometry import (
    KIND_FOR_CLASS,
    ElementKind,
    MapElement,
    apply_permutation,
    edges,
    permutation_group,
)
from vecmap.losses import (
    BoundLoss,
    LossWeights,
    loss_gradients,
    total_loss,
)
from vecmap.matching import (
    FOCAL_ALPHA,
    FOCAL_GAMMA,
    HierarchicalMatch,
    InstanceAssignment,
    PointAssignment,
    PredictedElement,
    hierarchical_match,
)


def _perfect_preds(gts):
    return [
        PredictedElement(scores=np.eye(3)[int(g.element_class)], points=g.points)
        for g in gts
    ]


def _focal_slot(p, target, gamma=2.0, alpha=0.25, eps=1e-12):
    if target:
        return alpha * (1 - p) ** gamma * -math.log(p + eps)
    return (1 - alpha) * p**gamma * -math.log(1 - p + eps)


class TestClassificationLoss:
    def test_perfect_confidence_near_zero(self, rng):
        gts = [random_element(rng) for _ in range(3)]
        preds = _perfect_preds(gts)
        match = hierarchical_match(preds, gts)
        assert total_loss(preds, gts, match).cls == pytest.approx(0.0, abs=1e-10)

    def test_half_scores_single_match(self, rng):
        gt = random_element(rng, element_class=None)
        pred = PredictedElement(scores=np.full(3, 0.5), points=gt.points)
        match = hierarchical_match([pred], [gt])
        expected = sum(
            _focal_slot(0.5, c == int(gt.element_class)) for c in range(3)
        )
        assert total_loss([pred], [gt], match).cls == pytest.approx(expected)

    def test_vacuous_negatives(self, rng):
        pred = PredictedElement(scores=np.zeros(3), points=rng.uniform(size=(20, 2)))
        match = hierarchical_match([pred], [])
        assert total_loss([pred], [], match).cls == pytest.approx(0.0, abs=1e-10)


class TestPoint2PointLoss:
    def test_perfect_is_zero(self, rng):
        gts = [random_element(rng) for _ in range(3)]
        preds = _perfect_preds(gts)
        match = hierarchical_match(preds, gts)
        assert total_loss(preds, gts, match).p2p == 0.0

    def test_uniform_offset(self, rng):
        pts = np.linspace([0.1, 0.1], [0.3, 0.9], 20)  # asymmetric polyline
        gt = MapElement(
            element_class=random_element(rng, kind=ElementKind.POLYLINE).element_class,
            kind=ElementKind.POLYLINE,
            points=pts,
        )
        pred = PredictedElement(
            scores=np.eye(3)[int(gt.element_class)], points=pts + [0.1, 0.0]
        )
        match = hierarchical_match([pred], [gt])
        assert total_loss([pred], [gt], match).p2p == pytest.approx(2.0, abs=1e-12)

    def test_matches_exhaustive_gamma_oracle(self, rng):
        gts = [random_element(rng, n_points=8) for _ in range(3)]
        preds = [random_prediction(rng, n_points=8) for _ in range(5)]
        match = hierarchical_match(preds, gts)
        expected = 0.0
        for p, g in match.instance.pairs:
            group = permutation_group(gts[g].kind, 8)
            expected += min(
                float(np.abs(preds[p].points - apply_permutation(gts[g].points, m)).sum())
                for m in group.members
            )
        assert total_loss(preds, gts, match).p2p == pytest.approx(expected, rel=1e-12)

    def test_nonnegative(self, rng):
        gts = [random_element(rng) for _ in range(2)]
        preds = [random_prediction(rng) for _ in range(4)]
        match = hierarchical_match(preds, gts)
        assert total_loss(preds, gts, match).p2p >= 0.0


def _oracle_dir_loss(preds, gts, match):
    """Direct edge-by-edge re-evaluation."""
    total = 0.0
    for pair in match.instance.pairs:
        p, g = pair
        aligned = apply_permutation(gts[g].points, match.point_level[pair].perm)
        pe = edges(preds[p].points, gts[g].kind)
        ge = edges(aligned, gts[g].kind)
        for e_hat, e in zip(pe, ge):
            na, nb = np.linalg.norm(e_hat), np.linalg.norm(e)
            if na < 1e-8 or nb < 1e-8:
                continue
            total -= float(np.dot(e_hat, e) / (na * nb))
    return total


class TestEdgeDirectionLoss:
    def test_identical_elements(self, rng):
        gts = [
            random_element(rng, kind=ElementKind.POLYGON),
            random_element(rng, kind=ElementKind.POLYLINE),
        ]
        preds = _perfect_preds(gts)
        match = hierarchical_match(preds, gts)
        # polygon pairs 20 edges, polyline 19, all cosines 1
        assert total_loss(preds, gts, match).dir == pytest.approx(-39.0, abs=1e-9)

    def test_rotated_180_is_antiparallel(self, rng):
        gt = random_element(rng, kind=ElementKind.POLYLINE)
        centroid = gt.points.mean(axis=0)
        rotated = 2 * centroid - gt.points
        pred = PredictedElement(scores=np.eye(3)[int(gt.element_class)], points=rotated)
        # pin the forward pairing so every paired edge is exactly anti-parallel
        identity = permutation_group(ElementKind.POLYLINE, 20).members[0]
        match = HierarchicalMatch(
            instance=InstanceAssignment(pairs=((0, 0),)),
            point_level={(0, 0): PointAssignment(perm=identity, cost=0.0)},
        )
        loss = total_loss([pred], [gt], match).dir
        assert loss == pytest.approx(19.0, abs=1e-9)

    def test_random_matches_oracle(self, rng):
        gts = [random_element(rng) for _ in range(3)]
        preds = [random_prediction(rng) for _ in range(5)]
        match = hierarchical_match(preds, gts)
        assert total_loss(preds, gts, match).dir == pytest.approx(
            _oracle_dir_loss(preds, gts, match), abs=1e-12
        )

    def test_bounded_by_edge_count(self, rng):
        gts = [random_element(rng) for _ in range(3)]
        preds = [random_prediction(rng) for _ in range(4)]
        match = hierarchical_match(preds, gts)
        n_edges = sum(
            20 if gts[g].kind is ElementKind.POLYGON else 19
            for _, g in match.instance.pairs
        )
        loss = total_loss(preds, gts, match).dir
        assert -n_edges <= loss <= n_edges


class TestTotalLoss:
    def test_zero_weights(self, rng):
        gts = [random_element(rng)]
        preds = [random_prediction(rng) for _ in range(2)]
        match = hierarchical_match(preds, gts)
        out = total_loss(preds, gts, match, LossWeights(0.0, 0.0, 0.0))
        assert out.total == 0.0

    def test_perfect_predictions_only_direction_survives(self, rng):
        gts = [random_element(rng, kind=ElementKind.POLYGON)]
        preds = _perfect_preds(gts)
        match = hierarchical_match(preds, gts)
        out = total_loss(preds, gts, match)
        assert out.p2p == 0.0
        assert out.dir == pytest.approx(-20.0, abs=1e-9)
        assert out.total == pytest.approx(2 * out.cls + 5e-3 * out.dir)

    def test_linear_in_weights(self, rng):
        gts = [random_element(rng) for _ in range(2)]
        preds = [random_prediction(rng) for _ in range(3)]
        match = hierarchical_match(preds, gts)
        out = total_loss(preds, gts, match, LossWeights(2.0, 5.0, 5e-3))
        assert out.total == pytest.approx(2 * out.cls + 5 * out.p2p + 5e-3 * out.dir)

    def test_invariant_under_gt_relabeling(self, rng):
        gts = [random_element(rng, kind=ElementKind.POLYGON, n_points=10)]
        preds = [random_prediction(rng, n_points=10) for _ in range(2)]
        match = hierarchical_match(preds, gts)
        base = total_loss(preds, gts, match)
        for member in gts[0].group().members:
            reordered = [
                MapElement(
                    gts[0].element_class,
                    gts[0].kind,
                    apply_permutation(gts[0].points, member),
                )
            ]
            rematch = hierarchical_match(preds, reordered)
            out = total_loss(preds, reordered, rematch)
            assert out.p2p == pytest.approx(base.p2p, abs=1e-9)
            assert out.dir == pytest.approx(base.dir, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(problem=reordering_problems())
def test_losses_invariant_under_equivalent_reorderings(problem):
    # With unique least-cost orderings the aligned ground truth is the same
    # array, so every term and gradient is bit-identical; ties may align a
    # different, equally cheap ordering, which leaves the class term and
    # the point-to-point total unchanged up to summation order.
    preds, gts, reordered = problem
    base_match = hierarchical_match(preds, gts)
    match = hierarchical_match(preds, reordered)
    base = total_loss(preds, gts, base_match)
    got = total_loss(preds, reordered, match)
    assert got.cls == base.cls
    if all(unique_best_ordering(preds[p].points, gts[g]) for p, g in base_match.instance.pairs):
        assert got == base
        base_grads = loss_gradients(preds, gts, base_match)
        grads = loss_gradients(preds, reordered, match)
        np.testing.assert_array_equal(grads.d_points, base_grads.d_points)
        np.testing.assert_array_equal(grads.d_scores, base_grads.d_scores)
    else:
        assert got.p2p == pytest.approx(base.p2p, abs=1e-9)


def _fd_gradients(preds, gts, match, weights, h=1e-5):
    """Central finite differences on total_loss with the match frozen."""

    def evaluate(point_arrays, score_arrays):
        trial = [
            PredictedElement(scores=s, points=p)
            for s, p in zip(score_arrays, point_arrays)
        ]
        return total_loss(trial, gts, match, weights).total

    points = [p.points.copy() for p in preds]
    scores = [p.scores.copy() for p in preds]
    d_points = np.zeros((len(preds),) + points[0].shape)
    d_scores = np.zeros((len(preds), 3))
    for i in range(len(preds)):
        for j in range(points[0].shape[0]):
            for k in range(2):
                plus = [p.copy() for p in points]
                minus = [p.copy() for p in points]
                plus[i][j, k] += h
                minus[i][j, k] -= h
                d_points[i, j, k] = (
                    evaluate(plus, scores) - evaluate(minus, scores)
                ) / (2 * h)
        for c in range(3):
            plus = [s.copy() for s in scores]
            minus = [s.copy() for s in scores]
            plus[i][c] += h
            minus[i][c] -= h
            d_scores[i, c] = (evaluate(points, plus) - evaluate(points, minus)) / (2 * h)
    return d_points, d_scores


def _kink_safe_config(rng, n_preds=3, n_gts=2, n_points=5, margin=1e-3):
    """Random scene whose aligned coordinate differences avoid Manhattan kinks."""
    while True:
        gts = [random_element(rng, n_points=n_points) for _ in range(n_gts)]
        preds = [random_prediction(rng, n_points=n_points) for _ in range(n_preds)]
        match = hierarchical_match(preds, gts)
        ok = True
        for pair in match.instance.pairs:
            p, g = pair
            aligned = apply_permutation(gts[g].points, match.point_level[pair].perm)
            if np.abs(preds[p].points - aligned).min() < margin:
                ok = False
        if ok:
            return preds, gts, match


class TestLossGradients:
    def test_p2p_gradient_zero_at_minimum(self, rng):
        gts = [random_element(rng)]
        preds = _perfect_preds(gts)
        match = hierarchical_match(preds, gts)
        grads = loss_gradients(preds, gts, match, LossWeights(0.0, 5.0, 0.0))
        np.testing.assert_array_equal(grads.d_points, 0.0)

    def test_unmatched_rows_zero(self, rng):
        gts = [random_element(rng)]
        preds = [random_prediction(rng) for _ in range(4)]
        match = hierarchical_match(preds, gts)
        grads = loss_gradients(preds, gts, match)
        matched = {p for p, _ in match.instance.pairs}
        for i in range(4):
            if i not in matched:
                np.testing.assert_array_equal(grads.d_points[i], 0.0)

    @pytest.mark.parametrize(
        "name, change",
        [
            ("rows", {"rows": [-1, 0]}),  # numpy would score the last slot
            ("rows", {"rows": [1, 1]}),  # one pair's gradient would overwrite the other's
            ("rows", {"rows": [2, 1]}),
            ("rows", {"rows": [1, 4]}),
            ("rows", {"rows": [[0, 1]]}),
            ("classes", {"classes": [-1, 0]}),  # numpy would index class 2
            ("classes", {"classes": [5, 0]}),
            ("classes", {"classes": [0]}),
            ("aligned", {"aligned": np.zeros((3, 5, 2))}),
            ("aligned", {"aligned": np.zeros((2, 6, 2))}),
            ("aligned", {"aligned": np.full((2, 5, 2), np.nan)}),
            ("aligned", {"aligned": np.full((2, 5, 2), np.inf)}),
            ("points", {"points": np.full((4, 5, 2), np.nan)}),
            ("points", {"points": np.zeros((4, 0, 2)), "aligned": np.zeros((2, 0, 2))}),
            ("scores", {"scores": np.full((1, 3), 0.5)}),  # numpy would broadcast it
            ("scores", {"scores": np.full((4, 2), 0.5)}),
            ("scores", {"scores": np.full(12, 0.5)}),
            ("scores", {"scores": np.full((4, 3), 1.5)}),  # a NaN loss
            ("scores", {"scores": np.full((4, 3), -0.5)}),
            ("scores", {"scores": np.full((4, 3), np.nan)}),
        ],
    )
    def test_inconsistent_pairs_raise_naming_the_argument(self, rng, name, change):
        args = {
            "points": rng.uniform(size=(4, 5, 2)),
            "scores": rng.uniform(size=(4, 3)),
            "rows": [0, 2],
            "classes": [0, 1],
            "aligned": rng.uniform(size=(2, 5, 2)),
        }
        BoundLoss(**args).run()  # the consistent pairs score
        with pytest.raises(ValueError, match=f"^{name} "):
            BoundLoss(**{**args, **change})

    def test_matches_finite_differences(self, rng):
        weights = LossWeights()
        for _ in range(5):
            preds, gts, match = _kink_safe_config(rng)
            analytic = loss_gradients(preds, gts, match, weights)
            fd_points, fd_scores = _fd_gradients(preds, gts, match, weights)
            for a, f in (
                (analytic.d_points, fd_points),
                (analytic.d_scores, fd_scores),
            ):
                rel = np.abs(a - f) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
                assert rel.max() < 1e-4


def _oracle_edge_cosines(pred_pts, gt_aligned, kind):
    """One pair's edge cosines, with the gradient scattered edge by edge."""
    n = len(pred_pts)
    n_edges = n if kind is ElementKind.POLYGON else n - 1
    pe = (pred_pts - np.roll(pred_pts, -1, axis=0))[:n_edges]
    ge = (gt_aligned - np.roll(gt_aligned, -1, axis=0))[:n_edges]
    pn = np.linalg.norm(pe, axis=1)
    gn = np.linalg.norm(ge, axis=1)
    ok = (pn > EDGE_NORM_FLOOR) & (gn > EDGE_NORM_FLOOR)
    safe_pn = np.where(ok, pn, 1.0)
    safe_gn = np.where(ok, gn, 1.0)
    cos = np.where(ok, (pe * ge).sum(axis=1) / (safe_pn * safe_gn), 0.0)
    dcos = ge / (safe_pn * safe_gn)[:, None] - cos[:, None] * pe / (safe_pn**2)[:, None]
    dcos[~ok] = 0.0
    d_points = np.zeros_like(pred_pts)
    for j in range(n_edges):
        d_points[j] += dcos[j]
        d_points[(j + 1) % n] -= dcos[j]
    return cos, d_points


def _focal_terms(scores, rows, classes):
    """Per-slot sigmoid focal loss and its gradient wrt the scores, from the
    numpy body of the ``focal_terms`` kernel; slot rows[k] has a positive
    target at classes[k]."""
    points, aligned = np.zeros((len(scores), 1, 2)), np.zeros((len(rows), 1, 2))
    *_, loss, d_scores, _, run = _binders(None).loss(points, scores, rows, classes, aligned,
                                                     FOCAL_GAMMA, FOCAL_ALPHA, 1.0,
                                                     0.0, 0.0)
    run()
    return loss, d_scores


def _oracle_terms_and_gradients(preds, gts, match, weights):
    """Each term and its gradient computed pair by pair, one pair at a time."""
    scores = np.stack([p.scores for p in preds])
    rows = [p for p, _ in match.instance.pairs]
    classes = [int(gts[g].element_class) for _, g in match.instance.pairs]
    cls_slots, d_cls = _focal_terms(scores, rows, classes)
    p2p = dir_ = 0.0
    d_points = np.zeros((len(preds),) + preds[0].points.shape)
    for pair in match.instance.pairs:
        p, g = pair
        aligned = apply_permutation(gts[g].points, match.point_level[pair].perm)
        p2p += float(np.abs(preds[p].points - aligned).sum())
        cos, d_dir = _oracle_edge_cosines(preds[p].points, aligned, gts[g].kind)
        dir_ -= float(cos.sum())
        d_points[p] += weights.alpha_p2p * np.sign(preds[p].points - aligned)
        d_points[p] -= weights.beta_dir * d_dir
    cls = float(cls_slots.sum())
    total = weights.lambda_cls * cls + weights.alpha_p2p * p2p + weights.beta_dir * dir_
    return (cls, p2p, dir_, total), d_points, weights.lambda_cls * d_cls


#: A pentagon of axis-parallel edges: each edge against itself has cosine
#: exactly 1, so a pair on it sums to minus its edge count.
_PENTAGON = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0], [0.0, 1.0]])


@pytest.mark.parametrize("cls, n_edges", [(0, 5), (1, 4), (2, 4)])
def test_closing_edge_follows_from_class(rng, monkeypatch, cls, n_edges):
    # The array entry takes no kind: class 0 (a polygon) sums the closing
    # edge as well, classes 1 and 2 (polylines) do not.
    weights = LossWeights()
    scores = rng.uniform(size=(2, 3))
    for points in (np.stack([_PENTAGON, _PENTAGON + 3.0]), rng.uniform(size=(2, 5, 2))):
        loss = BoundLoss(points, scores, [0], [cls], _PENTAGON[None])
        terms = loss.run()
        cos, d_dir = _oracle_edge_cosines(points[0], _PENTAGON, KIND_FOR_CLASS[cls])
        assert len(cos) == n_edges
        cls_slots, d_cls = _focal_terms(scores, [0], [cls])
        p2p, dir_ = float(np.abs(points[0] - _PENTAGON).sum()), -float(cos.sum())
        total = (weights.lambda_cls * float(cls_slots.sum()) + weights.alpha_p2p * p2p
                 + weights.beta_dir * dir_)
        assert (terms.cls, terms.p2p, terms.dir, terms.total) == (float(cls_slots.sum()), p2p,
                                                                 dir_, total)
        d_points = np.zeros_like(points)
        d_points[0] += weights.alpha_p2p * np.sign(points[0] - _PENTAGON)
        d_points[0] -= weights.beta_dir * d_dir
        np.testing.assert_array_equal(loss.d_points, d_points)
        np.testing.assert_array_equal(loss.d_scores, weights.lambda_cls * d_cls)
        if (points[0] == _PENTAGON).all():
            assert terms.dir == -n_edges
        # The numpy backend's binder gives the same bits.
        with monkeypatch.context() as m:
            m.setattr(vecmap._kernels, "_bind_loss", _binders(None).loss)
            pure = BoundLoss(points, scores, [0], [cls], _PENTAGON[None])
            pure_terms = pure.run()
        assert pure_terms == terms
        assert pure.d_points.tobytes() == loss.d_points.tobytes()
        assert pure.d_scores.tobytes() == loss.d_scores.tobytes()


_WEIGHTS = st.sampled_from(
    [LossWeights(), LossWeights(0.0, 1.5, 0.0), LossWeights(1.0, 0.0, 0.7)]
)


def test_bound_loss_reads_predictions_updated_in_place(rng):
    # Bound to the caller's points and scores, the loss copies neither: a
    # call takes only the pairs, reads the predictions' current contents,
    # and equals a fresh BoundLoss on them.
    P, n, M = 5, 6, 3
    points, scores = rng.uniform(size=(P, n, 2)), rng.uniform(size=(P, 3))
    loss = BoundLoss(points, scores, np.arange(M), np.zeros(M, dtype=np.int64),
                     np.zeros((M, n, 2)))
    assert loss.points is points and loss.scores is scores
    for _ in range(4):
        points[...], scores[...] = rng.uniform(size=points.shape), rng.uniform(size=scores.shape)
        rows, classes = np.sort(rng.choice(P, M, replace=False)), rng.integers(0, 3, M)
        aligned = rng.uniform(size=(M, n, 2))
        breakdown = loss(rows, classes, aligned)
        want = BoundLoss(points.copy(), scores.copy(), rows, classes, aligned)
        assert breakdown == want.run()
        assert np.array_equal(loss.d_points, want.d_points)
        assert np.array_equal(loss.d_scores, want.d_scores)


class TestFusedEqualsPerPair:
    """total_loss, loss_gradients and the per-term losses run one fused pass."""

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), weights=_WEIGHTS, fixed_order=st.booleans())
    @pytest.mark.parametrize(
        "classes",
        [(ElementClass.PED_CROSSING,), (ElementClass.DIVIDER, ElementClass.BOUNDARY),
         tuple(ElementClass)],
        ids=["polygon", "polyline", "mixed"],
    )
    def test_bit_identical(self, classes, data, weights, fixed_order):
        preds, gts = data.draw(matching_problems(classes=classes))
        self._check(preds, gts, weights, fixed_order)

    @pytest.mark.parametrize("n", [3, 8, 9, 20, 65])
    def test_bit_identical_random(self, rng, n):
        # n = 8 gives polylines 7 edges, where numpy's pairwise summation
        # would round a padded 8-term sum differently; n = 65 gives 130
        # point2point terms, which numpy splits in halves.
        for _ in range(20):
            gts = [random_element(rng, n_points=n) for _ in range(3)]
            preds = [random_prediction(rng, n_points=n) for _ in range(4)]
            self._check(preds, gts, LossWeights(), False)

    @staticmethod
    def _check(preds, gts, weights, fixed_order):
        match = hierarchical_match(preds, gts, fixed_order=fixed_order)
        terms, d_points, d_scores = _oracle_terms_and_gradients(preds, gts, match, weights)
        out = total_loss(preds, gts, match, weights)
        assert (out.cls, out.p2p, out.dir, out.total) == terms
        grads = loss_gradients(preds, gts, match, weights)
        np.testing.assert_array_equal(grads.d_points, d_points)
        np.testing.assert_array_equal(grads.d_scores, d_scores)
        # The terms do not depend on the weights.
        default = total_loss(preds, gts, match)
        assert default.cls == terms[0]
        assert default.p2p == terms[1]
        assert default.dir == terms[2]
