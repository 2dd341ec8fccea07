import numpy as np
import pytest

from vecmap.geometry import ElementKind, denormalize
from vecmap.losses import total_loss
from vecmap.matching import hierarchical_match
from vecmap.scenegen import (
    DEFAULT_SLOTS,
    PerturbSpec,
    SceneSpec,
    generate_scene,
    perturb,
)


class TestGenerateScene:
    def test_empty_spec(self):
        scene = generate_scene(SceneSpec(seed=0, n_ped=0, n_divider=0, n_boundary=0))
        assert scene.elements == ()

    def test_deterministic(self):
        a = generate_scene(SceneSpec(seed=42))
        b = generate_scene(SceneSpec(seed=42))
        assert len(a.elements) == len(b.elements)
        for ea, eb in zip(a.elements, b.elements):
            np.testing.assert_array_equal(ea.points, eb.points)

    def test_counts_and_kinds(self):
        scene = generate_scene(SceneSpec(seed=7, n_ped=2, n_divider=3, n_boundary=2))
        kinds = [el.kind for el in scene.elements]
        assert len(kinds) == 7
        assert kinds.count(ElementKind.POLYGON) == 2
        assert kinds.count(ElementKind.POLYLINE) == 5

    def test_points_inside_range(self):
        for seed in range(5):
            scene = generate_scene(SceneSpec(seed=seed))
            for el in scene.elements:
                assert scene.range.contains(el.points)

    def test_prefix_stability(self):
        # adding elements must not perturb earlier streams
        small = generate_scene(SceneSpec(seed=5, n_ped=1, n_divider=0, n_boundary=0))
        big = generate_scene(SceneSpec(seed=5, n_ped=1, n_divider=2, n_boundary=1))
        np.testing.assert_array_equal(small.elements[0].points, big.elements[0].points)

    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            SceneSpec(seed=0, n_ped=30, n_divider=20, n_boundary=5)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(seed=0, n_ped=-1)
        for n_points in (0, 1, -3):
            with pytest.raises(ValueError, match="n_points"):
                SceneSpec(seed=0, n_points=n_points)


class TestPerturb:
    def test_identity_perturbation(self):
        scene = generate_scene(SceneSpec(seed=11))
        preds = perturb(scene, PerturbSpec(seed=0))
        assert len(preds) == DEFAULT_SLOTS
        for pred, gt in zip(preds, scene.elements):
            np.testing.assert_allclose(
                denormalize(pred.points, scene.range), gt.points, atol=1e-9
            )
            assert pred.scores[int(gt.element_class)] == 1.0

    def test_predictions_normalized(self):
        scene = generate_scene(SceneSpec(seed=3))
        preds = perturb(
            scene, PerturbSpec(seed=4, point_noise_sigma=1.0, false_positive_count=5)
        )
        for pred in preds:
            assert np.all(pred.points >= 0.0) and np.all(pred.points <= 1.0)

    def test_full_dropout(self):
        scene = generate_scene(SceneSpec(seed=2))
        preds = perturb(scene, PerturbSpec(seed=0, drop_prob=1.0, false_positive_count=2))
        # only false positives and padding survive
        real = [p for p in preds if p.scores.max() > 1e-5]
        assert len(real) == 2
        assert len(preds) == DEFAULT_SLOTS

    def test_deterministic(self):
        scene = generate_scene(SceneSpec(seed=6))
        spec = PerturbSpec(seed=9, point_noise_sigma=0.5, false_positive_count=3)
        a, b = perturb(scene, spec), perturb(scene, spec)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.points, pb.points)
            np.testing.assert_array_equal(pa.scores, pb.scores)

    def test_identity_match_recovered(self):
        scene = generate_scene(SceneSpec(seed=8))
        preds = perturb(scene, PerturbSpec(seed=0))
        gtn = [el.normalized(scene.range) for el in scene.elements]
        match = hierarchical_match(preds, gtn)
        assert match.instance.pairs == tuple(
            (i, i) for i in range(len(scene.elements))
        )

    def test_noise_band_monte_carlo(self):
        # frozen from a 100-seed oracle run: mean p2p 1.113 (sigma 0.2 m,
        # 7 elements x 20 points; analytic mean sigma*sqrt(2/pi)*(1/30+1/60)
        # per point = 1.117)
        scene = generate_scene(SceneSpec(seed=0))
        gtn = [el.normalized(scene.range) for el in scene.elements]
        vals = []
        for s in range(30):
            preds = perturb(scene, PerturbSpec(seed=s, point_noise_sigma=0.2))
            match = hierarchical_match(preds, gtn)
            vals.append(total_loss(preds, gtn, match).p2p)
        assert 1.00 < np.mean(vals) < 1.23

    def test_invalid_sigma_rejected(self):
        for sigma in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                PerturbSpec(seed=0, point_noise_sigma=sigma)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(score_model="typo"), dict(false_positive_count=-3), dict(drop_prob=1.5)],
        ids=["unknown score model", "negative false positives", "drop prob above one"],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PerturbSpec(seed=0, **kwargs)
