import dataclasses

import numpy as np
import pytest

from vecmap import fitter
from vecmap.fitter import FitConfig, FitMode, fit, trace_table
from vecmap.geometry import MapElement, permutation_group
from vecmap.losses import LossWeights
from vecmap.matching import BoundMatcher, CapacityError, CostConfig
from vecmap.metrics import APConfig
from vecmap.scenegen import SceneSpec, generate_scene


def _small_cfg(**kw):
    defaults = dict(iterations=60, seed=1, n_slots=12)
    defaults.update(kw)
    return FitConfig(**defaults)


@pytest.fixture(scope="module")
def small_scene():
    return generate_scene(SceneSpec(seed=1, n_ped=1, n_divider=1, n_boundary=1))


class TestFit:
    def test_trace_length(self, small_scene):
        trace = fit(small_scene, _small_cfg())
        assert len(trace.losses) == 60
        assert len(trace.final_predictions) == 12

    def test_deterministic(self, small_scene):
        a = fit(small_scene, _small_cfg())
        b = fit(small_scene, _small_cfg())
        assert [r.total for r in a.losses] == [r.total for r in b.losses]
        for pa, pb in zip(a.final_predictions, b.final_predictions):
            np.testing.assert_array_equal(pa.points, pb.points)

    def test_points_stay_clamped(self, small_scene):
        trace = fit(small_scene, _small_cfg())
        for pred in trace.final_predictions:
            assert np.all(pred.points >= 0.0) and np.all(pred.points <= 1.0)

    def test_loss_decreases(self, small_scene):
        trace = fit(small_scene, _small_cfg(iterations=250))
        totals = [r.total for r in trace.losses]
        assert np.mean(totals[-25:]) < 0.2 * np.mean(totals[:25])

    def test_single_polyline_converges(self):
        scene = generate_scene(SceneSpec(seed=0, n_ped=0, n_divider=1, n_boundary=0))
        trace = fit(scene, FitConfig(iterations=500, seed=0, n_slots=10))
        assert trace.losses[-1].p2p < 0.01 * trace.losses[0].p2p

    def test_empty_scene_rejected(self):
        empty = generate_scene(SceneSpec(seed=0, n_ped=0, n_divider=0, n_boundary=0))
        with pytest.raises(ValueError):
            fit(empty, _small_cfg())

    def test_point_count_mismatch_names_ground_truth(self, small_scene):
        # The slots get the scene's n_points; element 1 has one point fewer.
        first, el, *rest = small_scene.elements
        short = MapElement(el.element_class, el.kind, el.points[:-1])
        scene = dataclasses.replace(small_scene, elements=(first, short, *rest))
        n = small_scene.n_points
        with pytest.raises(ValueError, match=f"predictions have {n} points, "
                                             f"ground truth 1 has {n - 1}"):
            fit(scene, _small_cfg())

    def test_more_elements_than_slots_rejected(self, small_scene):
        with pytest.raises(CapacityError, match="2 predictions cannot cover 3"):
            fit(small_scene, _small_cfg(n_slots=2))

    def test_fixed_order_worse_on_ambiguous_scene(self, small_scene):
        perm = fit(small_scene, _small_cfg(iterations=300, mode=FitMode.PERMUTATION_EQUIVALENT))
        fixed = fit(small_scene, _small_cfg(iterations=300, mode=FitMode.FIXED_ORDER))
        assert fixed.losses[-1].p2p > perm.losses[-1].p2p

    def test_order_free_matching_stabilizes_assignment(self, monkeypatch):
        # MapTR's claim: order-free matching keeps each ground-truth element
        # on one slot, where a fixed order flips slots as annotation orders
        # change.  Churn is the share of ground truth whose slot changes
        # between consecutive iterations.
        assignments = []

        class RecordingMatcher(BoundMatcher):
            def __call__(self, gt_points):
                rows, cols, *rest = super().__call__(gt_points)
                assignments.append((rows, cols))
                return (rows, cols, *rest)

        monkeypatch.setattr(fitter, "BoundMatcher", RecordingMatcher)
        churn = {}
        for mode in FitMode:
            per_scene = []
            for seed in range(3):
                assignments.clear()
                fit(generate_scene(SceneSpec(seed=seed)), FitConfig(mode=mode, seed=seed, iterations=200))
                slots = [rows[np.argsort(cols)] for rows, cols in assignments]
                per_scene.append(np.mean([np.mean(a != b) for a, b in zip(slots, slots[1:])]))
            churn[mode] = np.mean(per_scene)
        assert churn[FitMode.PERMUTATION_EQUIVALENT] < churn[FitMode.FIXED_ORDER]

    @pytest.mark.parametrize("seed, n_points", [(0, 20), (7, 3), (11, 40)])
    def test_vectorized_ordering_draw_equals_scalar_draws(self, seed, n_points):
        # fit draws every element's ordering with one integers() call per
        # iteration, on the stream below.  Pinned here against one scalar
        # draw per element in order: were numpy to change either, this
        # fails, where otherwise every fit trace would change silently.
        scene = generate_scene(SceneSpec(seed=seed, n_points=n_points))
        n_orderings = [len(permutation_group(el.kind, n_points).members) for el in scene.elements]
        assert sorted(set(n_orderings)) == [2, 2 * n_points]  # polylines 2, polygons 2n
        vector, scalar = (
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(1,))))
            for _ in range(2)
        )
        for _ in range(500):
            want = [scalar.integers(k) for k in n_orderings]
            assert vector.integers(np.array(n_orderings)).tolist() == want

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            FitConfig(iterations=0)
        with pytest.raises(ValueError):
            FitConfig(step_size=0.0)
        with pytest.raises(ValueError):
            FitConfig(moment_decay_1=1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "config, kwargs",
    [
        (APConfig, dict(thresholds=(NAN,))),
        (APConfig, dict(thresholds=(0.5, NAN, 1.5))),
        (APConfig, dict(score_floor=NAN)),
        (APConfig, dict(score_floor=INF)),
        (APConfig, dict(interpolation_points=0)),
        (CostConfig, dict(focal_gamma=NAN)),
        (CostConfig, dict(focal_gamma=INF)),
        (CostConfig, dict(focal_alpha=1.0)),
        (LossWeights, dict(lambda_cls=NAN)),
        (LossWeights, dict(alpha_p2p=NAN)),
        (LossWeights, dict(beta_dir=NAN)),
        (LossWeights, dict(lambda_cls=INF)),
        (LossWeights, dict(alpha_p2p=INF)),
        (LossWeights, dict(beta_dir=INF)),
        (FitConfig, dict(step_size=NAN)),
        (FitConfig, dict(step_size=INF)),
        (FitConfig, dict(n_slots=-1)),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else repr(v),
)
def test_config_rejects_nan_and_out_of_range(config, kwargs):
    # Each comparison is written so that NaN fails it: a NaN accepted here
    # would fail later with another layer's message, or give mAP 0.
    with pytest.raises(ValueError):
        config(**kwargs)


@pytest.mark.parametrize("config, field, value", [
    (CostConfig, "position_cost", "chamfer"),
    (FitConfig, "mode", "fixed_order"),
])
def test_config_rejects_enum_value_not_member(config, field, value):
    # The enum's value string is not its member: matching and fitting test
    # members by identity, so a string would silently pick another branch.
    with pytest.raises(ValueError, match=field):
        config(**{field: value})


class TestTraceTable:
    def test_row_count_and_columns(self, small_scene):
        trace = fit(small_scene, _small_cfg(iterations=20))
        text = trace_table(trace)
        lines = text.strip().splitlines()
        assert lines[0].split() == ["iteration", "cls", "p2p", "dir", "total"]
        assert len(lines) == 21
