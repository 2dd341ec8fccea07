"""Kernel exactness: the kernels against loop oracles, and backend parity.

The Manhattan kernel is specified to accumulate each cost sequentially
over point index j (term = |dx| + |dy|, then acc += term) and to report
the first ordering attaining the minimum; ``manhattan_matrix`` does so
for every (prediction, ground truth) pair of two stacks, and each of its
columns must equal the oracle for that ground truth.  The Chamfer kernel
takes each point's nearest squared distance dx*dx + dy*dy, its sqrt, and
sums those in point order before dividing by the count; ``chamfer_matrix``
does so for every pair of two stacks, and each entry must equal the loop
oracle of its pair.  The per-pair entries ``min_manhattan_over_perms``
and ``chamfer_mean`` of ``vecmap._kernels`` are slices of the matrix
kernels and must equal the same oracles.  The oracle tests check both the
loaded backend's public entries and the numpy bodies, bound by
``_binders(None)``, in one process.

The parity tests build the current ``kernels.c`` into a fresh directory
with the package's own loader, and require each C entry to equal its
numpy body under ``==``.  They skip only when ``cc`` is not on PATH; a
failed build with ``cc`` present fails them.
"""

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vecmap
import vecmap._kernels as kernels
from vecmap._kernels import _pure
from vecmap._kernels._pure import EDGE_NORM_FLOOR
from vecmap.geometry import ElementKind, permutation_group


def _entries(dll):
    """The three matrix entries of ``vecmap._kernels._binders(dll)`` by name:
    the library's, or the numpy bodies' with ``dll`` None."""
    binders = kernels._binders(dll)
    return {name: getattr(binders, name)
            for name in ("manhattan_matrix", "chamfer_matrix", "focal_cost_table")}


#: The numpy bodies, whichever backend was loaded.
PURE = _entries(None)


def _pure_min_manhattan(pred, gt, perms):
    """``min_manhattan_over_perms`` on the numpy bodies."""
    costs, best = PURE["manhattan_matrix"](pred, gt[None], perms)
    return costs[:, 0], best[:, 0]


def _pure_chamfer_mean(a, b):
    """``chamfer_mean`` on the numpy bodies."""
    return PURE["chamfer_matrix"](a[None], b[None])[0, 0]


def _group_perms(kind, n):
    return np.array(
        [m.index_map(n) for m in permutation_group(kind, n).members], dtype=np.int64
    )


def _per_point_oracle(pred, gt, perms):
    """One accumulation step per point index, over all (prediction, ordering)."""
    permuted = gt[perms]  # (K, n, 2)
    acc = np.zeros((pred.shape[0], perms.shape[0]))
    for j in range(gt.shape[0]):
        d = pred[:, None, j, :] - permuted[None, :, j, :]
        acc += np.abs(d[..., 0]) + np.abs(d[..., 1])
    best = np.argmin(acc, axis=1)
    return acc[np.arange(len(acc)), best], best


@pytest.mark.parametrize("kind", [ElementKind.POLYLINE, ElementKind.POLYGON])
@pytest.mark.parametrize("n", [3, 7, 20, 40])
@pytest.mark.parametrize("grid", [False, True], ids=["uniform", "quarter-grid"])
def test_pure_equals_per_point_oracle(kind, n, grid, rng):
    perms = _group_perms(kind, n)
    for _ in range(25):
        pred = rng.uniform(size=(6, n, 2))
        gt = rng.uniform(size=(n, 2))
        if grid:
            # Quarter-grid coordinates make many orderings tie exactly.
            pred, gt = np.round(pred * 4) / 4, np.round(gt * 4) / 4
        oracle_costs, oracle_best = _per_point_oracle(pred, gt, perms)
        for entry in (kernels.min_manhattan_over_perms, _pure_min_manhattan):
            costs, best = entry(pred, gt, perms)
            np.testing.assert_array_equal(costs, oracle_costs)
            np.testing.assert_array_equal(best, oracle_best)


def test_pure_first_minimum_wins():
    gt = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    # Orderings 2 and 3 both align exactly; the first of them is reported.
    perms = np.array([[2, 1, 0], [1, 2, 0], [0, 1, 2], [0, 1, 2]])
    # All eight orderings of a square tie against its center: the first wins.
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    center = np.tile(square.mean(axis=0), (1, 4, 1))
    for entry in (kernels.min_manhattan_over_perms, _pure_min_manhattan):
        costs, best = entry(gt[None], gt, perms)
        assert best[0] == 2 and costs[0] == 0.0
        costs, best = entry(center, square, _group_perms(ElementKind.POLYGON, 4))
        assert best[0] == 0 and costs[0] == 4.0


def _orderings(kind, n):
    """The group's index maps, or the identity map alone for kind None."""
    return np.arange(n)[None, :] if kind is None else _group_perms(kind, n)


def _assert_manhattan_matrix_equals_oracle(pred, gts, perms, entry=PURE["manhattan_matrix"]):
    costs, best = entry(pred, gts, perms)
    assert costs.shape == best.shape == (len(pred), len(gts))
    for g in range(len(gts)):
        oracle_costs, oracle_best = _per_point_oracle(pred, gts[g], perms)
        np.testing.assert_array_equal(costs[:, g], oracle_costs)
        np.testing.assert_array_equal(best[:, g], oracle_best)


@pytest.mark.parametrize(
    "kind", [ElementKind.POLYLINE, ElementKind.POLYGON, None],
    ids=["polyline", "polygon", "identity"],
)
@pytest.mark.parametrize("n", [3, 7, 20, 40])
@pytest.mark.parametrize("grid", [False, True], ids=["uniform", "quarter-grid"])
def test_manhattan_matrix_equals_per_point_oracle(kind, n, grid, rng):
    perms = _orderings(kind, n)
    for n_gts in (1, 3, 8):
        for n_preds in (1, 6, 50):
            pred = rng.uniform(size=(n_preds, n, 2))
            gts = rng.uniform(size=(n_gts, n, 2))
            if grid:
                pred, gts = np.round(pred * 4) / 4, np.round(gts * 4) / 4
            _assert_manhattan_matrix_equals_oracle(pred, gts, perms)


def test_manhattan_matrix_carries_across_blocks(rng):
    # 6 predictions x 3 polygons of 40 points, 80 orderings: the 40 point
    # rows split into blocks with a shorter last one, and the accumulator
    # carries from block to block.
    n, perms = 40, _group_perms(ElementKind.POLYGON, 40)
    step = _pure._MANHATTAN_BLOCK // (6 * 3 * len(perms))
    assert 1 < step < n and n % step
    pred = np.round(rng.uniform(size=(6, n, 2)) * 4) / 4
    gts = np.round(rng.uniform(size=(3, n, 2)) * 4) / 4
    for entry in (kernels.manhattan_matrix, PURE["manhattan_matrix"]):
        _assert_manhattan_matrix_equals_oracle(pred, gts, perms, entry)


def _bad_manhattan_inputs():
    """(pred, gts, perms) that both Manhattan entries must reject."""
    pred, gts = np.zeros((2, 4, 2)), np.zeros((3, 4, 2))
    perms = _group_perms(ElementKind.POLYGON, 4)
    bad_index = perms.copy()
    bad_index[1, 2] = 900_000
    negative = perms.copy()
    negative[0, 0] = -1
    return [
        pytest.param(np.zeros((2, 3, 2)), gts, perms, id="3 vs 4 points"),
        pytest.param(pred, gts, np.zeros((1, 5), dtype=np.int64), id="perms too long"),
        pytest.param(pred, gts, np.arange(4), id="perms 1-D"),
        pytest.param(pred, gts, np.zeros((0, 4), dtype=np.int64), id="no orderings"),
        pytest.param(pred, gts, bad_index, id="index 900000"),
        pytest.param(pred, gts, negative, id="index -1"),
        pytest.param(np.zeros((2, 4, 3)), gts, perms, id="points not (n, 2)"),
    ]


@pytest.mark.parametrize("pred, gts, perms", _bad_manhattan_inputs())
def test_manhattan_entries_reject_bad_inputs(pred, gts, perms):
    with pytest.raises(ValueError, match="mismatch|perms|shape"):
        kernels.manhattan_matrix(pred, gts, perms)
    with pytest.raises(ValueError, match="mismatch|perms|shape"):
        kernels.min_manhattan_over_perms(pred, gts[0], perms)


def test_manhattan_entries_check_inputs_with_no_ground_truth():
    # No ground truth means no point is read, but the entries still reject
    # what they reject with some: a NaN prediction, an index out of range,
    # and perms of the wrong width, named in the caller's shape.
    pred, none = np.zeros((2, 4, 2)), np.zeros((0, 4, 2))
    perms = _group_perms(ElementKind.POLYGON, 4)
    nan_pred, bad_perms = pred.copy(), perms.copy()
    nan_pred[1, 2, 0], bad_perms[0, 0] = np.nan, 4
    for entry in (kernels.manhattan_matrix, PURE["manhattan_matrix"]):
        with pytest.raises(ValueError, match="^predictions must be finite"):
            entry(nan_pred, none, perms)
        with pytest.raises(ValueError, match=r"entries in \[0, 4\)"):
            entry(pred, none, bad_perms)
        with pytest.raises(ValueError, match=r"got \(8, 5\)$"):
            entry(pred, none, np.zeros((8, 5), dtype=np.int64))
        costs, best = entry(pred, none, perms)
        assert costs.shape == best.shape == (2, 0)


def _assert_rejects_zero_points(entries):
    """``entries``' Manhattan matrix rejects point sets of no points with its
    own message: numpy's minimum over no cost would raise its own."""
    with pytest.raises(ValueError, match="^point sets must have at least one point"):
        entries["manhattan_matrix"](np.zeros((3, 0, 2)), np.zeros((2, 0, 2)),
                                    np.zeros((1, 0), dtype=np.int64))


def test_pure_manhattan_rejects_zero_points():
    _assert_rejects_zero_points(PURE)
    with pytest.raises(ValueError, match="^point sets must have at least one point"):
        vecmap.matching.manhattan_distance([], [])


def _chamfer_loop_oracle(a, b):
    """The compiled Chamfer loop in Python floats: first minimum, then sqrt."""

    def directed(src, dst):
        acc = 0.0
        for x, y in src.tolist():
            m = -1.0
            for u, v in dst.tolist():
                dx, dy = x - u, y - v
                d2 = dx * dx + dy * dy
                if m < 0.0 or d2 < m:
                    m = d2
            acc += math.sqrt(m)
        return acc / len(src)

    return 0.5 * (directed(a, b) + directed(b, a))


def _chamfer_cases(rng, n, count):
    """Point-set pairs of n and 1..40 points over scales 1e-3 to 1e4; odd
    cases sit on a quarter grid, where many nearest distances tie exactly."""
    for i in range(count):
        a = rng.uniform(size=(n, 2))
        b = rng.uniform(size=(int(rng.integers(1, 41)), 2))
        if i % 2:
            a, b = np.round(a * 4) / 4, np.round(b * 4) / 4
        scale = 10.0 ** rng.uniform(-3, 4)
        yield a * scale, b * scale


@pytest.mark.parametrize("n", [1, 2, 7, 20, 40])
def test_pure_chamfer_equals_loop_oracle(n, rng):
    for a, b in _chamfer_cases(rng, n, 40):
        for entry in (kernels.chamfer_mean, _pure_chamfer_mean):
            assert entry(a, b) == _chamfer_loop_oracle(a, b)
            assert entry(b, a) == _chamfer_loop_oracle(b, a)


def _assert_matrix_equals_pairwise(a, b):
    got = PURE["chamfer_matrix"](a, b)
    assert got.shape == (len(a), len(b))
    for p in range(len(a)):
        for g in range(len(b)):
            assert got[p, g] == _chamfer_loop_oracle(a[p], b[g]), (p, g)


@pytest.mark.parametrize("n", [1, 2, 7, 20, 40])
def test_chamfer_matrix_equals_chamfer_mean_on_cases(n, rng):
    # One stack of all n-point sets, at mixed scales and on and off the grid,
    # against each partner alone: P = 1 and G = 1 both, n != m mostly.
    cases = list(_chamfer_cases(rng, n, 40))
    stack = np.stack([a for a, _ in cases])
    for _, b in cases:
        _assert_matrix_equals_pairwise(stack, b[None])
        _assert_matrix_equals_pairwise(b[None], stack)


@settings(max_examples=150, deadline=None)
@given(
    n_pred=st.integers(1, 6),
    n_gt=st.integers(1, 6),
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    grid=st.booleans(),
    log_scale=st.floats(-3, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_chamfer_matrix_equals_chamfer_mean(n_pred, n_gt, n, m, grid, log_scale, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(size=(n_pred, n, 2))
    b = rng.uniform(size=(n_gt, m, 2))
    if grid:
        a, b = np.round(a * 4) / 4, np.round(b * 4) / 4
    _assert_matrix_equals_pairwise(a * 10.0**log_scale, b * 10.0**log_scale)


def test_chamfer_matrix_blocks_a_scene(rng):
    # 50 x 7 pairs of 20-point sets: more than four blocks of squared
    # distances, so the kernel's row loop runs at least five times.
    a = np.round(rng.uniform(size=(50, 20, 2)) * 8) / 8
    b = np.round(rng.uniform(size=(7, 20, 2)) * 8) / 8
    assert 20 * 20 * 50 * 7 > 4 * _pure._CHAMFER_BLOCK
    _assert_matrix_equals_pairwise(a, b)


def _cutoff_cases(rng):
    """(a, b, cutoff): stacks whose pairs' bounding boxes overlap, touch, lie
    exactly the cutoff apart, or nearer or farther, on sets of one point and
    more; cutoffs whose square is not a normal double; and coordinates near
    +-1e200, where squared gaps overflow."""
    cutoffs = (0.5, 1.0, 3.0, 5.0, 3 * math.sqrt(2.0), 1e-160, 1e-170, 1e160, math.inf)
    for n, m in ((1, 1), (1, 5), (4, 1), (6, 9)):
        # Integer corners: gaps of 0 (touching), 3 and (3, 4) are exact.
        a = rng.integers(0, 12, size=(8, n, 2)).astype(float)
        b = rng.integers(0, 12, size=(7, m, 2)).astype(float)
        for cutoff in cutoffs:
            yield a, b, cutoff
    a, b = rng.uniform(-5, 5, size=(20, 7, 2)), rng.uniform(-5, 5, size=(9, 3, 2))
    for cutoff in (0.5, 2.0, 3.0):
        yield a, b, cutoff
    unit = np.array([[0.0, 0.0], [1.0, 1.0]])
    shifts = np.array([[0.5, 0.5], [1.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, -4.0]])
    yield unit[None], unit + shifts[:, None], 3.0  # overlapping, touching, 3 apart, farther
    big = np.array([[[1e200, 1e200], [1e200, -1e200]], [[-1e200, -1e200], [-1e200, -1e200]]])
    for cutoff in (math.inf, 3.0):
        yield big, big[:, ::-1], cutoff


def _far_pairs(a, b, cutoff):
    """The pairs whose squared box gap is at least cutoff squared, pair by
    pair in Python floats; none unless that square is a finite normal."""
    cut2 = cutoff * cutoff
    far = np.zeros((len(a), len(b)), dtype=bool)
    if not sys.float_info.min <= cut2 < math.inf:
        return far
    for p, q in np.ndindex(far.shape):
        (ax0, ay0), (ax1, ay1) = a[p].min(axis=0).tolist(), a[p].max(axis=0).tolist()
        (bx0, by0), (bx1, by1) = b[q].min(axis=0).tolist(), b[q].max(axis=0).tolist()
        gx, gy = max(0.0, bx0 - ax1, ax0 - bx1), max(0.0, by0 - ay1, ay0 - by1)
        far[p, q] = gx * gx + gy * gy >= cut2
    return far


def _assert_cutoff_parity(entry, a, b, cutoff):
    """``entry``'s Chamfer matrix with a cutoff equals the numpy body's as
    bytes: +inf on exactly the far pairs, each at least the cutoff apart,
    and elsewhere the value computed without a cutoff."""
    with np.errstate(over="ignore"):  # squares near 1e200
        got = entry(a, b, cutoff)
        assert got.tobytes() == PURE["chamfer_matrix"](a, b, cutoff).tobytes()
        full = PURE["chamfer_matrix"](a, b)
    far = _far_pairs(a, b, cutoff)
    assert (got[far] == np.inf).all()
    assert (full[far] >= cutoff).all()
    assert got[~far].tobytes() == full[~far].tobytes()


def test_chamfer_cutoff_skips_exactly_the_far_pairs(rng):
    n_far = n_near = 0
    for a, b, cutoff in _cutoff_cases(rng):
        for entry in (kernels.chamfer_matrix, PURE["chamfer_matrix"]):
            _assert_cutoff_parity(entry, a, b, cutoff)
        far = _far_pairs(a, b, cutoff)
        n_far, n_near = n_far + far.sum(), n_near + (~far).sum()
    assert n_far > 100 and n_near > 100


def _bad_chamfer_inputs():
    """(a, b) that every Chamfer entry must reject before any kernel runs."""
    a, b = np.zeros((2, 4, 2)), np.zeros((3, 5, 2))
    nan, inf = a.copy(), b.copy()
    nan[1, 2, 0] = np.nan
    inf[0, 4, 1] = np.inf
    return [
        pytest.param(np.zeros((2, 0, 2)), b, id="no points in a"),
        pytest.param(a, np.zeros((3, 0, 2)), id="no points in b"),
        pytest.param(np.zeros((2, 4, 3)), b, id="last axis 3"),
        pytest.param(a, np.zeros((3, 5, 1)), id="last axis 1"),
        pytest.param(np.zeros((4, 2)), b, id="a 2-D"),
        pytest.param(a, np.zeros(10), id="b 1-D"),
        pytest.param(nan, b, id="NaN point"),
        pytest.param(a, inf, id="infinite point"),
    ]


@pytest.mark.parametrize("a, b", _bad_chamfer_inputs())
def test_chamfer_entries_reject_bad_inputs(a, b):
    for entry in (kernels.chamfer_matrix, PURE["chamfer_matrix"]):
        with pytest.raises(ValueError, match="shape|at least one point|finite"):
            entry(a, b)


@pytest.mark.parametrize("where", ["predictions", "ground truth"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_manhattan_entries_reject_non_finite_points(where, value):
    pred, gts = np.zeros((2, 4, 2)), np.zeros((3, 4, 2))
    (pred if where == "predictions" else gts)[1, 3, 0] = value
    perms = _group_perms(ElementKind.POLYGON, 4)
    for entry in (kernels.manhattan_matrix, PURE["manhattan_matrix"]):
        with pytest.raises(ValueError, match=f"{where} must be finite"):
            entry(pred, gts, perms)


# --- Backend parity: the C kernels of the current source against numpy. ---


@pytest.fixture(scope="module")
def c_library(tmp_path_factory):
    """``kernels.c`` built afresh by ``vecmap._kernels.build`` and opened."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    return kernels.load(kernels.build(tmp_path_factory.mktemp("kernels")))


@pytest.fixture(scope="module")
def c_kernels(c_library):
    """The matrix entries of the fresh library."""
    return _entries(c_library)


#: Prediction counts around the C kernel's row stride of 8 lanes: none,
#: one row short of, at and just past each of the first multiples of 8, and
#: 50 and 57, which leave pad lanes.
_PAD_PREDS = (0, 1, 6, 7, 8, 9, 15, 16, 17, 50, 57, 64, 65)


def _assert_manhattan_parity(entries, kind, n, grid, rng):
    """``entries``' Manhattan matrix equals the numpy body's under ``==``, and
    its first column the per-point oracle, over 39 stack sizes."""
    perms = _orderings(kind, n)
    for n_gts in (1, 3, 8):
        for n_preds in _PAD_PREDS:
            pred = rng.uniform(size=(n_preds, n, 2))
            gts = rng.uniform(size=(n_gts, n, 2))
            if grid:
                # Quarter-grid coordinates make many orderings tie exactly.
                pred, gts = np.round(pred * 4) / 4, np.round(gts * 4) / 4
            got = entries["manhattan_matrix"](pred, gts, perms)
            for got_part, want_part in zip(got, PURE["manhattan_matrix"](pred, gts, perms)):
                np.testing.assert_array_equal(got_part, want_part)
            oracle_costs, oracle_best = _per_point_oracle(pred, gts[0], perms)
            np.testing.assert_array_equal(got[0][:, 0], oracle_costs)
            np.testing.assert_array_equal(got[1][:, 0], oracle_best)


def _assert_tie_break_parity(entries):
    """All eight orderings of a square tie against its center, and two
    repeated orderings tie on a line: ``entries`` and numpy report the first."""
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    center = np.tile(square.mean(axis=0), (1, 4, 1))
    line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    cases = [
        (center, square[None], _group_perms(ElementKind.POLYGON, 4), 0, 4.0),
        (line[None], line[None], np.array([[2, 1, 0], [1, 2, 0], [0, 1, 2], [0, 1, 2]]), 2, 0.0),
    ]
    for pred, gts, perms, first, cost in cases:
        got = entries["manhattan_matrix"](pred, gts, perms)
        want = PURE["manhattan_matrix"](pred, gts, perms)
        assert got[1][0, 0] == want[1][0, 0] == first
        assert got[0][0, 0] == want[0][0, 0] == cost


def _assert_manhattan_pad_parity(dll, rng):
    """The library ``dll``'s Manhattan matrix equals numpy's under ``==`` for
    every count in ``_PAD_PREDS``: from the one-shot entries, on predictions
    far from a ground truth at the origin, where a zero pad lane would cost
    least if it were ever read out, and from the ``match`` binder with no
    scores, refilled in place across calls, as ``fit`` reruns its matcher."""
    entry_c, entry_pure = (_entries(lib)["manhattan_matrix"] for lib in (dll, None))
    bind_c, bind_pure = (kernels._binders(lib).match for lib in (dll, None))
    perms = _orderings(ElementKind.POLYGON, 5)
    for n_preds in _PAD_PREDS:
        far = 1000 + rng.uniform(size=(n_preds, 5, 2))
        for pred, gts in ((far, np.zeros((2, 5, 2))), (-far, np.zeros((1, 5, 2)))):
            got, want = (entry(pred, gts, perms) for entry in (entry_c, entry_pure))
            for got_part, want_part in zip(got, want):
                np.testing.assert_array_equal(got_part, want_part)
            assert (got[0] >= 5 * 2000).all()  # each point at least 1000 off in x and y
        pred_c, gts_c, costs_c, best_c, run_c = _bound_manhattan(
            bind_c, far, np.zeros((3, 5, 2)), perms)
        pred_p, gts_p, costs_p, best_p, run_p = _bound_manhattan(
            bind_pure, far.copy(), np.zeros((3, 5, 2)), perms)
        for _ in range(4):
            pred_c[...] = pred_p[...] = np.round(rng.uniform(size=pred_c.shape) * 4) / 4
            gts_c[...] = gts_p[...] = np.round(rng.uniform(size=gts_c.shape) * 4) / 4
            run_c()
            run_p()
            np.testing.assert_array_equal(costs_c, costs_p)
            np.testing.assert_array_equal(best_c, best_p)


def _bound_manhattan(bind_match, pred, gts, perms):
    """``bind_match`` with no scores, as ``manhattan_matrix`` binds it: every
    ground truth searched over ``perms``, each shown in its stored order (the
    map after them).  Returns (pred, gts, costs, best, cost runner)."""
    (K, n), G = perms.shape, len(gts)
    pred, gts, shown, _, costs, best, *_, run, _ = bind_match(
        pred, None, gts, np.zeros(G), np.concatenate([perms, np.arange(n)[None]]),
        np.zeros(G), np.full(G, K), 0.0, 0.5)
    shown[...] = K
    return pred, gts, costs, best, run


def _assert_chamfer_parity(entries, n, rng):
    """Unequal point counts, mixed scales, on and off the grid; each case
    alone and one stack of all of them against each partner: ``entries``'
    Chamfer matrix equals numpy's and the loop oracle under ``==``."""
    cases = list(_chamfer_cases(rng, n, 40))
    stack = np.stack([a for a, _ in cases])
    for a, b in cases:
        for x, y in ((a[None], b[None]), (b[None], a[None]), (stack, b[None]), (b[None], stack)):
            got = entries["chamfer_matrix"](x, y)
            np.testing.assert_array_equal(got, PURE["chamfer_matrix"](x, y))
            assert got[0, 0] == _chamfer_loop_oracle(x[0], y[0])


@pytest.mark.parametrize(
    "kind", [ElementKind.POLYLINE, ElementKind.POLYGON, None],
    ids=["polyline", "polygon", "identity"],
)
@pytest.mark.parametrize("n", [3, 7, 20, 40])
@pytest.mark.parametrize("grid", [False, True], ids=["uniform", "quarter-grid"])
def test_manhattan_costs_bit_identical(c_kernels, kind, n, grid, rng):
    _assert_manhattan_parity(c_kernels, kind, n, grid, rng)


def test_manhattan_pad_lanes_never_read_out(c_library, rng):
    _assert_manhattan_pad_parity(c_library, rng)


def test_manhattan_scratch_starts_on_64_bytes(c_library):
    # Odd-sized allocations kept alive between binds move where the heap
    # puts the next buffer; each bound scratch must still start on a
    # 64-byte boundary, which keeps the kernel's speed the same per call.
    bind = kernels._binders(c_library).match
    perms = _orderings(None, 3)
    held = []
    for n_preds in range(1, 71):
        held.append(np.empty(n_preds % 13 + 1))
        *_, run = _bound_manhattan(bind, np.zeros((n_preds, 3, 2)), np.zeros((1, 3, 2)), perms)
        scratch = run.bufs[-1]
        assert scratch.ctypes.data % 64 == 0
        assert len(scratch) == 7 * ((n_preds + 7) // 8 * 8)  # 2 * n * S + S


def test_manhattan_tie_break_identical(c_kernels):
    _assert_tie_break_parity(c_kernels)


def test_compiled_manhattan_rejects_zero_points(c_kernels):
    _assert_rejects_zero_points(c_kernels)


@pytest.mark.parametrize("n", [1, 2, 7, 20, 40])
def test_chamfer_matrix_bit_identical(c_kernels, n, rng):
    _assert_chamfer_parity(c_kernels, n, rng)


def test_chamfer_matrix_bit_identical_on_a_scene(c_kernels, rng):
    # 50 x 7 pairs of 20-point sets, on an eighth grid where nearest
    # distances tie: more than four numpy blocks.
    a = np.round(rng.uniform(size=(50, 20, 2)) * 8) / 8
    b = np.round(rng.uniform(size=(7, 20, 2)) * 8) / 8
    np.testing.assert_array_equal(c_kernels["chamfer_matrix"](a, b), PURE["chamfer_matrix"](a, b))


@pytest.mark.parametrize("gamma", [0.0, 2.0, 2.5])
def test_focal_cost_table_bit_identical(c_kernels, gamma, rng):
    # libm's pow and log against Python's ** and math.log on 15,000 scores,
    # plus the ends of the unit interval.
    scores = rng.uniform(size=(5000, 3))
    scores[0] = [0.0, 1.0, 0.5]
    for alpha in (0.25, 0.9):
        got = c_kernels["focal_cost_table"](scores, gamma, alpha)
        np.testing.assert_array_equal(got, PURE["focal_cost_table"](scores, gamma, alpha))


def test_focal_cost_table_rejects_out_of_domain_input():
    # Outside [0, 1], or with gamma < 0, Python's ** and math.log raise or
    # special-case where libm does not, and an infinite gamma zeroes every
    # cost; alpha outside (0, 1) is no class weight: both backends' check
    # raises first.
    cases = [
        (1.5, 2.0, 0.25), (-0.25, 2.0, 0.25), (math.nan, 2.0, 0.25), (0.5, -1.0, 0.25),
        (0.5, math.nan, 0.25), (0.5, math.inf, 0.25),
        (0.5, 2.0, math.nan), (0.5, 2.0, 0.0), (0.5, 2.0, 1.0), (0.5, 2.0, 5.0),
    ]
    for score, gamma, alpha in cases:
        scores = np.array([[0.5, score, 0.5]])
        for entry in (kernels.focal_cost_table, PURE["focal_cost_table"]):
            with pytest.raises(ValueError, match=r"focal scores must lie in \[0, 1\] and gamma >= 0"):
                entry(scores, gamma, alpha)


def _pair_cases(rng, n):
    """(points, rows, classes, aligned) cases for ``pair_terms``: polylines
    (classes 1 and 2), polygons (class 0) and both; each on the unit
    interval, and on a quarter grid where coordinates tie the ground truth
    exactly, repeated points make zero-length edges and some zeros are
    -0.0; edges exactly
    ``EDGE_NORM_FLOOR`` long on either side; plus matches on the ground
    truth itself and no pairs at all."""
    for n_pairs in (0, 1, 4, 7):
        for kinds in ("polyline", "polygon", "mixed"):
            i = np.arange(n_pairs)
            classes = {"polyline": 1 + i % 2, "polygon": np.zeros(n_pairs, dtype=np.int64),
                       "mixed": np.where(i % 2 == 1, 0, 1 + i // 2 % 2)}[kinds]
            rows = np.sort(rng.choice(7, n_pairs, replace=False))
            points, aligned = rng.uniform(size=(7, n, 2)), rng.uniform(size=(n_pairs, n, 2))
            yield points, rows, classes, aligned
            floor = np.zeros((7, n, 2))
            floor[:, ::2, 0] = EDGE_NORM_FLOOR  # each edge (+-floor, 0): no cosine
            yield floor, rows, classes, aligned
            yield points, rows, classes, floor[:n_pairs]
            points, aligned = np.round(points * 4) / 4, np.round(aligned * 4) / 4
            points[:, min(1, n - 1)] = points[:, 0]
            for a in (points, aligned):
                a[(a == 0) & (rng.uniform(size=a.shape) < 0.5)] = -0.0
            yield points, rows, classes, aligned
            aligned[::2] = points[rows[::2]]
            yield points, rows, classes, aligned


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 20, 64, 65, 70, 129])
def test_pair_terms_bit_identical(c_library, n, rng):
    # Each point2point sum adds 2n terms, each polygon n cosines and each
    # polyline n - 1 (none for n = 1): together these n cover each branch
    # of numpy's pairwise summation (under 8, 8 to 128, and halves above
    # 128) and its edges.  -0.0 counts: the outputs compare as bytes.
    bind_c, bind_pure = (kernels._binders(dll).loss for dll in (c_library, None))
    for points, rows, classes, aligned in _pair_cases(rng, n):
        scores = np.full((len(points), 3), 0.5)  # the pair terms do not read them
        for alpha, beta in ((5.0, 5e-3), (1.5, 0.0), (0.0, 0.7)):
            case = points, scores, rows, classes, aligned, 2.0, 0.25, 2.0, alpha, beta
            *_, p2p, dir_, d_points, _, _, _, run = bind_c(*case)
            *_, want_p2p, want_dir, want_d_points, _, _, _, want_run = bind_pure(*case)
            run()
            want_run()
            assert p2p.tobytes() == want_p2p.tobytes()
            assert dir_.tobytes() == want_dir.tobytes()
            assert d_points.tobytes() == want_d_points.tobytes()


def _focal_terms_cases(rng):
    """(points, scores, rows, classes, aligned) cases for ``focal_terms``: 1
    to 129 slots, uniform and quarter-grid scores with exact 0s and 1s, and
    no pairs, a few pairs or every slot matched."""
    for n_slots in (1, 2, 5, 50, 129):
        scores = rng.uniform(size=(n_slots, 3))
        grid = np.round(scores * 4) / 4  # many exact 0s and 1s
        scores.flat[::7] = 0.0
        scores.flat[3::11] = 1.0
        for s in (scores, grid):
            for n_pairs in sorted({0, min(3, n_slots), n_slots}):
                rows = np.sort(rng.choice(n_slots, n_pairs, replace=False))
                yield (np.zeros((n_slots, 3, 2)), s, rows, rng.integers(3, size=n_pairs),
                       np.zeros((n_pairs, 3, 2)))


def _assert_focal_terms_parity(bind_c, gamma):
    """``bind_c``'s focal terms equal the numpy body's as bytes."""
    bind_pure = kernels._binders(None).loss
    rng = np.random.default_rng(7)
    for case in _focal_terms_cases(rng):
        for alpha, lam in ((0.25, 2.0), (0.9, 1.5), (0.5, 0.0)):
            *_, loss, d_scores, d_logits, run = bind_c(*case, gamma, alpha, lam, 5.0, 5e-3)
            *_, want_loss, want_d_scores, want_d_logits, want_run = bind_pure(
                *case, gamma, alpha, lam, 5.0, 5e-3)
            # 0 ** negative is inf, and inf * 0 NaN, in both backends alike.
            with np.errstate(divide="ignore", invalid="ignore"):
                cls, want_cls = run(), want_run()
            assert np.float64(cls).tobytes() == np.float64(want_cls).tobytes()
            assert loss.tobytes() == want_loss.tobytes()
            assert d_scores.tobytes() == want_d_scores.tobytes()
            assert d_logits.tobytes() == want_d_logits.tobytes()


@pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0, 3.7])
def test_focal_terms_bit_identical(c_library, gamma):
    # The numpy logs and powers are shared; the C arithmetic after them,
    # the pair branch of each entry and the pairwise sum must match.
    _assert_focal_terms_parity(kernels._binders(c_library).loss, gamma)


def _assert_adam_parity(bind_c):
    """Ten chained steps of ``bind_c``'s Adam equal the numpy body's as bytes,
    on parameters of 1 to 2,000 entries, clipped and not."""
    bind_pure = kernels._binders(None).adam
    rng = np.random.default_rng(11)
    for shape in ((1,), (7,), (50, 3), (33,), (50, 20, 2)):
        for clip in (True, False):
            x = rng.uniform(size=shape)
            x.flat[::5], x.flat[1::5], x.flat[2::9] = 0.0, 1.0, -0.0  # at and on the bounds
            g = rng.normal(size=shape) * rng.choice([0.0, 1e-9, 1.0, 1e3], size=shape)
            m, v = rng.normal(size=shape), rng.uniform(size=shape)
            m.flat[::3], v.flat[::3] = 0.0, 0.0  # zero moments with zero gradients
            # A -0.0 that no step moves: np.clip keeps its sign.
            x.flat[0], g.flat[0], m.flat[0], v.flat[0] = -0.0, 0.0, 0.0, 0.0
            c_args = [a.copy() for a in (x, g, m, v)]
            pure_args = [a.copy() for a in (x, g, m, v)]
            # A step size of 0.3 takes updates across both clip bounds.
            step_c = bind_c(*c_args, clip, 0.9, 0.999, 0.3, 1e-8)
            step_pure = bind_pure(*pure_args, clip, 0.9, 0.999, 0.3, 1e-8)
            for t in range(1, 11):
                c1, c2 = 1 - 0.9**t, 1 - 0.999**t
                assert step_c(c1, c2) == step_pure(c1, c2) == 1  # finite
                for a, b in zip(c_args, pure_args):
                    assert a.tobytes() == b.tobytes()
                if t == 1:
                    assert np.signbit(c_args[0].flat[0])
                c_args[1][...] = pure_args[1][...] = rng.normal(size=shape)
            if clip:
                assert ((c_args[0] >= 0) & (c_args[0] <= 1)).all()
            elif x.size > 1:  # the same steps unclipped leave the unit interval both ways
                assert (c_args[0] < 0).any() and (c_args[0] > 1).any()


def test_adam_step_bit_identical(c_library):
    _assert_adam_parity(kernels._binders(c_library).adam)


_FOCAL_ARGS = dict(points=np.zeros((4, 3, 2)), scores=np.full((4, 3), 0.5), rows=[0, 2],
                   classes=[0, 1], aligned=np.zeros((2, 3, 2)), gamma=2.0, alpha=0.25, lam=2.0,
                   alpha_p2p=5.0, beta_dir=5e-3)


@pytest.mark.parametrize(
    "name, change",
    [
        ("scores", {"scores": np.full((4, 2), 0.5)}),
        ("scores", {"scores": np.full(12, 0.5)}),
        ("scores", {"scores": np.full((4, 3), 1.5)}),
        ("scores", {"scores": np.full((4, 3), np.nan)}),
        ("rows", {"rows": [-1, 0]}),
        ("rows", {"rows": [1, 1]}),
        ("rows", {"rows": [2, 1]}),
        ("rows", {"rows": [1, 4]}),
        ("rows", {"rows": [[0, 1]]}),
        ("classes", {"classes": [-1, 0]}),
        ("classes", {"classes": [3, 0]}),
        ("classes", {"classes": [0]}),
        ("gamma", {"gamma": -1.0}),
        ("gamma", {"gamma": math.nan}),
        ("gamma", {"gamma": math.inf}),
        ("alpha", {"alpha": 0.0}),
        ("alpha", {"alpha": 1.0}),
        ("alpha", {"alpha": math.nan}),
    ],
)
def test_focal_terms_binders_reject_bad_input_naming_it(name, change):
    for dll in {None, kernels._dll}:
        bind = kernels._binders(dll).loss
        bind(*_FOCAL_ARGS.values())  # the consistent arguments bind
        with pytest.raises(ValueError, match=f"^{name} "):
            bind(*{**_FOCAL_ARGS, **change}.values())


@pytest.mark.parametrize(
    "name, bad",
    [(name, bad) for name in ("params", "grads", "m", "v")
     for bad in ("shape", "float32", "strided", "list") if (name, bad) != ("params", "shape")],
)
def test_adam_binders_reject_bad_input_naming_it(name, bad):
    # The step updates params, m and v in place: a converted copy would
    # leave the caller's arrays unchanged, so each must be bound as it is.
    args = {key: np.zeros((5, 3)) for key in ("params", "grads", "m", "v")}
    args[name] = {"shape": np.zeros((3, 5)), "float32": np.zeros((5, 3), np.float32),
                  "strided": np.zeros((5, 6))[:, ::2], "list": np.zeros((5, 3)).tolist()}[bad]
    for dll in {None, kernels._dll}:
        bind = kernels._binders(dll).adam
        with pytest.raises(ValueError, match=f"^{name} "):
            bind(*args.values(), True, 0.9, 0.999, 0.01, 1e-8)


def test_kernels_build_without_warnings(tmp_path):
    # The production flags plus -Wall -Wextra -Werror: no entry lands with
    # a compiler warning.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    proc = subprocess.run(
        ["cc", *kernels.FLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "kernels.so"),
         str(kernels.SOURCE), "-lm"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def _other_layouts(x):
    """x as Fortran-ordered, strided and 32-bit arrays: none is C-contiguous
    float64 or int64, so a check must copy each before C reads its address."""
    strided = np.stack([x, np.zeros_like(x)], axis=-1)[..., 0]
    narrow = x.astype(np.int32 if x.dtype.kind == "i" else np.float32)
    return {"fortran": np.asfortranarray(x), "strided": strided, "32-bit": narrow}


@pytest.mark.parametrize("layout", ["fortran", "strided", "32-bit"])
def test_entries_take_any_layout(c_kernels, layout, rng):
    # The compiled entries pass raw addresses: only the checks'
    # ascontiguousarray stands between these arrays and the C loops.
    cases = {
        "manhattan_matrix": (rng.uniform(size=(6, 7, 2)), rng.uniform(size=(3, 7, 2)),
                             _group_perms(ElementKind.POLYGON, 7)),
        "chamfer_matrix": (rng.uniform(size=(6, 7, 2)), rng.uniform(size=(4, 5, 2))),
        "focal_cost_table": (rng.uniform(size=(6, 3)), 2.0, 0.25),
    }
    for name, args in cases.items():
        args = [_other_layouts(x)[layout] if isinstance(x, np.ndarray) else x for x in args]
        for x in args:
            if isinstance(x, np.ndarray):
                assert not (x.flags.c_contiguous and x.dtype in (np.float64, np.int64))
        np.testing.assert_array_equal(c_kernels[name](*args), PURE[name](*args))


#: The line of ``kernels.c`` that clones each loop marked ``CLONED`` per ISA.
_CLONE_MACRO = '#define CLONED __attribute__((target_clones("avx512f", "avx2", "default")))'


def _cpu_flags():
    """The ``flags`` of the first CPU in /proc/cpuinfo (empty on a CPU whose
    listing has no such line), or None where there is no such file."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return None
    flags = next((line for line in lines if line.startswith("flags")), ":")
    return set(flags.split(":", 1)[1].split())


@pytest.fixture(scope="module", params=["avx512f", "avx2", "default"])
def clone_library(request, tmp_path_factory):
    """A copy of ``kernels.c`` whose marked loops are built for one ISA only,
    opened: each clone the loader may pick, tested whichever it picks."""
    isa = request.param
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    if isa != "default" and isa not in (_cpu_flags() or ()):
        pytest.skip(f"this CPU has no {isa}")
    source = kernels.SOURCE.read_text()
    assert source.count(_CLONE_MACRO) == 1
    only = "" if isa == "default" else f' __attribute__((target("{isa}")))'
    copy = tmp_path_factory.mktemp(f"clone-{isa}") / "kernels.c"
    copy.write_text(source.replace(_CLONE_MACRO, "#define CLONED" + only))
    return kernels.load(kernels.build(copy.parent, source=copy))


@pytest.fixture(scope="module")
def clone_kernels(clone_library):
    """The matrix entries of one clone's library."""
    return _entries(clone_library)


def test_clone_manhattan_bit_identical(clone_kernels, rng):
    for kind in (ElementKind.POLYLINE, ElementKind.POLYGON, None):
        for n in (3, 7, 20, 40):
            for grid in (False, True):
                _assert_manhattan_parity(clone_kernels, kind, n, grid, rng)


def test_clone_manhattan_pad_lanes_never_read_out(clone_library, rng):
    _assert_manhattan_pad_parity(clone_library, rng)


def test_clone_tie_break_identical(clone_kernels):
    _assert_tie_break_parity(clone_kernels)


def test_clone_chamfer_bit_identical(clone_kernels, rng):
    for n in (1, 2, 7, 20, 40):
        _assert_chamfer_parity(clone_kernels, n, rng)


def test_clone_chamfer_cutoff_bit_identical(clone_kernels, rng):
    for a, b, cutoff in _cutoff_cases(rng):
        _assert_cutoff_parity(clone_kernels["chamfer_matrix"], a, b, cutoff)


def test_clone_adam_step_bit_identical(clone_library):
    _assert_adam_parity(kernels._binders(clone_library).adam)


def _assert_match_parity(dll, rng):
    """The library ``dll``'s matcher entry equals numpy's under ``==``, every
    output of both runs: at P = G and P > G; polylines alone at n = 2,
    polygons alone and both kinds at n = 3; each ground truth searched over
    its group or, fixed order, its first map alone, and shown in a drawn
    member; on integer coordinates, where orderings tie."""
    from scipy.optimize import linear_sum_assignment

    line, gon = ElementKind.POLYLINE, ElementKind.POLYGON
    for n, kinds in ((2, [line] * 3), (3, [gon] * 2), (3, [gon, line, gon, line])):
        groups = {kind: permutation_group(kind, n).index_maps() for kind in dict.fromkeys(kinds)}
        starts = dict(zip(groups, np.cumsum([0] + [len(m) for m in groups.values()]).tolist()))
        maps = np.concatenate(list(groups.values()))
        first = np.array([starts[k] for k in kinds])
        sizes = np.array([len(groups[k]) for k in kinds])
        classes = np.array([0 if k is gon else 1 for k in kinds])
        G = len(kinds)
        for P, fixed in ((G, False), (G, True), (9, False), (9, True)):
            pred = rng.integers(0, 3, size=(P, n, 2)).astype(float)
            gts = rng.integers(0, 3, size=(G, n, 2)).astype(float)
            scores = np.round(rng.uniform(size=(P, 3)) * 4) / 4
            drawn = rng.integers(sizes)
            got = []
            for lib in (dll, None):
                _, _, shown, *outs, cost, pairs = kernels._binders(lib).match(
                    pred, scores, gts, classes, maps, first, np.ones(G) if fixed else sizes,
                    2.0, 0.25)
                shown[...] = drawn
                cost()
                outs[4][...], outs[5][...] = linear_sum_assignment(outs[3])  # rows, cols
                pairs()
                got.append([a.copy() for a in outs])
            for a, b in zip(*got):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            if fixed:
                assert (got[0][2] == 0).all()  # best: the one map searched


def test_match_bit_identical(c_library, rng):
    _assert_match_parity(c_library, rng)


def test_clone_match_bit_identical(clone_library, rng):
    _assert_match_parity(clone_library, rng)


def test_clone_guard_leaves_other_targets_plain(tmp_path):
    # The guard keys on the target alone, so the copy drops the #include
    # lines: an x86-64 host's system headers do not preprocess for another
    # target.  Forced to x86-64 ELF the loops are cloned; on any other
    # target the macro is empty, so a compiler without x86 ISAs builds it.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    lines = kernels.SOURCE.read_text().splitlines(keepends=True)
    copy = tmp_path / "kernels.c"
    copy.write_text("".join(line for line in lines if not line.startswith("#include")))

    def preprocess(*flags):
        return subprocess.run(["cc", "-E", *flags, str(copy)], capture_output=True,
                              text=True, check=True).stdout

    cloned = kernels.SOURCE.read_text().count("\nCLONED ")
    assert cloned >= 3  # the Manhattan, Chamfer and Adam loops
    assert preprocess("-D__x86_64__", "-D__ELF__").count("target_clones") == cloned
    assert "target_clones" not in preprocess("-U__x86_64__")


def test_isa_is_one_the_cpu_allows():
    if kernels.BACKEND == "pure":
        assert kernels.ISA is None
        return
    assert kernels.ISA in ("avx512f", "avx2", "default")
    flags = _cpu_flags()
    if flags is None:
        pytest.skip("no /proc/cpuinfo to read the CPU's flags from")
    # The loader's pick: the first ISA of the clone list the CPU has.
    assert kernels.ISA == next((isa for isa in ("avx512f", "avx2") if isa in flags), "default")


def test_library_name_follows_the_source(tmp_path):
    changed = tmp_path / "kernels.c"
    changed.write_bytes(kernels.SOURCE.read_bytes() + b"/* changed */\n")
    same = kernels.library_path(tmp_path)
    assert kernels.library_path(tmp_path) == same
    assert kernels.library_path(tmp_path, changed) != same
    assert same.parent == tmp_path and same.suffix == ".so"


def test_build_replaces_a_stale_library(c_kernels, tmp_path):
    changed = tmp_path / "kernels.c"
    changed.write_bytes(kernels.SOURCE.read_bytes() + b"/* changed */\n")
    stale = kernels.build(tmp_path, changed)
    assert stale == kernels.library_path(tmp_path, changed) and stale.exists()
    current = kernels.build(tmp_path)
    assert current == kernels.library_path(tmp_path) != stale
    assert sorted(tmp_path.glob("*.so")) == [current]
    built_at = current.stat().st_mtime_ns
    assert kernels.build(tmp_path) == current
    assert current.stat().st_mtime_ns == built_at  # cached, not compiled again


def _run_without_compiler(tmp_path, code):
    """Run ``code`` on a copy of the package with no cached library and an
    empty PATH: no cc, so the numpy kernels run."""
    package = Path(vecmap.__file__).parent
    shutil.copytree(package, tmp_path / "vecmap", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "empty").mkdir()
    env = {**os.environ, "PATH": str(tmp_path / "empty"), "PYTHONPATH": str(tmp_path)}
    return subprocess.run([sys.executable, "-W", "error", "-c", code],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def test_import_without_compiler_runs_pure(tmp_path):
    # Imported without cc, the package runs the numpy kernels, with no
    # error and no warning.
    code = ("import vecmap, vecmap._kernels as k; "
            "assert vecmap.__file__.startswith(%r), vecmap.__file__; "
            "print(vecmap.KERNEL_BACKEND, k.BACKEND == 'pure' and k._dll is None)")
    proc = _run_without_compiler(tmp_path, code % str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["pure", "True"]
    assert not list((tmp_path / "vecmap").rglob("*.so"))


_FIT_SUMMARY = """
import numpy as np
from vecmap.fitter import FitConfig, FitMode, fit
from vecmap.scenegen import SceneSpec, generate_scene

def fit_summary():
    scene = generate_scene(SceneSpec(seed=5))
    out = []
    for mode in FitMode:
        trace = fit(scene, FitConfig(mode=mode, seed=5, iterations=40, n_slots=20))
        preds = trace.final_predictions
        out.append((repr(trace.losses), repr(trace.final_report),
                    np.stack([p.points for p in preds]).tobytes().hex(),
                    np.stack([p.scores for p in preds]).tobytes().hex()))
    return out
"""


def test_fit_equal_on_both_backends(tmp_path):
    # A whole fit in both modes -- bound matcher, kernels, losses and AP --
    # without cc against this process's backend: the same loss trace, report
    # and final prediction bits (repr round-trips every float).
    scope = {}
    exec(_FIT_SUMMARY, scope)
    proc = _run_without_compiler(
        tmp_path, _FIT_SUMMARY + "import vecmap; print(vecmap.KERNEL_BACKEND); print(fit_summary())"
    )
    assert proc.returncode == 0, proc.stderr
    backend, summary = proc.stdout.splitlines()
    assert backend == "pure"
    assert summary == repr(scope["fit_summary"]())


def test_dispatch_exports_one_backend():
    cached = kernels.library_path(kernels.SOURCE.with_name("__pycache__"))
    assert kernels.BACKEND == ("compiled" if cached.exists() else "pure")
    if shutil.which("cc") is not None:
        # With a compiler the import builds the library, or fails loudly here.
        assert kernels.BACKEND == "compiled"
    assert vecmap.KERNEL_BACKEND == kernels.BACKEND
    # The per-pair entries are defined once, as slices of the matrix
    # kernels, whichever backend runs.
    for entry in (kernels.min_manhattan_over_perms, kernels.chamfer_mean):
        assert entry.__module__ == kernels.__name__
    # So are the matrix entries, each binding and running once; the numpy
    # module keeps no one-shot entry of its own.
    for name in ("manhattan_matrix", "chamfer_matrix", "focal_cost_table"):
        assert getattr(kernels, name).__module__ == kernels.__name__
        assert not hasattr(_pure, name)
