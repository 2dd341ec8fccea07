"""Kernel exactness: the matrix kernels against loop oracles, and backend parity.

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
kernels and must equal the same oracles.  The compiled Manhattan kernel
must equal the numpy one exactly as well; those parity tests run only
when the extension is built.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vecmap
import vecmap._kernels as kernels
from vecmap._kernels import _pure
from vecmap.geometry import ElementKind, permutation_group

try:
    from vecmap._kernels import _fast
except ImportError:
    _fast = None

needs_fast = pytest.mark.skipif(_fast is None, reason="compiled kernel not built")


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
        costs, best = kernels.min_manhattan_over_perms(pred, gt, perms)
        oracle_costs, oracle_best = _per_point_oracle(pred, gt, perms)
        np.testing.assert_array_equal(costs, oracle_costs)
        np.testing.assert_array_equal(best, oracle_best)


def test_pure_first_minimum_wins():
    gt = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    # Orderings 2 and 3 both align exactly; the first of them is reported.
    perms = np.array([[2, 1, 0], [1, 2, 0], [0, 1, 2], [0, 1, 2]])
    costs, best = kernels.min_manhattan_over_perms(gt[None], gt, perms)
    assert best[0] == 2 and costs[0] == 0.0
    # All eight orderings of a square tie against its center: the first wins.
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    center = np.tile(square.mean(axis=0), (1, 4, 1))
    costs, best = kernels.min_manhattan_over_perms(
        center, square, _group_perms(ElementKind.POLYGON, 4)
    )
    assert best[0] == 0 and costs[0] == 4.0


def _orderings(kind, n):
    """The group's index maps, or the identity map alone for kind None."""
    return np.arange(n)[None, :] if kind is None else _group_perms(kind, n)


def _assert_manhattan_matrix_equals_oracle(pred, gts, perms):
    costs, best = _pure.manhattan_matrix(pred, gts, perms)
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
    _assert_manhattan_matrix_equals_oracle(pred, gts, perms)


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
        assert kernels.chamfer_mean(a, b) == _chamfer_loop_oracle(a, b)
        assert kernels.chamfer_mean(b, a) == _chamfer_loop_oracle(b, a)


def _assert_matrix_equals_pairwise(a, b):
    got = _pure.chamfer_matrix(a, b)
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


def _pure_column(pred, gt, perms):
    """Column 0 of the numpy ``manhattan_matrix`` against one ground truth."""
    costs, best = _pure.manhattan_matrix(pred, gt[None], perms)
    return costs[:, 0], best[:, 0]


@needs_fast
@pytest.mark.parametrize("kind", [ElementKind.POLYLINE, ElementKind.POLYGON])
@pytest.mark.parametrize("n", [3, 7, 20])
def test_manhattan_costs_bit_identical(kind, n, rng):
    perms = _group_perms(kind, n)
    for _ in range(20):
        pred = rng.uniform(size=(6, n, 2))
        gt = rng.uniform(size=(n, 2))
        c_pure, b_pure = _pure_column(pred, gt, perms)
        c_fast, b_fast = _fast.min_manhattan_over_perms(pred, gt, perms)
        np.testing.assert_array_equal(c_pure, c_fast)
        np.testing.assert_array_equal(b_pure, b_fast)
        # The compiled matrix: one compiled call per ground truth.
        gts = rng.uniform(size=(3, n, 2))
        for got, want in zip(
            kernels.manhattan_matrix(pred, gts, perms), _pure.manhattan_matrix(pred, gts, perms)
        ):
            np.testing.assert_array_equal(got, want)


@needs_fast
def test_manhattan_tie_break_identical(rng):
    # symmetric input: several orderings tie exactly; both backends must
    # report the first one
    n = 4
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    perms = _group_perms(ElementKind.POLYGON, n)
    pred = np.tile(square.mean(axis=0), (1, n, 1))
    c_pure, b_pure = _pure_column(pred, square, perms)
    c_fast, b_fast = _fast.min_manhattan_over_perms(pred, square, perms)
    assert b_pure[0] == b_fast[0] == 0
    assert c_pure[0] == c_fast[0]


def test_dispatch_exports_one_backend():
    assert kernels.BACKEND == ("pure" if _fast is None else "compiled")
    assert vecmap.KERNEL_BACKEND == kernels.BACKEND
    assert kernels.chamfer_matrix is _pure.chamfer_matrix
    # The per-pair entries are defined once, as slices of the matrix
    # kernels, whichever backend runs.
    for entry in (kernels.min_manhattan_over_perms, kernels.chamfer_mean):
        assert entry.__module__ == kernels.__name__
    if _fast is None:
        assert kernels.manhattan_matrix is _pure.manhattan_matrix
    else:
        # An input-checking wrapper around the compiled kernel.
        assert kernels.manhattan_matrix.__module__ == kernels.__name__
