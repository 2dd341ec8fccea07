"""Kernel exactness: the numpy kernel against a per-point oracle, and backend parity.

The Manhattan kernel is specified to accumulate each cost sequentially
over point index j (term = |dx| + |dy|, then acc += term) and to report
the first ordering attaining the minimum.  The oracle below is that loop,
written out; the numpy kernel must equal it exactly.  The compiled kernel
must equal the numpy one exactly as well; those parity tests run only
when the extension is built.  The Chamfer kernel only guarantees
agreement to within floating-point reassociation noise.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
        costs, best = _pure.min_manhattan_over_perms(pred, gt, perms)
        oracle_costs, oracle_best = _per_point_oracle(pred, gt, perms)
        np.testing.assert_array_equal(costs, oracle_costs)
        np.testing.assert_array_equal(best, oracle_best)


def test_pure_first_minimum_wins():
    gt = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    # Orderings 2 and 3 both align exactly; the first of them is reported.
    perms = np.array([[2, 1, 0], [1, 2, 0], [0, 1, 2], [0, 1, 2]])
    costs, best = _pure.min_manhattan_over_perms(gt[None], gt, perms)
    assert best[0] == 2 and costs[0] == 0.0
    # All eight orderings of a square tie against its center: the first wins.
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    center = np.tile(square.mean(axis=0), (1, 4, 1))
    costs, best = _pure.min_manhattan_over_perms(
        center, square, _group_perms(ElementKind.POLYGON, 4)
    )
    assert best[0] == 0 and costs[0] == 4.0


@needs_fast
@pytest.mark.parametrize("kind", [ElementKind.POLYLINE, ElementKind.POLYGON])
@pytest.mark.parametrize("n", [3, 7, 20])
def test_manhattan_costs_bit_identical(kind, n, rng):
    perms = _group_perms(kind, n)
    for _ in range(20):
        pred = rng.uniform(size=(6, n, 2))
        gt = rng.uniform(size=(n, 2))
        c_pure, b_pure = _pure.min_manhattan_over_perms(pred, gt, perms)
        c_fast, b_fast = _fast.min_manhattan_over_perms(pred, gt, perms)
        np.testing.assert_array_equal(c_pure, c_fast)
        np.testing.assert_array_equal(b_pure, b_fast)


@needs_fast
def test_manhattan_tie_break_identical(rng):
    # symmetric input: several orderings tie exactly; both backends must
    # report the first one
    n = 4
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    perms = _group_perms(ElementKind.POLYGON, n)
    pred = np.tile(square.mean(axis=0), (1, n, 1))
    c_pure, b_pure = _pure.min_manhattan_over_perms(pred, square, perms)
    c_fast, b_fast = _fast.min_manhattan_over_perms(pred, square, perms)
    assert b_pure[0] == b_fast[0] == 0
    assert c_pure[0] == c_fast[0]


@needs_fast
def test_chamfer_close(rng):
    for _ in range(50):
        a = rng.uniform(size=(rng.integers(1, 30), 2)) * 40
        b = rng.uniform(size=(rng.integers(1, 30), 2)) * 40
        assert _pure.chamfer_mean(a, b) == pytest.approx(
            _fast.chamfer_mean(a, b), abs=1e-12
        )


def test_dispatch_exports_one_backend():
    assert kernels.BACKEND in ("pure", "compiled")
    assert callable(kernels.min_manhattan_over_perms)
    assert callable(kernels.chamfer_mean)


def test_pure_env_forces_fallback():
    # The child imports vecmap from wherever this process found it.
    src = Path(vecmap.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import vecmap; print(vecmap.KERNEL_BACKEND)"],
        capture_output=True,
        text=True,
        env={"VECMAP_PURE_PYTHON": "1", "PATH": "/usr/bin:/bin", "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "pure", out.stderr
