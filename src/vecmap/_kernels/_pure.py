"""Pure-numpy fallback kernels.

These mirror the compiled versions in ``_fast.pyx`` bit-for-bit for the
Manhattan kernel: each cost is accumulated sequentially over point index
j (term = |dx| + |dy|, then acc += term), so both backends return the
same floats and the same argmin ties.
"""

from __future__ import annotations

import numpy as np


def min_manhattan_over_perms(
    pred_pts: np.ndarray, gt_pts: np.ndarray, perms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum summed Manhattan distance over candidate point orderings.

    pred_pts: (P, n, 2) predicted point sets.
    gt_pts:   (n, 2) ground-truth point set.
    perms:    (K, n) integer index maps; ordering k aligns pred[j] with
              gt[perms[k, j]].

    Returns (costs (P,), best (P,)) where best is the index of the first
    ordering attaining the minimum.
    """
    pred = np.ascontiguousarray(pred_pts, dtype=np.float64)
    gt = np.ascontiguousarray(gt_pts, dtype=np.float64)
    perms = np.ascontiguousarray(perms, dtype=np.int64)
    permuted = gt[perms]  # (K, n, 2)
    # One (P, K, n) pass, built in place: two such arrays live at once.
    term = np.subtract(pred[:, None, :, 0], permuted[None, :, :, 0])
    np.abs(term, out=term)
    dy = np.subtract(pred[:, None, :, 1], permuted[None, :, :, 1])
    np.abs(dy, out=dy)
    term += dy
    del dy
    # cumsum adds left to right, so its last column equals acc += term[j]
    # over j; np.sum would add pairwise and round differently.
    acc = np.cumsum(term, axis=-1, out=term)[..., -1]
    best = np.argmin(acc, axis=1)
    return acc[np.arange(len(acc)), best], best


def chamfer_mean(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric mean Chamfer distance under Euclidean point distance."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    d = np.sqrt(d2)
    return 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())
