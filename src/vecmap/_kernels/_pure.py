"""Pure-numpy kernels, bit-identical to the compiled ones in ``_fast.pyx``.

Each Manhattan cost adds term = |dx| + |dy| over point index j in order,
and each Chamfer direction sums its nearest-point distances in point
order, so both backends return the same floats and the same argmin ties.
``chamfer_matrix`` has this numpy form only; each of its entries equals
``chamfer_mean`` of that pair.
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


#: Elements per (rows, m, P*G) block of squared distances: 256 KiB of
#: float64.  On 50 x 7 pairs of 20-point sets (2-core x86-64 Xeon VM,
#: numpy 2.4) the unblocked form, with megabyte temporaries allocated
#: afresh on every call, took 2.1 ms; this block size took 0.8 ms.
_CHAMFER_BLOCK = 1 << 15


def chamfer_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetric mean Chamfer distance of every pair of two point-set stacks.

    a: (P, n, 2) and b: (G, m, 2).  Returns (P, G) whose entry (p, g)
    equals ``chamfer_mean(a[p], b[g])`` exactly: the squared distances
    are dx*dx + dy*dy, each direction sums the sqrt of its nearest ones
    left to right, divides by its count, and the two are averaged.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    (P, n), (G, m) = a.shape[:2], b.shape[:2]
    # Column k = p * G + g pairs prediction p with ground truth g, so every
    # minimum and sum below runs over an outer axis.
    ax, ay = np.repeat(a.transpose(2, 1, 0), G, axis=2)  # (n, P*G) each
    bx, by = np.tile(b.transpose(2, 1, 0), (1, 1, P))  # (m, P*G) each
    near_a = np.empty((n, P * G))  # nearest squared distance from a's points
    near_b = np.full((m, P * G), np.inf)  # and from b's points
    step = max(1, _CHAMFER_BLOCK // max(1, m * P * G))
    for i in range(0, n, step):
        rows = slice(i, i + step)
        d2 = np.subtract(ax[rows, None], bx)
        np.square(d2, out=d2)
        dy = np.subtract(ay[rows, None], by)
        np.square(dy, out=dy)
        d2 += dy
        d2.min(axis=1, out=near_a[rows])
        np.minimum(near_b, d2.min(axis=0), out=near_b)
    # Left-to-right sums, as in chamfer_mean.
    ab = np.cumsum(np.sqrt(near_a), axis=0)[-1] / n
    ba = np.cumsum(np.sqrt(near_b), axis=0)[-1] / m
    return (0.5 * (ab + ba)).reshape(P, G)


def chamfer_mean(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric mean Chamfer distance under Euclidean point distance.

    One pair at a time; equal to the 1 x 1 :func:`chamfer_matrix`, whose
    set-up made it about 20 us slower per call (2-core x86-64 Xeon VM).
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    d2 = np.square(np.subtract.outer(a[:, 0], b[:, 0]))
    d2 += np.square(np.subtract.outer(a[:, 1], b[:, 1]))
    # cumsum adds left to right like the compiled loop; .mean() and np.sum
    # add pairwise, and the builtin sum compensates on Python >= 3.12.
    ab = np.cumsum(np.sqrt(d2.min(axis=1)))[-1] / len(a)
    ba = np.cumsum(np.sqrt(d2.min(axis=0)))[-1] / len(b)
    return 0.5 * (ab + ba)
