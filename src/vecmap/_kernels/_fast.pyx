# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled hot kernel: permutation-group Manhattan matching.

One ground truth per call; ``vecmap._kernels.manhattan_matrix`` calls it
once for each ground truth after checking the inputs.  Kept numerically
identical to ``_pure.manhattan_matrix``: the accumulator adds
term = |dx| + |dy| in ascending point order, and the first minimum wins.
"""

import numpy as np

cimport numpy as cnp
from libc.math cimport fabs

cnp.import_array()


def min_manhattan_over_perms(pred_pts, gt_pts, perms):
    """See vecmap._kernels._pure.min_manhattan_over_perms."""
    cdef cnp.ndarray[cnp.float64_t, ndim=3, mode="c"] pred = \
        np.ascontiguousarray(pred_pts, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=2, mode="c"] gt = \
        np.ascontiguousarray(gt_pts, dtype=np.float64)
    cdef cnp.ndarray[cnp.int64_t, ndim=2, mode="c"] pm = \
        np.ascontiguousarray(perms, dtype=np.int64)

    cdef Py_ssize_t P = pred.shape[0]
    cdef Py_ssize_t n = gt.shape[0]
    cdef Py_ssize_t K = pm.shape[0]
    cdef cnp.ndarray[cnp.float64_t, ndim=1] costs = np.empty(P, dtype=np.float64)
    cdef cnp.ndarray[cnp.int64_t, ndim=1] best = np.empty(P, dtype=np.int64)

    cdef Py_ssize_t p, k, j, g
    cdef double acc, term, best_cost
    cdef Py_ssize_t best_k
    for p in range(P):
        best_cost = 0.0
        best_k = 0
        for k in range(K):
            acc = 0.0
            for j in range(n):
                g = pm[k, j]
                term = fabs(pred[p, j, 0] - gt[g, 0]) + fabs(pred[p, j, 1] - gt[g, 1])
                acc = acc + term
            if k == 0 or acc < best_cost:
                best_cost = acc
                best_k = k
        costs[p] = best_cost
        best[p] = best_k
    return costs, best

