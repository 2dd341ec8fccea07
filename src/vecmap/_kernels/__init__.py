"""Kernel backend selection.

Uses the compiled extension when it is built, else the pure-numpy
kernels.  Both return the same bits, so the choice changes speed only.
``chamfer_matrix``, the all-pairs Chamfer kernel, is numpy on both.  The
Manhattan entries check their input shapes and indices before any kernel
runs; on the compiled backend ``manhattan_matrix`` calls the compiled
per-ground-truth kernel once for each ground truth.
"""

import numpy as np

from . import _pure

try:
    from . import _fast
except ImportError:
    _fast = None

if _fast is None:
    BACKEND = "pure"
    min_manhattan_over_perms = _pure.min_manhattan_over_perms
    manhattan_matrix = _pure.manhattan_matrix
    chamfer_mean = _pure.chamfer_mean
else:
    BACKEND = "compiled"

    def min_manhattan_over_perms(pred_pts, gt_pts, perms):
        """See vecmap._kernels._pure.min_manhattan_over_perms."""
        pred, gts, perms = _pure.check_manhattan_inputs(
            pred_pts, np.asarray(gt_pts)[None], perms
        )
        return _fast.min_manhattan_over_perms(pred, gts[0], perms)

    def manhattan_matrix(pred_pts, gt_pts, perms):
        """See vecmap._kernels._pure.manhattan_matrix."""
        pred, gts, perms = _pure.check_manhattan_inputs(pred_pts, gt_pts, perms)
        costs = np.empty((len(pred), len(gts)))
        best = np.empty((len(pred), len(gts)), dtype=np.int64)
        for g, gt in enumerate(gts):
            costs[:, g], best[:, g] = _fast.min_manhattan_over_perms(pred, gt, perms)
        return costs, best

    chamfer_mean = _fast.chamfer_mean

chamfer_matrix = _pure.chamfer_matrix

__all__ = [
    "min_manhattan_over_perms",
    "manhattan_matrix",
    "chamfer_mean",
    "chamfer_matrix",
    "BACKEND",
]
