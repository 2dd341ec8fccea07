"""Kernel backend selection.

Uses the compiled Manhattan kernel when the extension is built, else the
pure-numpy one.  Both return the same bits, so the choice changes speed
only.  ``chamfer_matrix`` is numpy on both backends.  ``manhattan_matrix``
checks its input shapes and indices before any kernel runs; on the
compiled backend it calls the compiled per-ground-truth kernel once for
each ground truth.  The per-pair entries ``min_manhattan_over_perms`` and
``chamfer_mean`` are slices of the two matrix kernels, on either backend.
"""

import numpy as np

from . import _pure

try:
    from . import _fast
except ImportError:
    _fast = None

chamfer_matrix = _pure.chamfer_matrix

if _fast is None:
    BACKEND = "pure"
    manhattan_matrix = _pure.manhattan_matrix
else:
    BACKEND = "compiled"

    def manhattan_matrix(pred_pts, gt_pts, perms):
        """See vecmap._kernels._pure.manhattan_matrix."""
        pred, gts, perms = _pure.check_manhattan_inputs(pred_pts, gt_pts, perms)
        costs = np.empty((len(pred), len(gts)))
        best = np.empty((len(pred), len(gts)), dtype=np.int64)
        for g, gt in enumerate(gts):
            costs[:, g], best[:, g] = _fast.min_manhattan_over_perms(pred, gt, perms)
        return costs, best


def min_manhattan_over_perms(pred_pts, gt_pts, perms):
    """:func:`manhattan_matrix` against one ground-truth set gt_pts (n, 2).

    Returns (costs (P,), best (P,)).
    """
    costs, best = manhattan_matrix(pred_pts, np.asarray(gt_pts)[None], perms)
    return costs[:, 0], best[:, 0]


def chamfer_mean(a, b):
    """Symmetric mean Chamfer distance of point sets a (n, 2) and b (m, 2):
    the 1 x 1 :func:`chamfer_matrix`."""
    return chamfer_matrix(np.asarray(a)[None], np.asarray(b)[None])[0, 0]


__all__ = [
    "min_manhattan_over_perms",
    "manhattan_matrix",
    "chamfer_mean",
    "chamfer_matrix",
    "BACKEND",
]
