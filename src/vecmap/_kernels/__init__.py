"""Kernel backend selection.

Uses the compiled extension when it is built, else the pure-numpy
kernels.  Both return the same bits, so the choice changes speed only.
``chamfer_matrix``, the all-pairs Chamfer kernel, is numpy on both.
"""

from . import _pure

try:
    from . import _fast as _impl
    BACKEND = "compiled"
except ImportError:
    _impl = _pure
    BACKEND = "pure"

min_manhattan_over_perms = _impl.min_manhattan_over_perms
chamfer_mean = _impl.chamfer_mean
chamfer_matrix = _pure.chamfer_matrix

__all__ = ["min_manhattan_over_perms", "chamfer_mean", "chamfer_matrix", "BACKEND"]
