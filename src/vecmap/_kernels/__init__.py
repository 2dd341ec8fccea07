"""Kernel backend selection.

Uses the compiled extension when it is built, else the pure-numpy
kernels.  Both return the same bits, so the choice changes speed only.
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

__all__ = ["min_manhattan_over_perms", "chamfer_mean", "BACKEND"]
