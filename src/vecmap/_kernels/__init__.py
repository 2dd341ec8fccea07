"""Kernel backend selection.

Prefers the compiled extension, falls back to pure numpy when it is not
built.  Set VECMAP_PURE_PYTHON=1 to force the fallback.
"""

import os

from . import _pure

if os.environ.get("VECMAP_PURE_PYTHON"):
    _impl = _pure
    BACKEND = "pure"
else:
    try:
        from . import _fast as _impl
        BACKEND = "compiled"
    except ImportError:
        _impl = _pure
        BACKEND = "pure"

min_manhattan_over_perms = _impl.min_manhattan_over_perms
chamfer_mean = _impl.chamfer_mean

__all__ = ["min_manhattan_over_perms", "chamfer_mean", "BACKEND"]
