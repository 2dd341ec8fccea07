"""Kernel backend: the C kernels of ``kernels.c`` when they build, else numpy.

On first import, with ``cc`` on PATH, ``kernels.c`` is compiled once into
``__pycache__/kernels-<hash>.so``, named by the SHA-256 of the source and
the flags, and opened with plain ``ctypes``; later imports load the cached
library.  Without ``cc``, or when the build fails, ``_dll`` is None and the
bodies of ``_pure`` run.  ``BACKEND`` says which ("compiled" or "pure");
both return the same bits, so the choice changes speed only.  The library
holds one clone of each Manhattan, Chamfer and Adam loop per ISA, and the
loader picks one for the running CPU; ``ISA`` names it (None on the numpy
backend).

The backend is chosen in one place, ``_binders(dll)``, which calls the
library, or with ``dll`` None the ``_pure`` bodies.  It gives entries for
the kernels that run once (``manhattan_matrix``, ``chamfer_matrix``,
``focal_cost_table``, ``json_tokens``) and binders for those that rerun
(below).  Each numeric entry and binder runs one ``_pure.check_*`` (finite
points, consistent shapes and indices, focal scores in [0, 1], a finite
gamma >= 0 and 0 < alpha < 1, else ValueError) before any kernel.
``min_manhattan_over_perms`` and ``chamfer_mean`` slice the matrix kernels.
``chamfer_matrix(a, b, cutoff)`` writes +inf for each pair whose bounding
boxes lie at least ``cutoff`` apart, without computing it; the default,
``inf``, computes every pair.
The matcher's and the fit step's kernels have binders only, each bound once
per matcher or fit and rerun on the buffers it bound: ``_bind_match`` (in
``matching.BoundMatcher``: ``match_cost`` fills the whole cost matrix and
``match_pairs`` gathers the assigned pairs), ``_bind_loss`` (in
``losses.BoundLoss``: ``focal_terms`` and ``pair_terms``, which reads each
pair's closing edge by its class) and one ``_bind_adam`` step each for the
points and the logits, which reports whether they stayed finite.

``json_tokens(data)`` gives the scene reader the numbers of JSON text and
its layout (see ``kernels.c``); or None, for text of another form and always
on the numpy backend.  A decimal of at most 15 significant digits and 22
fraction digits is one exact division, and any other number goes to
``strtod_l`` in the C locale: each equals what ``json`` parses.
"""

import ctypes
import hashlib
import itertools
import math
import os
import warnings
from collections import namedtuple
from functools import partial
from pathlib import Path

import numpy as np

from ..geometry import KIND_FOR_CLASS, ElementKind
from . import _pure

SOURCE = Path(__file__).with_name("kernels.c")
#: No FMA contraction: every multiply and add must round on its own, as
#: numpy's and Python's do.  No errno from sqrt, so that the loops around it
#: vectorize (see ``kernels.c``).
FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")


def library_path(cache_dir: Path, source: Path = SOURCE) -> Path:
    """Where the library built from ``source`` lives in ``cache_dir``: a
    changed source or flag gives a new name, so a stale build never loads."""
    digest = hashlib.sha256(source.read_bytes() + " ".join(FLAGS).encode())
    return Path(cache_dir) / f"kernels-{digest.hexdigest()}.so"


def build(cache_dir: Path, source: Path = SOURCE) -> Path | None:
    """The compiled library in ``cache_dir``, compiled there on a miss.

    Returns None when there is no library and no ``cc`` on PATH; raises
    RuntimeError when ``cc`` fails.  The compiler writes a temporary file
    that is then renamed into place, so concurrent builds never load a
    partial library; libraries of other sources are then deleted.
    """
    lib = library_path(cache_dir, source)
    if lib.exists():
        return lib
    import shutil

    cc = shutil.which("cc")
    if cc is None:
        return None
    import subprocess
    import tempfile

    lib.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib.parent)
    os.close(fd)
    try:
        proc = subprocess.run([cc, *FLAGS, "-o", tmp, str(source), "-lm"],
                              capture_output=True, text=True)
        if proc.returncode:
            raise RuntimeError(f"{cc} failed on {source}:\n{proc.stderr}")
        os.replace(tmp, lib)
        for stale in lib.parent.glob("kernels-*.so"):
            if stale != lib:
                stale.unlink(missing_ok=True)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _carve(dtype, *shapes):
    """Zeroed arrays of ``dtype`` (8 bytes wide) and ``shapes``, each on a
    64-byte boundary of one block, and their addresses (the block's read once)."""
    sizes = [-(-math.prod(shape) // 8) * 8 for shape in shapes]
    block = np.zeros(sum(sizes) + 8, dtype)
    address = block.ctypes.data
    starts = list(itertools.accumulate(sizes, initial=-address % 64 // 8))
    return ([block[at:at + math.prod(s)].reshape(s) for at, s in zip(starts, shapes)],
            [address + 8 * at for at in starts[:-1]])


#: Whether a pair of class 0, 1 or 2 has a closing edge (a polygon's).
_CLOSED_FOR_CLASS = np.array([KIND_FOR_CLASS[c] is ElementKind.POLYGON
                              for c in sorted(KIND_FOR_CLASS)])

Binders = namedtuple("Binders", "manhattan_matrix chamfer_matrix focal_cost_table json_tokens "
                                "loss adam match")


def _binders(dll):
    """The :class:`Binders` running ``dll``, or the ``_pure`` bodies with
    ``dll`` None, where ``json_tokens`` returns None: the only code that
    differs by backend.  The first four are entries: each checks its input,
    runs its kernel once and returns fresh outputs; ``manhattan_matrix`` is
    ``match`` with no scores, its cost runner run once.  The last three are
    binders: each checks its input, allocates outputs and scratch and takes
    every address once, and returns the checked inputs, the outputs and
    ``run()``, which refills the outputs from the inputs' current contents
    unchecked.  An input already contiguous in the kernel's dtype is bound
    as it is (scores as a flat view), so a caller may refill it.  ``adam``
    binds the caller's arrays themselves, which its ``run(c1, c2)`` updates
    in place and which returns whether they stayed finite.  ``match`` copies
    its ground truth, maps and classes into two blocks, with its outputs and
    scratch, whose addresses it reads once; its second runner, ``pairs()``,
    gathers the pairs of ``rows`` and ``cols``.  The scratch starts on a
    64-byte boundary (see ``kernels.c``)."""

    def manhattan_matrix(pred_pts, gt_pts, perms):
        """Minimum summed Manhattan distance over orderings, for every pair.

        pred_pts: (P, n, 2) predicted point sets.
        gt_pts:   (G, n, 2) ground-truth point sets.
        perms:    (K, n) integer index maps; ordering k aligns pred[j] with
                  gt[perms[k, j]].

        Returns (costs (P, G), best (P, G)), where best is the index of the
        first ordering attaining the minimum.  Each cost adds
        term = |dx| + |dy| over point index j in order, so entry (p, g) does
        not depend on the other pairs in the stacks.
        """
        perms = np.asarray(perms, dtype=np.int64)
        if perms.ndim != 2 or not len(perms) or perms.shape[1:] != np.shape(gt_pts)[1:2]:
            raise ValueError(f"perms must have shape (K, n) with K >= 1, got {perms.shape}")
        (K, n), G = perms.shape, len(gt_pts)
        # Every ground truth searched over perms, shown in its stored order (the map after them).
        _, _, shown, _, costs, best, *_, cost, _ = bind_match(
            pred_pts, None, gt_pts, np.zeros(G), np.concatenate([perms, np.arange(n)[None]]),
            np.zeros(G), np.full(G, K), 0.0, 0.5)
        shown[...] = K
        cost()
        return costs, best

    def chamfer_matrix(a, b, cutoff=np.inf):
        """Symmetric mean Chamfer distance of every pair of two point-set stacks.

        a: (P, n, 2) and b: (G, m, 2), checked by ``_pure.check_chamfer_inputs``.
        Returns (P, G): for each pair, the squared distances are dx*dx + dy*dy,
        each direction sums the sqrt of its nearest ones left to right, divides
        by its count, and the two are averaged.

        A pair is +inf instead when cutoff * cutoff is a finite normal double
        and its bounding boxes' gap (gx, gy), 0 on an axis where they overlap,
        has gx*gx + gy*gy >= cutoff * cutoff: its distance is at least that
        gap, up to rounding.  The default, ``inf``, computes every pair.
        """
        a, b = _pure.check_chamfer_inputs(a, b)
        (P, n), (G, m) = a.shape[:2], b.shape[:2]
        out = np.empty((P, G))
        if dll is None:
            _pure.chamfer_into(a, b, cutoff, out)
        else:
            near_b, box = np.empty(m), np.empty(4 * (P + G))  # scratch, held through the call
            dll.chamfer_matrix(a.ctypes.data, b.ctypes.data, P, n, G, m, cutoff,
                               out.ctypes.data, near_b.ctypes.data, box.ctypes.data)
        return out

    def focal_cost_table(scores, gamma, alpha):
        """(P, 3) table of ``_pure.focal_cost`` for every entry of scores (P, 3),
        entry by entry with scalar ``log`` and ``pow``: numpy's vectorized
        ``log`` and ``power`` may round differently in the last ulp."""
        flat = _pure.check_focal_inputs(scores, gamma, alpha)
        out = np.empty(len(flat))
        if dll is None:
            _pure.focal_into(flat, gamma, alpha, out)
        else:
            dll.focal_cost_table(flat.ctypes.data, len(flat), gamma, alpha, _pure.FOCAL_EPS,
                                 out.ctypes.data)
        return out.reshape(-1, 3)

    def json_tokens(data: bytes):
        """``(numbers, skeleton)`` of JSON text ``data``, or None (see ``kernels.c``)."""
        if dll is None:
            return None
        # Each number and each skeleton byte takes at least one byte of text.
        numbers, skeleton = np.empty(len(data) // 2 + 1), np.empty(len(data), np.uint8)
        size = ctypes.c_int64()
        count = dll.json_tokens(data, len(data), numbers.ctypes.data, len(numbers),
                                skeleton.ctypes.data, len(data), ctypes.byref(size))
        return None if count < 0 else (numbers[:count], skeleton[:size.value].tobytes())

    def bind_loss(points, scores, rows, classes, aligned, gamma, alpha, lam, alpha_p2p,
                  beta_dir):
        ins = _pure.check_loss_inputs(points, scores, rows, classes, aligned, gamma, alpha)
        points, scores, rows, classes, aligned = ins
        (P, n), M = points.shape[:2], len(rows)
        logs_powers = np.empty((6, P, 3))
        outs = (np.empty(M), np.empty(M), np.empty_like(points),  # p2p, dir, d_points
                np.empty((P, 3)), np.empty((P, 3)), np.empty((P, 3)))  # loss, d_scores, d_logits
        if dll is None:
            pairs = partial(_pure.pair_terms_into, points, rows, classes, _CLOSED_FOR_CLASS,
                            aligned, alpha_p2p, beta_dir, *outs[:3])
            focal = partial(_pure.focal_terms_into, scores, logs_powers, rows, classes, gamma,
                            alpha, lam, *outs[3:])
        else:
            bufs = *ins, _CLOSED_FOR_CLASS, logs_powers, *outs, np.empty(5 * n)
            pts, s, r, c, al, closed, lp, p2p, dir_, d_pts, loss, d_s, d_l, scratch = (
                x.ctypes.data for x in bufs)
            pairs = partial(dll.pair_terms, pts, r, c, closed, al, P, M, n, alpha_p2p, beta_dir,
                            _pure.EDGE_NORM_FLOOR, p2p, dir_, d_pts, scratch)
            focal = partial(dll.focal_terms, s, lp, r, c, P, M, gamma, alpha, lam,
                            _pure.FOCAL_EPS, loss, d_s, d_l)
            pairs.bufs = bufs

        def run():
            """The focal losses' sum; refills every output."""
            _pure.focal_logs_powers(scores, gamma, logs_powers)
            cls = focal()
            pairs()
            return cls

        return *ins, *outs, run

    def bind_adam(params, grads, m, v, clip, b1, b2, lr, eps):
        _pure.check_adam_inputs(params, grads, m, v)
        if dll is None:
            return partial(_pure.adam_into, params, grads, m, v, clip, b1, b2, lr, eps)
        a, b, c, d = (x.ctypes.data for x in (params, grads, m, v))
        run = partial(dll.adam_step, a, b, c, d, params.size, bool(clip), b1, b2, lr, eps)
        run.bufs = params, grads, m, v
        return run

    def bind_match(pred_pts, scores, gt_pts, classes, maps, first, count, gamma, alpha):
        pred, flat, *ins = _pure.check_match_inputs(pred_pts, scores, gt_pts, classes, maps,
                                                    first, count, gamma, alpha)
        (P, n), G = pred.shape[:2], len(ins[0])
        S = (P + 7) // 8 * 8  # the Manhattan loop's row stride, in doubles
        floats, fa = _carve(np.float64, (G, n, 2), (P, 3), (P, G), (P, G), (G,), (G, n, 2),
                            (2 * n * S + S,))
        ints, ia = _carve(np.int64, (G,), ins[2].shape, *[(G,)] * 3, (P, G), *[(G,)] * 4)
        gts, table, manhattan, total, costs, aligned, scratch = floats
        classes, maps, first, count, shown, best, rows, cols, orderings, pair_classes = ints
        # rows ascend from the start, and pair_classes are classes, so a loss may bind them.
        for a, b in zip((gts, classes, maps, first, count, rows, pair_classes),
                        (*ins, np.arange(G), ins[1])):
            a[...] = b
        cost_args = (pred, flat, gts, classes, maps, first, count, shown, gamma, alpha, table,
                     manhattan, best, total)
        pairs_args = (gts, classes, maps, first, shown, manhattan, best, rows, cols, orderings,
                      costs, pair_classes, aligned)
        if dll is None:
            cost = partial(_pure.match_cost_into, *cost_args)
            pairs = partial(_pure.match_pairs_into, *pairs_args)
        else:  # the same arguments, each array by its address (no scores: NULL)
            at = dict(zip(map(id, (pred, flat, *floats, *ints)),
                          (pred.ctypes.data, flat if flat is None else flat.ctypes.data, *fa, *ia)))
            cost = partial(dll.match_cost, *[at.get(id(a), a) for a in cost_args], P, G, n,
                           _pure.FOCAL_EPS, at[id(scratch)])
            pairs = partial(dll.match_pairs, *[at.get(id(a), a) for a in pairs_args], G, n)
            cost.bufs = pairs.bufs = pred, flat, *ints, *floats  # the library reads them
        return (pred, gts, shown, table, manhattan, best, total, rows, cols, orderings, costs,
                pair_classes, aligned, cost, pairs)

    return Binders(manhattan_matrix, chamfer_matrix, focal_cost_table, json_tokens, bind_loss,
                   bind_adam, bind_match)


def load(lib: Path) -> ctypes.CDLL:
    """The library ``lib``, opened, with its entries' signatures declared."""
    dll = ctypes.CDLL(str(lib))
    ptr, n, real = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    dll.chamfer_matrix.argtypes = [ptr, ptr, n, n, n, n, real, ptr, ptr, ptr]
    dll.focal_cost_table.argtypes = [ptr, n, real, real, real, ptr]
    dll.pair_terms.argtypes = [ptr, ptr, ptr, ptr, ptr, n, n, n, real, real, real, ptr, ptr,
                               ptr, ptr]
    dll.focal_terms.argtypes = [ptr, ptr, ptr, ptr, n, n, real, real, real, real, ptr, ptr, ptr]
    dll.focal_terms.restype = real
    dll.adam_step.argtypes = [ptr, ptr, ptr, ptr, n, n, real, real, real, real, real, real]
    dll.adam_step.restype = n
    dll.match_cost.argtypes = [ptr] * 8 + [real, real] + [ptr] * 4 + [n, n, n, real, ptr]
    dll.match_pairs.argtypes = [ptr] * 13 + [n, n]
    for entry in (dll.chamfer_matrix, dll.focal_cost_table, dll.pair_terms, dll.match_cost,
                  dll.match_pairs):
        entry.restype = None
    dll.kernel_isa.argtypes, dll.kernel_isa.restype = [], ctypes.c_char_p
    dll.json_tokens.argtypes = [ctypes.c_char_p, n, ptr, n, ptr, n, ptr]
    dll.json_tokens.restype = n
    return dll


try:
    _lib = build(SOURCE.with_name("__pycache__"))
    _dll = None if _lib is None else load(_lib)
except (OSError, RuntimeError) as exc:
    warnings.warn(f"vecmap: C kernels not built, using numpy: {exc}", RuntimeWarning)
    _dll = None
BACKEND = "pure" if _dll is None else "compiled"
#: The clone of each cloned C loop that the loader picked for this CPU
#: ("avx512f", "avx2" or "default"); None on the numpy backend.
ISA = None if _dll is None else _dll.kernel_isa().decode()
(manhattan_matrix, chamfer_matrix, focal_cost_table, json_tokens, _bind_loss, _bind_adam,
 _bind_match) = _binders(_dll)


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


__all__ = ["min_manhattan_over_perms", "manhattan_matrix", "chamfer_mean", "chamfer_matrix",
           "focal_cost_table", "json_tokens", "BACKEND", "ISA"]
