"""Pure-Python kernels: the input checks and the numpy and scalar bodies.

``manhattan_into`` adds term = |dx| + |dy| over point index j in order and
reports the first minimum; ``chamfer_into`` sums each direction's
nearest-point distances in point order; ``focal_into`` evaluates
:func:`focal_cost` with scalar ``math.log`` and ``**``; ``pair_terms_into``
gives the loss's point2point and edge-direction terms and their gradient,
each pair's closing edge read from its class and each per-pair sum added
pairwise as ``ndarray.sum`` adds; ``focal_terms_into`` gives the loss's
focal term and its gradient from the numpy logs and powers of
:func:`focal_logs_powers`, which both backends share; the two take inputs
of one check, :func:`check_loss_inputs`; ``adam_into`` takes one fit step.
The C loops of ``kernels.c`` do the same operations in the same order, so
both backends return the same floats and the same argmin ties.  Nothing
here picks a backend: the binders of ``vecmap._kernels`` run a
``check_*`` once, then the library or the ``*_into`` body on the checked
inputs.
"""

from __future__ import annotations

import math
import sys

import numpy as np

#: Floor keeping the focal log terms finite; also used in the
#: classification loss.
FOCAL_EPS = 1e-12
#: Edges shorter than this are treated as degenerate: cosine similarity 0.
EDGE_NORM_FLOOR = 1e-8


def _check_points(name: str, a: np.ndarray) -> None:
    """Raise ValueError unless ``a`` is (count, n, 2) with finite entries.

    A non-finite point would make the backends differ: numpy's minimum
    propagates NaN, where the C loops' comparisons skip it.
    """
    if a.ndim != 3 or a.shape[2] != 2:
        raise ValueError(f"{name} must have shape (count, n, 2), got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")


#: Elements per (rows, P, G*K) block of Manhattan terms: 256 KiB of float64,
#: like the Chamfer block below.
_MANHATTAN_BLOCK = 1 << 15


def check_manhattan_inputs(
    pred_pts: np.ndarray, gt_pts: np.ndarray, perms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous float64 pred (P, n, 2) and gts (G, n, 2), int64 perms (K, n).

    Raises ValueError when a point is not finite, when the point counts
    differ or are 0, when ``perms`` is not (K, n) with K >= 1, or when an
    entry of ``perms`` lies outside [0, n): the C kernel reads memory
    unchecked, and numpy would wrap a negative index.
    """
    pred = np.ascontiguousarray(pred_pts, dtype=np.float64)
    gts = np.ascontiguousarray(gt_pts, dtype=np.float64)
    perms = np.ascontiguousarray(perms, dtype=np.int64)
    _check_points("predictions", pred)
    _check_points("ground truth", gts)
    n = gts.shape[1]
    if pred.shape[1] != n:
        raise ValueError(
            f"point count mismatch: {pred.shape[1]} predicted vs {n} ground truth"
        )
    if not n:
        raise ValueError("point sets must have at least one point, got 0")
    if perms.ndim != 2 or perms.shape[1] != n or not len(perms):
        raise ValueError(f"perms must have shape (K, {n}) with K >= 1, got {perms.shape}")
    if perms.min() < 0 or perms.max() >= n:
        raise ValueError(f"perms entries must lie in [0, {n})")
    return pred, gts, perms


def manhattan_into(pred, gts, perms, costs, best):
    """``vecmap._kernels.manhattan_matrix`` on checked inputs, into costs and
    best (P, G)."""
    (P, n), G, K = pred.shape[:2], len(gts), len(perms)
    # Row j holds point j of every (prediction, ground truth, ordering)
    # triple, column p * G * K + g * K + k, so the adds below run over rows.
    px, py = pred.transpose(2, 1, 0)[:, :, :, None]  # (n, P, 1) each
    qx, qy = gts[:, perms].transpose(3, 2, 0, 1).reshape(2, n, 1, G * K)
    acc = np.zeros((P, G * K))
    step = max(1, _MANHATTAN_BLOCK // max(1, P * G * K))
    # Two block buffers, reused: fresh ones on every block were about 25%
    # slower (2-core x86-64 Xeon VM, numpy 2.4).
    term_buf = np.empty((min(step, n), P, G * K))
    dy_buf = np.empty_like(term_buf)
    for i in range(0, n, step):
        j = min(i + step, n)
        term, dy = term_buf[: j - i], dy_buf[: j - i]
        np.subtract(px[i:j], qx[i:j], out=term)
        np.abs(term, out=term)
        np.subtract(py[i:j], qy[i:j], out=dy)
        np.abs(dy, out=dy)
        term += dy
        # One add per point, in order; np.sum would add pairwise.
        for row in term:
            acc += row
    acc = acc.reshape(P, G, K)
    return acc.min(axis=2, out=costs), acc.argmin(axis=2, out=best)


#: Elements per (rows, m, P*G) block of squared distances: 256 KiB of
#: float64.  On 50 x 7 pairs of 20-point sets (2-core x86-64 Xeon VM,
#: numpy 2.4) the unblocked form, with megabyte temporaries allocated
#: afresh on every call, took 2.1 ms; this block size took 0.8 ms.
_CHAMFER_BLOCK = 1 << 15


def check_chamfer_inputs(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous float64 a (P, n, 2) and b (G, m, 2).

    Raises ValueError unless both stacks are (count, points, 2) with at
    least one point per set and finite entries: the C kernel reads memory
    unchecked.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    for name, s in (("first point sets", a), ("second point sets", b)):
        _check_points(name, s)
        if not s.shape[1]:
            raise ValueError(f"{name} must have at least one point, got {s.shape}")
    return a, b


def chamfer_into(a: np.ndarray, b: np.ndarray, cutoff: float, out: np.ndarray) -> np.ndarray:
    """``vecmap._kernels.chamfer_matrix`` on inputs checked by
    :func:`check_chamfer_inputs`, into out (P, G): every pair computed,
    then +inf written where ``kernels.c`` skips the pair."""
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
    # Left-to-right sums; np.sum would add pairwise.
    ab = np.cumsum(np.sqrt(near_a), axis=0)[-1] / n
    ba = np.cumsum(np.sqrt(near_b), axis=0)[-1] / m
    out[:] = (0.5 * (ab + ba)).reshape(P, G)
    cut2 = cutoff * cutoff
    if sys.float_info.min <= cut2 < math.inf:
        # The kernel's bounding-box gap test, with the same float operations.
        lo_a, hi_a = a.min(axis=1)[:, None], a.max(axis=1)[:, None]  # (P, 1, 2)
        lo_b, hi_b = b.min(axis=1), b.max(axis=1)  # (G, 2)
        gap = np.maximum(0.0, np.maximum(lo_b - hi_a, lo_a - hi_b))  # (P, G, 2)
        gx, gy = gap[..., 0], gap[..., 1]
        out[gx * gx + gy * gy >= cut2] = np.inf
    return out


def focal_cost(p: float, gamma: float, alpha: float) -> float:
    """Focal matching cost of score p for its class slot: positive minus
    negative term, with scalar ``math.log`` and ``**``."""
    pos = alpha * (1.0 - p) ** gamma * -math.log(p + FOCAL_EPS)
    neg = (1.0 - alpha) * p**gamma * -math.log(1.0 - p + FOCAL_EPS)
    return pos - neg


def check_focal_inputs(scores, gamma: float, alpha: float) -> np.ndarray:
    """The scores flattened to contiguous float64.  Raises ValueError unless
    each lies in [0, 1], 0 <= gamma < inf and 0 < alpha < 1, NaN failing
    each: outside that domain Python's ``**`` and ``math.log`` raise or
    special-case where libm does not, an infinite gamma zeroes every cost,
    and an alpha outside (0, 1) weighs a term negatively, which
    ``CostConfig`` forbids.
    """
    flat = np.ascontiguousarray(np.ravel(scores), dtype=np.float64)
    if not (0 <= gamma < math.inf and 0 < alpha < 1 and ((flat >= 0) & (flat <= 1)).all()):
        raise ValueError(
            "focal scores must lie in [0, 1] and gamma >= 0 (finite), with 0 < alpha < 1;"
            f" got gamma {gamma}, alpha {alpha}"
        )
    return flat


def focal_into(flat, gamma: float, alpha: float, out: np.ndarray) -> np.ndarray:
    """:func:`focal_cost` of every checked flat score, written into out, entry
    by entry in Python floats."""
    out[:] = [focal_cost(p, gamma, alpha) for p in flat.tolist()]
    return out


def check_loss_inputs(points, scores, rows, classes, aligned, gamma: float, alpha: float):
    """Contiguous float64 points (P, n, 2), scores (P, 3) and aligned
    (M, n, 2), and int64 rows and classes (M,).  Raises ValueError, naming
    the argument, unless both point stacks are finite with n >= 1, every
    score lies in [0, 1] (NaN fails), the rows strictly ascend within
    [0, P), each class is 0, 1 or 2, 0 <= gamma < inf and 0 < alpha < 1:
    the C kernels index by rows and classes unchecked."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    classes = np.ascontiguousarray(classes, dtype=np.int64)
    aligned = np.ascontiguousarray(aligned, dtype=np.float64)
    _check_points("points", points)
    if not points.shape[1]:  # numpy's edges would index point -1
        raise ValueError(f"points must have at least one point per set, got {points.shape}")
    P = len(points)
    if scores.shape != (P, 3) or not ((scores >= 0) & (scores <= 1)).all():
        raise ValueError(f"scores must have shape {(P, 3)} with every value in [0, 1], "
                         f"got shape {scores.shape}")
    if rows.ndim != 1 or (len(rows) and (rows[0] < 0 or rows[-1] >= P
                                         or (np.diff(rows) <= 0).any())):
        raise ValueError(f"rows must ascend strictly within [0, {P}), got {rows}")
    if classes.shape != rows.shape or not np.isin(classes, (0, 1, 2)).all():
        raise ValueError(f"classes must be one of 0, 1, 2 per row, got {classes}")
    want = (len(rows),) + points.shape[1:]
    if aligned.shape != want:
        raise ValueError(f"aligned must have shape {want}, got {aligned.shape}")
    _check_points("aligned", aligned)
    if not 0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return points, scores, rows, classes, aligned


def pair_terms_into(points, rows, classes, closed_for_class, aligned, alpha, beta, p2p, dir_,
                    d_points):
    """``kernels.c``'s ``pair_terms`` on inputs checked by
    :func:`check_loss_inputs`: each pair's point2point sum into p2p (M,),
    its summed edge cosines into dir_ (M,), and the weighted gradient wrt
    points into d_points (P, n, 2).  A pair has a closing edge when
    ``closed_for_class`` (3,) is True at its class."""
    closed = closed_for_class[classes]
    pred = points[rows]
    diff = pred - aligned
    # Per-pair sums, each over that pair's own elements.
    p2p[:] = np.abs(diff).reshape(len(rows), 2 * diff.shape[1]).sum(axis=1)

    pe, ge = pred.copy(), aligned.copy()  # edge j: point j minus point j+1 mod n
    for e, a in ((pe, pred), (ge, aligned)):
        e[:, :-1] -= a[:, 1:]
        e[:, -1] -= a[:, 0]
    pn = np.linalg.norm(pe, axis=-1)
    gn = np.linalg.norm(ge, axis=-1)
    n = pred.shape[1]
    ok = (pn > EDGE_NORM_FLOOR) & (gn > EDGE_NORM_FLOOR)
    ok &= closed[:, None] | (np.arange(n) < n - 1)  # a polyline has no edge n - 1
    safe_pn = np.where(ok, pn, 1.0)
    safe_gn = np.where(ok, gn, 1.0)
    cos = np.where(ok, (pe * ge).sum(axis=-1) / (safe_pn * safe_gn), 0.0)
    # Each pair sums only its own edges (n - 1 for a polyline): summing a
    # padded 0 as well could change numpy's pairwise rounding.
    dir_[closed] = cos[closed].sum(axis=1)
    dir_[~closed] = cos[~closed, :-1].sum(axis=1)

    # d cos / d pred_edge; degenerate edges contribute nothing.
    dcos = ge / (safe_pn * safe_gn)[..., None] - cos[..., None] * pe / (safe_pn**2)[..., None]
    dcos[~ok] = 0.0
    # Point j starts edge j and ends edge j-1.
    grad = dcos.copy()
    grad[:, 1:] -= dcos[:, :-1]
    grad[:, 0] -= dcos[:, -1]
    d_points.fill(0.0)
    d_points[rows] += alpha * np.sign(diff)
    d_points[rows] -= beta * grad


def focal_logs_powers(p: np.ndarray, gamma: float, out: np.ndarray) -> None:
    """Into out (6, P, 3): numpy's log(p + eps), log((1 - p) + eps),
    (1 - p)^gamma, (1 - p)^(gamma - 1), p^gamma and p^(gamma - 1) of scores p.

    Both backends' focal terms start from these: numpy's log and power
    round some values differently from libm's, which the C kernel would
    call.  Writing into ``out`` rounds as fresh arrays do.
    """
    pos_log, neg_log, q_g, q_g1, p_g, p_g1 = out
    np.log(np.add(p, FOCAL_EPS, out=pos_log), out=pos_log)
    q = np.subtract(1.0, p, out=q_g)
    np.log(np.add(q, FOCAL_EPS, out=neg_log), out=neg_log)
    np.power(q, gamma - 1.0, out=q_g1)
    np.power(q, gamma, out=q_g)
    np.power(p, gamma, out=p_g)
    np.power(p, gamma - 1.0, out=p_g1)


def focal_terms_into(scores, logs_powers, rows, classes, gamma, alpha, lam, loss, d_scores,
                     d_logits) -> float:
    """``kernels.c``'s ``focal_terms`` on inputs checked by
    :func:`check_loss_inputs`, from :func:`focal_logs_powers`: each
    slot's sigmoid focal loss into loss (P, 3), ``lam`` times its gradient
    wrt the scores into d_scores, and that times the sigmoid's derivative
    into d_logits; returns the losses' sum.  Entry (rows[k], classes[k])
    has a positive target, every other entry a negative one."""
    p = scores
    pos_log, neg_log, q_g, q_g1, p_g, p_g1 = logs_powers
    targets = np.zeros(p.shape)
    targets[rows, classes] = 1.0
    loss[:] = np.where(targets > 0.5, alpha * q_g * -pos_log, (1.0 - alpha) * p_g * -neg_log)
    grad = np.where(
        targets > 0.5,
        alpha * (gamma * q_g1 * pos_log - q_g / (p + FOCAL_EPS)),
        (1.0 - alpha) * (-gamma * p_g1 * neg_log + p_g / (1.0 - p + FOCAL_EPS)),
    )
    d_scores[:] = lam * grad
    d_logits[:] = d_scores * p * (1.0 - p)
    return float(loss.sum())


def check_buffer(name: str, a, shape) -> None:
    """Raise ValueError, naming ``a``, unless it is a C-contiguous float64
    array of ``shape``: a buffer bound to be updated in place, which a
    converted copy would leave unchanged."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.c_contiguous
            and a.shape == shape):
        raise ValueError(f"{name} must be a C-contiguous float64 array of shape {shape}")


def check_adam_inputs(params, grads, m, v) -> None:
    """Raise ValueError, naming the argument, unless params, grads, m and v
    are all buffers (see :func:`check_buffer`) of params' shape."""
    check_buffer("params", params, getattr(params, "shape", None))
    for name, a in (("grads", grads), ("m", m), ("v", v)):
        check_buffer(name, a, params.shape)


def adam_into(params, grads, m, v, clip, b1, b2, lr, eps, c1, c2) -> None:
    """``kernels.c``'s ``adam_step`` on inputs checked by
    :func:`check_adam_inputs`: one bias-corrected adaptive-moment step,
    params, m and v updated in place, params clipped to [0, 1] with
    ``clip``; c1 and c2 are the step's bias corrections."""
    m[...] = b1 * m + (1 - b1) * grads
    v[...] = b2 * v + (1 - b2) * grads**2
    step = params - lr * (m / c1) / (np.sqrt(v / c2) + eps)
    params[...] = np.clip(step, 0.0, 1.0) if clip else step
