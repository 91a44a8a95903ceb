"""Evaluation metrics: position errors and surface F-score.

Everything here is plain numpy; metrics never need gradients. Every
reported number is a float64 result: the F-score's nearest-neighbour
sweep runs in float32, but only to decide the points that lie far from
every threshold, and each point near one is decided by the float64
arithmetic (see ``f_scores``). Point sets are (P, 3) or batched
(N, P, 3) arrays in millimeters; batched inputs return the mean over
samples, accumulated in sample order.
"""

from __future__ import annotations

import numpy as np

PROCRUSTES_EPS = 1e-12
ORTHONORMAL_TOL = 1e-9
# Rows of the first point set per block of the nearest-neighbour sweep,
# which runs one sample at a time: its working set is two
# (NN_BLOCK_ROWS, P) arrays, linear in the point count.
NN_BLOCK_ROWS = 256


def _validate_similarity(scale, rotation) -> None:
    """Raise unless each scale is positive and each rotation proper (det +1)."""
    if np.any(scale <= 0):
        raise ValueError("similarity transform: scale must be positive")
    gram = np.matmul(np.swapaxes(rotation, -1, -2), rotation)
    if not np.allclose(gram, np.eye(3), atol=ORTHONORMAL_TOL):
        raise ValueError("similarity transform: rotation is not orthonormal")
    if np.any(np.abs(np.linalg.det(rotation) - 1.0) > ORTHONORMAL_TOL):
        raise ValueError("similarity transform: rotation must have det +1")


def _as_batch(points) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 2:
        points = points[None]
    if points.ndim != 3 or points.shape[2] != 3:
        raise ValueError(f"expected (P, 3) or (N, P, 3) points, got {points.shape}")
    return points


def _check_pair(pred, gt):
    pred, gt = _as_batch(pred), _as_batch(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"mismatched point sets {pred.shape} vs {gt.shape}")
    return pred, gt


def _select(points, mask):
    if mask is None:
        return points
    return points[:, np.asarray(mask)]


def mpjpe(pred, gt, root_index: int | None = 0, joint_mask=None) -> float:
    """Mean per-joint position error after root alignment.

    ``root_index=None`` skips alignment. ``joint_mask`` restricts the
    averaged joints (the root is still used for alignment).
    """
    pred, gt = _check_pair(pred, gt)
    if root_index is not None:
        if not 0 <= root_index < pred.shape[1]:
            raise ValueError(f"root index {root_index} out of range")
        pred = pred - pred[:, root_index:root_index + 1]
        gt = gt - gt[:, root_index:root_index + 1]
    err = np.linalg.norm(_select(pred, joint_mask) - _select(gt, joint_mask),
                         axis=2)
    return float(err.mean())


def _kabsch_umeyama(pred, gt):
    """Classic Kabsch-Umeyama for every ``pred[i]`` onto ``gt[i]`` at once:
    optimal scale (N,), rotation (N, 3, 3), reflections excluded via the
    sign of the last singular vector, and translation (N, 3).
    """
    n = pred.shape[1]
    if n < 3:
        raise ValueError("Procrustes: need at least 3 points")
    mu_p = pred.mean(axis=1)
    mu_g = gt.mean(axis=1)
    p = pred - mu_p[:, None]
    g = gt - mu_g[:, None]
    var_p = (p ** 2).reshape(len(p), -1).sum(axis=1) / n
    if np.any(var_p < PROCRUSTES_EPS):
        raise ValueError("Procrustes: degenerate input, zero spread")
    cov = np.matmul(np.swapaxes(g, 1, 2), p) / n
    u, d, vt = np.linalg.svd(cov)
    s = np.ones_like(d)
    s[np.linalg.det(u) * np.linalg.det(vt) < 0, 2] = -1.0
    rot = np.matmul(u * s[:, None], vt)
    scale = (d * s).sum(axis=1) / var_p
    shift = np.matmul(scale[:, None, None] * rot, mu_p[:, :, None])[:, :, 0]
    _validate_similarity(scale, rot)
    return scale, rot, mu_g - shift


def align_batch(pred, gt) -> np.ndarray:
    """Procrustes-align every sample of a batch onto its target."""
    pred, gt = _check_pair(pred, gt)
    scale, rot, trans = _kabsch_umeyama(pred, gt)
    return (np.matmul(scale[:, None, None] * pred, np.swapaxes(rot, 1, 2))
            + trans[:, None])


def pa_mpjpe(pred, gt, joint_mask=None) -> float:
    """MPJPE after per-sample similarity alignment."""
    pred, gt = _check_pair(pred, gt)
    return mpjpe(align_batch(pred, gt), gt, root_index=None,
                 joint_mask=joint_mask)


def mpvpe(pred_mesh, gt_mesh, root_regressor_row) -> float:
    """Mean per-vertex position error after regressed-root alignment."""
    pred, gt = _check_pair(pred_mesh, gt_mesh)
    row = np.asarray(root_regressor_row, dtype=np.float64)
    if row.shape != (pred.shape[1],):
        raise ValueError(f"root regressor row must be ({pred.shape[1]},), "
                         f"got {row.shape}")
    pred = pred - np.einsum("v,nvc->nc", row, pred)[:, None]
    gt = gt - np.einsum("v,nvc->nc", row, gt)[:, None]
    return float(np.linalg.norm(pred - gt, axis=2).mean())


def _sweep(a, b, dtype):
    """Squared distance from each point of ``a[n]`` to its nearest in
    ``b[n]``, and back: (N, Pa) and (N, Pb) arrays of ``dtype``.

    One sample at a time, over blocks of at most ``NN_BLOCK_ROWS`` rows of
    ``a[n]``, each written into the same two buffers. Squares are summed
    x, y, z in that order, as ``np.linalg.norm`` does, so in float64 the
    minima are the ones a brute-force norm matrix holds after squaring.
    The Gram expansion is avoided: its cancellation can flip a ``<= tau``
    test.
    """
    a = a.astype(dtype, copy=False)
    bt = np.ascontiguousarray(b.transpose(0, 2, 1), dtype=dtype)  # (N, 3, Pb)
    n, pa, _ = a.shape
    rows = min(pa, NN_BLOCK_ROWS)
    a_to_b = np.empty((n, pa), dtype)
    b_to_a = np.full((n, bt.shape[2]), np.inf, dtype)
    sq = np.empty((rows, bt.shape[2]), dtype)
    tmp = np.empty_like(sq)
    for i in range(n):
        for r0 in range(0, pa, rows):
            block = a[i, r0:r0 + rows]
            q, t = sq[:len(block)], tmp[:len(block)]
            np.subtract(block[:, 0:1], bt[i, 0], out=q)
            np.multiply(q, q, out=q)
            for c in (1, 2):
                np.subtract(block[:, c:c + 1], bt[i, c], out=t)
                np.multiply(t, t, out=t)
                q += t
            q.min(axis=1, out=a_to_b[i, r0:r0 + rows])
            np.minimum(b_to_a[i], q.min(axis=0), out=b_to_a[i])
    return a_to_b, b_to_a


def f_scores(pred, gt, taus) -> list[float]:
    """Surface F-score at each threshold in ``taus`` (mm), mean over samples.

    Precision: fraction of predicted points within tau of the target set;
    recall: the reverse. Similarity-aligns once, then thresholds each
    point's nearest-neighbour distance at every tau.

    A point is within tau when ``sqrt(d2) <= tau``, with ``d2`` its
    smallest float64 squared distance (``_sweep``'s sum), and every
    decision equals that one bit for bit. The sweep runs in float32, and
    its distance ``d`` decides each point with ``|d - tau| > M`` at every
    tau, where M = 64u(S + tau) + 2^-60 mm, u = 2^-24 and S is the largest
    |coordinate| of the sample's aligned prediction and target. The other
    points are swept again in float64, and so is every point of a sample
    whose S is 2^60 or more, or not finite.

    The bound: rounding the float64 inputs to float32 moves every pair
    distance by at most 2*sqrt(3)*uS, and the float32 difference, square,
    two sums and square root add less than 3.6u relative error (a minimum
    keeps both bounds); the float64 distance is within 4 * 2^-53 relative
    of exact. So if float64 puts a point within tau, the float32 distance
    is below tau + 4u(S + tau) < tau + M, and if float64 puts it beyond
    tau, the float32 distance is above tau - M. Float32 underflow adds
    less than 2^-73 mm, and S < 2^60 keeps every float32 square finite.
    """
    pred, gt = _check_pair(pred, gt)
    if pred.shape[0] == 0:
        raise ValueError("f_scores: need at least one sample")
    if pred.shape[1] == 0:
        raise ValueError("f_score: empty point set")
    if any(tau <= 0 for tau in taus):
        raise ValueError("tau must be positive")
    pred = align_batch(pred, gt)
    scale = np.maximum(np.abs(pred).max(axis=(1, 2)), np.abs(gt).max(axis=(1, 2)))
    in_range = scale < 2.0 ** 60  # False for NaN
    with np.errstate(over="ignore", invalid="ignore"):  # such samples rerun
        dists = [np.sqrt(d2).astype(np.float64)
                 for d2 in _sweep(pred, gt, np.float32)]
    for d, a, b in zip(dists, (pred, gt), (gt, pred)):
        near = np.broadcast_to(~in_range[:, None], d.shape)
        for tau in taus:
            margin = 64 * 2.0 ** -24 * (scale + tau) + 2.0 ** -60
            near = near | (np.abs(d - tau) <= margin[:, None])
        for i in np.flatnonzero(near.any(axis=1)):
            rows = near[i]
            d[i, rows] = np.sqrt(_sweep(a[i, rows][None], b[i:i + 1],
                                        np.float64)[0][0])
    scores = []
    for tau in taus:
        precision, recall = ((d <= tau).mean(axis=1) for d in dists)
        total = precision + recall
        per_sample = 2 * precision * recall / np.where(total == 0, 1.0, total)
        scores.append(float(np.mean(per_sample)))
    return scores


def f_score(pred, gt, tau: float) -> float:
    """Surface F-score at one threshold ``tau`` (mm); see ``f_scores``."""
    return f_scores(pred, gt, [tau])[0]
