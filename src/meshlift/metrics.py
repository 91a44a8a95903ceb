"""Evaluation metrics: position errors and surface F-score.

Everything here is plain float64 numpy; metrics never need gradients.
Point sets are (P, 3) or batched (N, P, 3) arrays in millimeters;
batched inputs return the mean over samples, accumulated in sample
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROCRUSTES_EPS = 1e-12
ORTHONORMAL_TOL = 1e-9
# Prediction rows per block of the nearest-neighbour sweep: its working
# set is a few (NN_BLOCK_ROWS, P) float64 arrays, linear in the point count.
NN_BLOCK_ROWS = 256


def _validate_similarity(scale, rotation) -> None:
    """Raise unless each scale is positive and each rotation proper (det +1)."""
    if np.any(scale <= 0):
        raise ValueError("SimilarityTransform: scale must be positive")
    gram = np.matmul(np.swapaxes(rotation, -1, -2), rotation)
    if not np.allclose(gram, np.eye(3), atol=ORTHONORMAL_TOL):
        raise ValueError("SimilarityTransform: rotation is not orthonormal")
    if np.any(np.abs(np.linalg.det(rotation) - 1.0) > ORTHONORMAL_TOL):
        raise ValueError("SimilarityTransform: rotation must have det +1")


@dataclass(frozen=True)
class SimilarityTransform:
    """x -> scale * R @ x + t with a proper rotation (det +1)."""

    scale: float
    rotation: np.ndarray     # (3, 3)
    translation: np.ndarray  # (3,)

    def validate(self) -> None:
        _validate_similarity(self.scale, self.rotation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return self.scale * points @ self.rotation.T + self.translation


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
        raise ValueError("procrustes_align: need at least 3 points")
    mu_p = pred.mean(axis=1)
    mu_g = gt.mean(axis=1)
    p = pred - mu_p[:, None]
    g = gt - mu_g[:, None]
    var_p = (p ** 2).reshape(len(p), -1).sum(axis=1) / n
    if np.any(var_p < PROCRUSTES_EPS):
        raise ValueError("procrustes_align: degenerate input, zero spread")
    cov = np.matmul(np.swapaxes(g, 1, 2), p) / n
    u, d, vt = np.linalg.svd(cov)
    s = np.ones_like(d)
    s[np.linalg.det(u) * np.linalg.det(vt) < 0, 2] = -1.0
    rot = np.matmul(u * s[:, None], vt)
    scale = (d * s).sum(axis=1) / var_p
    shift = np.matmul(scale[:, None, None] * rot, mu_p[:, :, None])[:, :, 0]
    _validate_similarity(scale, rot)
    return scale, rot, mu_g - shift


def procrustes_align(pred, gt) -> SimilarityTransform:
    """Least-squares similarity transform taking one (N, 3) ``pred`` onto
    ``gt``: the one-pair view of the batched solver."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 2 or pred.shape[1] != 3:
        raise ValueError(f"expected matching (N, 3) arrays, got {pred.shape} "
                         f"and {gt.shape}")
    scale, rot, trans = _kabsch_umeyama(pred[None], gt[None])
    return SimilarityTransform(scale=float(scale[0]), rotation=rot[0],
                               translation=trans[0])


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


def _nearest_distances(a, b):
    """Distances from each point of ``a`` to its nearest in ``b``, and back.

    Exact, in blocks of ``NN_BLOCK_ROWS`` rows of ``a``: squares are summed
    x, y, z in that order, as ``np.linalg.norm`` does, and only the minima
    are square-rooted (``sqrt`` is monotone and correctly rounded). The
    Gram expansion is avoided: its cancellation can flip a ``<= tau`` test.
    """
    bx, by, bz = np.ascontiguousarray(b.T)
    a_to_b = np.empty(len(a))
    b_to_a = np.full(len(b), np.inf)
    for start in range(0, len(a), NN_BLOCK_ROWS):
        block = a[start:start + NN_BLOCK_ROWS]
        sq = (block[:, 0:1] - bx) ** 2
        sq += (block[:, 1:2] - by) ** 2
        sq += (block[:, 2:3] - bz) ** 2
        a_to_b[start:start + len(block)] = sq.min(axis=1)
        np.minimum(b_to_a, sq.min(axis=0), out=b_to_a)
    return np.sqrt(a_to_b), np.sqrt(b_to_a)


def f_scores(pred, gt, taus, align: bool = True) -> list[float]:
    """Surface F-score at each threshold in ``taus`` (mm), mean over samples.

    Precision: fraction of predicted points within tau of the target set;
    recall: the reverse. Similarity-aligns once unless ``align=False``,
    then thresholds each sample's nearest-neighbour distances at every tau.
    """
    pred, gt = _check_pair(pred, gt)
    if pred.shape[1] == 0:
        raise ValueError("f_score: empty point set")
    if any(tau <= 0 for tau in taus):
        raise ValueError("tau must be positive")
    if align:
        pred = align_batch(pred, gt)
    scores = [[] for _ in taus]
    for p, g in zip(pred, gt):
        p_to_g, g_to_p = _nearest_distances(p, g)
        for tau, per_sample in zip(taus, scores):
            precision = (p_to_g <= tau).mean()
            recall = (g_to_p <= tau).mean()
            total = precision + recall
            per_sample.append(0.0 if total == 0 else 2 * precision * recall / total)
    return [float(np.mean(s)) for s in scores]


def f_score(pred, gt, tau: float, align: bool = True) -> float:
    """Surface F-score at one threshold ``tau`` (mm); see ``f_scores``."""
    return f_scores(pred, gt, [tau], align)[0]
