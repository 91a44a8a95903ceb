"""Training losses for the lifter and the mesh regressor.

All losses are L1 sums divided by the batch size. Mesh-surface terms
(normal, edge) are driven by the face list: every face contributes its
three directed edges, and edges shared between faces are counted once
per face.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .tensor import Tensor

# ground-truth faces with a cross product shorter than this are skipped
DEGENERATE_FACE_EPS = 1e-12
# predicted edges shorter than this contribute zero to the normal loss
DEGENERATE_EDGE_EPS = 1e-8


@dataclass(frozen=True)
class LossWeights:
    vertex: float = 1.0
    joint: float = 1.0
    normal: float = 0.1
    edge: float = 20.0
    pose: float = 1.0
    edge_start_epoch: int = 7

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name != "edge_start_epoch" and v < 0:
                raise ValueError(f"loss weight {f.name} must be >= 0, got {v}")
        if self.edge_start_epoch < 1:
            raise ValueError("edge_start_epoch is 1-based and must be >= 1")


def _as_constant(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype), dtype=dtype)


def _l1_mean_over_batch(pred: Tensor, gt: Tensor) -> Tensor:
    b = pred.shape[0]
    return T.scalar_mul(T.reduce_sum(T.absolute(T.sub(pred, gt))), 1.0 / b)


def pose_loss(pred: Tensor, gt) -> Tensor:
    """L1 between lifted and ground-truth 3D joints, summed, / batch."""
    gt = _as_constant(gt, pred.data.dtype)
    return _l1_mean_over_batch(pred, gt)


def vertex_loss(pred_mesh: Tensor, gt_mesh) -> Tensor:
    gt_mesh = _as_constant(gt_mesh, pred_mesh.data.dtype)
    return _l1_mean_over_batch(pred_mesh, gt_mesh)


def joint_loss(pred_mesh: Tensor, regressor: np.ndarray, gt_joints) -> Tensor:
    """L1 between joints regressed from the predicted mesh and ground truth."""
    b, v, _ = pred_mesh.shape
    j = regressor.shape[0]
    reg = Tensor(np.asarray(regressor), dtype=pred_mesh.data.dtype)
    stacked = T.reshape(T.transpose(pred_mesh, (1, 0, 2)), (v, b * 3))
    joints = T.transpose(T.reshape(T.matmul(reg, stacked), (j, b, 3)), (1, 0, 2))
    gt_joints = _as_constant(gt_joints, pred_mesh.data.dtype)
    return _l1_mean_over_batch(joints, gt_joints)


def _face_edge_indices(faces: np.ndarray):
    """Index pairs (a, b) for the three directed edges of every face."""
    f = np.asarray(faces, dtype=np.int64)
    pairs = [(f[:, 0], f[:, 1]), (f[:, 1], f[:, 2]), (f[:, 2], f[:, 0])]
    return pairs


def _gt_face_normals(gt: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Unit face normals per sample, (B, F, 3); degenerate faces become 0."""
    v = np.asarray(gt, dtype=np.float64)
    a, b, c = (v[:, faces[:, 0]], v[:, faces[:, 1]], v[:, faces[:, 2]])
    n = np.cross(b - a, c - a)
    mag = np.linalg.norm(n, axis=2, keepdims=True)
    unit = np.divide(n, mag, out=np.zeros_like(n), where=mag >= DEGENERATE_FACE_EPS)
    return unit


def normal_loss(pred_mesh: Tensor, gt_mesh, faces: np.ndarray) -> Tensor:
    """Surface-normal consistency: |<unit predicted edge, gt face normal>|.

    Each face contributes its three edges dotted against the face's
    ground-truth unit normal. Degenerate gt faces drop out via a zero
    normal; near-zero predicted edges drop out via the normalize guard.
    """
    gt = gt_mesh.data if isinstance(gt_mesh, Tensor) else np.asarray(gt_mesh)
    b = pred_mesh.shape[0]
    dtype = pred_mesh.data.dtype
    faces = np.asarray(faces, dtype=np.int64)
    normals = _gt_face_normals(gt, faces).transpose(1, 0, 2)  # (F, B, 3)
    n_const = Tensor(np.ascontiguousarray(normals), dtype=dtype)
    verts = T.transpose(pred_mesh, (1, 0, 2))  # (V, B, 3)
    total = None
    for ia, ib in _face_edge_indices(faces):
        edge = T.sub(T.gather_rows(verts, ib), T.gather_rows(verts, ia))
        unit = T.normalize_last(edge, eps=DEGENERATE_EDGE_EPS)
        dot = T.reduce_sum(T.mul(unit, n_const), axis=2)
        term = T.reduce_sum(T.absolute(dot))
        total = term if total is None else T.add(total, term)
    return T.scalar_mul(total, 1.0 / b)


def edge_loss(pred_mesh: Tensor, gt_mesh, faces: np.ndarray) -> Tensor:
    """Edge-length consistency: | ||e|| - ||e*|| | over the face edges."""
    gt = gt_mesh.data if isinstance(gt_mesh, Tensor) else np.asarray(gt_mesh)
    gt = np.asarray(gt, dtype=np.float64).transpose(1, 0, 2)  # (V, B, 3)
    b = pred_mesh.shape[0]
    dtype = pred_mesh.data.dtype
    faces = np.asarray(faces, dtype=np.int64)
    verts = T.transpose(pred_mesh, (1, 0, 2))
    total = None
    for ia, ib in _face_edge_indices(faces):
        edge = T.sub(T.gather_rows(verts, ib), T.gather_rows(verts, ia))
        length = T.norm_last(edge)  # (F, B)
        gt_len = np.linalg.norm(gt[ib] - gt[ia], axis=2)
        term = T.reduce_sum(T.absolute(T.sub(length, Tensor(gt_len, dtype=dtype))))
        total = term if total is None else T.add(total, term)
    return T.scalar_mul(total, 1.0 / b)


def compute_mesh_losses(pred_mesh: Tensor, gt_mesh, gt_joints,
                        faces: np.ndarray, regressor: np.ndarray) -> dict:
    """All four mesh-branch losses as scalar tensors."""
    return {
        "vertex": vertex_loss(pred_mesh, gt_mesh),
        "joint": joint_loss(pred_mesh, regressor, gt_joints),
        "normal": normal_loss(pred_mesh, gt_mesh, faces),
        "edge": edge_loss(pred_mesh, gt_mesh, faces),
    }


def total_mesh_loss(parts: dict, weights: LossWeights, epoch: int) -> Tensor:
    """Weighted sum of loss parts; the edge term is off before its start epoch.

    ``epoch`` is 1-based. A "pose" entry, when present, is weighted in
    (second-stage joint training).
    """
    if epoch < 1:
        raise ValueError("epoch is 1-based and must be >= 1")
    required = {"vertex", "joint", "normal", "edge"}
    missing = required - set(parts)
    if missing:
        raise ValueError(f"missing loss parts: {sorted(missing)}")
    unknown = set(parts) - required - {"pose"}
    if unknown:
        raise ValueError(f"unknown loss parts: {sorted(unknown)}")
    total = T.scalar_mul(parts["vertex"], weights.vertex)
    total = T.add(total, T.scalar_mul(parts["joint"], weights.joint))
    total = T.add(total, T.scalar_mul(parts["normal"], weights.normal))
    if epoch >= weights.edge_start_epoch:
        total = T.add(total, T.scalar_mul(parts["edge"], weights.edge))
    if "pose" in parts:
        total = T.add(total, T.scalar_mul(parts["pose"], weights.pose))
    return total
