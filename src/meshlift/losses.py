"""Training losses for the lifter and the mesh regressor.

Poses are (J, B, 3) and meshes (V, B, 3), as the models return them.
All losses are L1 sums divided by the batch size B, and each records one
tape entry, named after its function: sum |x| / B of a residual x, with
the backward sign(x) g / B carried back through x's own rule. Mesh-surface
terms (normal, edge) are driven by the face list: every face contributes
its three directed edges, and edges shared between faces are counted once
per face. Both read one surface_edges pair, the taped prediction edges
and the float64 ground-truth edges, so a step tapes one face_edges entry.
total_mesh_loss is one entry as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

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
            if f.name != "edge_start_epoch" and not (math.isfinite(v) and v >= 0):
                raise ValueError(f"loss weight {f.name} must be finite and >= 0, "
                                 f"got {v}")
        if self.edge_start_epoch < 1:
            raise ValueError("edge_start_epoch is 1-based and must be >= 1")

    def edge_on(self, epoch: int) -> bool:
        """Whether the edge term is in the total at 1-based ``epoch``."""
        return epoch >= self.edge_start_epoch


def _array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _l1_entry(name: str, source: Tensor, x: np.ndarray, batch: int,
              vjp: Callable) -> Tensor:
    """sum |x| / batch as one tape entry on ``source``, from which the
    residual x was computed; vjp maps d(loss)/dx to source's gradient.
    The subgradient of |x| at 0 is 0 (np.sign(0) == 0)."""
    c = 1.0 / batch

    def bw(g, needs):
        return (vjp(np.broadcast_to(g * c, x.shape) * np.sign(x)),)

    return T._apply(name, (source,), np.abs(x).sum() * c, bw)


def _l1_mean_over_batch(name: str, pred: Tensor, gt, batch: int) -> Tensor:
    # a C-contiguous copy: a residual's memory order, and so the order its
    # sum adds in, follows its operands'
    gt = Tensor(_array(gt), dtype=pred.dtype).data
    if gt.shape != pred.shape:
        raise T.ShapeError(name, pred.shape, gt.shape)
    return _l1_entry(name, pred, pred.data - gt, batch, lambda gx: gx)


def pose_loss(pred: Tensor, gt) -> Tensor:
    """L1 between (J, B, 3) lifted and ground-truth joints, summed, / batch."""
    return _l1_mean_over_batch("pose_loss", pred, gt, pred.shape[1])


def vertex_loss(pred_mesh: Tensor, gt_mesh) -> Tensor:
    return _l1_mean_over_batch("vertex_loss", pred_mesh, gt_mesh, pred_mesh.shape[1])


def joint_loss(pred_mesh: Tensor, regressor: np.ndarray, gt_joints) -> Tensor:
    """L1 between the (J, V) regressor times the mesh, viewed as (V, B·3)
    columns, and the (J, B, 3) ground truth."""
    v, b, _ = pred_mesh.shape
    reg = Tensor(np.asarray(regressor), dtype=pred_mesh.dtype)
    joints = T.matmul(reg, T.reshape(pred_mesh, (v, b * 3)))  # (J, B·3)
    return _l1_mean_over_batch("joint_loss", joints,
                               _array(gt_joints).reshape(-1, b * 3), b)


def face_edges(verts: Tensor, faces: np.ndarray) -> Tensor:
    """Directed edge vectors verts[b] - verts[a] of every face, as one taped op.

    verts is (V, ...); the 3F edges (a, b) are the face corners (0, 1),
    then (1, 2), then (2, 0), each set in face order. The backward is a
    segment sum: a stable argsort of the 6F endpoints groups each vertex's
    signed edge gradients, which np.add.reduceat then sums.
    """
    f = np.asarray(faces, dtype=np.int64)
    ia, ib = f.T.ravel(), np.roll(f, -1, axis=1).T.ravel()
    shape = verts.shape

    def bw(g, needs):
        ends = np.concatenate((ib, ia))
        order = np.argsort(ends, kind="stable")
        ends = ends[order]
        starts = np.flatnonzero(np.r_[True, ends[1:] != ends[:-1]])
        # endpoint k < 3F is edge k's end (+g), k >= 3F edge k - 3F's start (-g)
        signed = g[order % ia.size]
        np.negative(signed, out=signed,
                    where=(order >= ia.size).reshape((-1,) + (1,) * (g.ndim - 1)))
        acc = np.zeros(shape, dtype=g.dtype)
        acc[ends[starts]] = np.add.reduceat(signed, starts, axis=0)
        return (acc,)

    return T._apply("face_edges", (verts,), verts.data[ib] - verts.data[ia], bw)


def surface_edges(pred_mesh: Tensor, gt_mesh, faces: np.ndarray):
    """face_edges of the (V, B, 3) prediction, taped, and of the ground
    truth in float64: both (3F, B, 3). The normal and edge losses share
    this one pass."""
    gt = Tensor(_array(gt_mesh), dtype=np.float64)
    return face_edges(pred_mesh, faces), face_edges(gt, faces).data


def normal_loss(edges: Tensor, gt_edges: np.ndarray) -> Tensor:
    """Surface-normal consistency: |<unit predicted edge, gt face normal>|
    over surface_edges' (3F, B, 3) pair.

    Each face contributes its three edges dotted against the face's
    ground-truth unit normal. Degenerate gt faces drop out via a zero
    normal; predicted edges shorter than DEGENERATE_EDGE_EPS have a zero
    unit vector and a zero gradient.
    """
    ab, _, ca = np.split(gt_edges, 3)  # edge k * F + i belongs to face i
    n = np.cross(ab, -ca)  # (b - a) x (c - a), (F, B, 3)
    mag = np.linalg.norm(n, axis=2, keepdims=True)
    n = np.divide(n, mag, out=np.zeros_like(n), where=mag >= DEGENERATE_FACE_EPS)
    n = Tensor(np.tile(n, (3, 1, 1)), dtype=edges.dtype).data
    e = edges.data
    r = np.sqrt(np.sum(e * e, axis=-1, keepdims=True))
    ok = r >= DEGENERATE_EDGE_EPS
    safe = np.where(ok, r, 1.0)
    unit = np.where(ok, e / safe, 0.0).astype(e.dtype)

    def vjp(g_dot):  # through the dot product, then the unit vector
        # a short edge needs no guard here: its zero unit vector makes its
        # dot product 0, and sign(0) has already zeroed its g_dot
        g_unit = np.broadcast_to(np.expand_dims(g_dot, 2), unit.shape) * n
        g_radial = np.sum(g_unit * unit, axis=-1, keepdims=True)
        return (g_unit - g_radial * unit) / safe

    return _l1_entry("normal_loss", edges, (unit * n).sum(axis=2),
                     edges.shape[1], vjp)


def edge_loss(edges: Tensor, gt_edges: np.ndarray) -> Tensor:
    """Edge-length consistency: | ||e|| - ||e*|| | over surface_edges'
    (3F, B, 3) pair. A zero-length predicted edge has gradient 0."""
    gt_len = Tensor(np.linalg.norm(gt_edges, axis=2), dtype=edges.dtype).data
    e = edges.data
    r = np.sqrt(np.sum(e * e, axis=-1))

    def vjp(g_len):
        denom = r[..., None]
        d = np.zeros_like(e)
        np.divide(e, denom, out=d, where=denom > 0)
        return g_len[..., None] * d

    return _l1_entry("edge_loss", edges, r - gt_len, edges.shape[1], vjp)


def compute_mesh_losses(pred_mesh: Tensor, gt_mesh, gt_joints,
                        faces: np.ndarray, regressor: np.ndarray,
                        edge_on: bool = True) -> dict:
    """All four mesh-branch losses as scalar tensors; the surface terms
    share one surface_edges pass, taped after the vertex and joint losses.

    With edge_on False (the edge term is gated off, see
    LossWeights.edge_on) the edge loss runs on an untaped view of the same
    edges: the same arithmetic and bits, for the trace, but no tape entry
    that backward would never reach.
    """
    parts = {"vertex": vertex_loss(pred_mesh, gt_mesh),
             "joint": joint_loss(pred_mesh, regressor, gt_joints)}
    edges, gt_edges = surface_edges(pred_mesh, gt_mesh, faces)
    parts["normal"] = normal_loss(edges, gt_edges)
    parts["edge"] = edge_loss(edges if edge_on else Tensor._wrap(edges.data),
                              gt_edges)
    return parts


def total_mesh_loss(parts: dict, weights: LossWeights, epoch: int) -> Tensor:
    """Weighted sum of loss parts as one tape entry, in the order vertex,
    joint, normal, edge, pose; each part's gradient is the total's times
    its weight. The edge term is off while weights.edge_on(epoch) is
    false. From then on, a taped total needs a taped edge part: one
    computed with compute_mesh_losses(..., edge_on=False) would add no
    gradient, and is rejected.

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
    names = ["vertex", "joint", "normal"]
    if weights.edge_on(epoch):
        if parts["edge"].tape is None and parts["vertex"].tape is not None:
            raise ValueError(f"epoch {epoch}: the edge term is on, but its part "
                             "was computed off the tape (edge_on=False)")
        names.append("edge")
    if "pose" in parts:
        names.append("pose")
    terms = tuple(parts[k] for k in names)
    ws = tuple(float(getattr(weights, k)) for k in names)
    total = terms[0].data * ws[0]
    for t, w in zip(terms[1:], ws[1:]):
        total = total + t.data * w

    def bw(g, needs):
        return tuple(g * w if need else None for w, need in zip(ws, needs))

    return T._apply("total_mesh_loss", terms, total, bw)
