"""The two networks: a 2D-to-3D pose lifter and a pose-to-mesh regressor.

The pose lifter is a fully-connected residual network over flattened
normalized 2D keypoints. The mesh regressor runs graph convolutions on the
joint graph, lifts the joint features to the coarsest mesh level with one
dense layer, then alternates per-level graph-conv blocks and
nearest-neighbor upsampling down the hierarchy to the full-resolution
vertex set. It takes its operators built: the hierarchy's, and the joint
graph's from train.build_models (a checkpoint's converged flags are
derived from lambda_max on write and only type-checked on read).

The batch stays on axis 1 from the lifter's (J, B, 3) pose to the
regressor's (V, B, 3) mesh, and graph features are (V, B, f): vertices on
axis 0, where the Laplacians, upsampling and the reorder act, features on
the last axis, where the filters, batch norm and the skip projection act.
"""

from __future__ import annotations

import numpy as np

from meshlift import tensor as T
from meshlift.coarsen import CoarseningHierarchy, apply_perm, upsample_features
from meshlift.graphs import ScaledLaplacian, chebyshev_conv
from meshlift.layers import (BatchNorm1d, GraphConvBlock, Linear, Module, dropout,
                             make_cheb_filter, uniform_weight)
from meshlift.tensor import Tensor


def fit_widths(widths, n_levels: int) -> list[int]:
    """Pad (repeating the last entry) or truncate to one width per level;
    the list is in processing order, coarsest level first, and must be
    monotonically non-increasing."""
    widths = [int(w) for w in widths]
    if not widths or any(w < 1 for w in widths):
        raise ValueError(f"fit_widths: bad widths {widths}")
    if any(a < b for a, b in zip(widths, widths[1:])):
        raise ValueError(f"fit_widths: widths must be non-increasing, got {widths}")
    out = widths[:n_levels]
    while len(out) < n_levels:
        out.append(out[-1])
    return out


class _ResidualBlock(Module):
    """Two (linear -> batchnorm -> ReLU -> dropout) stages with an additive skip."""

    def __init__(self, width: int, drop_p: float, rng, dtype):
        self.fc1 = Linear(width, width, rng, dtype)
        self.bn1 = BatchNorm1d(width, dtype)
        self.fc2 = Linear(width, width, rng, dtype)
        self.bn2 = BatchNorm1d(width, dtype)
        self.drop_p = drop_p

    def forward(self, x, training, rng):
        h = dropout(self.bn1.forward(self.fc1.forward(x), training, relu=True),
                    self.drop_p, training, rng)
        h = dropout(self.bn2.forward(self.fc2.forward(h), training, relu=True),
                    self.drop_p, training, rng)
        return T.add(x, h)


class PoseLifter(Module):
    """Lift flattened normalized 2D keypoints to a root-relative 3D pose (mm).

    Weights are drawn from the stream [seed, 101]; with draw=False nothing
    is drawn, and every weight is a placeholder for restore_state.
    """

    def __init__(self, num_joints: int, hidden: int = 4096, num_blocks: int = 2,
                 drop_p: float = 0.5, root_index: int = 0, seed: int = 0,
                 dtype=np.float32, draw: bool = True):
        rng = np.random.default_rng([seed, 101]) if draw else None
        self.num_joints = num_joints
        self.root_index = root_index
        self.fc_in = Linear(2 * num_joints, hidden, rng, dtype)
        self.blocks = [_ResidualBlock(hidden, drop_p, rng, dtype)
                       for _ in range(num_blocks)]
        self.fc_out = Linear(hidden, 3 * num_joints, rng, dtype)

    def forward(self, x: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        """(B, 2J) normalized keypoints -> (J, B, 3) pose, root row exactly 0."""
        if x.ndim != 2 or x.shape[1] != 2 * self.num_joints:
            raise T.ShapeError("pose_lifter", x.shape, (2 * self.num_joints,))
        h = self.fc_in.forward(x)
        for blk in self.blocks:
            h = blk.forward(h, training, rng)
        y = self.fc_out.forward(h)
        # joints first, then pin the root to the origin by subtracting itself
        jb3 = T.transpose(T.reshape(y, (x.shape[0], self.num_joints, 3)), (1, 0, 2))
        return T.sub(jb3, T.gather_rows(jb3, [self.root_index]))


class _Level(Module):
    """The two graph-conv blocks of one mesh level, plus the across-level
    skip projection when the skip changes the feature width."""

    def __init__(self, f_in: int, f_out: int, order: int, project_skip: bool,
                 rng, dtype):
        self.a = GraphConvBlock(f_in, f_out, order, rng, dtype)
        self.b = GraphConvBlock(f_out, f_out, order, rng, dtype)
        self.skip_proj = None
        if project_skip:
            self.skip_proj = uniform_weight((f_in, f_out), f_in, rng, dtype)


class _Head(Module):
    """The last Chebyshev filter, to 3 coordinates per vertex."""

    def __init__(self, f_in: int, order: int, rng, dtype):
        self.filter = make_cheb_filter(f_in, 3, order, rng, dtype)


class MeshRegressor(Module):
    """Regress root-relative mesh vertices from 2D keypoints plus a 3D pose.

    Weights are drawn from the stream [seed, 202]; with draw=False nothing
    is drawn, and every weight is a placeholder for restore_state.
    ``pose_lap`` is the pose graph's built operator.
    """

    def __init__(self, hierarchy: CoarseningHierarchy, pose_lap: ScaledLaplacian,
                 level_widths=(64, 64, 32, 32), pose_width: int = 64,
                 order: int = 3, across_level_residual: bool = False,
                 seed: int = 0, dtype=np.float32, draw: bool = True):
        rng = np.random.default_rng([seed, 202]) if draw else None
        c = hierarchy.num_levels
        self.hierarchy = hierarchy
        self.pose_lap = pose_lap
        self.num_joints = pose_lap.num_vertices
        self.widths = fit_widths(level_widths, c + 1)
        self.pose_width = pose_width
        self.across_level_residual = across_level_residual

        self.pose_blocks = [
            GraphConvBlock(5, pose_width, order, rng, dtype),
            GraphConvBlock(pose_width, pose_width, order, rng, dtype),
        ]
        coarse_size = hierarchy.level_size(c)
        self.lift = Linear(self.num_joints * pose_width,
                           coarse_size * self.widths[0], rng, dtype)
        self.levels = []
        prev = self.widths[0]
        for w in self.widths:
            self.levels.append(_Level(prev, w, order,
                                      across_level_residual and prev != w,
                                      rng, dtype))
            prev = w
        self.head = _Head(self.widths[-1], order, rng, dtype)

    def forward(self, p2d: Tensor, p3d: Tensor, training: bool = False) -> Tensor:
        """(J, B, 2) normalized keypoints + (J, B, 3) pose -> (V, B, 3) mesh (mm)."""
        j = self.num_joints
        if p2d.ndim != 3 or (p2d.shape[0], p2d.shape[2]) != (j, 2):
            raise T.ShapeError("mesh_regressor", p2d.shape, (j, 2))
        b = p2d.shape[1]
        if p3d.shape != (j, b, 3):
            raise T.ShapeError("mesh_regressor", p3d.shape, (j, b, 3))
        h = self.hierarchy
        c = h.num_levels

        x = T.concat([p2d, p3d], axis=2)                      # (J, B, 5)
        for blk in self.pose_blocks:
            x = blk.forward(x, self.pose_lap, training)

        x = T.reshape(T.transpose(x, (1, 0, 2)), (b, j * self.pose_width))
        x = self.lift.forward(x)                              # (B, Vc * w0)
        x = T.transpose(T.reshape(x, (b, h.level_size(c), self.widths[0])),
                        (1, 0, 2))                            # (Vc, B, w0)

        for i, lvl in enumerate(self.levels):
            level = c - i
            lap = h.scaled_laplacians[level]
            skip = x
            y = lvl.a.forward(x, lap, training)
            # residual around the second conv of the level
            x = T.add(y, lvl.b.forward(y, lap, training))
            if self.across_level_residual:
                if lvl.skip_proj is not None:
                    skip = T.matmul(skip, lvl.skip_proj)
                x = T.add(x, skip)
            if level > 0:
                x = upsample_features(x, h, level=level - 1)

        x = chebyshev_conv(x, h.scaled_laplacians[0], self.head.filter, batch=b)
        return apply_perm(x, h)
