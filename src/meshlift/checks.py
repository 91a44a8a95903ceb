"""The gradient-check suite: every layer, both models, all five losses.

Each entry compares the taped analytic gradient against central finite
differences in float64. Layers and losses must pass 1e-5; whole models
get 1e-4 because their ReLU kinks make finite differences locally
rough.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers as L
from . import tensor as T
from .config import RunConfig, resolve_config
from .graphs import ChebFilter, build_pose_graph, chebyshev_conv
from .losses import (edge_loss, joint_loss, normal_loss, pose_loss,
                     surface_edges, vertex_loss)
from .models import MeshRegressor, PoseLifter
from .tensor import Tensor

LAYER_TOL = 1e-5
MODEL_TOL = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.threshold


def _weighted_sum(y: Tensor, rng) -> Tensor:
    w = Tensor(rng.standard_normal(y.shape), dtype=np.float64)
    return T.reduce_sum(T.mul(y, w))


def run_gradient_suite(cfg: RunConfig | None = None) -> list[CheckResult]:
    """Run the whole suite; desk-profile model sizes by default."""
    from .coarsen import graclus_coarsen
    from .graphs import build_mesh_graph, scaled_laplacian
    from .template import build_tube_body

    cfg = cfg or resolve_config("desk")
    rng = np.random.default_rng(0)
    results = []

    def check(name, f, x0, tol):
        rep = T.gradient_check(f, Tensor(np.asarray(x0, dtype=np.float64),
                                         dtype=np.float64))
        results.append(CheckResult(name, rep.max_rel_err, tol))

    # --- layers
    lin = L.Linear(4, 3, np.random.default_rng(1), dtype=np.float64)
    check("layer.linear",
          lambda x: _weighted_sum(lin.forward(x), np.random.default_rng(2)),
          rng.standard_normal((3, 4)), LAYER_TOL)

    bn = L.BatchNorm1d(3, dtype=np.float64)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, (1, 3))
    bn.beta.data[:] = rng.uniform(-0.3, 0.3, (1, 3))
    check("layer.batch_norm",
          lambda x: _weighted_sum(bn.forward(x, training=True),
                                  np.random.default_rng(3)),
          rng.standard_normal((5, 3)), LAYER_TOL)
    bn_x = np.random.default_rng(13).standard_normal((5, 3))

    def bn_wrt(name):  # a fresh batch norm's output as a function of gamma or beta
        def f(p):
            fresh = L.BatchNorm1d(3, dtype=np.float64)
            setattr(fresh, name, p)
            return _weighted_sum(fresh.forward(Tensor(bn_x), training=True),
                                 np.random.default_rng(3))
        return f

    check("layer.batch_norm.gamma", bn_wrt("gamma"), bn.gamma.data, LAYER_TOL)
    check("layer.batch_norm.beta", bn_wrt("beta"), bn.beta.data, LAYER_TOL)
    check("layer.batch_norm.eval", lambda x: _weighted_sum(
        bn.forward(x, training=False), np.random.default_rng(3)), bn_x, LAYER_TOL)
    # the fused ReLU: with beta shifted by 0.1, every output in either mode
    # lies at least 0.36 from the kink, far beyond a finite-difference step
    bn.beta.data += 0.1
    check("layer.batch_norm.relu", lambda x: _weighted_sum(
        bn.forward(x, training=True, relu=True), np.random.default_rng(3)),
        bn_x, LAYER_TOL)
    check("layer.batch_norm.relu.eval", lambda x: _weighted_sum(
        bn.forward(x, training=False, relu=True), np.random.default_rng(3)),
        bn_x, LAYER_TOL)

    check("layer.dropout",
          lambda x: _weighted_sum(
              L.dropout(x, 0.4, training=True, rng=np.random.default_rng(4)),
              np.random.default_rng(5)),
          rng.standard_normal((4, 4)) + 3.0, LAYER_TOL)

    check("layer.relu",
          lambda x: T.reduce_sum(T.relu(x)),
          rng.standard_normal((4, 4)) + 0.5, LAYER_TOL)

    pose_graph = build_pose_graph(4, [(0, 1), (1, 2), (2, 3)], [])
    lap = scaled_laplacian(pose_graph, seed=0)
    filt = L.make_cheb_filter(2, 3, order=3, rng=np.random.default_rng(6),
                              dtype=np.float64)
    check("layer.cheb_conv.input",
          lambda x: _weighted_sum(chebyshev_conv(x, lap, filt, batch=2),
                                  np.random.default_rng(7)),
          rng.standard_normal((4, 2, 2)), LAYER_TOL)
    x_fixed = Tensor(rng.standard_normal((4, 2, 2)), dtype=np.float64)
    c0, c1, c2 = filt.coefficients
    check("layer.cheb_conv.theta",
          lambda k: _weighted_sum(
              chebyshev_conv(x_fixed, lap, ChebFilter([c0, k, c2]), batch=2),
              np.random.default_rng(8)),
          c1.data, LAYER_TOL)

    block = L.GraphConvBlock(2, 3, order=3, rng=np.random.default_rng(9),
                             dtype=np.float64)
    check("layer.graph_block",
          lambda x: _weighted_sum(block.forward(x, lap, training=True),
                                  np.random.default_rng(10)),
          rng.standard_normal((4, 3, 2)), LAYER_TOL)

    # --- models end to end
    posenet = PoseLifter(num_joints=6, hidden=24, num_blocks=2, drop_p=0.0,
                         root_index=0, seed=11, dtype=np.float64)
    target = rng.standard_normal((2, 6, 3)).transpose(1, 0, 2)
    check("model.posenet",
          lambda x: pose_loss(posenet.forward(x, training=True,
                                              rng=np.random.default_rng(0)),
                              target),
          rng.standard_normal((2, 12)), MODEL_TOL)

    from .template import TubeBodySpec
    spec = TubeBodySpec(verts_per_ring=3, rings_per_bone=2)
    template = build_tube_body(spec)
    hierarchy = graclus_coarsen(build_mesh_graph(template), 2, seed=cfg.seed)
    graph = build_pose_graph(template.num_joints, template.skeleton_edges,
                             template.symmetry_pairs)
    meshnet = MeshRegressor(hierarchy, scaled_laplacian(graph, seed=cfg.seed),
                            level_widths=(8, 8, 4), pose_width=4,
                            order=cfg.model.order, seed=12, dtype=np.float64)
    p2d = Tensor(rng.standard_normal((2, template.num_joints, 2)).transpose(1, 0, 2),
                 dtype=np.float64)
    mesh_target = rng.standard_normal((2, template.num_vertices, 3)).transpose(1, 0, 2)
    check("model.meshnet",
          lambda p3d: vertex_loss(meshnet.forward(p2d, p3d, training=True),
                                  mesh_target),
          rng.standard_normal((2, template.num_joints, 3)).transpose(1, 0, 2),
          MODEL_TOL)

    # --- losses on a small tetrahedron, a (V, B, 3) batch of two
    tet = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]) * 10
    faces = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    gt = np.repeat(tet[:, None], 2, axis=1)
    pred0 = gt + rng.standard_normal((2, 4, 3)).transpose(1, 0, 2)
    reg = np.array([[0.5, 0.5, 0, 0], [0, 0, 0.25, 0.75]])
    gt_j = np.einsum("jv,vbc->jbc", reg, gt + 1.0)
    check("loss.pose", lambda p: pose_loss(p, gt), pred0, LAYER_TOL)
    check("loss.vertex", lambda p: vertex_loss(p, gt), pred0, LAYER_TOL)
    check("loss.joint", lambda p: joint_loss(p, reg, gt_j), pred0, LAYER_TOL)
    check("loss.normal", lambda p: normal_loss(*surface_edges(p, gt, faces)),
          pred0, LAYER_TOL)
    check("loss.edge", lambda p: edge_loss(*surface_edges(p, gt, faces)),
          pred0, LAYER_TOL)

    return results
