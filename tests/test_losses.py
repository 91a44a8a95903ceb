"""Loss identities, hand values, and gradient checks.

The losses take the batch on axis 1: poses (J, B, 3), meshes (V, B, 3).
"""

import numpy as np
import pytest

from meshlift import tensor as T
from meshlift.config import from_dict
from meshlift.losses import (LossWeights, compute_mesh_losses, edge_loss,
                             face_edges, joint_loss, normal_loss, pose_loss,
                             surface_edges, total_mesh_loss, vertex_loss)
from meshlift.template import TubeBodySpec, build_tube_body, euler_rotation
from meshlift.data import generate_synthetic_dataset
from meshlift.tensor import Tensor

TETRA_VERTS = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
TETRA_FACES = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])


def batched(v, b=1):
    return np.repeat(v[:, None], b, axis=1)


class TestHandValues:
    def test_pose_and_vertex_are_l1_over_batch(self):
        pred = Tensor(np.array([[1.0, 3.0], [2.0, 4.0]]), dtype=np.float64)
        gt = np.array([[0.0, 3.0], [2.0, 1.0]])
        assert pose_loss(pred, gt).item() == pytest.approx((1 + 3) / 2)
        pm = Tensor(np.zeros((3, 2, 3)), dtype=np.float64)
        gm = np.ones((3, 2, 3))
        assert vertex_loss(pm, gm).item() == pytest.approx(18 / 2)

    def test_joint_loss_hand_value(self):
        reg = np.array([[1.0, 0, 0], [0, 0.5, 0.5]])
        pred = Tensor(np.array([[[0.0, 0, 0]], [[2, 0, 0]], [[0, 2, 0]]]),
                      dtype=np.float64)
        gt_j = np.array([[[1.0, 0, 0]], [[1, 1, 0]]])
        # regressed joints: (0,0,0) and (1,1,0) -> L1 = 1 + 0
        assert joint_loss(pred, reg, gt_j).item() == pytest.approx(1.0)

    def test_normal_loss_hand_value(self):
        gt = np.array([[[0.0, 0, 0]], [[1, 0, 0]], [[0, 1, 0]]])
        pred = Tensor(np.array([[[0.0, 0, 0]], [[1, 0, 1]], [[0, 1, 0]]]),
                      dtype=np.float64)
        faces = np.array([[0, 1, 2]])
        expect = 1 / np.sqrt(2) + 1 / np.sqrt(3)
        got = normal_loss(*surface_edges(pred, gt, faces)).item()
        assert got == pytest.approx(expect, abs=1e-12)

    def test_edge_loss_scaling_hand_value(self):
        gt = batched(TETRA_VERTS, 2)
        pred = Tensor(2.0 * gt, dtype=np.float64)
        expect = 0.0
        for a, b in [(0, 1), (1, 2), (2, 0)]:
            lengths = np.linalg.norm(gt[TETRA_FACES[:, b], 0] - gt[TETRA_FACES[:, a], 0],
                                     axis=1)
            expect += lengths.sum()
        got = edge_loss(*surface_edges(pred, gt, TETRA_FACES)).item()
        assert got == pytest.approx(expect, rel=1e-12)

    def test_edge_loss_is_the_length_difference(self):
        edges = Tensor(np.array([[[3.0, 4.0, 0.0]], [[0.0, 0.0, 0.0]],
                                 [[0.0, 2.0, 0.0]]]), requires_grad=True,
                       dtype=np.float64)
        gt_edges = np.array([[[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]],
                             [[0.0, 0.0, 3.0]]])
        with T.Tape():
            loss = edge_loss(edges, gt_edges)
        assert loss.item() == pytest.approx(5.0 + 0.0 + 1.0, abs=1e-12)
        T.backward(loss)
        # sign(||e|| - ||e*||) e / ||e||; a zero-length edge gets 0
        np.testing.assert_allclose(edges.grad[:, 0],
                                   [[0.6, 0.8, 0.0], [0.0, 0.0, 0.0],
                                    [0.0, -1.0, 0.0]], atol=1e-12)

    def test_normal_loss_short_edge_guard(self):
        # one gt face in the xy plane: unit normal (0, 0, 1)
        gt_edges = np.array([[[1.0, 0, 0]], [[-1.0, 1, 0]], [[0.0, -1, 0]]])
        edges = Tensor(np.array([[[3.0, 0, 4]], [[1e-12, 0, 0]], [[0.0, 0, -2]]]),
                       requires_grad=True, dtype=np.float64)
        with T.Tape():
            loss = normal_loss(edges, gt_edges)
        # |0.8| + 0 (shorter than DEGENERATE_EDGE_EPS) + |-1|
        assert loss.item() == pytest.approx(1.8, abs=1e-12)
        T.backward(loss)
        # sign(dot) (n - unit dot) / ||e||
        np.testing.assert_allclose(edges.grad[:, 0],
                                   [[-0.096, 0.0, 0.072], [0.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0]], atol=1e-12)

    def test_batch_sum_divided_by_batch(self):
        rng = np.random.default_rng(0)
        pred1 = rng.standard_normal((1, 4, 3)).transpose(1, 0, 2)
        gt1 = rng.standard_normal((1, 4, 3)).transpose(1, 0, 2)
        v1 = edge_loss(*surface_edges(Tensor(pred1, dtype=np.float64), gt1,
                                      TETRA_FACES)).item()
        v2 = edge_loss(*surface_edges(
            Tensor(np.repeat(pred1, 3, axis=1), dtype=np.float64),
            np.repeat(gt1, 3, axis=1), TETRA_FACES)).item()
        assert v2 == pytest.approx(v1, rel=1e-12)


class TestIdentitiesAtGroundTruth:
    def test_all_losses_vanish_on_generated_body(self):
        spec = TubeBodySpec(verts_per_ring=3, rings_per_bone=2)
        template, samples = generate_synthetic_dataset(spec, 2, seed=4)
        gt_mesh = np.stack([s.mesh for s in samples], axis=1)
        gt_joints = np.stack([s.pose3d for s in samples], axis=1)
        pred = Tensor(gt_mesh.copy(), dtype=np.float64)
        parts = compute_mesh_losses(pred, gt_mesh, gt_joints,
                                    template.faces, template.joint_regressor)
        assert parts["vertex"].item() == 0.0
        assert parts["joint"].item() < 1e-9
        assert parts["normal"].item() < 1e-9
        assert parts["edge"].item() < 1e-9

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(1)
        gt = batched(TETRA_VERTS * 50.0, 2)
        pred_np = gt + rng.standard_normal((2, 4, 3)).transpose(1, 0, 2)
        r = euler_rotation(np.array([0.3, -0.8, 1.9]))
        t = np.array([12.0, -5.0, 40.0])
        base = surface_edges(Tensor(pred_np, dtype=np.float64), gt, TETRA_FACES)
        base_n, base_e = normal_loss(*base).item(), edge_loss(*base).item()
        moved = surface_edges(Tensor(pred_np @ r.T + t, dtype=np.float64),
                              gt @ r.T + t, TETRA_FACES)
        assert normal_loss(*moved).item() == pytest.approx(base_n, abs=1e-9)
        assert edge_loss(*moved).item() == pytest.approx(base_e, abs=1e-9)

    def test_degenerate_gt_face_contributes_nothing(self):
        gt = np.array([[[0.0, 0, 0]], [[1, 0, 0]], [[2, 0, 0]]])  # collinear
        pred = Tensor(np.random.default_rng(2).standard_normal((1, 3, 3))
                      .transpose(1, 0, 2), dtype=np.float64)
        val = normal_loss(*surface_edges(pred, gt, np.array([[0, 1, 2]]))).item()
        assert val == 0.0 and np.isfinite(val)

    def test_degenerate_pred_edge_contributes_nothing(self):
        gt = np.array([[[0.0, 0, 0]], [[1, 0, 0]], [[0, 1, 0]]])
        pred = Tensor(np.array([[[0.0, 0, 1]], [[0, 0, 1]], [[0, 1, 0]]]),
                      dtype=np.float64)
        val = normal_loss(*surface_edges(pred, gt, np.array([[0, 1, 2]]))).item()
        assert np.isfinite(val)
        # e01 is zero-length: only e12 and e20 can contribute
        e12 = (pred.data[2, 0] - pred.data[1, 0])
        e20 = (pred.data[0, 0] - pred.data[2, 0])
        expect = sum(abs(e[2] / np.linalg.norm(e)) for e in (e12, e20))
        assert val == pytest.approx(expect, abs=1e-12)


def per_edge_set_losses(pred, gt, faces):
    """(normal, edge) loss and their gradients at pred, as the per-edge-set
    loop they were once taped as: the three corner pairs one after
    another, each summed and scattered on its own."""
    b = pred.shape[1]
    a0, a1, a2 = (gt[faces[:, k]] for k in range(3))
    n = np.cross(a1 - a0, a2 - a0)
    mag = np.linalg.norm(n, axis=2, keepdims=True)
    n = np.divide(n, mag, out=np.zeros_like(n), where=mag >= 1e-12)
    normal = edge = 0.0
    d_normal, d_edge = np.zeros_like(pred), np.zeros_like(pred)
    for ka, kb in ((0, 1), (1, 2), (2, 0)):
        e = pred[faces[:, kb]] - pred[faces[:, ka]]
        r = np.linalg.norm(e, axis=2, keepdims=True)
        unit = np.divide(e, r, out=np.zeros_like(e), where=r >= 1e-8)
        dot = (unit * n).sum(axis=2, keepdims=True)
        normal += np.abs(dot).sum()
        gt_len = np.linalg.norm(gt[faces[:, kb]] - gt[faces[:, ka]], axis=2)
        edge += np.abs(r[..., 0] - gt_len).sum()
        # d|<e/r, n>|/de = sign(dot) (n - unit dot) / r;  d|r - l|/de = sign * unit
        for grad, de in ((d_normal, np.sign(dot) * (n - unit * dot) / r),
                         (d_edge, np.sign(r - gt_len[..., None]) * unit)):
            np.add.at(grad, faces[:, kb], de)
            np.add.at(grad, faces[:, ka], -de)
    return normal / b, edge / b, d_normal / b, d_edge / b


def noisy_desk_batch(b=4):
    """The desk body's generated meshes of b samples, (V, b, 3), and a
    prediction 5 mm of noise away."""
    template, samples = generate_synthetic_dataset(TubeBodySpec(), b, seed=2)
    gt = np.stack([s.mesh for s in samples], axis=1)
    pred = gt + np.random.default_rng(3).normal(
        0.0, 5.0, (gt.shape[1], gt.shape[0], 3)).transpose(1, 0, 2)
    return template, gt, pred


class TestOneEdgePass:
    """One pass over the 3F face edges sums in another order than the
    per-edge-set loop: equal to float64 rounding, and within a float32
    tolerance of the float64 loop."""

    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_losses_equal_per_edge_set_loop_on_desk_body(self, dtype, rtol):
        template, gt, pred = noisy_desk_batch()
        pred_t = Tensor(pred.astype(dtype), dtype=dtype)
        want_normal, want_edge, _, _ = per_edge_set_losses(
            pred_t.data.astype(np.float64), gt, template.faces)
        edges = surface_edges(pred_t, gt, template.faces)
        got_normal, got_edge = normal_loss(*edges).item(), edge_loss(*edges).item()
        assert got_normal == pytest.approx(want_normal, rel=rtol)
        assert got_edge == pytest.approx(want_edge, rel=rtol)

    def test_shared_backward_equals_sum_of_per_edge_set_gradients(self):
        """Both surface terms weighted: their gradients add up at the one
        face_edges output, and one segment sum carries them to the mesh."""
        template, gt, pred = noisy_desk_batch()
        w = LossWeights(vertex=0.0, joint=0.0, edge_start_epoch=1)
        pred_t = Tensor(pred, requires_grad=True, dtype=np.float64)
        gt_j = np.einsum("jv,vbc->jbc", template.joint_regressor, gt)
        with T.Tape() as tape:
            parts = compute_mesh_losses(pred_t, gt, gt_j, template.faces,
                                        template.joint_regressor)
            loss = total_mesh_loss(parts, w, epoch=1)
        assert [e[0] for e in tape.entries].count("face_edges") == 1
        T.backward(loss)
        *_, d_normal, d_edge = per_edge_set_losses(pred, gt, template.faces)
        np.testing.assert_allclose(pred_t.grad, w.normal * d_normal + w.edge * d_edge,
                                   rtol=0, atol=1e-12)

    def test_parts_equal_the_public_losses(self):
        template, gt, pred = noisy_desk_batch()
        pred_t = Tensor(pred, dtype=np.float32)
        gt_j = np.einsum("jv,vbc->jbc", template.joint_regressor, gt)
        parts = compute_mesh_losses(pred_t, gt, gt_j, template.faces,
                                    template.joint_regressor)
        edges = surface_edges(pred_t, gt, template.faces)
        assert np.array_equal(parts["normal"].data, normal_loss(*edges).data)
        assert np.array_equal(parts["edge"].data, edge_loss(*edges).data)

    def test_gated_off_edge_term_stays_off_the_tape(self):
        """edge_on=False records no edge_loss entry and returns no edge
        part, and the other parts keep their bits; the total takes those
        parts while the edge term is gated off and names the edge part
        as missing once it is on."""
        template, gt, pred = noisy_desk_batch()
        gt_j = np.einsum("jv,vbc->jbc", template.joint_regressor, gt)
        parts, names = {}, {}
        for on in (True, False):
            pred_t = Tensor(pred, requires_grad=True, dtype=np.float32)
            with T.Tape() as tape:
                parts[on] = compute_mesh_losses(pred_t, gt, gt_j, template.faces,
                                                template.joint_regressor,
                                                edge_on=on)
            names[on] = [e[0] for e in tape.entries]
        assert "edge_loss" in names[True] and "edge_loss" not in names[False]
        assert len(names[True]) - len(names[False]) == 1
        assert set(parts[True]) - set(parts[False]) == {"edge"}
        for name, value in parts[False].items():
            assert np.array_equal(value.data, parts[True][name].data), name
        w = LossWeights(edge_start_epoch=2)
        total_mesh_loss(parts[False], w, epoch=1)
        with pytest.raises(ValueError, match=r"missing loss parts: \['edge'\]"):
            total_mesh_loss(parts[False], w, epoch=2)


# The generic ops each loss and the weighted total were once recorded
# with, as (value, backward rule) pairs in the arithmetic of their tape
# rules; chain() runs them forward and composes their rules backward.
def _sub_const(b):
    return lambda a: (a - b, lambda g: g)


def _mul_const(b):
    return lambda a: (a * b, lambda g: g * b)


def _absolute(a):
    return np.abs(a), lambda g: g * np.sign(a)


def _reduce_sum(axis=None):
    def op(a):
        def rule(g):
            return np.broadcast_to(g if axis is None else np.expand_dims(g, axis),
                                   a.shape)
        return a.sum(axis=axis), rule
    return op


def _scalar_mul(c):
    c = float(c)
    return lambda a: (a * c, lambda g: g * c)


def _norm_last(a):
    r = np.sqrt(np.sum(a * a, axis=-1))

    def rule(g):
        denom = r[..., None]
        d = np.zeros_like(a)
        np.divide(a, denom, out=d, where=denom > 0)
        return g[..., None] * d
    return r, rule


def _normalize_last(a, eps=1e-8):
    r = np.sqrt(np.sum(a * a, axis=-1, keepdims=True))
    ok = r >= eps
    safe = np.where(ok, r, 1.0)
    out = np.where(ok, a / safe, 0.0).astype(a.dtype)

    def rule(g):
        gy = np.sum(g * out, axis=-1, keepdims=True)
        return np.where(ok, (g - gy * out) / safe, 0.0).astype(out.dtype)
    return out, rule


def chain(x, *ops):
    """x through ops: (value, backward from the value's gradient)."""
    rules = []
    for op in ops:
        x, rule = op(x)
        rules.append(rule)

    def backward(g):
        for rule in reversed(rules):
            g = rule(g)
        return g
    return x, backward


def chain_l1(pred, gt, batch):
    """sub -> absolute -> reduce_sum -> scalar_mul(1 / B)."""
    gt = np.ascontiguousarray(gt, dtype=pred.dtype)
    return chain(pred, _sub_const(gt), _absolute, _reduce_sum(),
                 _scalar_mul(1.0 / batch))


def chain_normal(edges, gt_edges):
    """normalize_last -> mul -> reduce_sum(axis 2) -> absolute ->
    reduce_sum -> scalar_mul(1 / B)."""
    ab, _, ca = np.split(gt_edges, 3)
    n = np.cross(ab, -ca)
    mag = np.linalg.norm(n, axis=2, keepdims=True)
    n = np.divide(n, mag, out=np.zeros_like(n), where=mag >= 1e-12)
    n = np.tile(n, (3, 1, 1)).astype(edges.dtype)
    return chain(edges, _normalize_last, _mul_const(n), _reduce_sum(2), _absolute,
                 _reduce_sum(), _scalar_mul(1.0 / edges.shape[1]))


def chain_edge(edges, gt_edges):
    """norm_last -> sub -> absolute -> reduce_sum -> scalar_mul(1 / B)."""
    gt_len = np.linalg.norm(gt_edges, axis=2).astype(edges.dtype)
    return chain(edges, _norm_last, _sub_const(gt_len), _absolute, _reduce_sum(),
                 _scalar_mul(1.0 / edges.shape[1]))


def chain_total(values, weights):
    """scalar_mul per part, added in order; each part's gradient."""
    total = values[0] * float(weights[0])
    for v, w in zip(values[1:], weights[1:]):
        total = total + v * float(w)
    g = np.ones_like(total)
    return total, [g * float(w) for w in weights]


class TestFusedEntriesEqualTheOpChains:
    """Each loss and the weighted total are one tape entry whose forward
    and backward do the arithmetic of the op chain they replace, so value
    and gradient are equal bit for bit, in float32, on a desk batch with
    an exactly-zero vertex residual, a zero-length predicted edge and a
    degenerate ground-truth face."""

    def batch(self):
        """A desk batch of 32; the targets are (B, ..., 3) arrays viewed
        batch-second, as train_full passes them."""
        template, gt, pred = noisy_desk_batch(32)
        f = template.faces
        pred = pred.astype(np.float32)
        pred[0] = gt[0]                       # zero L1 residual at vertex 0
        pred[f[0, 1], 0] = pred[f[0, 0], 0]   # face 0's first edge, sample 0
        gt = gt.transpose(1, 0, 2).copy().transpose(1, 0, 2)
        gt[f[1, 2], 1] = gt[f[1, 0], 1]       # face 1 degenerate in sample 1
        gt_j = np.einsum("jv,vbc->bjc", template.joint_regressor, gt)
        gt_j = gt_j.transpose(1, 0, 2)
        edges, gt_edges = surface_edges(Tensor(pred), gt, f)
        return template, gt, pred, gt_j, edges.data, gt_edges

    @pytest.mark.parametrize("edge_term_on", [True, False])
    def test_values_and_gradients_equal_the_chains(self, edge_term_on):
        template, gt, pred, gt_j, edges, gt_edges = self.batch()
        reg = template.joint_regressor
        b = pred.shape[1]
        v, j = pred.shape[0], gt_j.shape[0]
        pose = pred[:j] + np.float32(1.0)
        pose[0] = gt_j[0]                      # a zero residual in the pose term
        w = LossWeights(edge_start_epoch=3)
        epoch = 3 if edge_term_on else 2

        joints = reg.astype(np.float32) @ pred.reshape(v, b * 3)
        want = {"vertex": chain_l1(pred, gt, b), "pose": chain_l1(pose, gt_j, b),
                "joint": chain_l1(joints, gt_j.reshape(j, b * 3), b),
                "normal": chain_normal(edges, gt_edges),
                "edge": chain_edge(edges, gt_edges)}
        names = ["vertex", "joint", "normal"] + ["edge"] * edge_term_on + ["pose"]
        want_total, g = chain_total([want[k][0] for k in names],
                                    [getattr(w, k) for k in names])
        want_grad = {k: want[k][1](gk) for k, gk in zip(names, g)}
        want_grad["joint"] = (reg.astype(np.float32).T
                              @ want_grad["joint"]).reshape(v, b, 3)

        leaves = {k: Tensor(x, requires_grad=True) for k, x in (
            ("vertex", pred), ("joint", pred), ("normal", edges),
            ("edge", edges), ("pose", pose))}
        with T.Tape() as tape:
            parts = {"vertex": vertex_loss(leaves["vertex"], gt),
                     "joint": joint_loss(leaves["joint"], reg, gt_j),
                     "normal": normal_loss(leaves["normal"], gt_edges),
                     "edge": edge_loss(leaves["edge"], gt_edges),
                     "pose": pose_loss(leaves["pose"], gt_j)}
            total = total_mesh_loss(parts, w, epoch)
        assert [e[0] for e in tape.entries] == [
            "vertex_loss", "reshape", "matmul", "joint_loss", "normal_loss",
            "edge_loss", "pose_loss", "total_mesh_loss"]
        T.backward(total)

        assert total.dtype == np.float32
        assert np.array_equal(total.data, want_total)
        for k in want:
            assert np.array_equal(parts[k].data, want[k][0]), k
        for k in names:
            assert leaves[k].grad.dtype == np.float32, k
            assert np.array_equal(leaves[k].grad, want_grad[k]), k
        if not edge_term_on:
            assert leaves["edge"].grad is None
        # the planted cases get zero gradients: the zero residuals, the
        # zero-length edge 0 of sample 0, and the three edges of the
        # degenerate face 1 of sample 1
        nf = len(template.faces)
        assert np.all(leaves["vertex"].grad[0] == 0)
        assert np.all(leaves["pose"].grad[0] == 0)
        assert np.all(leaves["normal"].grad[0, 0] == 0)
        assert np.all(leaves["normal"].grad[[1, nf + 1, 2 * nf + 1], 1] == 0)
        if edge_term_on:
            assert np.all(leaves["edge"].grad[0, 0] == 0)

    def test_l1_subgradient_is_zero_at_zero(self):
        pred = Tensor(np.array([[-1.0], [0.0], [2.0]]), requires_grad=True,
                      dtype=np.float64)
        with T.Tape():
            loss = pose_loss(pred, np.zeros((3, 1)))
        T.backward(loss)
        np.testing.assert_array_equal(pred.grad, [[-1.0], [0.0], [1.0]])


class TestFaceEdges:
    def test_forward_stacks_the_three_edge_sets(self):
        verts = np.random.default_rng(0).standard_normal((5, 2, 3))
        f = TETRA_FACES
        out = face_edges(Tensor(verts, dtype=np.float64), f)
        want = np.concatenate([verts[f[:, 1]] - verts[f[:, 0]],
                               verts[f[:, 2]] - verts[f[:, 1]],
                               verts[f[:, 0]] - verts[f[:, 2]]])
        np.testing.assert_array_equal(out.data, want)

    def test_backward_equals_incidence_transpose_on_desk_body(self):
        """d(sum <g, face_edges(V)>)/dV = D^T g for the signed (3F, V)
        incidence matrix D: +1 at each edge's end, -1 at its start."""
        template = build_tube_body(TubeBodySpec())
        f, nv = template.faces, template.num_vertices
        nf = len(f)
        rng = np.random.default_rng(1)
        verts = Tensor(rng.standard_normal((nv, 4, 3)), requires_grad=True,
                       dtype=np.float64)
        g = rng.standard_normal((3 * nf, 4, 3))
        with T.Tape() as tape:
            loss = T.reduce_sum(T.mul(face_edges(verts, f), Tensor(g)))
        assert [e[0] for e in tape.entries].count("face_edges") == 1
        T.backward(loss)
        d = np.zeros((3 * nf, nv))
        for k in range(3):
            rows = np.arange(k * nf, (k + 1) * nf)
            d[rows, f[:, (k + 1) % 3]] += 1.0
            d[rows, f[:, k]] -= 1.0
        want = (d.T @ g.reshape(3 * nf, -1)).reshape(verts.shape)
        np.testing.assert_allclose(verts.grad, want, rtol=0, atol=1e-12)

    def test_vertex_outside_every_face_gets_zero_gradient(self):
        x = Tensor(np.ones((5, 3)), requires_grad=True, dtype=np.float64)
        with T.Tape():
            loss = T.reduce_sum(face_edges(x, TETRA_FACES))
        T.backward(loss)
        np.testing.assert_array_equal(x.grad[4], 0.0)

    def test_gradcheck(self):
        w = Tensor(np.random.default_rng(2).standard_normal((12, 2, 3)),
                   dtype=np.float64)
        rep = T.gradient_check(
            lambda x: T.reduce_sum(T.mul(face_edges(x, TETRA_FACES), w)),
            Tensor(np.random.default_rng(3).standard_normal((4, 2, 3)),
                   dtype=np.float64))
        assert rep.max_rel_err < 1e-6, rep.max_rel_err


class TestTotal:
    def ones(self):
        return {k: Tensor(np.array(1.0), dtype=np.float64)
                for k in ("vertex", "joint", "normal", "edge")}

    def test_unit_parts_after_gate(self):
        assert total_mesh_loss(self.ones(), LossWeights(), epoch=7).item() == \
            pytest.approx(22.1)
        assert total_mesh_loss(self.ones(), LossWeights(), epoch=60).item() == \
            pytest.approx(22.1)

    def test_unit_parts_before_gate(self):
        assert total_mesh_loss(self.ones(), LossWeights(), epoch=1).item() == \
            pytest.approx(2.1)
        assert total_mesh_loss(self.ones(), LossWeights(), epoch=6).item() == \
            pytest.approx(2.1)

    def test_pose_part_included_when_present(self):
        parts = self.ones()
        parts["pose"] = Tensor(np.array(1.0), dtype=np.float64)
        assert total_mesh_loss(parts, LossWeights(), epoch=7).item() == \
            pytest.approx(23.1)

    @pytest.mark.parametrize("epoch", [3, 4])
    def test_each_part_gets_its_weight_times_the_total_gradient(self, epoch):
        w = LossWeights(vertex=1.5, joint=0.5, normal=0.1, edge=20.0, pose=2.0,
                        edge_start_epoch=4)
        parts = {k: Tensor(np.array(v), requires_grad=True, dtype=np.float64)
                 for k, v in (("vertex", 1.0), ("joint", 2.0), ("normal", 3.0),
                              ("edge", 4.0), ("pose", 5.0))}
        with T.Tape():
            total = total_mesh_loss(parts, w, epoch)
        assert total.item() == pytest.approx(
            1.5 + 1.0 + 0.3 + 10.0 + 80.0 * (epoch >= 4))
        T.backward(total)
        for k in ("vertex", "joint", "normal", "pose"):
            assert parts[k].grad == pytest.approx(getattr(w, k)), k
        if epoch >= 4:
            assert parts["edge"].grad == pytest.approx(20.0)
        else:
            assert parts["edge"].grad is None

    def test_edge_gate(self):
        w = LossWeights(edge_start_epoch=4)
        assert [w.edge_on(e) for e in (1, 3, 4, 5)] == [False, False, True, True]

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 0"):
            LossWeights(edge=-1.0)
        for name, bad in (("normal", float("nan")), ("edge", float("inf")),
                          ("pose", float("-inf"))):
            with pytest.raises(ValueError, match=f"loss weight {name} must be finite"):
                LossWeights(**{name: bad})
        with pytest.raises(ValueError,
                           match=r"loss_weights: unknown keys \['vortex'\]"):
            from_dict(LossWeights, {"vortex": 1.0}, "loss_weights")
        with pytest.raises(ValueError, match="missing loss parts"):
            total_mesh_loss({"vertex": Tensor(np.array(1.0))}, LossWeights(), 1)
        parts = self.ones()
        parts["extra"] = Tensor(np.array(1.0))
        with pytest.raises(ValueError, match="unknown loss parts"):
            total_mesh_loss(parts, LossWeights(), 1)
        with pytest.raises(ValueError, match="1-based"):
            total_mesh_loss(self.ones(), LossWeights(), 0)


class TestGradients:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.gt = batched(TETRA_VERTS * 10.0, 2)
        self.pred0 = self.gt + rng.standard_normal((2, 4, 3)).transpose(1, 0, 2)
        self.gt_j = np.einsum("jv,vbc->jbc",
                              np.array([[0.5, 0.5, 0, 0], [0, 0, 0.25, 0.75]]),
                              self.gt + 1.0)
        self.reg = np.array([[0.5, 0.5, 0, 0], [0, 0, 0.25, 0.75]])

    def check(self, f, tol=1e-5):
        rep = T.gradient_check(f, Tensor(self.pred0, dtype=np.float64))
        assert rep.max_rel_err < tol, rep

    def test_vertex_grad(self):
        self.check(lambda p: vertex_loss(p, self.gt))

    def test_pose_grad(self):
        self.check(lambda p: pose_loss(p, self.gt))

    def test_joint_grad(self):
        self.check(lambda p: joint_loss(p, self.reg, self.gt_j))

    def test_normal_grad(self):
        self.check(lambda p: normal_loss(*surface_edges(p, self.gt, TETRA_FACES)))

    def test_edge_grad(self):
        self.check(lambda p: edge_loss(*surface_edges(p, self.gt, TETRA_FACES)))

    @pytest.mark.parametrize("loss", [normal_loss, edge_loss])
    def test_surface_loss_grad_on_the_edges(self, loss):
        """The loss's own backward, without face_edges' scatter."""
        edges, gt_edges = surface_edges(Tensor(self.pred0, dtype=np.float64),
                                        self.gt, TETRA_FACES)
        rep = T.gradient_check(lambda e: loss(e, gt_edges),
                               Tensor(edges.data, dtype=np.float64))
        assert rep.max_rel_err < 1e-5, rep

    def test_total_grad(self):
        def f(p):
            parts = compute_mesh_losses(p, self.gt, self.gt_j, TETRA_FACES, self.reg)
            return total_mesh_loss(parts, LossWeights(), epoch=10)
        self.check(f, tol=1e-4)
