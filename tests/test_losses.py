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


def noisy_desk_batch():
    """The desk body's generated meshes of 4 samples, (V, 4, 3), and a
    prediction 5 mm of noise away."""
    template, samples = generate_synthetic_dataset(TubeBodySpec(), 4, seed=2)
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
        w = LossWeights()
        pred_t = Tensor(pred, requires_grad=True, dtype=np.float64)
        gt_j = np.einsum("jv,vbc->jbc", template.joint_regressor, gt)
        with T.Tape() as tape:
            parts = compute_mesh_losses(pred_t, gt, gt_j, template.faces,
                                        template.joint_regressor)
            loss = T.add(T.scalar_mul(parts["normal"], w.normal),
                         T.scalar_mul(parts["edge"], w.edge))
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
        """edge_on=False computes the edge loss from the same edges without
        recording its 5 entries, and gives the taped value bit for bit; the
        total rejects that part once the edge term is on, since it would
        add no gradient."""
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
        assert "norm_last" in names[True] and "norm_last" not in names[False]
        assert len(names[True]) - len(names[False]) == 5
        assert not parts[False]["edge"].requires_grad
        for name, value in parts[True].items():
            assert np.array_equal(value.data, parts[False][name].data), name
        w = LossWeights(edge_start_epoch=2)
        total_mesh_loss(parts[False], w, epoch=1)
        with pytest.raises(ValueError, match="epoch 2: the edge term is on"):
            total_mesh_loss(parts[False], w, epoch=2)


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

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 0"):
            LossWeights(edge=-1.0)
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

    def test_joint_grad(self):
        self.check(lambda p: joint_loss(p, self.reg, self.gt_j))

    def test_normal_grad(self):
        self.check(lambda p: normal_loss(*surface_edges(p, self.gt, TETRA_FACES)))

    def test_edge_grad(self):
        self.check(lambda p: edge_loss(*surface_edges(p, self.gt, TETRA_FACES)))

    def test_total_grad(self):
        def f(p):
            parts = compute_mesh_losses(p, self.gt, self.gt_j, TETRA_FACES, self.reg)
            return total_mesh_loss(parts, LossWeights(), epoch=10)
        self.check(f, tol=1e-4)
