"""Layers and the two networks: shapes, modes, init, differentiability."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from meshlift import layers as L
from meshlift import tensor as T
from meshlift.coarsen import graclus_coarsen
from meshlift.graphs import ScaledLaplacian, build_mesh_graph, build_pose_graph
from meshlift.models import MeshRegressor, PoseLifter, fit_widths
from meshlift.template import TubeBodySpec, build_tube_body
from meshlift.tensor import Tape, Tensor

from dense_views import table_from_dense


class TestModuleProtocol:
    def test_names_follow_attribute_order(self):
        class Net(L.Module):
            def __init__(self):
                rng = np.random.default_rng(0)
                self.template = object()
                self.fc = L.Linear(2, 3, rng)
                self.frozen = Tensor(np.zeros(2))
                self.blocks = [L.GraphConvBlock(3, 3, 2, rng), None]
                self.bn = L.BatchNorm1d(3)

        net = Net()
        assert [n for n, _ in net.named_parameters()] == [
            "fc.weight", "fc.bias", "blocks.0.filter.0", "blocks.0.filter.1",
            "blocks.0.bn.gamma", "blocks.0.bn.beta", "bn.gamma", "bn.beta"]
        bns = net.named_batchnorms()
        assert [n for n, _ in bns] == ["blocks.0.bn", "bn"]
        assert bns[0][1] is net.blocks[0].bn and bns[1][1] is net.bn


def tiny_setup(levels=2, seed=0, dtype=np.float32):
    spec = TubeBodySpec(verts_per_ring=3, rings_per_bone=2)
    template = build_tube_body(spec)
    hierarchy = graclus_coarsen(build_mesh_graph(template), levels, seed=seed)
    pose_graph = build_pose_graph(template.num_joints, template.skeleton_edges,
                                  template.symmetry_pairs)
    return template, hierarchy, pose_graph


class TestLinear:
    def test_values_and_bias(self):
        lin = L.Linear(2, 3, np.random.default_rng(0), dtype=np.float64)
        lin.weight.data[:] = [[1, 0, 2], [0, 1, 3]]
        lin.bias.data[:] = [[1, 1, 1]]
        out = lin.forward(Tensor(np.array([[1.0, 2.0]])))
        np.testing.assert_allclose(out.data, [[2, 3, 9]])

    def test_init_scale(self):
        lin = L.Linear(600, 4, np.random.default_rng(1))
        s = np.sqrt(6.0 / 600)
        assert np.abs(lin.weight.data).max() <= s
        assert np.abs(lin.weight.data).std() > 0
        assert np.all(lin.bias.data == 0)

    def test_init_equals_one_draw_in_bounded_memory(self):
        # the dense body's lift layer: 896 x 15,552 float32 weights, 53 MB;
        # a one-shot float64 draw alone would be 106 MB
        tracemalloc.start()
        try:
            lin = L.Linear(896, 15552, np.random.default_rng([7, 202]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2**20, peak
        s = np.sqrt(6.0 / 896)
        one_shot = np.random.default_rng([7, 202]).uniform(-s, s, (896, 15552))
        np.testing.assert_array_equal(lin.weight.data, one_shot.astype(np.float32))

    def test_float64_init_equals_one_draw(self):
        # 3,000 rows of 700 span several row blocks
        lin = L.Linear(3000, 700, np.random.default_rng(5), dtype=np.float64)
        s = np.sqrt(6.0 / 3000)
        assert lin.weight.dtype == np.float64
        np.testing.assert_array_equal(
            lin.weight.data, np.random.default_rng(5).uniform(-s, s, (3000, 700)))


class TestBatchNorm:
    def test_training_normalizes_per_feature(self):
        bn = L.BatchNorm1d(3, dtype=np.float64)
        x = Tensor(np.random.default_rng(0).normal(5.0, 2.0, (64, 3)),
                   dtype=np.float64)
        out = bn.forward(x, training=True)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=0), 1.0, atol=1e-3)

    def test_eval_uses_running_stats(self):
        bn = L.BatchNorm1d(2, dtype=np.float64)
        rng = np.random.default_rng(1)
        for _ in range(300):
            bn.forward(Tensor(rng.normal(3.0, 2.0, (32, 2)), dtype=np.float64),
                       training=True)
        x = Tensor(np.array([[3.0, 3.0]]), dtype=np.float64)
        out = bn.forward(x, training=False)
        np.testing.assert_allclose(out.data, 0.0, atol=0.2)

    def test_eval_does_not_update_stats(self):
        bn = L.BatchNorm1d(2)
        before = bn.running_mean.copy()
        bn.forward(Tensor(np.full((4, 2), 9.0), dtype=np.float32), training=False)
        np.testing.assert_array_equal(bn.running_mean, before)

    def test_batch_of_one_training_errors(self):
        bn = L.BatchNorm1d(2)
        with pytest.raises(ValueError, match="batch"):
            bn.forward(Tensor(np.ones((1, 2))), training=True)

    def test_gradcheck_through_batch_stats(self):
        bn = L.BatchNorm1d(3, dtype=np.float64)
        bn.gamma.data[:] = np.array([[1.5, 0.5, 1.0]])
        bn.beta.data[:] = np.array([[0.1, -0.2, 0.0]])
        x0 = np.random.default_rng(2).standard_normal((5, 3))
        rep = T.gradient_check(
            lambda x: T.reduce_sum(T.mul(bn.forward(x, training=True),
                                         Tensor(np.random.default_rng(3).standard_normal((5, 3)), dtype=np.float64))),
            Tensor(x0, dtype=np.float64))
        assert rep.max_rel_err < 1e-6


def chain_batch_norm(bn, x, training):
    """Batch norm as the chain of elementwise ops it was once taped as:
    (x - mean) / sqrt(var + eps) * gamma + beta, the batch variance taken
    as mean((x - mean)^2), the running variance updated from np.var."""
    xd = x.data
    b = xd.shape[0]
    if training:
        mean = xd.mean(axis=0, keepdims=True)
        centered = xd - mean
        var = (centered * centered).mean(axis=0, keepdims=True)
        denom = np.sqrt(var + L.BN_EPS)
        v = xd.var(axis=0, keepdims=True) * (b / (b - 1))
        running = (((1 - L.BN_MOMENTUM) * bn.running_mean
                    + L.BN_MOMENTUM * mean).astype(xd.dtype),
                   ((1 - L.BN_MOMENTUM) * bn.running_var
                    + L.BN_MOMENTUM * v).astype(xd.dtype))
    else:
        centered = xd - bn.running_mean.astype(xd.dtype)
        denom = np.sqrt(bn.running_var.astype(np.float64) + L.BN_EPS).astype(xd.dtype)
        running = (bn.running_mean, bn.running_var)
    return centered / denom * bn.gamma.data + bn.beta.data, running


def chain_batch_norm_grads(bn, x, g, training):
    """(dx, dgamma, dbeta) of that chain for the output gradient g, op by
    op in reverse order, each by the backward rule it was taped with."""
    xd, gamma = x.data, bn.gamma.data
    n = xd.shape[0]
    if training:
        centered = xd - xd.mean(axis=0, keepdims=True)
        denom = np.sqrt((centered * centered).mean(axis=0, keepdims=True) + L.BN_EPS)
    else:
        centered = xd - bn.running_mean.astype(xd.dtype)
        denom = np.sqrt(bn.running_var.astype(np.float64) + L.BN_EPS).astype(xd.dtype)
    q = centered / denom
    dbeta = g.sum(axis=0, keepdims=True)                  # add(m, beta)
    g_q = g * gamma                                       # mul(q, gamma)
    dgamma = (g * q).sum(axis=0, keepdims=True)
    g_c = g_q / denom                                     # div(centered, denom)
    if not training:
        return g_c, dgamma, dbeta                         # sub(x, constant)
    g_denom = (-(g_q * q) / denom).sum(axis=0, keepdims=True)
    g_var = g_denom * (0.5 / denom)                       # sqrt, scalar_add
    g_sq = np.broadcast_to(g_var, xd.shape) / n           # reduce_mean
    g_c = (g_c + g_sq * centered) + g_sq * centered       # mul(centered, centered)
    g_mean = (-g_c).sum(axis=0, keepdims=True)            # sub(x, mean)
    dx = g_c + np.broadcast_to(g_mean, xd.shape) / n      # reduce_mean(x)
    return dx, dgamma, dbeta


# (rows, features) of every batch norm input in the desk and dense-body
# stage-2 steps (batch 32 and 8), and of the lifter's hidden layers
BN_SHAPES = [(208 * 32, 64), (104 * 32, 64), (52 * 32, 32), (26 * 32, 32),
             (12 * 32, 32), (1944 * 8, 64), (972 * 8, 64), (12 * 8, 32),
             (32, 1024), (8, 1024)]


class TestBatchNormOp:
    def make(self, n, dtype, seed=0):
        rng = np.random.default_rng(seed)
        bn = L.BatchNorm1d(n, dtype=dtype)
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, (1, n))
        bn.beta.data[:] = rng.uniform(-0.3, 0.3, (1, n))
        bn.running_mean[:] = rng.uniform(-1.0, 1.0, (1, n))
        bn.running_var[:] = rng.uniform(0.5, 2.0, (1, n))
        return bn

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", BN_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_float32_equals_chain_formula(self, shape, training):
        bn = self.make(shape[1], np.float32)
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(0.4, 3.0, shape).astype(np.float32))
        want, (want_mean, want_var) = chain_batch_norm(bn, x, training)
        out = bn.forward(x, training)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.data, want)
        np.testing.assert_array_equal(bn.running_mean, want_mean)
        np.testing.assert_array_equal(bn.running_var, want_var)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", BN_SHAPES[::3], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_float32_gradients_equal_chain_backward(self, shape, training):
        bn = self.make(shape[1], np.float32)
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(0.4, 3.0, shape).astype(np.float32), requires_grad=True)
        g = rng.standard_normal(shape).astype(np.float32)
        want = chain_batch_norm_grads(bn, x, g, training)
        with Tape():
            loss = T.reduce_sum(T.mul(bn.forward(x, training), Tensor(g)))
        T.backward(loss)
        for got, ref in zip((x.grad, bn.gamma.grad, bn.beta.grad), want):
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("training", [True, False])
    def test_one_tape_entry(self, training):
        bn = self.make(4, np.float32)
        x = Tensor(np.random.default_rng(2).standard_normal((6, 4)),
                   requires_grad=True, dtype=np.float32)
        with Tape() as tape:
            bn.forward(x, training)
        assert [e[0] for e in tape.entries] == ["batch_norm"]

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("wrt", ["x", "gamma", "beta"])
    def test_gradcheck_every_input(self, wrt, training):
        bn = self.make(3, np.float64, seed=4)
        x0 = np.random.default_rng(5).standard_normal((5, 3))
        w = Tensor(np.random.default_rng(6).standard_normal((5, 3)), dtype=np.float64)

        def f(t):
            if wrt == "x":
                return T.reduce_sum(T.mul(bn.forward(t, training), w))
            saved = getattr(bn, wrt)
            setattr(bn, wrt, t)
            try:
                return T.reduce_sum(T.mul(
                    bn.forward(Tensor(x0, dtype=np.float64), training), w))
            finally:
                setattr(bn, wrt, saved)

        start = x0 if wrt == "x" else getattr(bn, wrt).data
        rep = T.gradient_check(f, Tensor(start, dtype=np.float64))
        assert rep.max_rel_err < 1e-6, rep.max_rel_err

    def test_dtype_mismatch(self):
        bn = L.BatchNorm1d(2, dtype=np.float32)
        with pytest.raises(ValueError, match="batch_norm: dtype"):
            bn.forward(Tensor(np.ones((3, 2)), dtype=np.float64), training=True)


class TestGraphConvBlock:
    def test_forward_frees_conv_and_batch_norm_outputs(self, monkeypatch):
        """batch_norm's backward reads its own centred input and relu's its
        own output, so the tape holds neither the conv output nor the
        batch-norm output: both are freed during the forward, by reference
        counting alone."""
        kept = {}

        def keeping(name, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                owner = out.data if out.data.base is None else out.data.base
                kept[name] = weakref.ref(owner)
                return out
            return wrapper

        monkeypatch.setattr(L, "chebyshev_conv", keeping("conv", L.chebyshev_conv))
        monkeypatch.setattr(L.BatchNorm1d, "forward",
                            keeping("bn", L.BatchNorm1d.forward))
        rng = np.random.default_rng(0)
        block = L.GraphConvBlock(3, 4, 2, rng, dtype=np.float64)
        ring = np.roll(np.eye(5), 1, axis=1)
        lap = ScaledLaplacian(table_from_dense((ring + ring.T) / 2), 2.0)
        x = Tensor(rng.standard_normal((5, 2 * 3)), requires_grad=True,
                   dtype=np.float64)
        gc.disable()
        try:
            with Tape():
                loss = T.reduce_sum(block.forward(x, lap, batch=2, training=True))
            assert kept["conv"]() is None
            assert kept["bn"]() is None
        finally:
            gc.enable()
        T.backward(loss)
        assert x.grad is not None and block.bn.gamma.grad is not None


class TestDropout:
    def test_eval_identity(self):
        x = Tensor(np.ones((4, 4)))
        out = L.dropout(x, 0.5, training=False, rng=None)
        assert out is x

    def test_zero_rate_identity(self):
        x = Tensor(np.ones((4, 4)))
        assert L.dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_mean_preserving(self):
        x = Tensor(np.ones((200, 200)), dtype=np.float64)
        rng = np.random.default_rng(0)
        out = L.dropout(x, 0.5, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.02
        vals = np.unique(out.data)
        np.testing.assert_allclose(vals, [0.0, 2.0])

    def test_requires_rng_in_training(self):
        with pytest.raises(ValueError, match="rng"):
            L.dropout(Tensor(np.ones(3)), 0.5, training=True, rng=None)


class TestPoseLifter:
    def make(self, dtype=np.float32):
        return PoseLifter(num_joints=12, hidden=32, num_blocks=2, drop_p=0.5,
                          root_index=0, seed=7, dtype=dtype)

    def test_shapes_and_root_zero(self):
        net = self.make()
        x = Tensor(np.random.default_rng(0).standard_normal((4, 24)).astype(np.float32))
        out = net.forward(x, training=False)
        assert out.shape == (4, 36)
        np.testing.assert_array_equal(out.data.reshape(4, 12, 3)[:, 0, :], 0.0)

    def test_seeded_init_deterministic(self):
        a, b = self.make(), self.make()
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_eval_deterministic_no_dropout(self):
        net = self.make()
        x = Tensor(np.random.default_rng(1).standard_normal((3, 24)).astype(np.float32))
        np.testing.assert_array_equal(net.forward(x).data, net.forward(x).data)

    def test_training_dropout_depends_on_rng(self):
        net = self.make()
        x = Tensor(np.random.default_rng(2).standard_normal((4, 24)).astype(np.float32))
        a = net.forward(x, training=True, rng=np.random.default_rng(5)).data.copy()
        bn_state = [m.running_mean.copy() for _, m in net.named_batchnorms()]
        b = net.forward(x, training=True, rng=np.random.default_rng(5)).data
        c = net.forward(x, training=True, rng=np.random.default_rng(6)).data
        # same rng: same masks; but BN running stats moved between calls,
        # which does not affect training-mode outputs (batch stats used)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unique_param_names_and_grads_flow(self):
        net = self.make()
        names = [n for n, _ in net.named_parameters()]
        assert len(names) == len(set(names))
        x = Tensor(np.random.default_rng(3).standard_normal((4, 24)).astype(np.float32))
        with Tape():
            loss = T.reduce_sum(T.absolute(net.forward(x, training=True,
                                                       rng=np.random.default_rng(0))))
        T.backward(loss)
        for name, p in net.named_parameters():
            assert p.grad is not None, name

    def test_gradcheck_end_to_end(self):
        net = PoseLifter(num_joints=5, hidden=16, num_blocks=2, drop_p=0.0,
                         root_index=0, seed=1, dtype=np.float64)
        x0 = np.random.default_rng(4).standard_normal((2, 10))
        target = np.random.default_rng(5).standard_normal((2, 15))
        rep = T.gradient_check(
            lambda x: T.reduce_sum(T.absolute(
                T.sub(net.forward(x), Tensor(target, dtype=np.float64)))),
            Tensor(x0, dtype=np.float64))
        # whole-model bar; ReLU kinks make central differences locally rough
        assert rep.max_rel_err < 1e-4


class TestMeshRegressor:
    def make(self, levels=2, dtype=np.float32, **kw):
        template, hierarchy, pose_graph = tiny_setup(levels=levels)
        net = MeshRegressor(template, hierarchy, pose_graph,
                            level_widths=(16, 16, 8, 8), pose_width=8,
                            order=3, seed=3, dtype=dtype, **kw)
        return template, hierarchy, net

    def inputs(self, b, dtype=np.float32):
        rng = np.random.default_rng(0)
        return (Tensor(rng.standard_normal((b, 12, 2)), dtype=dtype),
                Tensor(rng.standard_normal((b, 12, 3)) * 100, dtype=dtype))

    def test_output_shape(self):
        template, _, net = self.make()
        p2d, p3d = self.inputs(3)
        out = net.forward(p2d, p3d, training=False)
        assert out.shape == (3, template.num_vertices, 3)

    def test_widths_fitting(self):
        assert fit_widths([64, 64, 32, 32], 3) == [64, 64, 32]
        assert fit_widths([64, 32], 4) == [64, 32, 32, 32]
        with pytest.raises(ValueError, match="non-increasing"):
            fit_widths([32, 64], 2)

    def test_unique_names_and_all_grads(self):
        _, _, net = self.make()
        names = [n for n, _ in net.named_parameters()]
        assert len(names) == len(set(names))
        p2d, p3d = self.inputs(2)
        with Tape():
            loss = T.reduce_sum(T.absolute(net.forward(p2d, p3d, training=True)))
        T.backward(loss)
        missing = [n for n, p in net.named_parameters() if p.grad is None]
        assert not missing, missing

    def test_theta0_only_makes_topology_irrelevant(self):
        _, hierarchy, net = self.make()
        for name, p in net.named_parameters():
            if "filter." in name and not name.endswith("filter.0"):
                p.data[:] = 0.0
        p2d, p3d = self.inputs(2)
        base = net.forward(p2d, p3d, training=False).data.copy()

        rng = np.random.default_rng(9)

        def scramble(lap):
            m = rng.standard_normal((lap.num_vertices, lap.num_vertices))
            return ScaledLaplacian(table_from_dense((m + m.T) / 2), 2.0)

        net.pose_lap = scramble(net.pose_lap)
        hierarchy.scaled_laplacians = [scramble(sl)
                                       for sl in hierarchy.scaled_laplacians]
        swapped = net.forward(p2d, p3d, training=False).data
        np.testing.assert_allclose(swapped, base, atol=1e-6)

    def test_eval_purity(self):
        _, _, net = self.make()
        p2d, p3d = self.inputs(2)
        stats = [(m.running_mean.copy(), m.running_var.copy())
                 for _, m in net.named_batchnorms()]
        a = net.forward(p2d, p3d, training=False).data
        b = net.forward(p2d, p3d, training=False).data
        np.testing.assert_array_equal(a, b)
        for (m0, v0), (_, m) in zip(stats, net.named_batchnorms()):
            np.testing.assert_array_equal(m.running_mean, m0)
            np.testing.assert_array_equal(m.running_var, v0)

    def test_fewer_parameters_than_dense_equivalent(self):
        template, hierarchy, net = self.make()
        dense = 0
        j = template.num_joints
        dense += (j * 5) * (j * net.pose_width)
        dense += (j * net.pose_width) ** 2
        dense += net.lift.weight.size  # shared lift layer
        c = hierarchy.num_levels
        prev = net.widths[0]
        for i, w in enumerate(net.widths):
            v = hierarchy.level_size(c - i)
            dense += (v * prev) * (v * w) + (v * w) ** 2
            prev = w
        v0 = hierarchy.level_size(0)
        dense += (v0 * net.widths[-1]) * (v0 * 3)
        assert sum(p.size for _, p in net.named_parameters()) < dense

    def test_across_level_residual_variant(self):
        _, _, net = self.make(across_level_residual=True)
        p2d, p3d = self.inputs(2)
        out = net.forward(p2d, p3d, training=False)
        assert out.shape[2] == 3
        names = [n for n, _ in net.named_parameters()]
        assert any("skip_proj" in n for n in names)

    def test_gradcheck_through_mesh_net(self):
        template, hierarchy, pose_graph = tiny_setup(levels=2)
        net = MeshRegressor(template, hierarchy, pose_graph,
                            level_widths=(8, 8, 4), pose_width=4, order=3,
                            seed=11, dtype=np.float64)
        rng = np.random.default_rng(12)
        p2d = rng.standard_normal((2, 12, 2))
        p3d0 = rng.standard_normal((2, 12, 3))
        target = rng.standard_normal((2, template.num_vertices, 3))

        def f(p3d):
            out = net.forward(Tensor(p2d, dtype=np.float64), p3d, training=False)
            return T.reduce_sum(T.absolute(T.sub(out, Tensor(target, dtype=np.float64))))

        rep = T.gradient_check(f, Tensor(p3d0, dtype=np.float64))
        assert rep.max_rel_err < 1e-4
