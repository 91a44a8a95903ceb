"""Optimizer arithmetic, the two-stage loops, and checkpoint round trips."""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from meshlift import tensor as T
from meshlift import train
from meshlift.config import resolve_config
from meshlift.data import generate_synthetic_dataset
from meshlift.evaluate import predict
from meshlift.io import load_checkpoint
from meshlift.layers import BN_EPS, BatchNorm1d
from meshlift.losses import compute_mesh_losses, pose_loss, total_mesh_loss
from meshlift.tensor import Tape, Tensor, backward, reduce_sum, reshape
from meshlift.train import (RMSprop, build_models, load_models, save_models,
                            train_full, train_posenet)

TINY = {
    "template": {"verts_per_ring": 3, "rings_per_bone": 2},
    "model": {"hidden": 32, "pose_width": 8, "level_widths": [8, 8, 4],
              "levels": 2},
    "train": {"batch_size": 4, "stage1_epochs": 6, "stage1_decay_epoch": 3,
              "stage2_epochs": 4, "stage2_decay_epoch": 2,
              "stage1_lr": 1e-3, "stage2_lr": 1e-3, "freeze_posenet": False,
              "loss_weights": {"edge_start_epoch": 3}},
}


def tiny_cfg(**extra):
    over = dict(TINY)
    for k, v in extra.items():
        if isinstance(v, dict) and k in over:
            over[k] = {**over[k], **v}
        else:
            over[k] = v
    return resolve_config("desk", over)


def tiny_data(n=8, seed=0):
    cfg = tiny_cfg()
    return generate_synthetic_dataset(cfg.template, n, seed=seed)


class TestRmsprop:
    def test_first_step_hand_value(self):
        p = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
        p.grad = np.ones(1, dtype=np.float32)
        opt = RMSprop([("p", p)], lr=1e-3)
        opt.step()
        # v = 0.01, step = 1e-3 / (0.1 + 1e-8)
        assert p.data[0] == pytest.approx(-9.99999e-3, rel=1e-5)
        assert p.grad is None

    def test_zero_grad_leaves_params(self):
        p = Tensor(np.full(3, 5.0, dtype=np.float32), requires_grad=True)
        p.grad = np.zeros(3, dtype=np.float32)
        RMSprop([("p", p)], lr=1.0).step()
        np.testing.assert_array_equal(p.data, 5.0)

    def test_constant_gradient_approaches_lr_steps(self):
        p = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True)
        opt = RMSprop([("p", p)], lr=1e-3)
        prev = p.data.copy()
        for _ in range(800):
            p.grad = np.full(1, 3.0)
            prev = p.data.copy()
            opt.step()
        delta = abs(p.data[0] - prev[0])
        assert delta == pytest.approx(1e-3, rel=0.02)

    def test_missing_grad_names_parameter(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        opt = RMSprop([("blocks.0.fc1.weight", p)], lr=1e-3)
        with pytest.raises(ValueError, match="blocks.0.fc1.weight"):
            opt.step()

    def test_accumulator_state_persists(self):
        p = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True)
        opt = RMSprop([("p", p)], lr=1e-3)
        p.grad = np.ones(1)
        opt.step()
        first = abs(p.data[0])
        p.grad = np.ones(1)
        opt.step()
        second = abs(p.data[0]) - first
        assert second < first  # larger v means smaller steps

    def test_optimizer_in_training_loop(self):
        w = Tensor(np.zeros((2, 1), dtype=np.float64), requires_grad=True)
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 1.0]]),
                   dtype=np.float64)
        target = x.data @ np.array([[2.0], [-1.0]])
        opt = RMSprop([("w", w)], lr=1e-2)
        from meshlift.tensor import absolute, matmul, sub
        for _ in range(3000):
            with Tape():
                loss = reduce_sum(absolute(sub(matmul(x, w),
                                               Tensor(target, dtype=np.float64))))
            backward(loss)
            opt.step()
        np.testing.assert_allclose(w.data, [[2.0], [-1.0]], atol=0.05)


class TestStage1:
    def test_trace_schedule_and_determinism(self, tmp_path):
        cfg = tiny_cfg()
        _, samples = tiny_data()
        r1 = train_posenet(cfg, samples, out_dir=tmp_path / "a")
        r2 = train_posenet(cfg, samples, out_dir=tmp_path / "b")
        assert len(r1.trace) == cfg.train.stage1_epochs
        lrs = [row["lr"] for row in r1.trace]
        assert lrs[:3] == [1e-3] * 3 and lrs[3:] == [1e-4] * 3
        assert all(np.isfinite(row["L_pose"]) for row in r1.trace)
        assert r1.trace == r2.trace
        assert (tmp_path / "a" / "posenet.ckpt").read_bytes() == \
            (tmp_path / "b" / "posenet.ckpt").read_bytes()
        assert (tmp_path / "a" / "trace_stage1.csv").read_text() == \
            (tmp_path / "b" / "trace_stage1.csv").read_text()

    def test_seed_changes_trace(self, tmp_path):
        cfg1, cfg2 = tiny_cfg(seed=1), tiny_cfg(seed=2)
        _, samples = tiny_data()
        r1 = train_posenet(cfg1, samples)
        r2 = train_posenet(cfg2, samples)
        assert r1.trace != r2.trace

    def test_no_dead_parameters(self):
        cfg = tiny_cfg()
        _, samples = tiny_data()
        assert train_posenet(cfg, samples).dead_parameters == []

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            train_posenet(tiny_cfg(), [])

    def test_non_finite_loss_raises_before_backward(self):
        cfg = tiny_cfg()
        _, samples = tiny_data()
        samples[3].pose3d[5, 1] = np.inf
        with pytest.raises(ValueError, match=r"non-finite loss part 'pose' "
                                             r"at epoch 1, iteration [12]$"), \
                np.errstate(all="ignore"):
            train_posenet(cfg, samples)

    def test_non_finite_gradient_names_parameter(self, monkeypatch):
        built = []
        build = train._build_posenet
        monkeypatch.setattr(train, "_build_posenet",
                            lambda *a: built.append(build(*a)) or built[-1])
        poison_after_backward(monkeypatch, lambda: built[0].fc_out.weight, call=3)
        with pytest.raises(ValueError, match=r"non-finite gradient of "
                                             r"'posenet.fc_out.weight' at epoch "
                                             r"2, iteration 3$"):
            train_posenet(tiny_cfg(), tiny_data()[1])

    def test_csv_columns(self, tmp_path):
        cfg = tiny_cfg()
        _, samples = tiny_data()
        train_posenet(cfg, samples, out_dir=tmp_path)
        lines = (tmp_path / "trace_stage1.csv").read_text().splitlines()
        assert lines[0] == "epoch,iter,lr,L_pose,L_vertex,L_joint,L_normal," \
                           "L_edge,L_total"
        first = lines[1].split(",")
        assert first[0] == "1" and first[4] == ""  # no mesh losses in stage 1


class TestStage2:
    def run_stages(self, tmp_path, **extra):
        cfg = tiny_cfg(**extra)
        _, samples = tiny_data()
        s1 = train_posenet(cfg, samples, out_dir=tmp_path / "s1")
        s2 = train_full(cfg, samples, s1.checkpoint_path,
                        out_dir=tmp_path / "s2")
        return cfg, samples, s1, s2

    def test_trace_rows_and_edge_gate(self, tmp_path):
        cfg, _, _, s2 = self.run_stages(tmp_path)
        iters_per_epoch = 8 // cfg.train.batch_size
        assert len(s2.trace) == cfg.train.stage2_epochs * iters_per_epoch
        for row in s2.trace:
            parts = row["L_vertex"] + row["L_joint"] + 0.1 * row["L_normal"] \
                + row["L_pose"]
            if row["epoch"] >= 3:   # edge_start_epoch pinned to 3 here
                parts += 20.0 * row["L_edge"]
            assert row["L_total"] == pytest.approx(parts, rel=1e-5)

    def test_determinism_bit_exact(self, tmp_path):
        cfg = tiny_cfg()
        _, samples = tiny_data()
        results = []
        for tag in ("a", "b"):
            s1 = train_posenet(cfg, samples, out_dir=tmp_path / tag / "s1")
            s2 = train_full(cfg, samples, s1.checkpoint_path,
                            out_dir=tmp_path / tag / "s2")
            results.append((s1, s2))
        a, b = results
        assert a[1].trace == b[1].trace
        assert (tmp_path / "a" / "s2" / "full.ckpt").read_bytes() == \
            (tmp_path / "b" / "s2" / "full.ckpt").read_bytes()

    def test_checkpoint_holds_both_and_restores(self, tmp_path):
        cfg, samples, _, s2 = self.run_stages(tmp_path)
        template, _, _, posenet, meshnet = load_models(
            s2.checkpoint_path, cfg)
        assert posenet is not None and meshnet is not None
        for (_, p), (_, q) in zip(posenet.named_parameters(),
                                  s2.posenet.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data)
        for (_, p), (_, q) in zip(meshnet.named_parameters(),
                                  s2.meshnet.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data)
        for (_, m), (_, n) in zip(meshnet.named_batchnorms(),
                                  s2.meshnet.named_batchnorms()):
            np.testing.assert_array_equal(m.running_mean, n.running_mean)
            np.testing.assert_array_equal(m.running_var, n.running_var)

    def test_config_mismatch_rejected(self, tmp_path):
        cfg, samples, s1, _ = self.run_stages(tmp_path)
        other = tiny_cfg(seed=cfg.seed + 1)
        with pytest.raises(ValueError, match="mismatch"):
            train_full(other, samples, s1.checkpoint_path)

    def test_freeze_posenet_keeps_weights(self, tmp_path):
        cfg = tiny_cfg(train={"freeze_posenet": True})
        _, samples = tiny_data()
        s1 = train_posenet(cfg, samples, out_dir=tmp_path / "s1")
        _, _, _, posenet0, _ = load_models(s1.checkpoint_path, cfg)
        s2 = train_full(cfg, samples, s1.checkpoint_path)
        for (_, p), (_, q) in zip(posenet0.named_parameters(),
                                  s2.posenet.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_pose_loss_column_empty_when_excluded(self, tmp_path):
        cfg = tiny_cfg(train={"include_pose_loss_stage2": False})
        _, samples = tiny_data()
        s1 = train_posenet(cfg, samples, out_dir=tmp_path / "s1")
        s2 = train_full(cfg, samples, s1.checkpoint_path,
                        out_dir=tmp_path / "s2")
        assert all(row["L_pose"] is None for row in s2.trace)
        csv_rows = (tmp_path / "s2" / "trace_stage2.csv").read_text().splitlines()
        assert csv_rows[1].split(",")[3] == ""

    def test_max_iterations_cap(self, tmp_path):
        cfg = tiny_cfg()
        _, samples = tiny_data()
        s1 = train_posenet(cfg, samples, out_dir=tmp_path / "s1")
        s2 = train_full(cfg, samples, s1.checkpoint_path, max_iterations=3)
        assert len(s2.trace) == 3

    def test_requires_mesh_ground_truth(self, tmp_path):
        cfg = tiny_cfg()
        _, samples = tiny_data()
        s1 = train_posenet(cfg, samples, out_dir=tmp_path / "s1")
        for s in samples:
            s.mesh = None
        with pytest.raises(ValueError, match="mesh"):
            train_full(cfg, samples, s1.checkpoint_path)

    def test_non_finite_loss_raises_before_backward(self, tmp_path):
        cfg = tiny_cfg()
        _, samples = tiny_data()
        s1 = train_posenet(cfg, samples, out_dir=tmp_path / "s1")
        samples[2].mesh[7, 0] = np.inf
        with pytest.raises(ValueError, match=r"non-finite loss part 'vertex' "
                                             r"at epoch 1, iteration [12]$"), \
                np.errstate(all="ignore"):
            train_full(cfg, samples, s1.checkpoint_path)

    def test_non_finite_gradient_names_first_parameter(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        _, samples = tiny_data()
        s1 = train_posenet(cfg, samples, out_dir=tmp_path / "s1")
        built = []
        build = train.build_models
        monkeypatch.setattr(train, "build_models",
                            lambda *a: built.append(build(*a)) or built[-1])
        # both poisoned; lift comes first in the optimizer's order
        poison_after_backward(
            monkeypatch, lambda: built[0][4].head.filter.coefficients[0], call=1)
        poison_after_backward(monkeypatch, lambda: built[0][4].lift.weight, call=1)
        with pytest.raises(ValueError, match=r"non-finite gradient of "
                                             r"'meshnet.lift.weight' at epoch "
                                             r"1, iteration 1$"):
            train_full(cfg, samples, s1.checkpoint_path)

    def test_no_dead_parameters_stage2(self, tmp_path):
        _, _, _, s2 = self.run_stages(tmp_path)
        assert s2.dead_parameters == []

    def test_mesh_hierarchy_built_once(self, tmp_path, monkeypatch):
        calls = []
        coarsen = train.graclus_coarsen

        def counting(*args, **kwargs):
            calls.append(args)
            return coarsen(*args, **kwargs)

        monkeypatch.setattr(train, "graclus_coarsen", counting)
        cfg = tiny_cfg()
        _, samples = tiny_data()
        s1 = train_posenet(cfg, samples, out_dir=tmp_path / "s1")
        assert len(calls) == 0
        train_full(cfg, samples, s1.checkpoint_path, max_iterations=1)
        assert len(calls) == 1


def poison_after_backward(monkeypatch, param, call):
    """Make the call-th backward leave a NaN in param()'s gradient."""
    backward_fn, calls = T.backward, []

    def poisoned(loss):
        backward_fn(loss)
        calls.append(True)
        if len(calls) == call:
            param().grad.reshape(-1)[0] = np.nan
    monkeypatch.setattr(T, "backward", poisoned)


class TestSampleShapes:
    """A sample that does not fit the template is rejected, by index and
    both counts, before any model is built or checkpoint read."""

    def test_posenet_joint_count(self, monkeypatch):
        cfg = tiny_cfg()
        _, samples = tiny_data()
        samples[3] = replace(samples[3], pose2d=samples[3].pose2d[:-1])
        monkeypatch.setattr(train, "_build_posenet", None)
        j = len(samples[0].pose2d)
        with pytest.raises(ValueError, match=f"sample 3: pose2d has {j - 1} "
                                             f"joints but the template has {j}"):
            train_posenet(cfg, samples)

    def test_full_mesh_vertex_count(self, tmp_path):
        cfg = tiny_cfg()
        _, samples = tiny_data()
        samples = [replace(s, mesh=s.mesh[:-1]) for s in samples]
        v = len(samples[0].mesh) + 1
        with pytest.raises(ValueError, match=f"sample 0: mesh has {v - 1} "
                                             f"vertices but the template has {v}"):
            train_full(cfg, samples, tmp_path / "no-such.ckpt")


# A checkpoint written by the first release of the format. Its run config:
# a tiny body, two levels, decreasing level widths and across-level skips,
# so that filter, batch-norm and skip-projection tensors all occur.
V1_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v1_tiny.ckpt"
V1_CONFIG = {
    "seed": 3,
    "template": {"verts_per_ring": 3, "rings_per_bone": 2},
    "model": {"hidden": 8, "num_blocks": 1, "pose_width": 2, "order": 2,
              "levels": 2, "level_widths": [4, 3, 2],
              "across_level_residual": True},
}


def stage2_step(cfg):
    """Build cfg's models and one batch of generated samples, and return a
    function that records one frozen-lifter stage-2 forward and loss, with
    every loss term on, and returns (tape, total)."""
    template, _, _, posenet, meshnet = build_models(cfg)
    b, j = cfg.train.batch_size, template.num_joints
    _, samples = generate_synthetic_dataset(cfg.template, b, seed=1)
    x2d, gt3d, mesh = train.assemble_batch(samples, range(b), None,
                                           template.symmetry_pairs, None,
                                           need_mesh=True)
    lifted = posenet.forward(Tensor(x2d.reshape(b, 2 * j), dtype=np.float32))

    def step():
        with Tape() as tape:
            pred = meshnet.forward(Tensor(x2d, dtype=np.float32),
                                   reshape(lifted, (b, j, 3)), training=True)
            parts = compute_mesh_losses(pred, mesh, gt3d, template.faces,
                                        template.joint_regressor)
            parts["pose"] = pose_loss(lifted, gt3d.reshape(b, 3 * j))
            total = total_mesh_loss(parts, cfg.train.loss_weights,
                                    cfg.train.stage2_epochs)
        return tape, total
    return step


def test_dense_stage2_step_memory_bound():
    """A tape holds only the arrays that backward rules read, and the sweep
    frees each entry and gradient as it goes, so one dense-body stage-2
    step (V = 1,584 in 1,944 slots, batch 8) peaks at about 67 MiB of new
    allocations. A tape that held every taped tensor until backward
    returned peaked at about 173 MiB."""
    cfg = resolve_config("desk", overrides={
        "seed": 7, "template": {"verts_per_ring": 12, "rings_per_bone": 12},
        "train": {"batch_size": 8}})
    step = stage2_step(cfg)
    tracemalloc.start()
    try:
        _, total = step()
        backward(total)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_desk_stage2_tape_budget():
    """One desk stage-2 forward plus loss (batch 32, frozen lifter, every
    loss term on): one-row operands enter add/sub/mul directly, so the
    tape holds no row-tiling entries (416 entries when it did), and each
    of the 11 graph convolutions is one entry (375 entries when a
    convolution was 15 entries, 228 after). Each of the 10 batch norms is
    one entry instead of 9, and the normal and edge losses walk the face
    edges through one face_edges entry each instead of three pairs of
    gather_rows: 228 - 10 * 8 - 38 = 110. The one gather_rows left is
    apply_perm."""
    cfg = resolve_config("desk")
    assert cfg.train.freeze_posenet and cfg.train.batch_size == 32
    tape, _ = stage2_step(cfg)()
    names = [entry[0] for entry in tape.entries]
    assert "repeat_rows" not in names
    assert names.count("chebyshev_conv") == 11
    assert names.count("batch_norm") == 10
    assert names.count("gather_rows") == 1
    assert names.count("face_edges") == 2
    assert len(names) <= 115


class TestCheckpointV1:
    def test_fixture_covers_every_tensor_kind(self):
        _, tensors = load_checkpoint(V1_CHECKPOINT)
        for name in ("posenet.blocks.0.bn1.running_var",
                     "meshnet.levels.1.skip_proj", "meshnet.levels.2.b.filter.1",
                     "meshnet.head.filter.0"):
            assert name in tensors, name
        assert "meshnet.levels.0.skip_proj" not in tensors

    def test_eval_mesh_output_equals_chain_batch_norm(self, monkeypatch):
        """Eval-mode batch norm keeps the expressions of the chain of
        elementwise ops it was once taped as, so the regressed meshes are
        bit-identical to the ones that chain gives."""
        cfg = resolve_config("desk", overrides=V1_CONFIG)
        template, _, _, posenet, meshnet = load_models(V1_CHECKPOINT, cfg)
        _, samples = generate_synthetic_dataset(cfg.template, 40, seed=5)
        got = predict(cfg, template, posenet, meshnet, samples, "gt2d")

        def chain(bn, x, training):
            assert not training
            centered = x.data - bn.running_mean.astype(x.dtype)
            denom = np.sqrt(bn.running_var.astype(np.float64)
                            + BN_EPS).astype(x.dtype)
            return Tensor(centered / denom * bn.gamma.data + bn.beta.data)

        monkeypatch.setattr(BatchNorm1d, "forward", chain)
        want = predict(cfg, template, posenet, meshnet, samples, "gt2d")
        np.testing.assert_array_equal(got["pred_mesh"], want["pred_mesh"])
        np.testing.assert_array_equal(got["lifted_pose"], want["lifted_pose"])

    def test_loads_and_resaves_byte_identical(self, tmp_path):
        cfg = resolve_config("desk", overrides=V1_CONFIG)
        _, _, _, posenet, meshnet = load_models(V1_CHECKPOINT, cfg)
        assert posenet is not None and meshnet is not None
        out = tmp_path / "resaved.ckpt"
        save_models(out, cfg, posenet=posenet, meshnet=meshnet)
        assert out.read_bytes() == V1_CHECKPOINT.read_bytes()
