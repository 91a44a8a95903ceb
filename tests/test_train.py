"""Optimizer arithmetic, the two-stage loops, and checkpoint round trips."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from meshlift import graphs, layers, models, train
from meshlift import tensor as T
from meshlift.config import resolve_config
from meshlift.data import generate_synthetic_dataset
from meshlift.evaluate import predict
from meshlift.io import load_checkpoint, save_checkpoint
from meshlift.layers import BN_EPS, BatchNorm1d
from meshlift.losses import compute_mesh_losses, pose_loss, total_mesh_loss
from meshlift.tensor import Tape, Tensor, backward
from meshlift.train import (RMSprop, build_models, load_models, save_models,
                            train_full, train_posenet)

from dense_views import assert_same_hierarchy, assert_same_operators
from test_io import PROPERTY, loads_or_names

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
        for _ in range(3000):
            with Tape():
                # an L1 fit: (3, 1) rows, so the one-column "batch" divides by 1
                loss = pose_loss(T.matmul(x, w), target)
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

    def test_one_sample_rejected_before_the_lifter_is_built(self, tmp_path,
                                                             monkeypatch):
        """Batch norm needs two samples, so one sample would train nothing
        and save an untrained checkpoint."""
        _, samples = tiny_data(n=1)
        monkeypatch.setattr(train, "_build_posenet", None)
        with pytest.raises(ValueError, match="at least 2 samples, the "
                                             "dataset has 1$"):
            train_posenet(tiny_cfg(), samples, out_dir=tmp_path)
        assert not (tmp_path / "posenet.ckpt").exists()

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

    def test_trainer_gate_agrees_with_total_around_edge_start(self, tmp_path,
                                                              monkeypatch):
        """At edge_start_epoch - 1 train_full computes the edge part off the
        tape and the total leaves it out; at edge_start_epoch the part is
        taped and is an input of the total's entry."""
        cfg = tiny_cfg()
        weights = cfg.train.loss_weights
        _, samples = tiny_data()
        s1 = train_posenet(cfg, samples, out_dir=tmp_path)
        gates, seen = {}, {}
        real_parts, real_total = train.compute_mesh_losses, train.total_mesh_loss

        def parts_spy(*args, edge_on):
            parts = real_parts(*args, edge_on=edge_on)
            gates[id(parts)] = edge_on
            return parts

        def total_spy(parts, weights, epoch):
            total = real_total(parts, weights, epoch)
            refs = total.tape.entries[total.index][1]
            seen.setdefault(epoch, set()).add(
                (gates[id(parts)], parts["edge"].tape is not None,
                 parts["edge"].index in refs))
            return total

        monkeypatch.setattr(train, "compute_mesh_losses", parts_spy)
        monkeypatch.setattr(train, "total_mesh_loss", total_spy)
        train_full(cfg, samples, s1.checkpoint_path)
        start = weights.edge_start_epoch
        assert not weights.edge_on(start - 1) and weights.edge_on(start)
        assert seen[start - 1] == {(False, False, False)}
        assert seen[start] == {(True, True, True)}

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

    @pytest.mark.parametrize("max_iterations", [0, -5])
    def test_max_iterations_below_one_is_rejected(self, tmp_path, max_iterations):
        """Rejected before the checkpoint is read or any model is built:
        the checkpoint path does not exist, and nothing is written."""
        cfg = tiny_cfg()
        _, samples = tiny_data()
        with pytest.raises(ValueError, match=re.escape(
                f"train_full: max_iterations must be >= 1, got {max_iterations}")):
            train_full(cfg, samples, tmp_path / "missing.ckpt",
                       out_dir=tmp_path / "s2", max_iterations=max_iterations)
        assert not (tmp_path / "s2").exists()

    def test_requires_mesh_ground_truth(self, tmp_path):
        cfg = tiny_cfg()
        _, samples = tiny_data()
        s1 = train_posenet(cfg, samples, out_dir=tmp_path / "s1")
        for s in samples:
            s.mesh = None
        with pytest.raises(ValueError, match="mesh"):
            train_full(cfg, samples, s1.checkpoint_path)

    def test_one_sample_rejected_before_the_checkpoint_is_read(self, tmp_path):
        _, samples = tiny_data(n=1)
        with pytest.raises(ValueError, match="at least 2 samples, the "
                                             "dataset has 1$"):
            train_full(tiny_cfg(), samples, tmp_path / "no-such.ckpt",
                       out_dir=tmp_path / "s2")
        assert not (tmp_path / "s2" / "full.ckpt").exists()

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
        """Training coarsens once, in train_full, whose lifter checkpoint
        has no hierarchy. Loading a format-2 file coarsens nothing,
        estimates no lambda_max and draws no weight; a format-1 file is
        coarsened once, and its restored networks draw nothing either."""
        calls = {"coarsen": 0, "lambda_max": 0, "draws": 0}

        def counting(key, fn, counts=lambda *a, **k: True):
            def wrapper(*args, **kwargs):
                calls[key] += counts(*args, **kwargs)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(train, "graclus_coarsen",
                            counting("coarsen", train.graclus_coarsen))
        monkeypatch.setattr(graphs, "estimate_lambda_max",
                            counting("lambda_max", graphs.estimate_lambda_max))
        drawing = counting("draws", layers.uniform_weight,
                           lambda shape, fan_in, rng, dtype: rng is not None)
        monkeypatch.setattr(layers, "uniform_weight", drawing)
        monkeypatch.setattr(models, "uniform_weight", drawing)
        cfg = tiny_cfg()
        _, samples = tiny_data()
        s1 = train_posenet(cfg, samples, out_dir=tmp_path / "s1")
        assert calls["coarsen"] == 0
        train_full(cfg, samples, s1.checkpoint_path, max_iterations=1)
        assert calls["coarsen"] == 1

        v1 = resolve_config("desk", overrides=V1_CONFIG)
        for path, coarsened in ((V2_CHECKPOINT, 0), (V1_CHECKPOINT, 1)):
            calls.update(coarsen=0, lambda_max=0, draws=0)
            load_models(path, v1)
            assert calls == {"coarsen": coarsened, "lambda_max": 4 * coarsened,
                             "draws": 0}, path.name

    def test_tube_body_built_once(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        _, samples = tiny_data()
        s1 = train_posenet(cfg, samples, out_dir=tmp_path / "s1")
        calls = []
        build = train.build_tube_body
        monkeypatch.setattr(train, "build_tube_body",
                            lambda spec: calls.append(spec) or build(spec))
        train_full(cfg, samples, s1.checkpoint_path, max_iterations=1)
        assert calls == [cfg.template]


class TestUnknownTensors:
    """A checkpoint tensor that no restored network owns is rejected by
    name, whether a network has no such parameter or no network has the
    tensor's prefix."""

    def write(self, path, cfg, extra, meshnet=True):
        _, _, _, posenet, mesh = build_models(cfg)
        save_models(path, cfg, posenet=posenet, meshnet=mesh if meshnet else None)
        stored, tensors, record = load_checkpoint(path)
        save_checkpoint(path, stored, {**tensors, extra: np.ones(3, np.float32)},
                        record)

    @pytest.mark.parametrize("extra, meshnet", [
        ("meshnet.levels.9.a.bn.gamma", True),
        ("step", True),
        ("step", False),
        ("meshnet.lift.weight.old", True),
    ])
    def test_rejected_by_name(self, tmp_path, extra, meshnet):
        cfg = tiny_cfg()
        p = tmp_path / "c.ckpt"
        self.write(p, cfg, extra, meshnet)
        with pytest.raises(ValueError, match=f"^checkpoint {re.escape(str(p))}: "
                                             f"tensor '{re.escape(extra)}' belongs "
                                             f"to no restored network$"):
            load_models(p, cfg)

    def test_lifter_checkpoint_with_mesh_tensor_is_missing_the_rest(self, tmp_path):
        cfg = tiny_cfg()
        p = tmp_path / "c.ckpt"
        self.write(p, cfg, "meshnet.levels.9.a.bn.gamma", meshnet=False)
        with pytest.raises(ValueError, match="checkpoint missing tensor 'meshnet."):
            load_models(p, cfg)


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
# The same model saved again in format 2, with its hierarchy record.
V2_CHECKPOINT = V1_CHECKPOINT.with_name("checkpoint_v2_tiny.ckpt")


def split_checkpoint(path):
    """(manifest, payload bytes) of a checkpoint file."""
    raw = Path(path).read_bytes()
    mlen = int.from_bytes(raw[4:8], "little")
    return json.loads(raw[8:8 + mlen]), raw[8 + mlen:]


def stage2_step(cfg):
    """Build cfg's models and one batch of generated samples, and return a
    function that records one frozen-lifter stage-2 forward and loss at the
    last stage-2 epoch, with the pose term on and the edge term gated as
    train_full gates it, and returns (tape, total)."""
    template, _, _, posenet, meshnet = build_models(cfg)
    b, j = cfg.train.batch_size, template.num_joints
    _, samples = generate_synthetic_dataset(cfg.template, b, seed=1)
    x2d, gt3d, mesh = train.assemble_batch(samples, range(b), None,
                                           template.symmetry_pairs, None,
                                           need_mesh=True)
    lifted = posenet.forward(Tensor(x2d.reshape(b, 2 * j), dtype=np.float32))
    x2d, gt3d, mesh = (a.transpose(1, 0, 2) for a in (x2d, gt3d, mesh))

    weights, epoch = cfg.train.loss_weights, cfg.train.stage2_epochs

    def step():
        with Tape() as tape:
            pred = meshnet.forward(Tensor(x2d, dtype=np.float32), lifted,
                                   training=True)
            parts = compute_mesh_losses(pred, mesh, gt3d, template.faces,
                                        template.joint_regressor,
                                        edge_on=weights.edge_on(epoch))
            parts["pose"] = pose_loss(lifted, gt3d)
            total = total_mesh_loss(parts, weights, epoch)
        return tape, total
    return step


DENSE = {"seed": 7, "template": {"verts_per_ring": 12, "rings_per_bone": 12},
         "train": {"batch_size": 8}}


def test_dense_stage2_step_memory_bound():
    """A tape holds only the arrays that backward rules read, and the sweep
    frees each entry and gradient as it goes, so one dense-body stage-2
    step (V = 1,584 in 1,944 slots, batch 8) peaks at about 67 MiB of new
    allocations. A tape that held every taped tensor until backward
    returned peaked at about 173 MiB."""
    step = stage2_step(resolve_config("desk", overrides=DENSE))
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
    apply_perm. Mesh activations stay (V, B, f) from the joint graph to
    apply_perm, so no reshape surrounds a batch norm or the skip
    projection (110 - 25 = 85 entries). Poses stay (J, B, 3) and meshes
    (V, B, 3) from the lifter to the losses, so no transpose returns the
    mesh batch-first or gives a surface loss its view, and the joint loss
    is one reshape and one matmul (85 - 6 = 79). Left are the 2 reshapes
    and 2 transposes around the lift layer and the joint loss's reshape.
    The normal and edge losses share one face_edges entry (79 - 1 = 78).
    Each batch norm carries its ReLU, so no relu entry is left (78 - 10 =
    68), and the desk profile gates the edge term off on every step, so
    its 5 entries (norm_last, sub, absolute, reduce_sum, scalar_mul) are
    computed off the tape (68 - 5 = 63). Each loss is one entry (the
    vertex loss's 4 and the normal loss's 6 before, and 4 of the joint
    loss's 6), and so is the weighted total (6: the 3 weights' scalar_mul
    and 3 add, one of them adding the untaped pose part): 63 - 3 - 5 - 3
    - 5 = 47."""
    cfg = resolve_config("desk")
    assert cfg.train.freeze_posenet and cfg.train.batch_size == 32
    assert cfg.train.loss_weights.edge_start_epoch > cfg.train.stage2_epochs
    tape, _ = stage2_step(cfg)()
    names = [entry[0] for entry in tape.entries]
    assert "repeat_rows" not in names
    assert names.count("chebyshev_conv") == 11
    assert names.count("batch_norm") == 10
    assert names.count("relu") == 0
    assert names.count("edge_loss") == 0
    assert names.count("pose_loss") == 0
    for name in ("vertex_loss", "joint_loss", "normal_loss", "total_mesh_loss"):
        assert names.count(name) == 1, name
    assert names.count("gather_rows") == 1
    assert names.count("face_edges") == 1
    assert names.count("reshape") == 3
    assert names.count("transpose") == 2
    assert names.count("matmul") == 3
    assert len(names) == 47


def test_desk_stage2_forward_memory_bound():
    """After a desk stage-2 forward and loss the tape holds about 22.0 MiB
    of new allocations: each batch norm keeps its centred input and its
    output, which its fused ReLU clamps in place, and recomputes xhat in
    backward. With xhat kept as well, and a separate ReLU output, it held
    26.5 MiB."""
    step = stage2_step(resolve_config("desk"))
    tracemalloc.start()
    try:
        tape, total = step()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 24 * 2 ** 20, f"held {held / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("stage, entries", [(1, 23), (2, 71)])
def test_desk_training_step_tape_budgets(tmp_path, monkeypatch, stage, entries):
    """The tape of the first step of a desk training stage (batch 32),
    with the lifter training. Stage 1 holds the lifter's 22 entries and
    the pose loss's 1: 22 + 1 = 23 (26 when the pose loss was 4 entries,
    30 when each of the lifter's 4 batch norms had its own relu entry, 32
    when the lifter returned a batch-first pose). Stage 2 holds the 47 of
    test_desk_stage2_tape_budget's frozen-lifter step, the lifter's 22,
    the pose loss's 1 and the input concat: 47 + 22 + 1 + 1 = 71 (91 when
    each loss was a chain of generic ops and the pose weight its own
    entry, 110 with a relu entry after each of the 14 batch norms and the
    gated-off edge term on the tape, 121 when the lifter returned a
    batch-first pose, 111 when each surface loss had its own face_edges
    entry)."""
    cfg = resolve_config("desk", overrides={"train": {
        "stage1_epochs": 2, "stage1_decay_epoch": 1, "freeze_posenet": False}})
    _, samples = generate_synthetic_dataset(cfg.template, 32, seed=1)
    tapes = []

    def spy(loss):
        tapes.append([entry[0] for entry in loss.tape.entries])
        backward(loss)

    monkeypatch.setattr(T, "backward", spy)
    s1 = train_posenet(cfg, samples, out_dir=tmp_path)
    if stage == 2:
        tapes.clear()
        train_full(cfg, samples, s1.checkpoint_path, max_iterations=1)
    assert len(tapes[0]) == entries


# train_full in a fresh process: prints whether train_full's own call of
# _keep_freed_heap applied the settings, and the process's minor faults
FAULT_PROBE = """
import json, resource, sys
from meshlift import data, train
from meshlift.config import resolve_config
applied, keep = [], train._keep_freed_heap
train._keep_freed_heap = lambda: applied.append(keep()) or applied[-1]
cfg = resolve_config("desk", overrides=json.loads(sys.argv[1]))
_, samples = data.generate_synthetic_dataset(cfg.template, 48, seed=1)
train.train_full(cfg, samples, sys.argv[2], max_iterations=int(sys.argv[3]))
print(json.dumps([applied, resource.getrusage(resource.RUSAGE_SELF).ru_minflt]))
"""


def test_dense_steady_steps_fault_no_pages(tmp_path):
    """Steps 4-6 of a dense-body train_full (batch 8) reuse the heap pages
    earlier steps freed. With glibc's default thresholds they faulted
    44,900-47,900 minor page faults, zero-filling freed arrays again; with
    the kept heap, -500 to 0, run-to-run noise. Each count comes from its
    own process, so pytest's heap state can neither hide nor fake it."""
    cfg = resolve_config("desk", overrides=DENSE)
    cfg = replace(cfg, train=replace(cfg.train, stage1_epochs=1))
    _, samples = generate_synthetic_dataset(cfg.template, 48, seed=1)
    lifter = train_posenet(cfg, samples, out_dir=tmp_path).checkpoint_path
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(train.__file__).resolve().parents[1]))
    faults = []
    for iterations in (3, 6):
        out = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE, json.dumps(DENSE), str(lifter),
             str(iterations)], env=env, capture_output=True, text=True, check=True)
        applied, minflt = json.loads(out.stdout.splitlines()[-1])
        assert applied, "train_full did not call _keep_freed_heap"
        if not all(applied):
            pytest.skip("glibc's mallopt is not available in this process")
        faults.append(minflt)
    assert faults[1] - faults[0] < 44_900 // 10, faults


def no_libc(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("libc", [lambda name: object(), no_libc],
                         ids=["no-mallopt", "no-libc"])
def test_training_without_mallopt_writes_the_same_trace(tmp_path, monkeypatch,
                                                         libc):
    """Where libc or its mallopt cannot be found, training runs as
    before and writes the same numbers."""
    cfg = tiny_cfg()
    cfg = replace(cfg, train=replace(cfg.train, stage1_epochs=1))
    _, samples = tiny_data()
    train_posenet(cfg, samples, out_dir=tmp_path / "kept")
    monkeypatch.setattr(train.ctypes, "CDLL", libc)
    assert train._keep_freed_heap() is False
    train_posenet(cfg, samples, out_dir=tmp_path / "default")
    assert (tmp_path / "default" / "trace_stage1.csv").read_bytes() == \
        (tmp_path / "kept" / "trace_stage1.csv").read_bytes()


class TestCheckpointV1:
    def test_fixture_covers_every_tensor_kind(self):
        _, tensors, _ = load_checkpoint(V1_CHECKPOINT)
        for name in ("posenet.blocks.0.bn1.running_var",
                     "meshnet.levels.1.skip_proj", "meshnet.levels.2.b.filter.1",
                     "meshnet.head.filter.0"):
            assert name in tensors, name
        assert "meshnet.levels.0.skip_proj" not in tensors

    def test_eval_mesh_output_equals_chain_batch_norm(self, monkeypatch):
        """Eval-mode batch norm, with its ReLU fused, keeps the expressions
        of the chain of elementwise ops it was once taped as, followed by
        a separate ReLU, so the regressed meshes are bit-identical to the
        ones that chain gives."""
        cfg = resolve_config("desk", overrides=V1_CONFIG)
        template, _, _, posenet, meshnet = load_models(V1_CHECKPOINT, cfg)
        _, samples = generate_synthetic_dataset(cfg.template, 40, seed=5)
        got = predict(cfg, template, posenet, meshnet, samples, "gt2d")

        def chain(bn, x, training, relu=False):
            assert not training
            centered = x.data - bn.running_mean.astype(x.dtype)
            denom = np.sqrt(bn.running_var.astype(np.float64)
                            + BN_EPS).astype(x.dtype)
            out = centered / denom * bn.gamma.data + bn.beta.data
            return Tensor(np.maximum(out, 0) if relu else out)

        monkeypatch.setattr(BatchNorm1d, "forward", chain)
        want = predict(cfg, template, posenet, meshnet, samples, "gt2d")
        np.testing.assert_array_equal(got["pred_mesh"], want["pred_mesh"])
        np.testing.assert_array_equal(got["lifted_pose"], want["lifted_pose"])

    def test_every_stored_model_key_but_dropout_is_cross_checked(self, tmp_path):
        """Across-level skips between equal widths add no tensor, so only
        the stored model config tells a checkpoint trained with them from
        one trained without: loading it under the other setting is
        rejected by name. Dropout changes no eval output and may differ."""
        over = {**V1_CONFIG, "model": {**V1_CONFIG["model"], "level_widths": [4]}}
        cfg = resolve_config("desk", overrides=over)
        _, _, _, posenet, meshnet = build_models(cfg)
        path = tmp_path / "equal_widths.ckpt"
        save_models(path, cfg, posenet=posenet, meshnet=meshnet)
        _, tensors, _ = load_checkpoint(path)
        assert not any("skip_proj" in name for name in tensors)
        off = resolve_config("desk", overrides={
            **over, "model": {**over["model"], "across_level_residual": False}})
        with pytest.raises(ValueError, match="mismatch on "
                                             "'model.across_level_residual'"):
            load_models(path, off)
        drop = resolve_config("desk", overrides={
            **over, "model": {**over["model"], "dropout": 0.25}})
        assert load_models(path, drop)[4] is not None

    def test_loads_and_resaves_byte_identical(self, tmp_path):
        """The writer emits format 2, which adds the hierarchy record; the
        config, the tensor directory and every payload byte survive the
        load and save exactly, and the file is the committed v2 fixture."""
        cfg = resolve_config("desk", overrides=V1_CONFIG)
        _, _, _, posenet, meshnet = load_models(V1_CHECKPOINT, cfg)
        assert posenet is not None and meshnet is not None
        out = tmp_path / "resaved.ckpt"
        save_models(out, cfg, posenet=posenet, meshnet=meshnet)
        (old, old_payload), (new, new_payload) = map(split_checkpoint,
                                                     (V1_CHECKPOINT, out))
        assert (old["format_version"], new["format_version"]) == (1, 2)
        assert new["config"] == old["config"] and new["tensors"] == old["tensors"]
        assert new_payload == old_payload
        assert out.read_bytes() == V2_CHECKPOINT.read_bytes()


def set_item(key, index, value):
    def edit(record):
        record[key][index] = value
    return edit


def set_parents(level, ids_of):
    def edit(record):
        record["raw_parents"][level] = ids_of(record["raw_parents"][level])
    return edit


def unused_id(ids):
    """Renumber cluster 0 as max + 1, so that id 0 has no children."""
    top = max(ids) + 1
    return [top if p == 0 else p for p in ids]


class TestCheckpointV2:
    """Format 2 carries the hierarchy and every lambda_max, so loading
    rebuilds the structure the regressor was trained on without coarsening
    or estimating, and builds the restored networks around the file's
    arrays without drawing."""

    CFG = resolve_config("desk", overrides=V1_CONFIG)

    def test_loads_like_the_v1_file(self):
        v1 = load_models(V1_CHECKPOINT, self.CFG)
        v2 = load_models(V2_CHECKPOINT, self.CFG)
        assert_same_hierarchy(v1[1], v2[1])
        assert_same_operators([v1[4].pose_lap], [v2[4].pose_lap])
        _, samples = generate_synthetic_dataset(self.CFG.template, 40, seed=5)
        for mode in ("gt2d", "gt3d"):
            a = predict(self.CFG, v1[0], v1[3], v1[4], samples, mode)
            b = predict(self.CFG, v2[0], v2[3], v2[4], samples, mode)
            np.testing.assert_array_equal(a["pred_mesh"], b["pred_mesh"])
            np.testing.assert_array_equal(a["lifted_pose"], b["lifted_pose"])

    def test_resaves_byte_identical(self, tmp_path):
        _, _, _, posenet, meshnet = load_models(V2_CHECKPOINT, self.CFG)
        out = tmp_path / "resaved.ckpt"
        save_models(out, self.CFG, posenet=posenet, meshnet=meshnet)
        assert out.read_bytes() == V2_CHECKPOINT.read_bytes()

    def test_restored_parameters_are_the_loaded_arrays(self, monkeypatch):
        """Each parameter and running estimate is the array the file was
        read into: no second copy, and training can update it in place."""
        loaded = []

        def spy(path):
            loaded.append(load_checkpoint(path))
            return loaded[-1]

        monkeypatch.setattr(train, "load_checkpoint", spy)
        _, _, _, posenet, meshnet = load_models(V2_CHECKPOINT, self.CFG)
        tensors = loaded[0][1]
        state = {**train.collect_state(posenet, "posenet"),
                 **train.collect_state(meshnet, "meshnet")}
        assert state.keys() == tensors.keys()
        for name, arr in state.items():
            assert arr is tensors[name], name
            assert arr.flags.writeable and arr.flags.c_contiguous, name

    def edit_hierarchy(self, tmp_path, edit):
        """The v2 fixture with edit(record) applied to its hierarchy."""
        manifest, payload = split_checkpoint(V2_CHECKPOINT)
        edit(manifest["hierarchy"])
        mbytes = json.dumps(manifest).encode("utf-8")
        p = tmp_path / "edited.ckpt"
        p.write_bytes(b"P2M1" + len(mbytes).to_bytes(4, "little") + mbytes + payload)
        return p

    @pytest.mark.parametrize("edit, match", [
        (lambda r: r.pop("pose_lambda_max"), "hierarchy must be an object with keys"),
        (lambda r: r.update(extra=1), "hierarchy must be an object with keys"),
        (lambda r: r.update(raw_parents={}),
         "hierarchy raw_parents and lambda_max must be lists"),
        (lambda r: r["raw_parents"].append(r["raw_parents"][-1]),
         "hierarchy has 3 levels and 3 lambda_max entries, the model 2 and 3"),
        (lambda r: r["lambda_max"].pop(), "hierarchy has 2 levels and 2 lambda_max"),
        (set_parents(0, lambda ids: ids[:-1]),
         "hierarchy raw_parents[0]: expected 66 parent ids, one per vertex of level 0"),
        (set_parents(1, lambda ids: ids + [0]),
         "hierarchy raw_parents[1]: expected 35 parent ids"),
        (set_parents(0, lambda ids: [-1] + ids[1:]),
         "hierarchy raw_parents[0]: parent ids must be integers in 0..65"),
        (set_parents(1, lambda ids: ids[:-1] + [35]),
         "hierarchy raw_parents[1]: parent ids must be integers in 0..34"),
        (set_parents(0, lambda ids: [1.0] + ids[1:]), "parent ids must be integers"),
        (set_parents(0, lambda ids: [True] + ids[1:]), "parent ids must be integers"),
        (set_parents(0, unused_id), "hierarchy raw_parents[0]: cluster 0 has 0 "
                                    "children, not 1 or 2"),
        (set_parents(0, lambda ids: [0] * len(ids)),
         "hierarchy raw_parents[0]: cluster 0 has 66 children, not 1 or 2"),
        (set_item("lambda_max", 1, {"value": float("nan"), "converged": False}),
         "hierarchy lambda_max[1]: value must be a number in (1e-09, 2], got nan"),
        (set_item("lambda_max", 0, {"value": float("inf"), "converged": False}),
         "got inf"),
        (set_item("lambda_max", 2, {"value": 2.5, "converged": False}), "got 2.5"),
        (set_item("lambda_max", 2, {"value": 0.0, "converged": True}), "got 0.0"),
        (set_item("lambda_max", 2, {"value": -1.0, "converged": True}), "got -1.0"),
        (set_item("lambda_max", 2, {"value": 1e-300, "converged": True}), "got 1e-300"),
        (set_item("lambda_max", 2, {"value": "1.5", "converged": True}), "got '1.5'"),
        (set_item("lambda_max", 2, {"value": True, "converged": True}), "got True"),
        (set_item("lambda_max", 0, {"value": 1.5}),
         "hierarchy lambda_max[0]: expected an object with keys converged and value"),
        (set_item("lambda_max", 0, 1.5), "expected an object"),
        (set_item("lambda_max", 0, {"value": 1.5, "converged": 1}),
         "hierarchy lambda_max[0]: converged must be true or false, got 1"),
        (lambda r: r.update(pose_lambda_max={"value": 1.5, "converged": None}),
         "hierarchy pose_lambda_max: converged must be true or false, got None"),
    ])
    def test_malformed_hierarchy_rejected_before_any_network(self, tmp_path,
                                                             monkeypatch, edit, match):
        p = self.edit_hierarchy(tmp_path, edit)

        def no_build(*args):
            raise AssertionError("a network was built")

        monkeypatch.setattr(train, "build_models", no_build)
        with pytest.raises(ValueError, match=f"^{re.escape(f'checkpoint {p}: ')}"
                                             f".*{re.escape(match)}"):
            load_models(p, self.CFG)

    def test_valid_edits_load(self, tmp_path):
        """The bounds are inclusive at 2, and a converged flag that
        contradicts its value still loads: the flag is only type-checked,
        the operator derives its own from lambda_max, and a resave writes
        the derived one."""
        def edit(record):
            record["lambda_max"][0] = {"value": 2, "converged": True}
            record["pose_lambda_max"] = {"value": 1.5, "converged": False}
        _, hierarchy, _, posenet, meshnet = load_models(
            self.edit_hierarchy(tmp_path, edit), self.CFG)
        fine = hierarchy.scaled_laplacians[0]
        assert (fine.lambda_max, fine.converged) == (2.0, False)
        assert (meshnet.pose_lap.lambda_max, meshnet.pose_lap.converged) == (1.5, True)
        out = tmp_path / "resaved.ckpt"
        save_models(out, self.CFG, posenet=posenet, meshnet=meshnet)
        record = load_checkpoint(out)[2]
        assert record["lambda_max"][0] == {"value": 2.0, "converged": False}
        assert record["pose_lambda_max"] == {"value": 1.5, "converged": True}

    @pytest.fixture(scope="class")
    def hierarchy_span(self):
        raw = V2_CHECKPOINT.read_bytes()
        mlen = int.from_bytes(raw[4:8], "little")
        return raw.index(b'"hierarchy"'), 8 + mlen

    @PROPERTY
    @given(data=st.data())
    def test_any_truncation_loads_or_names_file(self, tmp_path_factory, data):
        raw = V2_CHECKPOINT.read_bytes()
        cut = data.draw(st.integers(0, len(raw)), label="cut")
        p = tmp_path_factory.mktemp("ckpt") / "c.ckpt"
        p.write_bytes(raw[:cut])
        loads_or_names(lambda path: load_models(path, self.CFG), p, f"checkpoint {p}: ")

    @PROPERTY
    @given(data=st.data(), value=st.integers(0, 255))
    def test_any_hierarchy_byte_change_loads_or_names_file(self, tmp_path_factory,
                                                           hierarchy_span, data, value):
        raw = bytearray(V2_CHECKPOINT.read_bytes())
        start, end = hierarchy_span
        at = data.draw(st.integers(start, end - 1), label="at")
        raw[at] = value
        p = tmp_path_factory.mktemp("ckpt") / "c.ckpt"
        p.write_bytes(bytes(raw))
        loads_or_names(lambda path: load_models(path, self.CFG), p, f"checkpoint {p}: ")
