"""Input modes, report structure, and determinism of evaluation."""

from dataclasses import replace

import numpy as np
import pytest

from meshlift.config import resolve_config
from meshlift.data import generate_synthetic_dataset
from meshlift.evaluate import (posenet_mpjpe, predict, report_lines,
                               run_evaluation)
from meshlift.metrics import align_batch
from meshlift.template import ROOT_INDEX
from meshlift.train import build_models

TINY = {
    "template": {"verts_per_ring": 3, "rings_per_bone": 2},
    "model": {"hidden": 32, "pose_width": 8, "level_widths": [8, 8, 4],
              "levels": 2},
    "train": {"batch_size": 4, "stage1_epochs": 6, "stage1_decay_epoch": 3,
              "stage2_epochs": 4, "stage2_decay_epoch": 2},
    "eval": {"taus": [5.0, 15.0]},
}


@pytest.fixture(scope="module")
def setup():
    cfg = resolve_config("desk", TINY)
    template, samples = generate_synthetic_dataset(cfg.template, 6, seed=3)
    _, _, _, posenet, meshnet = build_models(cfg)
    return cfg, template, samples, posenet, meshnet


def drop_last_vertex(samples, index):
    """A copy of samples with one vertex cut from every mesh from index on."""
    return [replace(s, mesh=s.mesh[:-1]) if i >= index else s
            for i, s in enumerate(samples)]


class TestSampleShapes:
    def test_run_evaluation_names_sample_and_counts(self, setup):
        cfg, template, samples, posenet, meshnet = setup
        bad = drop_last_vertex(samples, 2)
        v = template.num_vertices
        with pytest.raises(ValueError, match=f"sample 2: mesh has {v - 1} "
                                             f"vertices but the template has {v}"):
            run_evaluation(cfg, template, posenet, meshnet, bad)

    def test_joint_count(self, setup):
        cfg, template, samples, posenet, meshnet = setup
        bad = [replace(s, pose3d=s.pose3d[:-1]) for s in samples]
        j = template.num_joints
        with pytest.raises(ValueError, match=f"sample 0: pose3d has {j - 1} "
                                             f"joints but the template has {j}"):
            run_evaluation(cfg, template, posenet, meshnet, bad)


class TestPredict:
    def test_shapes(self, setup):
        cfg, template, samples, posenet, meshnet = setup
        out = predict(cfg, template, posenet, meshnet, samples)
        n, v, j = len(samples), template.num_vertices, template.num_joints
        assert out["pred_mesh"].shape == (n, v, 3)
        assert out["pred_joints"].shape == (n, j, 3)
        assert out["gt_mesh"].shape == (n, v, 3)

    def test_gt3d_bypasses_lifter(self, setup):
        cfg, template, samples, posenet, meshnet = setup
        out = predict(cfg, template, None, meshnet, samples, input_mode="gt3d")
        gt3d = np.stack([s.pose3d for s in samples])
        np.testing.assert_array_equal(out["lifted_pose"], gt3d)

    def test_gt2d_requires_lifter(self, setup):
        cfg, template, samples, _, meshnet = setup
        with pytest.raises(ValueError, match="lifter"):
            predict(cfg, template, None, meshnet, samples, input_mode="gt2d")

    def test_synth_mode_differs_and_is_deterministic(self, setup):
        cfg, template, samples, posenet, meshnet = setup
        clean = predict(cfg, template, posenet, meshnet, samples, "gt2d")
        noisy1 = predict(cfg, template, posenet, meshnet, samples, "synth")
        noisy2 = predict(cfg, template, posenet, meshnet, samples, "synth")
        assert not np.array_equal(clean["pred_mesh"], noisy1["pred_mesh"])
        np.testing.assert_array_equal(noisy1["pred_mesh"], noisy2["pred_mesh"])

    def test_unknown_mode(self, setup):
        cfg, template, samples, posenet, meshnet = setup
        with pytest.raises(ValueError, match="input mode"):
            predict(cfg, template, posenet, meshnet, samples, "magic")

    def test_batch_size_does_not_change_results(self, setup):
        cfg, template, samples, posenet, meshnet = setup
        small = resolve_config("desk", {**TINY, "train": {**TINY["train"],
                                                          "batch_size": 2}})
        a = predict(cfg, template, posenet, meshnet, samples)
        b = predict(small, template, posenet, meshnet, samples)
        # BLAS accumulation order varies with the number of rows a batch
        # puts through each product, so agreement is only to f32 roundoff,
        # not bit-exact
        np.testing.assert_allclose(a["pred_mesh"], b["pred_mesh"],
                                   rtol=1e-5, atol=1e-4)


class TestReport:
    def test_keys_and_values(self, setup):
        cfg, template, samples, posenet, meshnet = setup
        report = run_evaluation(cfg, template, posenet, meshnet, samples)
        assert set(report) == {"mpjpe_mm", "pa_mpjpe_mm", "mpvpe_mm", "f_at"}
        assert set(report["f_at"]) == {"5.0", "15.0"}
        assert all(np.isfinite(v) for v in
                   (report["mpjpe_mm"], report["pa_mpjpe_mm"],
                    report["mpvpe_mm"]))
        assert all(0.0 <= v <= 1.0 for v in report["f_at"].values())

    def test_no_mesh_dataset_gets_partial_report(self, setup):
        cfg, template, samples, posenet, meshnet = setup
        import copy
        stripped = copy.deepcopy(samples)
        for s in stripped:
            s.mesh = None
        report = run_evaluation(cfg, template, posenet, meshnet, stripped)
        assert report["mpvpe_mm"] is None and report["f_at"] == {}
        assert np.isfinite(report["mpjpe_mm"])

    def test_joint_mask_changes_value(self, setup):
        cfg, template, samples, posenet, meshnet = setup
        import copy
        masked = copy.deepcopy(cfg)
        masked.eval.joint_mask = (1, 2, 3)
        full = run_evaluation(cfg, template, posenet, meshnet, samples)
        sub = run_evaluation(masked, template, posenet, meshnet, samples)
        assert full["mpjpe_mm"] != sub["mpjpe_mm"]

    def test_valid_joint_mask_scores_exactly_its_joints(self, setup):
        """A mask that passes validation scores the joints it names, once
        each, in the expressions of the metrics; the mesh metrics ignore it."""
        cfg, template, samples, posenet, meshnet = setup
        mask = [11, 0, 4]
        masked = resolve_config("desk", {**TINY, "eval": {**TINY["eval"],
                                                          "joint_mask": mask}})
        report = run_evaluation(masked, template, posenet, meshnet, samples)
        full = run_evaluation(cfg, template, posenet, meshnet, samples)
        pred = predict(cfg, template, posenet, meshnet, samples)
        p, g = pred["pred_joints"], pred["gt_joints"]
        rel_p, rel_g = (a - a[:, ROOT_INDEX:ROOT_INDEX + 1] for a in (p, g))
        assert report["mpjpe_mm"] == float(
            np.linalg.norm(rel_p[:, mask] - rel_g[:, mask], axis=2).mean())
        assert report["pa_mpjpe_mm"] == float(
            np.linalg.norm(align_batch(p, g)[:, mask] - g[:, mask], axis=2).mean())
        assert (report["mpvpe_mm"], report["f_at"]) == (full["mpvpe_mm"],
                                                        full["f_at"])

    def test_empty_dataset(self, setup):
        cfg, template, _, posenet, meshnet = setup
        with pytest.raises(ValueError, match="empty"):
            run_evaluation(cfg, template, posenet, meshnet, [])

    def test_report_lines_format(self):
        text = report_lines({"mpjpe_mm": 12.3456789, "pa_mpjpe_mm": 8.0,
                             "mpvpe_mm": None,
                             "f_at": {"15.0": 0.5, "5.0": 0.25}})
        lines = text.splitlines()
        assert lines[0] == "mpjpe_mm: 12.3457"
        assert lines[2] == "mpvpe_mm: n/a"
        assert lines[3] == "f_at[5.0]: 0.2500"  # sorted numerically
        assert lines[4] == "f_at[15.0]: 0.5000"


class TestPosenetMpjpe:
    def test_runs_and_is_deterministic(self, setup):
        _, _, samples, posenet, _ = setup
        a = posenet_mpjpe(posenet, samples)
        b = posenet_mpjpe(posenet, samples)
        assert a == b and np.isfinite(a)
