"""Batched evaluation: input modes, metric report, report formatting.

Input modes select what feeds the mesh regressor:
  gt2d   clean 2D keypoints through the lifter (upper bound on 2D input)
  gt3d   ground-truth 3D pose bypassing the lifter entirely (upper bound)
  synth  detector-style corrupted 2D keypoints through the lifter
"""

from __future__ import annotations

import numpy as np

from .config import INPUT_MODES, RunConfig
from .data import check_sample_shapes, normalize_2d_pose, synthesize_pose_errors
from .metrics import f_scores, mpjpe, mpvpe, pa_mpjpe
from .template import ROOT_INDEX, MeshTemplate
from .tensor import Tensor

EVAL_SYNTH_STREAM = 3  # rng namespace: [seed, EVAL_SYNTH_STREAM, sample index]


def _normalized_inputs(samples, input_mode: str, synth_cfg, symmetry_pairs,
                       seed: int) -> np.ndarray:
    p2d = [s.pose2d for s in samples]
    if input_mode == "synth":
        p2d = [synthesize_pose_errors(
                   p, synth_cfg, symmetry_pairs,
                   np.random.default_rng([seed, EVAL_SYNTH_STREAM, i]))
               for i, p in enumerate(p2d)]
    return normalize_2d_pose(np.stack(p2d))[0]


def lift_poses(posenet, x2d_norm: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Eval-mode lifter forward over a whole array, (N, J, 2) -> (N, J, 3)."""
    n, j, _ = x2d_norm.shape
    out = []
    for start in range(0, n, batch_size):
        chunk = x2d_norm[start:start + batch_size]
        x = Tensor(chunk.reshape(len(chunk), 2 * j), dtype=np.float32)
        out.append(posenet.forward(x, training=False).data.transpose(1, 0, 2))
    return np.concatenate(out).astype(np.float64)


def regress_meshes(meshnet, x2d_norm: np.ndarray, p3d: np.ndarray,
                   batch_size: int = 64) -> np.ndarray:
    """Eval-mode mesh forward, (N, J, 2) + (N, J, 3) -> (N, V, 3)."""
    n = x2d_norm.shape[0]
    out = []
    for start in range(0, n, batch_size):
        sl = slice(start, start + batch_size)
        p2d, pose = (Tensor(a[sl].transpose(1, 0, 2), dtype=np.float32)
                     for a in (x2d_norm, p3d))
        pred = meshnet.forward(p2d, pose, training=False)
        out.append(pred.data.transpose(1, 0, 2))
    return np.concatenate(out).astype(np.float64)


def predict(cfg: RunConfig, template: MeshTemplate, posenet, meshnet,
            samples, input_mode: str | None = None) -> dict:
    """Run the pipeline over a dataset; returns predictions and targets."""
    input_mode = input_mode or cfg.eval.input
    if input_mode not in INPUT_MODES:
        raise ValueError(f"unknown input mode {input_mode!r}")
    x2d = _normalized_inputs(samples, input_mode, cfg.synth,
                             template.symmetry_pairs, cfg.seed)
    gt3d = np.stack([s.pose3d for s in samples])
    if input_mode == "gt3d":
        p3d = gt3d
    else:
        if posenet is None:
            raise ValueError(f"input mode {input_mode!r} needs lifter weights")
        p3d = lift_poses(posenet, x2d, cfg.train.batch_size)
    pred_mesh = regress_meshes(meshnet, x2d, p3d, cfg.train.batch_size)
    pred_joints = np.einsum("jv,nvc->njc", template.joint_regressor, pred_mesh)
    out = {"pred_mesh": pred_mesh, "pred_joints": pred_joints,
           "lifted_pose": p3d, "gt_joints": gt3d}
    if all(s.mesh is not None for s in samples):
        out["gt_mesh"] = np.stack([s.mesh for s in samples])
    return out


def run_evaluation(cfg: RunConfig, template: MeshTemplate, posenet, meshnet,
                   samples, input_mode: str | None = None) -> dict:
    """Metric report over a dataset; keys are stable for JSON output."""
    check_sample_shapes(samples, template)
    pred = predict(cfg, template, posenet, meshnet, samples, input_mode)
    mask = list(cfg.eval.joint_mask) if cfg.eval.joint_mask is not None else None
    report = {
        "mpjpe_mm": mpjpe(pred["pred_joints"], pred["gt_joints"],
                          root_index=ROOT_INDEX, joint_mask=mask),
        "pa_mpjpe_mm": pa_mpjpe(pred["pred_joints"], pred["gt_joints"],
                                joint_mask=mask),
    }
    if "gt_mesh" in pred:
        root_row = template.joint_regressor[ROOT_INDEX]
        report["mpvpe_mm"] = mpvpe(pred["pred_mesh"], pred["gt_mesh"], root_row)
        taus = cfg.eval.taus
        scores = f_scores(pred["pred_mesh"], pred["gt_mesh"], taus)
        report["f_at"] = {str(float(tau)): f for tau, f in zip(taus, scores)}
    else:
        report["mpvpe_mm"] = None
        report["f_at"] = {}
    return report


def posenet_mpjpe(posenet, samples, batch_size: int = 64) -> float:
    """Lifter-only MPJPE on clean inputs (the stage-1 training target)."""
    x2d = normalize_2d_pose(np.stack([s.pose2d for s in samples]))[0]
    gt3d = np.stack([s.pose3d for s in samples])
    lifted = lift_poses(posenet, x2d, batch_size)
    return mpjpe(lifted, gt3d, root_index=ROOT_INDEX)


def report_lines(report: dict) -> str:
    """One `key: value` per line, floats at fixed precision."""
    lines = []
    for key in ("mpjpe_mm", "pa_mpjpe_mm", "mpvpe_mm"):
        v = report.get(key)
        lines.append(f"{key}: {'n/a' if v is None else f'{v:.4f}'}")
    for tau, v in sorted(report.get("f_at", {}).items(), key=lambda kv: float(kv[0])):
        lines.append(f"f_at[{tau}]: {v:.4f}")
    return "\n".join(lines) + "\n"
