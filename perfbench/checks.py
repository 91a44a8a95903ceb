"""Output checks, run outside the timed windows.

The evaluation metrics are recomputed here with the benchmark's own
similarity alignment and nearest-neighbour search, not with
``meshlift.metrics``, so a fault shared by the metric code and its
caller cannot hide. Every check returns a list of problems; an empty
list means the outputs are correct.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

REL_TOL = 1e-6
# float64 einsum and matmul may sum in different orders
JOINT_REL_TOL = 1e-12


def _rel_close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-9)


def similarity_align(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Least-squares similarity transform of every pred[i] onto gt[i].

    Umeyama's closed form, batched over samples: R = U diag(1, 1, s) V^T
    from the SVD of the (gt, pred) cross-covariance, reflections excluded.
    """
    mp = pred.mean(axis=1, keepdims=True)
    mg = gt.mean(axis=1, keepdims=True)
    p, g = pred - mp, gt - mg
    cov = np.einsum("npi,npj->nij", g, p)
    u, d, vt = np.linalg.svd(cov)
    sign = np.sign(np.linalg.det(u @ vt))
    fix = np.ones_like(d)
    fix[:, 2] = sign
    rot = u @ (fix[:, :, None] * vt)
    scale = (d * fix).sum(axis=1) / (p * p).sum(axis=(1, 2))
    return scale[:, None, None] * np.einsum("nij,npj->npi", rot, p) + mg


def nearest_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from every row of ``a`` to its nearest row of ``b``."""
    best = np.full(len(a), np.inf)
    for start in range(0, len(b), 256):
        chunk = b[start:start + 256]
        d2 = sum((a[:, None, c] - chunk[None, :, c]) ** 2 for c in range(3))
        best = np.minimum(best, d2.min(axis=1))
    return np.sqrt(best)


def recompute_metrics(pred: dict, root_index: int, root_row: np.ndarray,
                      taus) -> dict:
    """MPJPE, PA-MPJPE, MPVPE and F-score@tau from predictions."""
    pj, gj = pred["pred_joints"], pred["gt_joints"]
    pm, gm = pred["pred_mesh"], pred["gt_mesh"]
    rel_p = pj - pj[:, root_index:root_index + 1]
    rel_g = gj - gj[:, root_index:root_index + 1]
    aligned_j = similarity_align(pj, gj)
    root_p = np.einsum("v,nvc->nc", root_row, pm)[:, None]
    root_g = np.einsum("v,nvc->nc", root_row, gm)[:, None]
    aligned_m = similarity_align(pm, gm)
    f_at = {}
    for tau in taus:
        scores = []
        for a, b in zip(aligned_m, gm):
            precision = float(np.mean(nearest_distances(a, b) <= tau))
            recall = float(np.mean(nearest_distances(b, a) <= tau))
            total = precision + recall
            scores.append(0.0 if total == 0 else 2 * precision * recall / total)
        f_at[str(float(tau))] = float(np.mean(scores))
    return {
        "mpjpe_mm": float(np.sqrt(((rel_p - rel_g) ** 2).sum(-1)).mean()),
        "pa_mpjpe_mm": float(np.sqrt(((aligned_j - gj) ** 2).sum(-1)).mean()),
        "mpvpe_mm": float(np.sqrt((((pm - root_p) - (gm - root_g)) ** 2)
                                  .sum(-1)).mean()),
        "f_at": f_at,
    }


def check_eval_report(report: dict, pred: dict, root_index: int,
                      root_row: np.ndarray, taus) -> list[str]:
    """run_evaluation's report against the benchmark's own recomputation."""
    problems = []
    mine = recompute_metrics(pred, root_index, root_row, taus)
    for key in ("mpjpe_mm", "pa_mpjpe_mm", "mpvpe_mm"):
        if not _rel_close(report[key], mine[key]):
            problems.append(f"{key}: reported {report[key]!r}, "
                            f"recomputed {mine[key]!r}")
    if set(report["f_at"]) != set(mine["f_at"]):
        problems.append(f"f_at taus {sorted(report['f_at'])} != {sorted(mine['f_at'])}")
    else:
        for tau, want in mine["f_at"].items():
            if not _rel_close(report["f_at"][tau], want):
                problems.append(f"f_at[{tau}]: reported {report['f_at'][tau]!r}, "
                                f"recomputed {want!r}")
    if not report["pa_mpjpe_mm"] <= report["mpjpe_mm"]:
        problems.append("pa_mpjpe_mm exceeds mpjpe_mm")
    fs = [report["f_at"][t] for t in sorted(report["f_at"], key=float)]
    if any(not 0.0 <= f <= 1.0 for f in fs):
        problems.append(f"F-score outside [0, 1]: {fs}")
    if any(b < a for a, b in zip(fs, fs[1:])):
        problems.append(f"F-score decreases as tau grows: {fs}")
    return problems


def check_self_scores(gt_joints, gt_mesh, root_index, root_row, taus,
                      program_metrics) -> list[str]:
    """Ground truth scored against itself: 0 mm and F = 1, both in the
    program's metric functions and in the recomputation."""
    problems = []
    m = program_metrics
    prog = {
        "mpjpe_mm": m.mpjpe(gt_joints, gt_joints, root_index=root_index),
        "pa_mpjpe_mm": m.pa_mpjpe(gt_joints, gt_joints),
        "mpvpe_mm": m.mpvpe(gt_mesh, gt_mesh, root_row),
        "f_at": {str(float(t)): m.f_score(gt_mesh, gt_mesh, t) for t in taus},
    }
    same = {"pred_joints": gt_joints, "gt_joints": gt_joints,
            "pred_mesh": gt_mesh, "gt_mesh": gt_mesh}
    mine = recompute_metrics(same, root_index, root_row, taus)
    for who, rep in (("program", prog), ("recomputed", mine)):
        for key in ("mpjpe_mm", "pa_mpjpe_mm", "mpvpe_mm"):
            if abs(rep[key]) > 1e-9:
                problems.append(f"{who} {key} of ground truth vs itself is {rep[key]!r}")
        for tau, f in rep["f_at"].items():
            if f != 1.0:
                problems.append(f"{who} F@{tau} of ground truth vs itself is {f!r}")
    return problems


def check_joints(pred: dict, joint_regressor: np.ndarray) -> list[str]:
    """Predicted joints are the joint regressor applied to the mesh."""
    want = np.matmul(joint_regressor, pred["pred_mesh"])
    got = pred["pred_joints"]
    scale = max(float(np.abs(want).max()), 1.0)
    err = float(np.abs(got - want).max())
    if not err <= JOINT_REL_TOL * scale:
        return [f"pred_joints differ from regressor @ mesh by {err!r} mm"]
    return []


def trace_digest(*traces) -> str:
    """Digest of loss traces; identical runs give identical digests."""
    h = hashlib.sha256()
    for trace in traces:
        for row in trace:
            h.update(repr(sorted(row.items())).encode())
    return h.hexdigest()


def check_traces(stage1: list | None, stage2: list) -> list[str]:
    """Finite losses; stage 1 and stage 2 both make progress."""
    problems = []
    for name, trace in (("stage 1", stage1 or []), ("stage 2", stage2)):
        for row in trace:
            bad = [k for k, v in row.items()
                   if v is not None and not math.isfinite(v)]
            if bad:
                problems.append(f"{name} iteration {row['iter']}: non-finite {bad}")
                break
    if stage1 is not None:
        if len(stage1) < 2 or not stage1[-1]["L_pose"] < stage1[0]["L_pose"]:
            problems.append("stage 1: last epoch's L_pose is not below the first's")
    window = max(1, len(stage2) // 4)
    early = np.mean([r["L_vertex"] for r in stage2[:window]])
    late = np.mean([r["L_vertex"] for r in stage2[-window:]])
    if len(stage2) < 2 * window or not late < early:
        problems.append(f"stage 2: late L_vertex mean {late!r} is not below "
                        f"early mean {early!r}")
    return problems
