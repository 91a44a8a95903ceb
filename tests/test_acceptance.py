"""Shipped-guarantee suite: one test per promise, one verdict line each.

Criteria 6-8 train real desk-scale models and dominate the runtime
(roughly ten minutes); everything else is oracle and identity checks
that finish in seconds. Run with ``pytest tests/test_acceptance.py -v -s``
to see the measured values next to each verdict.
"""

import json
import time

import numpy as np
import pytest

from test_coarsen import check_invariants
from test_graphs import random_graph

from meshlift import graphs as G
from meshlift.checks import run_gradient_suite
from meshlift.cli import main as cli_main
from meshlift.coarsen import graclus_coarsen
from meshlift.config import resolve_config
from meshlift.data import generate_synthetic_dataset
from meshlift.evaluate import posenet_mpjpe, run_evaluation
from meshlift.losses import (LossWeights, compute_mesh_losses, edge_loss,
                             total_mesh_loss)
from meshlift.metrics import f_score, mpjpe, pa_mpjpe
from meshlift.template import TubeBodySpec, build_tube_body, euler_rotation
from meshlift.tensor import Tensor
from meshlift.train import train_full, train_posenet

pytestmark = pytest.mark.acceptance

TRAIN_SEED = 7
TEST_SEED = 7001


def verdict(label, ok, detail):
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def desk_data():
    spec = resolve_config("desk").template
    template, train_set = generate_synthetic_dataset(spec, 64, seed=TRAIN_SEED)
    _, test_set = generate_synthetic_dataset(spec, 32, seed=TEST_SEED)
    return template, train_set, test_set


def _train_desk(cfg, train_set, out):
    t0 = time.time()
    s1 = train_posenet(cfg, train_set, out_dir=out)
    s2 = train_full(cfg, train_set, out / "posenet.ckpt", out_dir=out)
    return {"cfg": cfg, "stage1": s1, "stage2": s2, "seconds": time.time() - t0}


@pytest.fixture(scope="module")
def plain_trained(desk_data, tmp_path_factory):
    """Synthesis off: the memorization run (also the ablation baseline)."""
    _, train_set, _ = desk_data
    cfg = resolve_config("desk", overrides={"synth": {"enabled": False}})
    return _train_desk(cfg, train_set, tmp_path_factory.mktemp("plain"))


@pytest.fixture(scope="module")
def synth_trained(desk_data, tmp_path_factory):
    """Desk defaults, synthesis on: the robustness-trained run."""
    _, train_set, _ = desk_data
    cfg = resolve_config("desk")
    return _train_desk(cfg, train_set, tmp_path_factory.mktemp("synth"))


# ---------------------------------------------------------------- criteria

def test_criterion_1_chebyshev_matches_dense_oracle():
    t0 = time.time()
    small = build_tube_body(TubeBodySpec(verts_per_ring=3, rings_per_bone=2))
    pose_g = G.build_pose_graph(small.num_joints, small.skeleton_edges,
                                small.symmetry_pairs)
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng([101, i])
        if i % 5 == 0:
            g = pose_g  # skeleton topology, 12 vertices
        else:
            n = int(rng.integers(2, 17))
            fakes = int(rng.integers(0, 3)) if n > 4 else 0
            g = random_graph(n, seed=i, p=float(rng.uniform(0.15, 0.7)),
                             fakes=fakes)
        sl = G.scaled_laplacian(g)
        theta = rng.standard_normal(int(rng.integers(1, 7)))
        x = rng.standard_normal(g.num_vertices)
        filt = G.ChebFilter([Tensor(np.full((1, 1), t), dtype=np.float64)
                             for t in theta])
        ours = G.chebyshev_conv(Tensor(x[:, None], dtype=np.float64),
                                sl, filt).data[:, 0]
        ref = G.dense_spectral_oracle(x, sl, theta)
        worst = max(worst, float(np.max(np.abs(ours - ref))))
    dt = time.time() - t0
    verdict("criterion 1 (spectral oracle equivalence)",
            worst < 1e-10 and dt < 5.0,
            f"50 graphs, max abs err {worst:.2e} < 1e-10, {dt:.2f}s < 5s")


def test_criterion_2_gradient_suite():
    t0 = time.time()
    results = run_gradient_suite()
    dt = time.time() - t0
    ok = all(r.passed for r in results) and dt < 120.0
    for r in results:
        tol = 1e-4 if r.name.startswith("model.") else 1e-5
        ok = ok and r.max_rel_err < tol
    worst = max(r.max_rel_err for r in results)
    verdict("criterion 2 (gradient suite)", ok,
            f"{len(results)} checks, worst rel err {worst:.2e}, {dt:.1f}s < 120s")


def test_criterion_3_coarsening_invariants():
    t0 = time.time()
    sizes = []
    for i in range(20):
        rng = np.random.default_rng([303, i])
        spec = TubeBodySpec(verts_per_ring=int(rng.integers(3, 7)),
                            rings_per_bone=int(rng.integers(2, 7)))
        template = build_tube_body(spec)
        assert 50 <= template.num_vertices <= 400
        g = G.build_mesh_graph(template)
        h = graclus_coarsen(g, levels=2 + i % 3, seed=i)
        check_invariants(g, h)
        sizes.append(template.num_vertices)
    dt = time.time() - t0
    verdict("criterion 3 (coarsening invariants)", dt < 10.0,
            f"20 templates of {min(sizes)}-{max(sizes)} vertices, "
            f"levels 2-4, {dt:.2f}s < 10s")


def test_criterion_4_loss_identities():
    spec = resolve_config("desk").template
    template, samples = generate_synthetic_dataset(spec, 4, seed=11)
    gt_mesh = np.stack([s.mesh for s in samples])
    gt_joints = np.stack([s.pose3d for s in samples])

    parts = compute_mesh_losses(Tensor(gt_mesh.copy(), dtype=np.float64),
                                gt_mesh, gt_joints, template.faces,
                                template.joint_regressor)
    # vertex and edge recompute identically and land on exact zero; the
    # joint term regresses through a different matmul path, so "zero"
    # means zero to f64 roundoff
    at_gt_ok = (parts["vertex"].item() == 0.0
                and parts["edge"].item() == 0.0
                and parts["joint"].item() < 1e-12
                and parts["normal"].item() < 1e-9)

    rng = np.random.default_rng(17)
    pred = gt_mesh + rng.standard_normal(gt_mesh.shape) * 5.0
    base = edge_loss(Tensor(pred, dtype=np.float64), gt_mesh,
                     template.faces).item()
    r = euler_rotation(np.array([0.4, -1.1, 2.3]))
    t = np.array([31.0, -8.0, 120.0])
    moved = edge_loss(Tensor(pred @ r.T + t, dtype=np.float64),
                      gt_mesh @ r.T + t, template.faces).item()
    rigid_gap = abs(moved - base)

    ones = {k: Tensor(np.array(1.0), dtype=np.float64)
            for k in ("vertex", "joint", "normal", "edge")}
    gated = total_mesh_loss(ones, LossWeights(), epoch=1).item()
    full = total_mesh_loss(ones, LossWeights(), epoch=7).item()
    totals_ok = (abs(full - 22.1) < 1e-9) and (abs(gated - 2.1) < 1e-9)

    verdict("criterion 4 (loss identities)",
            at_gt_ok and rigid_gap < 1e-9 and totals_ok,
            f"at-GT ok={at_gt_ok}, edge rigid gap {rigid_gap:.2e} < 1e-9, "
            f"unit totals {full:.4f}/{gated:.4f}")


def test_criterion_5_metric_identities():
    rng = np.random.default_rng(23)
    gt = rng.standard_normal((2, 12, 3)) * 100.0
    r = euler_rotation(np.array([0.7, 0.2, -1.4]))
    pred = 1.7 * gt @ r.T + np.array([5.0, -40.0, 13.0])
    under_similarity = pa_mpjpe(pred, gt)

    bound_ok = True
    for i in range(100):
        rr = np.random.default_rng([505, i])
        g = rr.standard_normal((2, 12, 3)) * 100.0
        p = g + rr.standard_normal(g.shape) * rr.uniform(1, 50)
        bound_ok = bound_ok and pa_mpjpe(p, g) <= mpjpe(p, g) + 1e-9

    cloud = rng.standard_normal((1, 40, 3)) * 50.0
    noisy = cloud + rng.standard_normal(cloud.shape) * 10.0
    taus = [1.0, 5.0, 10.0, 25.0, 100.0]
    scores = [f_score(noisy, cloud, tau) for tau in taus]
    f_ok = (f_score(cloud, cloud, 0.5) == 1.0
            and all(a <= b for a, b in zip(scores, scores[1:])))

    verdict("criterion 5 (metric identities)",
            under_similarity < 1e-9 and bound_ok and f_ok,
            f"pa under similarity {under_similarity:.2e} < 1e-9, "
            f"pa<=mpjpe on 100 pairs={bound_ok}, f-score ok={f_ok}")


def test_criterion_6_desk_overfit(desk_data, plain_trained):
    template, train_set, _ = desk_data
    cfg = plain_trained["cfg"]
    assert 150 <= template.num_vertices <= 250
    assert template.num_joints == 12
    assert cfg.model.levels == 3

    s1_mpjpe = posenet_mpjpe(plain_trained["stage1"].posenet, train_set)
    rows = plain_trained["stage2"].trace
    it10 = float(next(r for r in rows if r["iter"] == 10)["L_vertex"])
    final = float(rows[-1]["L_vertex"])
    ratio = final / it10
    report = run_evaluation(cfg, template, plain_trained["stage2"].posenet,
                            plain_trained["stage2"].meshnet, train_set,
                            input_mode="gt2d")
    seconds = plain_trained["seconds"]
    ok = (s1_mpjpe < 10.0 and len(rows) <= 2000 and ratio < 0.05
          and report["mpvpe_mm"] < 15.0 and seconds < 900.0)
    verdict("criterion 6 (desk overfit)", ok,
            f"stage-1 MPJPE {s1_mpjpe:.2f}mm < 10, {len(rows)} iters <= 2000, "
            f"L_vertex {100 * ratio:.2f}% of iter-10 < 5%, "
            f"train MPVPE {report['mpvpe_mm']:.2f}mm < 15, {seconds:.0f}s < 900s")


def test_criterion_7_input_mode_ordering(desk_data, synth_trained):
    template, _, test_set = desk_data
    cfg = synth_trained["cfg"]
    err = {}
    for mode in ("gt3d", "gt2d", "synth"):
        err[mode] = run_evaluation(cfg, template, synth_trained["stage2"].posenet,
                                   synth_trained["stage2"].meshnet, test_set,
                                   input_mode=mode)["mpjpe_mm"]
    ok = err["gt3d"] <= err["gt2d"] <= err["synth"]
    verdict("criterion 7 (upper-bound ordering)", ok,
            f"gt3d {err['gt3d']:.2f} <= gt2d {err['gt2d']:.2f} "
            f"<= synth {err['synth']:.2f} mm")


def test_criterion_8_synthesis_ablation(desk_data, plain_trained, synth_trained):
    template, _, test_set = desk_data
    on = run_evaluation(synth_trained["cfg"], template,
                        synth_trained["stage2"].posenet,
                        synth_trained["stage2"].meshnet, test_set,
                        input_mode="synth")["mpjpe_mm"]
    off = run_evaluation(plain_trained["cfg"], template,
                         plain_trained["stage2"].posenet,
                         plain_trained["stage2"].meshnet, test_set,
                         input_mode="synth")["mpjpe_mm"]
    verdict("criterion 8 (error-synthesis ablation)", on < off,
            f"synthesis-trained {on:.2f} < plain-trained {off:.2f} mm "
            "on corrupted inputs")


def test_criterion_9_determinism(tmp_path, capsys):
    # desk model dimensions, shortened schedule: determinism does not
    # depend on how long the optimizer runs
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "train": {"stage1_epochs": 4, "stage1_decay_epoch": 2,
                  "stage2_epochs": 6, "stage2_decay_epoch": 3}}))
    data = tmp_path / "data"
    pose = tmp_path / "pose"
    assert cli_main(["gen-data", "--config", str(cfg_path), "--seed", "7",
                     "--out", str(data), "--count", "32"]) == 0
    assert cli_main(["train-pose", "--config", str(cfg_path), "--seed", "7",
                     "--dataset", str(data / "dataset.jsonl"),
                     "--out", str(pose)]) == 0
    for run in ("r1", "r2"):
        assert cli_main(["train-full", "--config", str(cfg_path), "--seed", "7",
                         "--dataset", str(data / "dataset.jsonl"),
                         "--checkpoint", str(pose / "posenet.ckpt"),
                         "--out", str(tmp_path / run)]) == 0
    capsys.readouterr()
    ckpt_same = (tmp_path / "r1" / "full.ckpt").read_bytes() == \
        (tmp_path / "r2" / "full.ckpt").read_bytes()
    trace_same = (tmp_path / "r1" / "trace_stage2.csv").read_bytes() == \
        (tmp_path / "r2" / "trace_stage2.csv").read_bytes()
    verdict("criterion 9 (determinism)", ckpt_same and trace_same,
            f"repeated train-full --seed 7: checkpoint identical={ckpt_same}, "
            f"trace identical={trace_same}")
