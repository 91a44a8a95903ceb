"""Self-test of the benchmark at a minimal run length (about 2 minutes).

    python3 -m pytest perfbench -q

Every workload runs to its end with its output checks passing, the traced
run covers the training step, and the independent metric recomputation
rejects a deliberately perturbed report, so the checks can fail.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from meshlift import evaluate, metrics, train  # noqa: E402
from meshlift.data import generate_synthetic_dataset  # noqa: E402
from meshlift.template import ROOT_INDEX  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_runs_with_checks_passing(workload):
    result = _result(workload, 0)
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["desk-train", "dense-mesh-train"])
def test_traced_run_covers_the_training_step(workload):
    result = _result(workload, 1)
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert values["train.step_coverage_pct"] >= 90.0
    assert values["tensor.tape_entries"] > 0
    assert values["graphs.cheb_conv_ms.l0"] > 0 and values["graphs.lap_madds"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("desk-train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def evaluated():
    spec = workloads.SPECS["eval"]
    cfg = workloads.make_config(spec)
    _, samples = generate_synthetic_dataset(cfg.template, 8, seed=5)
    template, _, _, posenet, meshnet = train.build_models(cfg)
    report = evaluate.run_evaluation(cfg, template, posenet, meshnet, samples,
                                     input_mode="gt2d")
    pred = evaluate.predict(cfg, template, posenet, meshnet, samples, "gt2d")
    return report, pred, template.joint_regressor, cfg.eval.taus


def test_recomputation_matches_run_evaluation(evaluated):
    report, pred, regressor, taus = evaluated
    root_row = regressor[ROOT_INDEX]
    assert checks.check_eval_report(report, pred, ROOT_INDEX, root_row, taus) == []
    assert checks.check_self_scores(pred["gt_joints"], pred["gt_mesh"], ROOT_INDEX,
                                    root_row, taus, metrics) == []


@pytest.mark.parametrize("key", ["mpjpe_mm", "pa_mpjpe_mm", "mpvpe_mm", "f_at"])
def test_recomputation_rejects_a_perturbed_report(evaluated, key):
    report, pred, regressor, taus = evaluated
    bad = copy.deepcopy(report)
    if key == "f_at":
        tau = max(bad["f_at"], key=lambda t: bad["f_at"][t])
        bad["f_at"][tau] = bad["f_at"][tau] * (1 - 1e-5)
    else:
        bad[key] *= 1 + 1e-5
    assert checks.check_eval_report(bad, pred, ROOT_INDEX, regressor[ROOT_INDEX],
                                    taus)


def test_joint_check_rejects_a_moved_joint(evaluated):
    _, pred, regressor, _ = evaluated
    bad = dict(pred, pred_joints=pred["pred_joints"].copy())
    bad["pred_joints"][0, 0, 0] += 1e-3
    assert checks.check_joints(pred, regressor) == []
    assert checks.check_joints(bad, regressor)


def test_trace_checks_reject_bad_traces():
    good1 = [{"iter": 2 * e, "L_pose": 100.0 - e} for e in range(1, 5)]
    good2 = [{"iter": i, "L_vertex": 50.0 - i, "L_pose": None} for i in range(1, 9)]
    assert checks.check_traces(good1, good2) == []
    assert checks.check_traces(good1[::-1], good2)
    assert checks.check_traces(good1, good2[::-1])
    nan = copy.deepcopy(good2)
    nan[3]["L_vertex"] = float("nan")
    assert checks.check_traces(good1, nan)
    assert checks.trace_digest(good1, good2) != checks.trace_digest(good1, nan)
