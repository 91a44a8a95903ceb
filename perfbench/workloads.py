"""The three benchmark workloads.

Each workload prepares its inputs from ``--seed`` (untimed), then runs
whole rounds of timed set-ups and public meshlift calls until
``--seconds`` have passed, and checks the outputs outside the timed
windows. A training round runs in a fresh process, as a user's training
run does: with the tape's reference cycle (see CHANGES.md), time and
memory of a training call depend on how much garbage earlier calls in
the same process left behind. Evaluation builds no tape, so its rounds
share one process.

The config seed is fixed at 7 for every run: it also seeds the
coarsening, so it fixes the hierarchy (208 level-0 slots on the desk
body, 1944 on the dense one) and with it the amount of work. Only the
data depends on ``--seed``.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from meshlift import data, evaluate, io, metrics, train
from meshlift.config import resolve_config
from meshlift.template import ROOT_INDEX

import checks

CONFIG_SEED = 7
HELDOUT_SEED_OFFSET = 1 << 20
EVAL_MODES = ("gt2d", "gt3d", "synth")
EVAL_TAUS = (5.0, 15.0)


@dataclass(frozen=True)
class Spec:
    ring: int               # verts_per_ring = rings_per_bone
    batch: int
    samples: int
    stage1_epochs: int      # 0: no train_posenet in a round
    stage2_iterations: int
    setups: int


SPECS = {
    "desk-train": Spec(ring=4, batch=32, samples=64, stage1_epochs=10,
                       stage2_iterations=20, setups=3),
    "dense-mesh-train": Spec(ring=12, batch=8, samples=32, stage1_epochs=0,
                             stage2_iterations=8, setups=1),
    # evaluates a checkpoint trained by the desk-train recipe
    "eval": Spec(ring=4, batch=32, samples=64, stage1_epochs=0,
                 stage2_iterations=0, setups=1),
}
RUN_PY = Path(__file__).with_name("run.py")


def make_config(spec: Spec, stage1_epochs: int = 2):
    """The desk profile at the workload's body and batch size. Only
    train_posenet reads the stage-1 epochs; the config needs valid ones."""
    return resolve_config("desk", overrides={
        "seed": CONFIG_SEED,
        "template": {"verts_per_ring": spec.ring, "rings_per_bone": spec.ring},
        "train": {"batch_size": spec.batch, "stage1_epochs": stage1_epochs,
                  "stage1_decay_epoch": stage1_epochs // 2},
        "eval": {"taus": list(EVAL_TAUS)},
    })


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict            # end-to-end {name: value}
    info: dict               # printed, not compared
    problems: list
    steps: int               # steps of the main loop, for the trace report
    step_phase: str
    rounds: int


class _Phase:
    def __init__(self, tracer):
        self.tracer = tracer

    def __call__(self, name):
        if self.tracer is not None:
            self.tracer.phase = name


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setups(n: int, setup):
    times, out = [], None
    for _ in range(n):
        out = None  # drop the previous set-up before timing the next
        t0 = time.perf_counter()
        out = setup()
        times.append(time.perf_counter() - t0)
    return times, out


def _rounds(seconds: float, run_round, ops_per_round: int):
    """Whole rounds until ``seconds`` have passed; returns (results, failed)."""
    results, failed = [], 0
    deadline = time.perf_counter() + seconds
    while not (results or failed) or time.perf_counter() < deadline:
        try:
            results.append(run_round())
        except Exception:  # counted and reported; the run goes on
            traceback.print_exc(file=sys.stderr)
            failed += ops_per_round
    return results, failed


def _child(task: dict, workload: str, seed: int, traced: bool) -> dict:
    """Run ``task`` in a fresh process; returns its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
         "--trace", str(int(traced)), "--child", json.dumps(task)],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{task['task']} child exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


# ------------------------------------------------------------------ training

def write_desk_checkpoint(seed: int, out_dir: Path) -> dict:
    """Train by the desk-train recipe; the train_full checkpoint ends up
    in out_dir/full/full.ckpt."""
    spec = SPECS["desk-train"]
    cfg = make_config(spec, spec.stage1_epochs)
    _, samples = data.generate_synthetic_dataset(cfg.template, spec.samples, seed=seed)
    r1 = train.train_posenet(cfg, samples, out_dir=out_dir / "pose")
    train.train_full(cfg, samples, r1.checkpoint_path, out_dir=out_dir / "full",
                     max_iterations=spec.stage2_iterations)
    return {}


def training_round(name: str, work: Path, check_checkpoint: bool, tracer) -> dict:
    """One round, in a fresh process as a user's training run would be:
    set-ups, then the timed training calls, then the output checks."""
    spec = SPECS[name]
    phase = _Phase(tracer)
    cfg = make_config(spec, spec.stage1_epochs or 2)
    dataset = work / "train.jsonl"
    phase("setup")
    setup_times, ready = _timed_setups(
        spec.setups, lambda: (io.load_dataset(dataset), train.build_models(cfg)))
    samples, template = ready[0], ready[1][0]
    del ready

    t0 = time.perf_counter()
    trace1, ckpt = None, work / "lifter" / "posenet.ckpt"
    if spec.stage1_epochs:
        phase("stage1")
        r1 = train.train_posenet(cfg, samples, out_dir=work / "pose")
        trace1, ckpt = r1.trace, r1.checkpoint_path
        del r1
    t1 = time.perf_counter()
    phase("stage2")
    r2 = train.train_full(cfg, samples, ckpt, out_dir=work / "full",
                          max_iterations=spec.stage2_iterations)
    t2 = time.perf_counter()
    phase("check")

    problems = checks.check_traces(trace1, r2.trace)
    if len(r2.trace) != spec.stage2_iterations:
        problems.append(f"train_full ran {len(r2.trace)} iterations, "
                        f"expected {spec.stage2_iterations}")
    if check_checkpoint:
        problems += _check_checkpoint(cfg, template, samples[:spec.batch], r2)
    return {"setup_s": setup_times, "stage1_s": t1 - t0, "stage2_s": t2 - t1,
            "digest": checks.trace_digest(trace1 or [], r2.trace),
            "problems": problems, "peak_rss_mb": _peak_rss_mb(),
            "trace": tracer.dump() if tracer is not None else None}


def run_training(name: str, seed: int, seconds: float, work: Path,
                 tracer) -> Result:
    spec = SPECS[name]
    cfg = make_config(spec)
    _, generated = data.generate_synthetic_dataset(cfg.template, spec.samples,
                                                   seed=seed)
    io.save_dataset(generated, work / "train.jsonl")
    if not spec.stage1_epochs:
        # the lifter checkpoint that train_full starts from (2 epochs)
        train.train_posenet(cfg, generated, out_dir=work / "lifter")
    del generated

    stage1_steps = spec.stage1_epochs * -(-spec.samples // spec.batch)
    ops_per_round = spec.setups + stage1_steps + spec.stage2_iterations

    def run_round():
        task = {"task": "round", "work": str(work), "check_checkpoint": not started}
        started.append(True)
        return _child(task, name, seed, tracer is not None)

    started = []
    rounds, failed = _rounds(seconds, run_round, ops_per_round)
    s1 = spec.stage1_epochs * spec.samples
    s2 = spec.stage2_iterations * spec.batch
    problems = [p for r in rounds for p in r["problems"]]
    digests = {r["digest"] for r in rounds}
    if len(digests) > 1:
        problems.append(f"loss traces differ between identical rounds: {sorted(digests)}")
    for r in rounds:
        if tracer is not None:
            tracer.merge(r["trace"])
    metrics_out, info = {}, {"rounds": len(rounds),
                             "trace_digest": min(digests, default="")}
    if rounds:
        rates = [(s1 + s2) / (r["stage1_s"] + r["stage2_s"]) for r in rounds]
        metrics_out = {
            "samples_per_s": statistics.median(rates),
            "setup_s": statistics.median(t for r in rounds for t in r["setup_s"]),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        }
        info["round_samples_per_s"] = [round(x, 4) for x in rates]
        if s1:
            info["stage1_samples_per_s"] = statistics.median(
                s1 / r["stage1_s"] for r in rounds)
        info["stage2_samples_per_s"] = statistics.median(
            s2 / r["stage2_s"] for r in rounds)
    return Result(correct=not problems,
                  attempted=ops_per_round * len(rounds) + failed,
                  failed=failed, metrics=metrics_out, info=info,
                  problems=problems,
                  steps=spec.stage2_iterations * len(rounds),
                  step_phase="stage2", rounds=len(rounds))


def _check_checkpoint(cfg, template, batch_samples, result) -> list[str]:
    """The saved checkpoint reloads to bit-identical eval-mode outputs."""
    _, _, _, posenet, meshnet = train.load_models(result.checkpoint_path, cfg)
    if posenet is None or meshnet is None:
        return ["train_full checkpoint lacks lifter or mesh weights"]
    live = evaluate.predict(cfg, template, result.posenet, result.meshnet,
                            batch_samples, "gt2d")
    back = evaluate.predict(cfg, template, posenet, meshnet, batch_samples, "gt2d")
    problems = checks.check_joints(live, template.joint_regressor)
    if not np.array_equal(live["pred_mesh"], back["pred_mesh"]):
        diff = float(np.abs(live["pred_mesh"] - back["pred_mesh"]).max())
        problems.append(f"reloaded checkpoint changes the mesh output by {diff!r} mm")
    return problems


# ---------------------------------------------------------------- evaluation

def run_eval(seed: int, seconds: float, work: Path, tracer) -> Result:
    spec = SPECS["eval"]
    phase = _Phase(tracer)
    cfg = make_config(spec)
    # training happens in a child process so that this process's peak RSS
    # is the evaluation's own
    _child({"task": "desk-checkpoint", "work": str(work / "trained")}, "eval",
           seed, False)
    ckpt = work / "trained" / "full" / "full.ckpt"
    _, heldout = data.generate_synthetic_dataset(
        cfg.template, spec.samples, seed=seed + HELDOUT_SEED_OFFSET)
    dataset = work / "heldout.jsonl"
    io.save_dataset(heldout, dataset)
    del heldout

    last = {}

    def run_round():
        # a set-up per round, so set-ups sample the whole run like the
        # evaluations do
        last.clear()
        phase("setup")
        setup_times, ready = _timed_setups(spec.setups, lambda: (
            io.load_dataset(dataset), train.load_models(ckpt, cfg)))
        last["ready"] = ready
        samples, (template, _, _, posenet, meshnet) = ready
        phase("eval")
        t0 = time.perf_counter()
        reports = [evaluate.run_evaluation(cfg, template, posenet, meshnet,
                                           samples, input_mode=mode)
                   for mode in EVAL_MODES]
        dt = time.perf_counter() - t0
        phase("check")
        return reports, dt, setup_times

    n_eval = len(EVAL_MODES) * spec.samples
    ops_per_round = spec.setups + n_eval
    results, failed = _rounds(seconds, run_round, ops_per_round)
    phase("check")
    problems = []
    if results:
        samples, (template, _, _, posenet, meshnet) = last["ready"]
        first = results[0][0]
        if any(reports != first for reports, _, _ in results):
            problems.append("evaluation reports differ between identical rounds")
        root_row = template.joint_regressor[ROOT_INDEX]
        for mode, report in zip(EVAL_MODES, first):
            pred = evaluate.predict(cfg, template, posenet, meshnet, samples, mode)
            found = (checks.check_eval_report(report, pred, ROOT_INDEX, root_row,
                                              cfg.eval.taus)
                     + checks.check_joints(pred, template.joint_regressor))
            problems += [f"{mode}: {p}" for p in found]
        problems += checks.check_self_scores(
            pred["gt_joints"], pred["gt_mesh"], ROOT_INDEX, root_row,
            cfg.eval.taus, metrics)
    rates = [n_eval / dt for _, dt, _ in results]
    metrics_out = {}
    if rates:
        metrics_out = {"samples_per_s": statistics.median(rates),
                       "setup_s": statistics.median(
                           t for _, _, times in results for t in times),
                       "peak_rss_mb": _peak_rss_mb()}
    info = {"rounds": len(results), "round_samples_per_s": [round(r, 1) for r in rates]}
    if results:
        info.update({f"{mode}.{k}": v for mode, rep in zip(EVAL_MODES, results[0][0])
                     for k, v in rep.items()})
    return Result(correct=not problems,
                  attempted=ops_per_round * len(results) + failed,
                  failed=failed, metrics=metrics_out, info=info,
                  problems=problems, steps=len(EVAL_MODES) * len(results),
                  step_phase="eval", rounds=len(results))


def run_child(task: dict, name: str, seed: int, tracer) -> dict:
    """Work done in a child process; the result is printed as JSON."""
    work = Path(task["work"])
    if task["task"] == "desk-checkpoint":
        return write_desk_checkpoint(seed, work)
    return training_round(name, work, task["check_checkpoint"], tracer)


def run(name: str, seed: int, seconds: float, work: Path, tracer) -> Result:
    if name == "eval":
        return run_eval(seed, seconds, work, tracer)
    return run_training(name, seed, seconds, work, tracer)
