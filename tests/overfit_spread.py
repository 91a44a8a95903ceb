"""Criterion 6's spread: the desk overfit under one-ulp nudges and other seeds.

Trains the plain run of test_criterion_6_desk_overfit (desk profile,
synthesis off, 64 samples from data seed 7) eight times:

- variant 0, as shipped;
- variants 1-5, each with 1% of the fresh mesh regressor's initial
  values, chosen by default_rng([99, k]), moved one float32 ulp up;
- config seeds 1 and 2, unmodified.

It prints one markdown table row per run: L_vertex at iterations 9, 10
and 11, the final L_vertex, criterion 6's ratio (final over iteration
10), the mean of the last 50 iterations, and the train-set MPVPE under
gt2d input. A run takes about 2.5 min on one core. From the repository
root:

    PYTHONPATH=src:tests python tests/overfit_spread.py
"""

from __future__ import annotations

import contextlib
import tempfile
from pathlib import Path

import numpy as np

from meshlift import train
from meshlift.config import resolve_config
from meshlift.data import generate_synthetic_dataset
from meshlift.evaluate import run_evaluation

DATA_SEED = 7
NUM_SAMPLES = 64
SHARE = 0.01  # of the mesh regressor's parameter values, per variant
VARIANTS = (1, 2, 3, 4, 5)
CONFIG_SEEDS = (1, 2)
HEADER = ("| run | L_vertex at iters 9 / 10 / 11 | final | ratio | last-50 mean "
          "| train MPVPE |\n| --- | --- | --- | --- | --- | --- |")


def plain_config(seed: int | None = None):
    over = {"synth": {"enabled": False}}
    if seed is not None:
        over["seed"] = seed
    return resolve_config("desk", overrides=over)


def nudge_indices(total: int, variant: int) -> np.ndarray:
    """Sorted flat indices, into the concatenated parameter values, that
    variant moves: SHARE of total, drawn from default_rng([99, variant])."""
    rng = np.random.default_rng([99, variant])
    return np.sort(rng.choice(total, round(SHARE * total), replace=False))


def nudge(meshnet, variant: int) -> None:
    """Move variant's share of meshnet's parameter values one float32 ulp
    up, in place, in named_parameters order."""
    arrays = [p.data for _, p in meshnet.named_parameters()]
    flat = np.concatenate([a.reshape(-1) for a in arrays])
    idx = nudge_indices(flat.size, variant)
    flat[idx] = np.nextafter(flat[idx], np.float32(np.inf))
    bounds = np.cumsum([a.size for a in arrays])[:-1]
    for a, values in zip(arrays, np.split(flat, bounds)):
        a[...] = values.reshape(a.shape)


@contextlib.contextmanager
def nudged(variant: int):
    """train._restore_models, with a freshly drawn mesh regressor nudged
    by variant; variant 0 leaves it unchanged."""
    original = train._restore_models

    def wrapper(*args, **kwargs):
        models, restored = original(*args, **kwargs)
        if variant and "meshnet" not in restored:
            nudge(models[4], variant)
        return models, restored

    train._restore_models = wrapper
    try:
        yield
    finally:
        train._restore_models = original


def stage2(cfg, samples, posenet_checkpoint, variant: int = 0, max_iterations=None):
    """train_full from a stage-1 checkpoint, under nudged(variant)."""
    with nudged(variant):
        return train.train_full(cfg, samples, posenet_checkpoint,
                                max_iterations=max_iterations)


def table_row(label: str, cfg, template, samples, result) -> str:
    losses = [float(r["L_vertex"]) for r in result.trace]
    at = {int(r["iter"]): float(r["L_vertex"]) for r in result.trace}
    ratio = losses[-1] / at[10]
    mpvpe = run_evaluation(cfg, template, result.posenet, result.meshnet, samples,
                           input_mode="gt2d")["mpvpe_mm"]
    spikes = " / ".join(f"{at[i]:,.0f}" for i in (9, 10, 11))
    return (f"| {label} | {spikes} | {losses[-1]:,.0f} | {100 * ratio:.2f}% | "
            f"{np.mean(losses[-50:]):,.0f} | {mpvpe:.2f} mm |")


def main() -> None:
    template, samples = generate_synthetic_dataset(plain_config().template,
                                                   NUM_SAMPLES, seed=DATA_SEED)
    runs = [("variant 0 (shipped)", None, 0)]
    runs += [(f"variant {k}", None, k) for k in VARIANTS]
    runs += [(f"config seed {s}", s, 0) for s in CONFIG_SEEDS]
    print(HEADER, flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        checkpoints = {}
        for label, seed, variant in runs:
            cfg = plain_config(seed)
            if cfg.seed not in checkpoints:
                out = Path(tmp) / f"seed{cfg.seed}"
                checkpoints[cfg.seed] = train.train_posenet(
                    cfg, samples, out_dir=out).checkpoint_path
            result = stage2(cfg, samples, checkpoints[cfg.seed], variant)
            print(table_row(label, cfg, template, samples, result), flush=True)


if __name__ == "__main__":
    main()
