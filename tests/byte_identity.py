"""Byte-identity recipes: fingerprints of what training writes.

Trains three short runs and prints, for each, the first 16 hex digits
of the sha256 of its posenet.ckpt, trace_stage1.csv, full.ckpt and
trace_stage2.csv:

- desk: the desk profile at seed 7 with 3 stage-1 epochs (decay after
  epoch 1), 64 samples of data seed 7, and 12 stage-2 iterations;
- edge-on: desk with the lifter training in stage 2 and the edge term
  on from epoch 1;
- dense: desk with a 12 x 12 body, batch 8, 2 stage-1 epochs (decay
  after epoch 1), 32 samples and 4 stage-2 iterations.

A change that should not alter training arithmetic prints the same
lines before and after. The digests depend on the BLAS kernel, so
compare runs on one machine only; the script asks for one BLAS thread
unless the environment already sets a count. It takes a few seconds.
From the repository root:

    PYTHONPATH=src python tests/byte_identity.py
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from meshlift import train  # noqa: E402  (after the thread settings)
from meshlift.config import resolve_config  # noqa: E402
from meshlift.data import generate_synthetic_dataset  # noqa: E402

DATA_SEED = 7
FILES = ("pose/posenet.ckpt", "pose/trace_stage1.csv", "full/full.ckpt",
         "full/trace_stage2.csv")
DESK = {"seed": 7, "train": {"stage1_epochs": 3, "stage1_decay_epoch": 1}}
# name: (config overrides, samples, stage-2 iterations)
RECIPES = {
    "desk": (DESK, 64, 12),
    "edge-on": ({**DESK, "train": {**DESK["train"], "freeze_posenet": False,
                                   "loss_weights": {"edge_start_epoch": 1}}},
                64, 12),
    "dense": ({"seed": 7,
               "template": {"verts_per_ring": 12, "rings_per_bone": 12},
               "train": {"batch_size": 8, "stage1_epochs": 2,
                         "stage1_decay_epoch": 1}}, 32, 4),
}


def fingerprints(overrides: dict, num_samples: int, iterations: int,
                 out: Path) -> list[str]:
    """Train both stages into out; the digest prefix of each of FILES."""
    cfg = resolve_config("desk", overrides=overrides)
    _, samples = generate_synthetic_dataset(cfg.template, num_samples,
                                            seed=DATA_SEED)
    s1 = train.train_posenet(cfg, samples, out_dir=out / "pose")
    train.train_full(cfg, samples, s1.checkpoint_path, out_dir=out / "full",
                     max_iterations=iterations)
    return [hashlib.sha256((out / f).read_bytes()).hexdigest()[:16]
            for f in FILES]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, recipe in RECIPES.items():
            digests = fingerprints(*recipe, Path(tmp) / name)
            print(name, " ".join(f"{Path(f).name} {d}"
                                 for f, d in zip(FILES, digests)), flush=True)


if __name__ == "__main__":
    main()
