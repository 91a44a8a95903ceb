"""Command-line surface wiring the modules into reproducible runs.

Every command resolves one RunConfig (profile -> config file -> flags),
echoes it next to its outputs, and exits 0 on success or 1 with a
single `error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checks import run_gradient_suite
from .coarsen import graclus_coarsen
from .config import (INPUT_MODES, PROFILES, echo_config, load_config_file,
                     resolve_config)
from .data import check_sample_shapes, generate_synthetic_dataset
from .evaluate import posenet_mpjpe, predict, report_lines, run_evaluation
from .graphs import build_mesh_graph
from .io import (load_body_spec, load_dataset, save_body_spec, save_dataset,
                 save_obj)
from .template import build_tube_body
from .train import load_models, train_full, train_posenet


# Every flag's argparse settings. A command takes --config, which chooses
# the config it resolves, plus only the flags it reads (COMMANDS), so a
# flag it would ignore is a usage error (exit 2). --profile is one of
# those: the profiles differ only in values some commands never read.
FLAGS = {
    "config": {"help": "JSON run-config file"},
    "profile": {"choices": PROFILES,
                "help": "base configuration profile (default: desk)"},
    "seed": {"type": int, "help": "override the config seed"},
    "template": {"help": "body-spec JSON overriding the config"},
    "levels": {"type": int, "help": "coarsening levels"},
    "dataset": {"help": "JSONL dataset path"},
    "checkpoint": {"help": "checkpoint path"},
    "input": {"choices": INPUT_MODES, "help": "evaluation input source"},
    "tau": {"type": float, "action": "append",
            "help": "F-score threshold in mm (repeatable)"},
    "index": {"type": int, "default": 0, "help": "sample index in the dataset"},
    "count": {"type": int, "default": 64, "help": "number of samples"},
    "out": {"help": "output directory (or file for OBJ commands)"},
}


def _resolve(args):
    flag = vars(args).get  # None for a flag the command does not take
    file_dict = load_config_file(args.config) if args.config else None
    overrides: dict = {}
    if flag("seed") is not None:
        overrides["seed"] = args.seed
    if flag("levels") is not None:
        overrides.setdefault("model", {})["levels"] = args.levels
    if flag("template"):
        load_body_spec(args.template)  # type-checks the file, naming it in errors
        # only the keys the file sets: the config file's other values stand
        overrides["template"] = load_config_file(args.template)
    if flag("input"):
        overrides.setdefault("eval", {})["input"] = args.input
    if flag("tau"):
        overrides.setdefault("eval", {})["taus"] = list(args.tau)
    return resolve_config(flag("profile") or "desk", file_dict, overrides)


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required for this command")


def _out_dir(args) -> Path:
    _require(args, "out")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_data(args) -> int:
    cfg = _resolve(args)
    out = _out_dir(args)
    template, samples = generate_synthetic_dataset(cfg.template, args.count,
                                                   seed=cfg.seed)
    save_body_spec(cfg.template, out / "template.json")
    save_dataset(samples, out / "dataset.jsonl")
    echo_config(cfg, out)
    print(f"wrote {len(samples)} samples ({template.num_vertices} vertices, "
          f"{template.num_joints} joints) to {out / 'dataset.jsonl'}")
    return 0


def cmd_coarsen(args) -> int:
    cfg = _resolve(args)
    template = build_tube_body(cfg.template)
    hierarchy = graclus_coarsen(build_mesh_graph(template), cfg.model.levels,
                                seed=cfg.seed)
    print(f"levels={hierarchy.num_levels} seed={cfg.seed} "
          f"original_vertices={template.num_vertices}")
    for c, (g, lap) in enumerate(zip(hierarchy.levels, hierarchy.scaled_laplacians)):
        fake = int(g.is_fake().sum())
        print(f"level {c}: vertices={g.num_vertices} real={g.num_vertices - fake} "
              f"fake={fake} lap_nnz={lap.table.nnz} d_max={g.d_max} "
              f"lambda_max={lap.lambda_max:.6f} "
              f"converged={str(lap.converged).lower()}")
    for c in range(hierarchy.num_levels):
        a = hierarchy.levels[c].num_vertices
        b = hierarchy.levels[c + 1].num_vertices
        if a != 2 * b:
            raise ValueError(f"doubling violated between levels {c} and {c + 1}: "
                             f"{a} != 2*{b}")
    print("doubling: ok")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _resolve(args)
    results = run_gradient_suite(cfg)
    failed = 0
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name:28s} max_rel_err={r.max_rel_err:.3e} "
              f"threshold={r.threshold:.0e} {status}")
        failed += 0 if r.passed else 1
    if failed:
        raise ValueError(f"{failed} gradient checks failed")
    return 0


def cmd_train_pose(args) -> int:
    cfg = _resolve(args)
    _require(args, "dataset")
    out = _out_dir(args)
    samples = load_dataset(args.dataset)
    echo_config(cfg, out)
    result = train_posenet(cfg, samples, out_dir=out)
    train_err = posenet_mpjpe(result.posenet, samples, cfg.train.batch_size)
    if result.dead_parameters:
        print(f"warning: parameters without any nonzero gradient: "
              f"{result.dead_parameters}", file=sys.stderr)
    print(f"stage 1 done: epochs={cfg.train.stage1_epochs} "
          f"final_loss={result.trace[-1]['L_pose']:.4f} "
          f"train_mpjpe_mm={train_err:.3f}")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def cmd_train_full(args) -> int:
    cfg = _resolve(args)
    _require(args, "dataset", "checkpoint")
    out = _out_dir(args)
    samples = load_dataset(args.dataset)
    echo_config(cfg, out)
    result = train_full(cfg, samples, args.checkpoint, out_dir=out)
    if result.dead_parameters:
        print(f"warning: parameters without any nonzero gradient: "
              f"{result.dead_parameters}", file=sys.stderr)
    last = result.trace[-1]
    print(f"stage 2 done: iterations={last['iter']} "
          f"L_vertex={last['L_vertex']:.4f} L_total={last['L_total']:.4f}")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _load_for_eval(args, cfg):
    _require(args, "checkpoint")
    template, _, _, posenet, meshnet = load_models(args.checkpoint, cfg)
    if meshnet is None:
        raise ValueError("checkpoint has no mesh regressor weights")
    return template, posenet, meshnet


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    _require(args, "dataset")
    samples = load_dataset(args.dataset)
    template, posenet, meshnet = _load_for_eval(args, cfg)
    report = run_evaluation(cfg, template, posenet, meshnet, samples)
    sys.stdout.write(report_lines(report))
    if args.out:
        out = _out_dir(args)
        echo_config(cfg, out)
        (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
        print(f"report: {out / 'report.json'}")
    return 0


def cmd_infer(args) -> int:
    cfg = _resolve(args)
    _require(args, "dataset")
    out = _out_dir(args)
    samples = load_dataset(args.dataset)
    if not 0 <= args.index < len(samples):
        raise ValueError(f"--index {args.index} out of range "
                         f"(dataset has {len(samples)} samples)")
    template, posenet, meshnet = _load_for_eval(args, cfg)
    sample = samples[args.index]
    pred = predict(cfg, template, posenet, meshnet, [sample])
    path = out / f"pred_{args.index:04d}.obj"
    save_obj(path, pred["pred_mesh"][0], template.faces)
    print(f"mesh: {path}")
    return 0


def cmd_export_obj(args) -> int:
    cfg = _resolve(args)
    _require(args, "out")
    out = Path(args.out)
    if out.suffix != ".obj":
        out.mkdir(parents=True, exist_ok=True)
        out = out / "mesh.obj"
    if args.dataset:
        samples = load_dataset(args.dataset)
        if not 0 <= args.index < len(samples):
            raise ValueError(f"--index {args.index} out of range "
                             f"(dataset has {len(samples)} samples)")
        mesh = samples[args.index].mesh
        if mesh is None:
            raise ValueError(f"sample {args.index} has no mesh")
        template = build_tube_body(cfg.template)
        check_sample_shapes(samples, template)
    else:
        template = build_tube_body(cfg.template)
        mesh = template.vertices
    save_obj(out, mesh, template.faces)
    print(f"mesh: {out}")
    return 0


COMMANDS = [
    ("gen-data", cmd_gen_data, "generate a template and JSONL dataset",
     ("seed", "template", "count", "out")),
    ("coarsen", cmd_coarsen, "print the graph coarsening hierarchy",
     ("seed", "template", "levels")),
    ("gradcheck", cmd_gradcheck, "run the gradient-check suite", ("seed",)),
    ("train-pose", cmd_train_pose, "stage 1: train the 2D->3D lifter",
     ("profile", "seed", "template", "dataset", "out")),
    ("train-full", cmd_train_full, "stage 2: train the full pipeline",
     ("profile", "seed", "template", "levels", "dataset", "checkpoint", "out")),
    ("eval", cmd_eval, "metric report for a checkpoint on a dataset",
     ("profile", "seed", "template", "levels", "dataset", "checkpoint", "input",
      "tau", "out")),
    ("infer", cmd_infer, "run one sample and write the predicted OBJ",
     ("profile", "seed", "template", "levels", "dataset", "checkpoint", "input",
      "index", "out")),
    ("export-obj", cmd_export_obj, "write a template or dataset mesh OBJ",
     ("template", "dataset", "index", "out")),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshlift",
        description="2D pose -> 3D pose -> 3D mesh on synthetic tube bodies")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, help_text, flags in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in ("config",) + flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:  # one-line machine-parsable failure
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
