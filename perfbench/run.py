"""meshlift benchmark: whole-call throughput, set-up time and peak memory.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

Workloads: desk-train, dense-mesh-train, eval (see perfbench/README.md).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the same workload runs under
the per-layer tracer and the JSON holds the per-layer metrics. Lines
before it starting with ``#`` are information for people, not metrics.

BLAS threads are pinned before numpy is imported: one thread, so that a
run measures meshlift rather than thread scheduling on a shared machine.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("desk-train", "dense-mesh-train", "eval")
END_TO_END_UNITS = {"samples_per_s": "samples/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def _import_meshlift():
    """Put the checkout's own src/ first; refuse any other meshlift."""
    if not (SRC / "meshlift" / "__init__.py").is_file():
        sys.exit(f"perfbench: no meshlift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import meshlift
    if Path(meshlift.__file__).resolve().parent != SRC / "meshlift":
        sys.exit(f"perfbench: imported meshlift from {meshlift.__file__}, "
                 f"not from {SRC}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: work that a workload runs in a child process, as JSON
    ap.add_argument("--child", type=json.loads, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_meshlift()
    import numpy as np
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    # the training workloads run their measured calls in child processes,
    # which trace themselves; this process only merges their records
    if tracer is not None and (args.child or args.workload == "eval"):
        tracer.install()
    if args.child:
        try:
            print(json.dumps(workloads.run_child(args.child, args.workload,
                                                 args.seed, tracer)))
        finally:
            if tracer is not None:
                tracer.uninstall()
        return 0

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, work, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it, or it is not empty

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"BLAS threads {BLAS_THREADS}, numpy {np.__version__}")
    for key, value in result.info.items():
        print(f"# {key}: {value}")
    for problem in result.problems:
        print(f"# CHECK FAILED: {problem}")
    if "samples_per_s" not in result.metrics:
        print("perfbench: no round completed", file=sys.stderr)
        return 1
    if tracer is not None:
        values = tracer.report(result.step_phase, result.steps, result.rounds,
                               result.metrics["samples_per_s"])
        units = tracing.metric_units()
    else:
        values, units = result.metrics, END_TO_END_UNITS
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
