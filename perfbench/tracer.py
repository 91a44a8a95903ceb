"""Per-layer tracing for the traced benchmark run (``--trace 1``).

Everything is measured from outside the package: the tracer replaces
public meshlift functions and methods with timing wrappers (in every
meshlift module that imported them by name) and restores the originals
on ``uninstall``. Nothing under ``src/`` is changed.

Time is accumulated per phase, where the benchmark sets the phase
("setup", "stage1", "stage2", "eval") around its own calls, so a layer's
stage-2 time is not mixed with its set-up or evaluation time. All spans
are inclusive: ``layers.linear`` time is also part of
``models.lifter_forward`` time.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
import weakref
from collections import defaultdict

OPS = ("matmul", "gather_rows", "repeat_rows", "add", "sub", "mul", "div",
       "reshape", "transpose", "concat", "reduce_sum", "reduce_mean",
       "absolute", "relu", "sqrt", "scalar_mul", "scalar_add", "norm_last",
       "normalize_last")

# Per-step spans: ms per step of the workload's main loop (a stage-2
# iteration on the training workloads, one run_evaluation call on eval).
STEP_SPANS = {
    "graphs.cheb_conv_ms.l0": "cheb.l0",
    "graphs.cheb_conv_ms.l1": "cheb.l1",
    "graphs.cheb_conv_ms.l2": "cheb.l2",
    "graphs.cheb_conv_ms.l3": "cheb.l3",
    "graphs.cheb_conv_ms.pose": "cheb.pose",
    "coarsen.upsample_ms": "upsample_features",
    "coarsen.apply_perm_ms": "apply_perm",
    "layers.linear_ms": "Linear.forward",
    "layers.batchnorm_ms": "BatchNorm1d.forward",
    "layers.graphconv_block_ms": "GraphConvBlock.forward",
    "models.lifter_forward_ms": "PoseLifter.forward",
    "models.mesh_forward_ms": "MeshRegressor.forward",
    "losses.vertex_ms": "vertex_loss",
    "losses.joint_ms": "joint_loss",
    "losses.normal_ms": "normal_loss",
    "losses.edge_ms": "edge_loss",
    "losses.pose_ms": "pose_loss",
    "train.rmsprop_step_ms": "RMSprop.step",
    "train.step_ms": "step",
    "data.assemble_batch_ms": "assemble_batch",
    "tensor.backward_ms": "backward",
    "tensor.gc_pause_ms": "gc",
}
# The parts of a training step; their share of train.step_ms is reported
# as train.step_coverage_pct.
STEP_PARTS = ("assemble_batch", "PoseLifter.forward", "MeshRegressor.forward",
              "vertex_loss", "joint_loss", "normal_loss", "edge_loss",
              "pose_loss", "backward", "RMSprop.step")
# Per-call spans: seconds per call, over every measured phase.
CALL_SPANS = {
    "graphs.mesh_graph_s": "build_mesh_graph",
    "coarsen.coarsen_s": "graclus_coarsen",
    "template.build_s": "build_tube_body",
    "io.load_dataset_s": "load_dataset",
    "io.load_models_s": "load_models",
    "io.save_models_s": "save_models",
    # both networks' constructors, per model pair built
    "models.init_s": "model_init",
}
# Per-call of run_evaluation, in seconds (evaluation phase only).
EVAL_SPANS = {
    "evaluate.predict_s": "predict",
    "metrics.mpjpe_s": "mpjpe",
    "metrics.pa_mpjpe_s": "pa_mpjpe",
    "metrics.mpvpe_s": "mpvpe",
    "metrics.f_score_s": "f_score",
    "data.input_prep_s": "input_prep",
}
MEASURED_PHASES = ("setup", "stage1", "stage2", "eval")


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {"tensor.tape_entries": "count"}
    units.update({f"tensor.tape_entries.{op}": "count" for op in OPS + ("other",)})
    units.update({f"tensor.bw_ms.{op}": "ms" for op in OPS + ("other",)})
    units["tensor.tapes_alive"] = "count"
    units.update({name: "ms" for name in STEP_SPANS})
    units["graphs.lap_madds"] = "madd"
    units["coarsen.coarsen_calls"] = "count"
    units["train.stage1_step_ms"] = "ms"
    units["train.step_coverage_pct"] = "%"
    units.update({name: "s" for name in CALL_SPANS})
    units.update({name: "s" for name in EVAL_SPANS})
    units["trace.samples_per_s"] = "samples/s"
    return units


class Tracer:
    """Timing wrappers around meshlift's public functions."""

    def __init__(self):
        self.phase = "prep"
        self.time = defaultdict(float)   # (phase, span) -> seconds
        self.calls = defaultdict(int)    # (phase, span) -> calls
        self.count = defaultdict(float)  # (phase, counter) -> total
        self._patches: list[tuple[object, str, object]] = []
        self._lap_labels = weakref.WeakKeyDictionary()
        self._tapes: list[weakref.ref] = []
        self._step_start = None
        self._gc_start = None

    # ------------------------------------------------------------ recording

    def add(self, span: str, seconds: float) -> None:
        self.time[(self.phase, span)] += seconds
        self.calls[(self.phase, span)] += 1

    def bump(self, counter: str, n: float = 1) -> None:
        self.count[(self.phase, counter)] += n

    def _timed(self, span, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add(span, time.perf_counter() - t0)
        return wrapper

    # -------------------------------------------------------------- patching

    def _patch_function(self, module, attr, wrapper_of, only=None):
        """Replace ``module.attr`` wherever meshlift imported it by name."""
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("meshlift") or mod is None:
                continue
            if only is not None and name not in only:
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper_of):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper_of(original))

    def install(self) -> None:
        import meshlift.coarsen as coarsen
        import meshlift.data as data
        import meshlift.evaluate as evaluate
        import meshlift.graphs as graphs
        import meshlift.io as mio
        import meshlift.layers as layers
        import meshlift.losses as losses
        import meshlift.metrics as metrics
        import meshlift.models as models
        import meshlift.template as template
        import meshlift.tensor as tensor
        import meshlift.train as train

        timed = self._timed
        for mod, attr in ((coarsen, "upsample_features"), (coarsen, "apply_perm"),
                          (losses, "vertex_loss"), (losses, "joint_loss"),
                          (losses, "normal_loss"), (losses, "edge_loss"),
                          (losses, "pose_loss"), (graphs, "build_mesh_graph"),
                          (template, "build_tube_body"), (mio, "load_dataset"),
                          (train, "load_models"), (train, "save_models"),
                          (evaluate, "predict"), (evaluate, "run_evaluation")):
            self._patch_function(mod, attr, functools.partial(timed, attr))
        for attr in ("mpjpe", "pa_mpjpe", "mpvpe", "f_score"):
            # only the call sites in run_evaluation, so that mpjpe inside
            # pa_mpjpe is not counted twice
            self._patch_function(metrics, attr, functools.partial(timed, attr),
                                 only={"meshlift.evaluate"})
        for attr in ("normalize_2d_pose", "synthesize_pose_errors"):
            self._patch_function(data, attr, functools.partial(timed, "input_prep"))
        self._patch_function(coarsen, "graclus_coarsen", self._wrap_coarsen)
        self._patch_function(graphs, "chebyshev_conv", self._wrap_cheb)
        self._patch_function(tensor, "backward", self._wrap_backward)
        self._patch_function(train, "assemble_batch", self._wrap_assemble)

        for cls in (layers.Linear, layers.BatchNorm1d, layers.GraphConvBlock,
                    models.PoseLifter, models.MeshRegressor):
            self._patch_method(cls, "forward",
                               functools.partial(timed, f"{cls.__name__}.forward"))
        for cls in (models.PoseLifter, models.MeshRegressor):
            self._patch_method(cls, "__init__", functools.partial(timed, "model_init"))
        self._patch_method(train.RMSprop, "step", self._wrap_rmsprop)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -------------------------------------------------------------- wrappers

    def _wrap_coarsen(self, fn):
        timed = self._timed("graclus_coarsen", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hierarchy = timed(*args, **kwargs)
            for i, lap in enumerate(hierarchy.scaled_laplacians):
                self._lap_labels[lap] = f"l{i}"
            return hierarchy
        return wrapper

    def _wrap_cheb(self, fn):
        from meshlift.tensor import active_tape

        @functools.wraps(fn)
        def wrapper(f_in, lap, filt, batch=1):
            # Laplacian multiply-adds, computed from shapes: order-1
            # products of (V, V) by (V, cols), repeated in backward when
            # the input is on a tape.
            v = lap.num_vertices
            madds = (filt.order - 1) * v * v * f_in.shape[1]
            if active_tape() is not None and f_in.requires_grad:
                madds *= 2
            self.bump("lap_madds", madds)
            t0 = time.perf_counter()
            try:
                return fn(f_in, lap, filt, batch)
            finally:
                self.add("cheb." + self._lap_labels.get(lap, "pose"),
                         time.perf_counter() - t0)
        return wrapper

    def _wrap_backward(self, fn):
        @functools.wraps(fn)
        def wrapper(loss):
            tape = loss.tape
            if tape is not None and not tape.consumed:
                self._tapes.append(weakref.ref(tape))
                entries = tape.entries
                self.bump("tape_entries", len(entries))
                for i, (op, inputs, out, bw) in enumerate(entries):
                    key = op if op in OPS else "other"
                    self.bump("tape_entries." + key)
                    entries[i] = (op, inputs, out, self._timed("bw." + key, bw))
            t0 = time.perf_counter()
            try:
                return fn(loss)
            finally:
                self.add("backward", time.perf_counter() - t0)
        return wrapper

    def _wrap_assemble(self, fn):
        timed = self._timed("assemble_batch", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._step_start = time.perf_counter()
            return timed(*args, **kwargs)
        return wrapper

    def _wrap_rmsprop(self, fn):
        timed = self._timed("RMSprop.step", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            timed(*args, **kwargs)
            if self._step_start is not None:
                self.add("step", time.perf_counter() - self._step_start)
                self._step_start = None
            # tapes of earlier steps that are still reachable; the current
            # step's tape is held by the training loop's locals
            self._tapes = [r for r in self._tapes if r() is not None]
            self.bump("tapes_alive", max(0, len(self._tapes) - 1))
        return wrapper

    def _on_gc(self, event, info):
        if event == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.add("gc", time.perf_counter() - self._gc_start)
            self._gc_start = None

    # ---------------------------------------------------------------- report

    def dump(self) -> dict:
        """The records as JSON-ready dicts, for a parent process to merge."""
        return {kind: {f"{phase}|{span}": v for (phase, span), v in table.items()}
                for kind, table in (("time", self.time), ("calls", self.calls),
                                    ("count", self.count))}

    def merge(self, dumped: dict) -> None:
        for kind in ("time", "calls", "count"):
            table = getattr(self, kind)
            for key, v in dumped[kind].items():
                table[tuple(key.split("|", 1))] += v

    def report(self, step_phase: str, steps: int, rounds: int,
               samples_per_s: float) -> dict:
        """Per-layer metrics {name: value}; see metric_units for units."""
        units = metric_units()
        out = dict.fromkeys(units, 0.0)
        steps = max(steps, 1)

        def per_step(key):
            return self.count[(step_phase, key)] / steps

        out["tensor.tape_entries"] = per_step("tape_entries")
        for op in OPS + ("other",):
            out[f"tensor.tape_entries.{op}"] = per_step(f"tape_entries.{op}")
            out[f"tensor.bw_ms.{op}"] = 1e3 * self.time[(step_phase, f"bw.{op}")] / steps
        out["tensor.tapes_alive"] = per_step("tapes_alive")
        for name, span in STEP_SPANS.items():
            out[name] = 1e3 * self.time[(step_phase, span)] / steps
        out["graphs.lap_madds"] = per_step("lap_madds")
        out["coarsen.coarsen_calls"] = sum(
            self.calls[(p, "graclus_coarsen")] for p in ("stage1", "stage2", "eval")
        ) / max(rounds, 1)
        n1 = self.calls[("stage1", "step")]
        if n1:
            out["train.stage1_step_ms"] = 1e3 * self.time[("stage1", "step")] / n1
        step_time = self.time[(step_phase, "step")]
        if step_time > 0:
            parts = sum(self.time[(step_phase, p)] for p in STEP_PARTS)
            out["train.step_coverage_pct"] = 100.0 * parts / step_time
        for name, span in CALL_SPANS.items():
            t = sum(self.time[(p, span)] for p in MEASURED_PHASES)
            n = sum(self.calls[(p, span)] for p in MEASURED_PHASES)
            if span == "model_init":
                n /= 2  # one lifter and one mesh regressor per build
            out[name] = t / n if n else 0.0
        n_eval = self.calls[("eval", "run_evaluation")]
        for name, span in EVAL_SPANS.items():
            out[name] = self.time[("eval", span)] / n_eval if n_eval else 0.0
        out["trace.samples_per_s"] = samples_per_s
        return out
