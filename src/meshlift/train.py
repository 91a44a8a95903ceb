"""RMSprop, the two-stage training procedure, and model checkpointing.

Stage 1 fits the 2D->3D lifter alone; stage 2 trains lifter + mesh
regressor end to end on the weighted mesh losses (edge term gated in
after its start epoch, pose term included by default). Both stages run
one epoch loop, _fit, around a per-batch step of their own, and trace
the loss parts that step computed: a part it did not compute (the mesh
losses in stage 1, the edge loss while it is gated off) is an empty
cell. Each epoch draws its shuffle, error synthesis, and dropout masks
from one seeded stream, so identical (config, seed, dataset) runs are
bit-identical.

Training keeps freed heap memory for the life of its process: both
stages first set glibc's mmap and trim thresholds to 1 GiB (mallopt,
through ctypes). Every step allocates arrays of the same shapes, so the
next step reuses the pages the last one freed instead of unmapping them
and faulting them in again, zero-filled (on the dense body, about 16,000
minor page faults per step). The settings act only on the calling
process and change no value. This works on glibc only; where libc.so.6
or its mallopt cannot be found, nothing is set.
"""

from __future__ import annotations

import csv
import ctypes
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import RunConfig, check_checkpoint_config, checkpoint_config
from .coarsen import graclus_coarsen, hierarchy_from_record, hierarchy_record
from .data import check_sample_shapes, normalize_2d_pose, synthesize_pose_errors
from .graphs import build_mesh_graph, build_pose_graph, scaled_laplacian
from .io import load_checkpoint, save_checkpoint
from .losses import compute_mesh_losses, pose_loss, total_mesh_loss
from .models import MeshRegressor, PoseLifter
from .template import ROOT_INDEX, build_tube_body
from .tensor import Tape, Tensor

RMSPROP_ALPHA = 0.99
RMSPROP_EPS = 1e-8
RMSPROP_BLOCK = 1 << 16

M_TRIM_THRESHOLD = -1  # glibc's mallopt parameters
M_MMAP_THRESHOLD = -3
KEPT_HEAP_BYTES = 1 << 30

TRACE_COLUMNS = ["epoch", "iter", "lr", "L_pose", "L_vertex", "L_joint",
                 "L_normal", "L_edge", "L_total"]


class RMSprop:
    """Per-element v <- a*v + (1-a)*g^2; theta <- theta - lr*g/(sqrt(v)+eps),
    with a = RMSPROP_ALPHA and eps = RMSPROP_EPS.

    The update runs in place, in blocks of RMSPROP_BLOCK values through two
    block-sized scratch arrays per dtype, so no parameter-sized temporary
    is made; the arithmetic and its order are the plain expression's.
    """

    def __init__(self, named_params, lr: float):
        self.params = list(named_params)
        names = [n for n, _ in self.params]
        if len(set(names)) != len(names):
            raise ValueError("rmsprop: duplicate parameter names")
        self.lr = float(lr)
        self.state = {n: np.zeros_like(p.data) for n, p in self.params}
        self._scratch = {p.data.dtype: np.empty((2, RMSPROP_BLOCK), p.data.dtype)
                         for _, p in self.params}

    def step(self) -> None:
        for name, p in self.params:
            if p.grad is None:
                raise ValueError(f"rmsprop: parameter {name!r} has no gradient")
            g = p.grad.reshape(-1)
            v = self.state[name].reshape(-1)
            w = p.data.reshape(-1)
            scratch = self._scratch[p.data.dtype]
            for i in range(0, w.size, RMSPROP_BLOCK):
                gb, vb, wb = (x[i:i + RMSPROP_BLOCK] for x in (g, v, w))
                t1, t2 = scratch[:, :wb.size]
                vb *= RMSPROP_ALPHA
                np.multiply(gb, 1.0 - RMSPROP_ALPHA, out=t1)
                t1 *= gb
                vb += t1
                np.sqrt(vb, out=t2)
                t2 += RMSPROP_EPS
                np.multiply(gb, self.lr, out=t1)
                t1 /= t2
                wb -= t1
            p.grad = None


# ------------------------------------------------------------ model assembly

def _build_posenet(cfg: RunConfig, template, dtype=np.float32,
                   draw: bool = True) -> PoseLifter:
    return PoseLifter(num_joints=template.num_joints, hidden=cfg.model.hidden,
                      num_blocks=cfg.model.num_blocks,
                      drop_p=cfg.model.dropout, root_index=ROOT_INDEX,
                      seed=cfg.seed, dtype=dtype, draw=draw)


def build_models(cfg: RunConfig, dtype=np.float32, template=None, structure=None,
                 restored=()):
    """Template, graph hierarchy, pose graph and networks; pass ``template``
    when cfg's tube body is already built.

    The hierarchy is coarsened, and the pose graph's lambda_max
    estimated, from cfg.seed, unless ``structure`` gives both as a
    (hierarchy, pose lambda_max) pair, as hierarchy_from_record returns.
    A network named in ``restored`` ("posenet", "meshnet") is built
    without drawing, for restore_state; the others are drawn from their
    own streams.
    """
    if template is None:
        template = build_tube_body(cfg.template)
    if structure is None:
        structure = (graclus_coarsen(build_mesh_graph(template), cfg.model.levels,
                                     seed=cfg.seed), None)
    hierarchy, pose_lambda_max = structure
    pose_graph = build_pose_graph(template.num_joints, template.skeleton_edges,
                                  template.symmetry_pairs)
    pose_lap = scaled_laplacian(pose_graph, seed=cfg.seed, lambda_max=pose_lambda_max)
    posenet = _build_posenet(cfg, template, dtype, draw="posenet" not in restored)
    meshnet = MeshRegressor(hierarchy, pose_lap,
                            level_widths=cfg.model.level_widths,
                            pose_width=cfg.model.pose_width,
                            order=cfg.model.order, seed=cfg.seed, dtype=dtype,
                            across_level_residual=cfg.model.across_level_residual,
                            draw="meshnet" not in restored)
    return template, hierarchy, pose_graph, posenet, meshnet


def _state_slots(model, prefix: str):
    """(checkpoint name, owner, attribute) of every parameter array and
    batch-norm running estimate of model."""
    for name, p in model.named_parameters():
        yield f"{prefix}.{name}", p, "data"
    for name, bn in model.named_batchnorms():
        for stat in ("running_mean", "running_var"):
            yield f"{prefix}.{name}.{stat}", bn, stat


def collect_state(model, prefix: str) -> dict:
    return {key: getattr(owner, attr)
            for key, owner, attr in _state_slots(model, prefix)}


def restore_state(model, prefix: str, tensors: dict):
    """Make ``tensors`` the arrays that collect_state names, in place of
    the model's own (no copy when they already have the model's dtype);
    returns those names."""
    names = []
    for key, owner, attr in _state_slots(model, prefix):
        live = getattr(owner, attr)
        if key not in tensors:
            raise ValueError(f"checkpoint missing tensor {key!r}")
        if tensors[key].shape != live.shape:
            raise ValueError(f"checkpoint tensor {key!r} has shape "
                             f"{tensors[key].shape}, expected {live.shape}")
        setattr(owner, attr, tensors[key].astype(live.dtype, copy=False))
        names.append(key)
    return names


def save_models(path, cfg: RunConfig, posenet=None, meshnet=None) -> None:
    """A format-2 checkpoint; with a mesh regressor it also holds the
    hierarchy and lambda_max values that the regressor was built on."""
    tensors = {}
    if posenet is not None:
        tensors.update(collect_state(posenet, "posenet"))
    if meshnet is not None:
        tensors.update(collect_state(meshnet, "meshnet"))
    if not tensors:
        raise ValueError("save_models: nothing to save")
    record = (None if meshnet is None
              else hierarchy_record(meshnet.hierarchy, meshnet.pose_lap))
    save_checkpoint(path, checkpoint_config(cfg), tensors, record)


def _restore_models(path, cfg: RunConfig, dtype=np.float32, template=None):
    """build_models' tuple, with the networks the checkpoint holds built
    around its arrays, plus the set of restored prefixes ("posenet",
    "meshnet"). A stored hierarchy is rebuilt as it is, without
    coarsening; a file without one (format 1, or a lifter checkpoint) is
    coarsened from cfg.seed. A malformed hierarchy, or a tensor that no
    restored network owns, is rejected."""
    stored, tensors, record = load_checkpoint(path)
    restored = {prefix for prefix in ("posenet", "meshnet")
                if any(k.startswith(prefix + ".") for k in tensors)}
    check_checkpoint_config(stored, cfg, "meshnet" in restored)
    if template is None:
        template = build_tube_body(cfg.template)
    structure = None
    if record is not None:
        try:
            structure = hierarchy_from_record(build_mesh_graph(template), record,
                                              cfg.model.levels)
        except ValueError as e:
            raise ValueError(f"checkpoint {path}: {e}") from None
    models = build_models(cfg, dtype, template, structure, restored)
    owned = set()
    for prefix, model in (("posenet", models[3]), ("meshnet", models[4])):
        if prefix in restored:
            owned.update(restore_state(model, prefix, tensors))
    for key in tensors:
        if key not in owned:
            raise ValueError(f"checkpoint {path}: tensor {key!r} belongs to "
                             f"no restored network")
    return models, restored


def load_models(path, cfg: RunConfig, dtype=np.float32):
    """Rebuild networks from a checkpoint, cross-checked against ``cfg``.

    Returns (template, hierarchy, pose_graph, posenet_or_None,
    meshnet_or_None).
    """
    (template, hierarchy, pose_graph, posenet, meshnet), restored = \
        _restore_models(path, cfg, dtype)
    return (template, hierarchy, pose_graph,
            posenet if "posenet" in restored else None,
            meshnet if "meshnet" in restored else None)


# -------------------------------------------------------------- batch making

def assemble_batch(samples, idxs, synth_cfg, symmetry_pairs, rng):
    """Corrupt (optionally) and stack one mini-batch's 2D poses, then
    normalize them; returns them with the stacked 3D poses."""
    batch = [samples[i] for i in idxs]
    p2d = [s.pose2d if synth_cfg is None
           else synthesize_pose_errors(s.pose2d, synth_cfg, symmetry_pairs, rng)
           for s in batch]
    x2d = normalize_2d_pose(np.stack(p2d))[0]
    return x2d, np.stack([s.pose3d for s in batch])


def _batches(n: int, batch_size: int, perm: np.ndarray):
    """Contiguous slices of the permutation; singleton tails are dropped
    because batch norm cannot run on one sample."""
    for start in range(0, n, batch_size):
        idxs = perm[start:start + batch_size]
        if len(idxs) >= 2:
            yield idxs


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


@dataclass
class TrainResult:
    trace: list = field(default_factory=list)   # list of dict rows
    dead_parameters: list = field(default_factory=list)
    checkpoint_path: Path | None = None
    posenet: object = None
    meshnet: object = None


class _TraceWriter:
    def __init__(self, out_dir, name):
        self.rows = []
        self.path = Path(out_dir) / name if out_dir else None
        if self.path:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", newline="") if self.path else None
        self._csv = csv.writer(self._fh) if self._fh else None
        if self._csv:
            self._csv.writerow(TRACE_COLUMNS)

    def row(self, epoch, it, lr, losses: dict):
        """Every TRACE_COLUMNS key, None (an empty CSV cell) for a loss
        part that ``losses`` lacks."""
        rec = dict.fromkeys(TRACE_COLUMNS)
        rec.update(epoch=epoch, iter=it, lr=lr, **losses)
        self.rows.append(rec)
        if self._csv:
            self._csv.writerow([epoch, it] +
                               [_fmt(rec[c]) for c in TRACE_COLUMNS[2:]])

    def close(self):
        if self._fh:
            self._fh.close()


class _GradTracker:
    """Per-step gradient checks between backward and the update: a
    non-finite gradient stops training, and the tracker records which
    parameters ever saw a nonzero gradient (the dead-parameter report)."""

    def __init__(self, named_params):
        self.params = list(named_params)
        self.seen = {n: False for n, _ in self.params}

    def observe(self, epoch: int, it: int):
        for n, p in self.params:
            if p.grad is None:
                continue
            if not np.isfinite(p.grad).all():
                raise ValueError(f"non-finite gradient of {n!r} at epoch {epoch}, "
                                 f"iteration {it}")
            if not self.seen[n] and p.grad.any():
                self.seen[n] = True

    def dead(self):
        return sorted(n for n, alive in self.seen.items() if not alive)


def _check_finite(parts: dict, epoch: int, it: int) -> None:
    """Raise before backward, so a NaN or inf loss never reaches the weights."""
    for name, t in parts.items():
        if not np.isfinite(t.data).all():
            raise ValueError(f"non-finite loss part {name!r} at epoch {epoch}, "
                             f"iteration {it}")


def _keep_freed_heap() -> bool:
    """Serve allocations below 1 GiB from glibc's heap, and trim the heap
    only past 1 GiB of free top, in this process; returns whether both
    settings were applied."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return all([mallopt(M_MMAP_THRESHOLD, KEPT_HEAP_BYTES) == 1,
                mallopt(M_TRIM_THRESHOLD, KEPT_HEAP_BYTES) == 1])


# ---------------------------------------------------------------- both stages

def _fit(cfg: RunConfig, samples, template, named, stage: int, step, out_dir,
         max_iterations: int | None = None) -> TrainResult:
    """The epoch loop of training stage 1 or 2: RMSprop over ``named`` at
    the stage's learning rate, divided by decay_factor after its decay
    epoch. Each epoch shuffles, corrupts inputs and drops units from the
    stream [seed, stage, epoch]. ``step(epoch, rng, idxs, x2d, gt3d)``
    tapes one batch's forward pass and losses and returns (total, parts):
    the scalar that backward starts from, and the loss parts it computed,
    by name. A non-finite part or gradient stops training. Stage 1 traces
    one row per epoch, the mean of its steps; stage 2 one per iteration.
    ``max_iterations`` stops the loop after that many steps."""
    tc = cfg.train
    base_lr, decay_epoch, epochs = (getattr(tc, f"stage{stage}_{key}")
                                    for key in ("lr", "decay_epoch", "epochs"))
    opt = RMSprop(named, lr=base_lr)
    tracker = _GradTracker(named)
    writer = _TraceWriter(out_dir, f"trace_stage{stage}.csv")
    synth = cfg.synth if cfg.synth.enabled else None
    n, it = len(samples), 0
    try:
        for epoch in range(1, epochs + 1):
            opt.lr = base_lr / tc.decay_factor if epoch > decay_epoch else base_lr
            rng = np.random.default_rng([cfg.seed, stage, epoch])
            perm = rng.permutation(n)
            steps = []
            for idxs in _batches(n, tc.batch_size, perm):
                x2d, gt3d = assemble_batch(samples, idxs, synth,
                                           template.symmetry_pairs, rng)
                total, parts = step(epoch, rng, idxs, x2d, gt3d)
                _check_finite(parts, epoch, it + 1)
                T.backward(total)
                tracker.observe(epoch, it + 1)
                opt.step()
                it += 1
                losses = {f"L_{name}": t.item() for name, t in parts.items()}
                losses["L_total"] = total.item()
                if stage == 1:
                    steps.append(losses)
                else:
                    writer.row(epoch, it, opt.lr, losses)
                if it == max_iterations:
                    break
            if stage == 1:
                writer.row(epoch, it, opt.lr,
                           {key: float(np.mean([s[key] for s in steps]))
                            for key in steps[0]})
            if it == max_iterations:
                break
    finally:
        writer.close()
    return TrainResult(trace=writer.rows, dead_parameters=tracker.dead())


def train_posenet(cfg: RunConfig, samples, out_dir=None) -> TrainResult:
    """Stage 1: pre-train the 2D->3D lifter on the pose loss."""
    _keep_freed_heap()
    template = build_tube_body(cfg.template)
    check_sample_shapes(samples, template, min_samples=2)
    posenet = _build_posenet(cfg, template)
    j = template.num_joints

    def step(epoch, rng, idxs, x2d, gt3d):
        x = Tensor(x2d.reshape(len(idxs), 2 * j), dtype=np.float32)
        with Tape():
            out = posenet.forward(x, training=True, rng=rng)
            loss = pose_loss(out, gt3d.transpose(1, 0, 2))
        return loss, {"pose": loss}

    named = [(f"posenet.{n}", p) for n, p in posenet.named_parameters()]
    result = _fit(cfg, samples, template, named, 1, step, out_dir)
    if out_dir:
        result.checkpoint_path = Path(out_dir) / "posenet.ckpt"
        save_models(result.checkpoint_path, cfg, posenet=posenet)
    result.posenet = posenet
    return result


def train_full(cfg: RunConfig, samples, posenet_checkpoint, out_dir=None,
               max_iterations: int | None = None) -> TrainResult:
    """Stage 2: end-to-end training of lifter + mesh regressor from a
    stage-1 start; ``max_iterations`` (>= 1) stops it early."""
    if max_iterations is not None and max_iterations < 1:
        raise ValueError(f"train_full: max_iterations must be >= 1, "
                         f"got {max_iterations}")
    _keep_freed_heap()
    if any(s.mesh is None for s in samples):
        raise ValueError("train_full: every sample needs a ground-truth mesh")
    template = build_tube_body(cfg.template)
    check_sample_shapes(samples, template, min_samples=2)
    # a stage-1 checkpoint has no mesh weights: the mesh regressor then
    # starts from its fresh initialization
    (_, _, _, posenet, meshnet), restored = \
        _restore_models(posenet_checkpoint, cfg, np.float32, template)
    if "posenet" not in restored:
        raise ValueError("train_full: checkpoint has no lifter weights")
    tc, weights, j = cfg.train, cfg.train.loss_weights, template.num_joints

    def step(epoch, rng, idxs, x2d, gt3d):
        # the networks and losses take the batch on axis 1
        x_flat = Tensor(x2d.reshape(len(idxs), 2 * j), dtype=np.float32)
        x2d = Tensor(x2d.transpose(1, 0, 2), dtype=np.float32)
        gt3d = gt3d.transpose(1, 0, 2)
        gt_mesh = np.stack([samples[i].mesh for i in idxs]).transpose(1, 0, 2)
        if tc.freeze_posenet:
            # outside the tape: the lifter is a constant feature
            # extractor, so its forward pass is not backpropagated
            lifted = posenet.forward(x_flat, training=False)
        with Tape():
            if not tc.freeze_posenet:
                lifted = posenet.forward(x_flat, training=True, rng=rng)
            pred = meshnet.forward(x2d, lifted, training=True)
            parts = compute_mesh_losses(pred, gt_mesh, gt3d, template.faces,
                                        template.joint_regressor,
                                        edge_on=weights.edge_on(epoch))
            if tc.include_pose_loss_stage2:
                parts["pose"] = pose_loss(lifted, gt3d)
            total = total_mesh_loss(parts, weights, epoch)
        return total, parts

    named = [(f"meshnet.{n}", p) for n, p in meshnet.named_parameters()]
    if not tc.freeze_posenet:
        named += [(f"posenet.{n}", p) for n, p in posenet.named_parameters()]
    result = _fit(cfg, samples, template, named, 2, step, out_dir, max_iterations)
    if out_dir:
        result.checkpoint_path = Path(out_dir) / "full.ckpt"
        save_models(result.checkpoint_path, cfg, posenet=posenet,
                    meshnet=meshnet)
    result.posenet, result.meshnet = posenet, meshnet
    return result
