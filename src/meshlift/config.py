"""Run configuration: one JSON document describing a full experiment.

Resolution order: dataclass defaults, then the named profile, then the
config file, then CLI overrides. One codec (`to_dict`/`from_dict`) maps
every config dataclass to and from JSON. It rejects unknown keys, values
of the wrong JSON type and non-finite floats, naming the dotted key path,
so typos fail loudly. Every run echoes the fully-resolved config.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .data import ErrorSynthConfig
from .losses import LossWeights
from .template import JOINT_NAMES, TubeBodySpec

PROFILES = ("desk", "paper")
INPUT_MODES = ("gt2d", "gt3d", "synth")


def to_dict(obj) -> dict:
    """A config dataclass as JSON data, in field order: tuples become
    lists, dicts are copied and nested dataclasses recurse."""
    return {f.name: _encode(getattr(obj, f.name)) for f in fields(obj)}


def _encode(value):
    if is_dataclass(value):
        return to_dict(value)
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def from_dict(cls, d, path: str):
    """Build config dataclass ``cls`` from JSON data, checking each value
    against its field's type hint without coercion. Missing keys keep their
    defaults. Errors name the dotted key path, e.g. ``config.model.hidden``.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{path}: expected object, got {d!r}")
    hints = get_type_hints(cls)
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown)}")
    return cls(**{k: _decode(hints[k], v, f"{path}.{k}") for k, v in d.items()})


def _decode(hint, value, path: str):
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # T | None
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return _decode(hint, value, path)
    if is_dataclass(hint):
        return from_dict(hint, value, path)
    if origin is tuple and isinstance(value, (list, tuple)):
        return tuple(_decode(args[0], v, f"{path}[{i}]")
                     for i, v in enumerate(value))
    if origin is dict and isinstance(value, dict):
        return {k: _decode(args[1], v, f"{path}.{k}") for k, v in value.items()}
    if hint is float:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    elif hint is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = origin is None and isinstance(value, hint)
    if not ok:
        expected = {float: "finite float", tuple: "list", dict: "object"}.get(
            origin or hint, hint.__name__)
        raise ValueError(f"{path}: expected {expected}, got {value!r}")
    return value


@dataclass
class ModelConfig:
    hidden: int = 4096
    num_blocks: int = 2
    dropout: float = 0.5
    pose_width: int = 64
    level_widths: tuple[int, ...] = (64, 64, 32, 32)
    order: int = 3
    levels: int = 3
    across_level_residual: bool = False

    def validate(self) -> None:
        if self.hidden < 1 or self.pose_width < 1 or self.num_blocks < 1:
            raise ValueError("model: widths and depth must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("model: dropout must lie in [0, 1)")
        if self.order < 1:
            raise ValueError("model: Chebyshev order must be >= 1")
        if self.levels < 1:
            raise ValueError("model: levels must be >= 1")
        widths = list(self.level_widths)
        if (not widths or min(widths) < 1
                or any(a < b for a, b in zip(widths, widths[1:]))):
            raise ValueError(f"config.model.level_widths: expected a non-empty, "
                             f"non-increasing list of positives, got {widths}")


@dataclass
class TrainConfig:
    batch_size: int = 64
    stage1_epochs: int = 60
    stage1_lr: float = 1e-3
    stage1_decay_epoch: int = 30
    stage2_epochs: int = 15
    stage2_lr: float = 1e-3
    stage2_decay_epoch: int = 12
    decay_factor: float = 10.0
    include_pose_loss_stage2: bool = True
    freeze_posenet: bool = False
    loss_weights: LossWeights = field(default_factory=LossWeights)

    def validate(self) -> None:
        for stage in (1, 2):
            epochs = getattr(self, f"stage{stage}_epochs")
            decay = getattr(self, f"stage{stage}_decay_epoch")
            lr = getattr(self, f"stage{stage}_lr")
            if not epochs > decay > 0:
                raise ValueError(f"train: stage{stage} needs epochs > "
                                 f"decay_epoch > 0, got {epochs} vs {decay}")
            if lr <= 0:
                raise ValueError(f"train: stage{stage}_lr must be positive")
        if self.batch_size < 2:
            raise ValueError("train: batch_size must be >= 2 (batch norm)")
        if self.decay_factor <= 0:
            raise ValueError("train: decay_factor must be positive")


@dataclass
class EvalConfig:
    taus: tuple[float, ...] = (5.0, 15.0)
    joint_mask: tuple[int, ...] | None = None
    input: str = "gt2d"

    def validate(self) -> None:
        if self.input not in INPUT_MODES:
            raise ValueError(f"eval: input must be one of {INPUT_MODES}, "
                             f"got {self.input!r}")
        if not self.taus or any(t <= 0 for t in self.taus):
            raise ValueError("eval: taus must be a non-empty list of positives")
        mask = self.joint_mask
        if mask is not None and (not mask or len(set(mask)) < len(mask)
                                 or not all(0 <= j < len(JOINT_NAMES) for j in mask)):
            raise ValueError(f"config.eval.joint_mask: expected distinct joint "
                             f"indices in 0..{len(JOINT_NAMES) - 1}, got {list(mask)}")


@dataclass
class RunConfig:
    seed: int = 7
    profile: str = "desk"
    template: TubeBodySpec = field(default_factory=TubeBodySpec)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: ErrorSynthConfig = field(default_factory=ErrorSynthConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def validate(self) -> None:
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}, "
                             f"got {self.profile!r}")
        self.template.validate()
        self.model.validate()
        self.train.validate()
        self.synth.validate()
        self.eval.validate()


# Desk-scale profile, sized so a full two-stage run finishes on a laptop
# CPU in minutes. Tuned against the 64-sample overfit: the L1 losses put
# RMSprop in a sign-step regime where the mm-scale output weights grow at
# roughly lr per iteration, so the learning rate is ~30x the full-scale
# profile's and the epoch counts compensate for the tiny dataset. Dropout is
# off (overfitting is the point at this scale), the lifter is frozen in
# stage 2 so the mesh head cannot drag it off its stage-1 optimum, the
# across-level skip connections are enabled for gradient flow, and the
# edge term stays gated: at weight 20 it dominates every sign update and
# stalls vertex convergence inside a 2000-iteration budget.
DESK_OVERRIDES = {
    "model": {"hidden": 256, "dropout": 0.0, "across_level_residual": True},
    "train": {"batch_size": 32,
              "stage1_epochs": 900, "stage1_lr": 0.03, "stage1_decay_epoch": 450,
              "stage2_epochs": 1000, "stage2_lr": 0.03, "stage2_decay_epoch": 800,
              "freeze_posenet": True,
              "loss_weights": {"edge_start_epoch": 1001}},
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def resolve_config(profile: str = "desk", file_dict: dict | None = None,
                   overrides: dict | None = None) -> RunConfig:
    """Layer profile, config file, and CLI overrides over the defaults.

    Objects merge key by key at every depth, so a layer that sets one bone
    length keeps the other bones of the layers below it.
    """
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {PROFILES}, got {profile!r}")
    raw = to_dict(RunConfig(profile=profile))
    if profile == "desk":
        raw = _merge(raw, DESK_OVERRIDES)
    for layer in (file_dict, overrides):
        if layer:
            raw = _merge(raw, layer)
    cfg = from_dict(RunConfig, raw, "config")
    cfg.validate()
    return cfg


def load_config_file(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"config {path}: invalid JSON ({e})") from e
    if not isinstance(raw, dict):
        raise ValueError(f"config {path}: expected a JSON object")
    return raw


def echo_config(cfg: RunConfig, out_dir) -> Path:
    """Write the fully-resolved config next to the run outputs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "config.resolved.json"
    path.write_text(json.dumps(to_dict(cfg), indent=2) + "\n")
    return path


def checkpoint_config(cfg: RunConfig) -> dict:
    """The config snapshot stored in checkpoints and cross-checked on load."""
    return {"template": to_dict(cfg.template), "levels": cfg.model.levels,
            "seed": cfg.seed, "widths": list(cfg.model.level_widths),
            "K": cfg.model.order, "model": to_dict(cfg.model)}


def check_checkpoint_config(stored: dict, cfg: RunConfig) -> None:
    """Raise when a checkpoint disagrees with the active run config on a
    top-level key or a stored ``model`` key but dropout, which only
    changes training-mode forwards."""
    expect, model = checkpoint_config(cfg), stored.get("model")
    if not isinstance(model, dict):
        raise ValueError(f"checkpoint config mismatch on 'model': checkpoint "
                         f"has {model!r}")
    pairs = [(key, stored.get(key), expect[key])
             for key in ("template", "levels", "seed", "widths", "K")]
    pairs += [(f"model.{key}", value, expect["model"].get(key))
              for key, value in model.items() if key != "dropout"]
    for key, have, want in pairs:
        if have != want:
            raise ValueError(f"checkpoint config mismatch on {key!r}: "
                             f"checkpoint has {have!r}, run config has {want!r}")
