"""File formats: body-spec JSON, dataset JSONL, checkpoints, OBJ meshes.

Checkpoint layout: 4-byte magic, u32 little-endian manifest length, a
JSON manifest (config plus tensor directory), then all tensor payloads
concatenated as little-endian float32. Byte offsets in the manifest are
relative to the start of the payload block.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .config import from_dict, to_dict
from .data import PoseSample
from .template import TubeBodySpec

CHECKPOINT_MAGIC = b"P2M1"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------- body spec

def save_body_spec(spec: TubeBodySpec, path) -> None:
    Path(path).write_text(json.dumps(to_dict(spec), indent=2) + "\n")


def load_body_spec(path) -> TubeBodySpec:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"body spec {path}: invalid JSON ({e})") from e
    if not isinstance(raw, dict):
        raise ValueError(f"body spec {path}: expected a JSON object")
    return from_dict(TubeBodySpec, raw, f"body spec {path}: template")


# ------------------------------------------------------------------ dataset

def save_dataset(samples, path) -> None:
    """One JSON object per line; mesh and camera are optional fields."""
    with open(path, "w") as fh:
        for s in samples:
            rec = {"pose2d": np.asarray(s.pose2d).tolist(),
                   "pose3d": np.asarray(s.pose3d).tolist()}
            if s.mesh is not None:
                rec["mesh"] = np.asarray(s.mesh).tolist()
            if s.camera is not None:
                rec["camera"] = s.camera
            fh.write(json.dumps(rec) + "\n")


def load_dataset(path) -> list[PoseSample]:
    samples = []
    first = {}  # field -> (line, row count) of the first record that has it
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"dataset {path}:{lineno}: invalid JSON ({e})") from e
            unknown = set(rec) - {"pose2d", "pose3d", "mesh", "camera"}
            if unknown:
                raise ValueError(f"dataset {path}:{lineno}: unknown keys "
                                 f"{sorted(unknown)}")
            try:
                pose2d = np.asarray(rec["pose2d"], dtype=np.float64)
                pose3d = np.asarray(rec["pose3d"], dtype=np.float64)
            except (KeyError, ValueError) as e:
                raise ValueError(f"dataset {path}:{lineno}: bad record ({e})") from e
            if pose2d.ndim != 2 or pose2d.shape[1] != 2:
                raise ValueError(f"dataset {path}:{lineno}: pose2d must be (J, 2), "
                                 f"got {pose2d.shape}")
            if pose3d.shape != (pose2d.shape[0], 3):
                raise ValueError(f"dataset {path}:{lineno}: pose3d must be "
                                 f"({pose2d.shape[0]}, 3), got {pose3d.shape}")
            mesh = None
            if "mesh" in rec:
                mesh = np.asarray(rec["mesh"], dtype=np.float64)
                if mesh.ndim != 2 or mesh.shape[1] != 3:
                    raise ValueError(f"dataset {path}:{lineno}: mesh must be (V, 3), "
                                     f"got {mesh.shape}")
            for name, arr in (("pose2d", pose2d), ("pose3d", pose3d), ("mesh", mesh)):
                if arr is None:
                    continue
                if not np.isfinite(arr).all():
                    raise ValueError(f"dataset {path}:{lineno}: {name} has "
                                     f"non-finite values")
                line0, rows0 = first.setdefault(name, (lineno, len(arr)))
                if len(arr) != rows0:
                    unit = "vertex" if name == "mesh" else "joint"
                    raise ValueError(f"dataset {path}:{lineno}: inconsistent {unit} "
                                     f"counts: {name} has {len(arr)} rows, line "
                                     f"{line0} has {rows0}")
            samples.append(PoseSample(pose2d=pose2d, pose3d=pose3d, mesh=mesh,
                                      camera=rec.get("camera")))
    if not samples:
        raise ValueError(f"dataset {path}: no samples")
    return samples


# --------------------------------------------------------------- checkpoint

def save_checkpoint(path, config: dict, tensors: dict) -> None:
    """Write config and named float32 arrays in a single binary file."""
    entries = []
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float32))
        if not np.isfinite(arr).all():
            raise ValueError(f"save_checkpoint {path}: tensor {name!r} has "
                             f"non-finite values")
        blob = arr.astype("<f4", copy=False).tobytes()
        entries.append({"name": name, "shape": list(arr.shape),
                        "dtype": "f32", "byte_offset": offset})
        blobs.append(blob)
        offset += len(blob)
    manifest = {"format_version": CHECKPOINT_VERSION, "config": config,
                "tensors": entries}
    mbytes = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(mbytes)))
        fh.write(mbytes)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path):
    """Read a checkpoint; returns (config, {name: float32 array})."""
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"checkpoint {path}: bad magic {raw[:4]!r}")
    if len(raw) < 8:
        raise ValueError(f"checkpoint {path}: truncated header")
    mlen = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    if len(raw) < 8 + mlen:
        raise ValueError(f"checkpoint {path}: truncated manifest")
    try:
        manifest = json.loads(raw[8:8 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"checkpoint {path}: bad manifest ({e})") from e
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path}: unsupported format_version "
                         f"{manifest.get('format_version')!r}")
    payload = raw[8 + mlen:]
    tensors = {}
    spans = []  # (start, end, name) of every non-empty payload range
    for entry in manifest["tensors"]:
        name = entry.get("name")
        if entry.get("dtype") != "f32":
            raise ValueError(f"checkpoint {path}: tensor {name!r} "
                             f"has unsupported dtype {entry.get('dtype')!r}")
        if name in tensors:
            raise ValueError(f"checkpoint {path}: duplicate tensor {name!r}")
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        start = entry["byte_offset"]
        end = start + 4 * count
        if start < 0 or end > len(payload):
            raise ValueError(f"checkpoint {path}: tensor {name!r} "
                             f"payload out of range")
        arr = np.frombuffer(payload[start:end], dtype="<f4").reshape(shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint {path}: tensor {name!r} has "
                             f"non-finite values")
        tensors[name] = arr.astype(np.float32, copy=True)
        if end > start:
            spans.append((start, end, name))
    spans.sort()
    for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
        if start < end:
            raise ValueError(f"checkpoint {path}: payloads of tensors "
                             f"{first!r} and {second!r} overlap")
    return manifest["config"], tensors


# ---------------------------------------------------------------------- OBJ

def save_obj(path, vertices: np.ndarray, faces: np.ndarray) -> None:
    """Wavefront OBJ with 1-based face indices."""
    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise ValueError(f"save_obj: vertices must be (V, 3), got {vertices.shape}")
    if faces.ndim != 2 or faces.shape[1] != 3:
        raise ValueError(f"save_obj: faces must be (F, 3), got {faces.shape}")
    if faces.size and (faces.min() < 0 or faces.max() >= len(vertices)):
        raise ValueError("save_obj: face index out of range")
    with open(path, "w") as fh:
        for x, y, z in vertices:
            fh.write(f"v {x:.6g} {y:.6g} {z:.6g}\n")
        for a, b, c in faces + 1:
            fh.write(f"f {a} {b} {c}\n")
