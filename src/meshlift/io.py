"""File formats: body-spec JSON, dataset JSONL, checkpoints, OBJ meshes.

Checkpoint layout: 4-byte magic, u32 little-endian manifest length, a
JSON manifest, then all tensor payloads concatenated as little-endian
float32. Byte offsets in the manifest are relative to the start of the
payload block.

The manifest holds ``format_version``, the run ``config`` and the
``tensors`` directory (name, shape, dtype, byte_offset per tensor).
Format 2, which the writer emits, adds a ``hierarchy`` object to a
checkpoint with mesh weights, so that loading rebuilds the structure the
regressor was trained on instead of coarsening again: ``raw_parents``
(per level, every vertex's coarse cluster id, as JSON integers),
``lambda_max`` (per level, finest first, the float64 ``value`` and the
``converged`` flag) and ``pose_lambda_max`` (the same for the pose
graph); see coarsen.hierarchy_record. Format 1 files still load.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .config import from_dict, to_dict
from .data import PoseSample
from .template import TubeBodySpec

CHECKPOINT_MAGIC = b"P2M1"
CHECKPOINT_VERSION = 2
CHECKPOINT_VERSIONS = (1, 2)  # the versions load_checkpoint reads


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
    """Every malformed line raises a ValueError naming ``path:line``."""
    samples = []
    first = {}  # field -> (line, row count) of the first record that has it
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as e:  # bad JSON or bad UTF-8
                raise ValueError(f"dataset {path}:{lineno}: invalid JSON ({e})") from e
            if not isinstance(rec, dict):
                raise ValueError(f"dataset {path}:{lineno}: expected a JSON object, "
                                 f"got {type(rec).__name__}")
            camera = rec.get("camera")
            if camera is not None and not (isinstance(camera, dict)
                                           and set(camera) == {"scale", "offset"}):
                raise ValueError(f"dataset {path}:{lineno}: camera must be an object "
                                 f"with keys scale and offset")
            unknown = set(rec) - {"pose2d", "pose3d", "mesh", "camera"}
            if unknown:
                raise ValueError(f"dataset {path}:{lineno}: unknown keys "
                                 f"{sorted(unknown)}")
            try:
                pose2d = np.asarray(rec["pose2d"], dtype=np.float64)
                pose3d = np.asarray(rec["pose3d"], dtype=np.float64)
                mesh = np.asarray(rec["mesh"], dtype=np.float64) if "mesh" in rec else None
            except (KeyError, TypeError, ValueError, OverflowError) as e:
                raise ValueError(f"dataset {path}:{lineno}: bad record ({e})") from e
            if pose2d.ndim != 2 or pose2d.shape[1] != 2:
                raise ValueError(f"dataset {path}:{lineno}: pose2d must be (J, 2), "
                                 f"got {pose2d.shape}")
            if pose3d.shape != (pose2d.shape[0], 3):
                raise ValueError(f"dataset {path}:{lineno}: pose3d must be "
                                 f"({pose2d.shape[0]}, 3), got {pose3d.shape}")
            if mesh is not None and (mesh.ndim != 2 or mesh.shape[1] != 3):
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
                                      camera=camera))
    if not samples:
        raise ValueError(f"dataset {path}: no samples")
    return samples


# --------------------------------------------------------------- checkpoint

def save_checkpoint(path, config: dict, tensors: dict, hierarchy: dict | None = None
                    ) -> None:
    """Write config, named float32 arrays and, when given, the hierarchy
    record in a single format-2 file.

    Every tensor is checked before the file is touched. The bytes go to a
    temporary file next to ``path`` that replaces it only once complete,
    so a failed save leaves the old checkpoint as it was.
    """
    entries = []
    arrays = []
    offset = 0
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        if not np.isfinite(arr).all():
            raise ValueError(f"save_checkpoint {path}: tensor {name!r} has "
                             f"non-finite values")
        entries.append({"name": name, "shape": list(arr.shape),
                        "dtype": "f32", "byte_offset": offset})
        arrays.append(arr)
        offset += arr.nbytes
    manifest = {"format_version": CHECKPOINT_VERSION, "config": config,
                "tensors": entries}
    if hierarchy is not None:
        manifest["hierarchy"] = hierarchy
    mbytes = json.dumps(manifest).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC + struct.pack("<I", len(mbytes)) + mbytes)
            for arr in arrays:
                fh.write(memoryview(arr))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    """Read a checkpoint; returns (config, {name: float32 array}, hierarchy
    record or None). The record's contents are checked where the model is
    known (coarsen.hierarchy_from_record).

    The manifest is checked against the file size before any payload is
    read, then each tensor is read straight into its own array. Every
    malformed file raises a ValueError that starts with ``checkpoint PATH``.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if head[:4] != CHECKPOINT_MAGIC:
            raise ValueError(f"checkpoint {path}: bad magic {head[:4]!r}")
        if len(head) < 8:
            raise ValueError(f"checkpoint {path}: truncated header")
        mlen = struct.unpack("<I", head[4:])[0]
        if size < 8 + mlen:
            raise ValueError(f"checkpoint {path}: truncated manifest")
        try:
            manifest = json.loads(fh.read(mlen).decode("utf-8"))
        except ValueError as e:  # bad UTF-8 or bad JSON
            raise ValueError(f"checkpoint {path}: bad manifest ({e})") from e
        entries = _checked_entries(path, manifest, size - 8 - mlen)
        tensors = {}
        for name, shape, start, end in entries:
            arr = np.empty(shape, dtype="<f4")
            fh.seek(8 + mlen + start)
            if fh.readinto(arr) != end - start:
                raise ValueError(f"checkpoint {path}: tensor {name!r} "
                                 f"payload out of range")
            if not np.isfinite(arr).all():
                raise ValueError(f"checkpoint {path}: tensor {name!r} has "
                                 f"non-finite values")
            tensors[name] = arr.astype(np.float32, copy=False)
    return manifest["config"], tensors, manifest.get("hierarchy")


def _checked_entries(path, manifest, payload_size: int):
    """The manifest's tensors as (name, shape, start, end) payload ranges,
    each checked to be well formed, inside the payload, and disjoint from
    the others."""
    if not isinstance(manifest, dict):
        raise ValueError(f"checkpoint {path}: manifest is not a JSON object")
    version = manifest.get("format_version")
    if type(version) is not int or version not in CHECKPOINT_VERSIONS:
        raise ValueError(f"checkpoint {path}: unsupported format_version "
                         f"{version!r}")
    if not (isinstance(manifest.get("config"), dict)
            and isinstance(manifest.get("tensors"), list)):
        raise ValueError(f"checkpoint {path}: manifest needs a config object "
                         f"and a tensors list")
    if "hierarchy" in manifest and (version < 2
                                    or not isinstance(manifest["hierarchy"], dict)):
        raise ValueError(f"checkpoint {path}: hierarchy needs format_version 2 "
                         f"and a JSON object")
    entries = []
    names = set()
    for entry in manifest["tensors"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)):
            raise ValueError(f"checkpoint {path}: tensor entry without a name")
        name = entry["name"]
        if entry.get("dtype") != "f32":
            raise ValueError(f"checkpoint {path}: tensor {name!r} "
                             f"has unsupported dtype {entry.get('dtype')!r}")
        if name in names:
            raise ValueError(f"checkpoint {path}: duplicate tensor {name!r}")
        names.add(name)
        shape, start = entry.get("shape"), entry.get("byte_offset")
        if not (isinstance(shape, list)
                and all(type(d) is int and d >= 0 for d in [*shape, start])):
            raise ValueError(f"checkpoint {path}: tensor {name!r} needs non-negative "
                             f"integer shape and byte_offset, got {shape!r} and {start!r}")
        end = start + 4 * math.prod(shape)
        if end > payload_size:
            raise ValueError(f"checkpoint {path}: tensor {name!r} "
                             f"payload out of range")
        entries.append((name, shape, start, end))
    spans = sorted((start, end, name) for name, _, start, end in entries if end > start)
    for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
        if start < end:
            raise ValueError(f"checkpoint {path}: payloads of tensors "
                             f"{first!r} and {second!r} overlap")
    return entries


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
