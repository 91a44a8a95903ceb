"""Pose samples, input normalization, 2D error synthesis, dataset generation.

2D keypoints are pixels, 3D joints and vertices are root-relative
millimeters. Error synthesis imitates detector failure modes (misses,
left/right swaps, localization jitter) and is fully seed-reproducible:
the draw counts are fixed per sample, so identical seeds give identical
corruption regardless of which branches fire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from meshlift.template import MeshTemplate, TubeBodySpec, build_tube_body, euler_rotation, pose_mesh

BBOX_EXPANSION = 1.2
MAX_ANGLE_DEG = 45.0  # per-axis joint rotation range of generated poses


@dataclass
class PoseSample:
    """One example: 2D keypoints (pixels) with 3D ground truth (mm)."""

    pose2d: np.ndarray             # (J, 2)
    pose3d: np.ndarray             # (J, 3), root-relative
    mesh: np.ndarray | None = None  # (V, 3), root-relative
    camera: dict | None = None      # {"scale": px/mm, "offset": [ox, oy]}


@dataclass
class ErrorSynthConfig:
    """Keypoint corruption rates; all zero means the identity transform.
    ``enabled`` switches synthesis on for training."""

    enabled: bool = True
    p_miss: float = 0.02
    p_swap: float = 0.03
    jitter_sigma_frac: float = 0.02

    def validate(self) -> None:
        if not (0.0 <= self.p_miss <= 1.0 and 0.0 <= self.p_swap <= 1.0):
            raise ValueError("ErrorSynthConfig: probabilities must lie in [0, 1]")
        if self.jitter_sigma_frac < 0:
            raise ValueError("ErrorSynthConfig: jitter_sigma_frac must be >= 0")

    def is_identity(self) -> bool:
        return self.p_miss == 0.0 and self.p_swap == 0.0 and self.jitter_sigma_frac == 0.0


def check_sample_shapes(samples, template: MeshTemplate, min_samples: int = 1) -> None:
    """Reject an empty sample list, one shorter than ``min_samples`` (batch
    norm trains on 2 or more), or samples whose joint or mesh vertex count
    is not the template's, naming the first such sample."""
    if not samples:
        raise ValueError("empty dataset")
    if len(samples) < min_samples:
        raise ValueError(f"training needs at least {min_samples} samples, "
                         f"the dataset has {len(samples)}")
    j, v = template.num_joints, template.num_vertices
    for i, s in enumerate(samples):
        for name, arr, want, unit in (("pose2d", s.pose2d, j, "joints"),
                                      ("pose3d", s.pose3d, j, "joints"),
                                      ("mesh", s.mesh, v, "vertices")):
            if arr is not None and len(arr) != want:
                raise ValueError(f"sample {i}: {name} has {len(arr)} {unit} but "
                                 f"the template has {want}")


def normalize_2d_pose(pose2d: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Remove the per-instance mean and scale of a 2D pose.

    Subtracts the per-axis mean, then divides by the scalar standard
    deviation of all 2J centered coordinates. Returns (normalized, mean,
    std) so the transform can be undone.
    """
    pose2d = np.asarray(pose2d, dtype=np.float64)
    if pose2d.ndim != 2 or pose2d.shape[1] != 2:
        raise ValueError(f"normalize_2d_pose: expected (J, 2), got {pose2d.shape}")
    mean = pose2d.mean(axis=0)
    centered = pose2d - mean
    std = float(np.sqrt(np.mean(centered ** 2)))
    if std <= 1e-8:
        raise ValueError("normalize_2d_pose: degenerate pose, all joints coincide")
    return centered / std, mean, std


def synthesize_pose_errors(pose2d: np.ndarray, cfg: ErrorSynthConfig,
                           symmetry_pairs, rng: np.random.Generator) -> np.ndarray:
    """Corrupt ground-truth 2D keypoints the way a detector would.

    Per joint: with p_miss, replace by a uniform point in the 1.2x expanded
    bounding box of the pose; otherwise, if its symmetric pair fired a swap
    (one draw per pair), take the partner's position. All joints then get
    Gaussian jitter with sigma = jitter_sigma_frac * bbox diagonal.
    """
    cfg.validate()
    pose2d = np.asarray(pose2d, dtype=np.float64)
    n = pose2d.shape[0]
    if cfg.is_identity():
        return pose2d.copy()

    lo, hi = pose2d.min(axis=0), pose2d.max(axis=0)
    center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    box_lo = center - BBOX_EXPANSION * half
    box_hi = center + BBOX_EXPANSION * half
    diag = float(np.linalg.norm(hi - lo))

    # fixed draw order and count: swaps, misses, miss targets, jitter
    pairs = list(symmetry_pairs)
    swap_fire = rng.random(len(pairs)) < cfg.p_swap
    miss_fire = rng.random(n) < cfg.p_miss
    miss_points = box_lo + rng.random((n, 2)) * (box_hi - box_lo)
    jitter = rng.standard_normal((n, 2)) * (cfg.jitter_sigma_frac * diag)

    out = pose2d.copy()
    for fired, (i, j) in zip(swap_fire, pairs):
        if fired:
            out[i], out[j] = pose2d[j].copy(), pose2d[i].copy()
    out[miss_fire] = miss_points[miss_fire]
    return out + jitter


def generate_synthetic_dataset(spec: TubeBodySpec, n_samples: int, seed: int = 0
                               ) -> tuple[MeshTemplate, list[PoseSample]]:
    """Pose the tube body n_samples times and project to 2D.

    Joint rotations are per-axis uniform in +-MAX_ANGLE_DEG. Each sample
    uses a seed derived from (seed, index) so regeneration of any subset is
    reproducible. The 3D ground truth is root-relative; pose3d is defined
    as regressor @ mesh, so the two are consistent by construction.
    """
    if n_samples < 1:
        raise ValueError("generate_synthetic_dataset: n_samples must be >= 1")
    template = build_tube_body(spec)
    max_angle = np.deg2rad(MAX_ANGLE_DEG)
    root = template.root_index
    samples = []
    for i in range(n_samples):
        rng = np.random.default_rng([seed, i])
        angles = rng.uniform(-max_angle, max_angle, size=(template.num_joints, 3))
        rotations = np.stack([euler_rotation(a) for a in angles])
        posed = pose_mesh(template, rotations)
        root_pos = template.joint_regressor[root] @ posed
        mesh = posed - root_pos
        pose3d = template.joint_regressor @ mesh
        pose3d[root] = 0.0  # exact zero; regressor consistency holds to float eps
        scale = float(rng.uniform(0.5, 1.5))
        offset = rng.uniform(100.0, 900.0, size=2)
        pose2d = scale * pose3d[:, :2] + offset
        samples.append(PoseSample(
            pose2d=pose2d, pose3d=pose3d, mesh=mesh,
            camera={"scale": scale, "offset": offset.tolist()}))
    return template, samples
