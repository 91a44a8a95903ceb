"""Synthetic articulated body: tube limbs around a 12-joint skeleton.

Every bone carries an open triangulated tube (rings x ring vertices) bound
rigidly to the bone's parent joint, with seam faces stitching consecutive
tubes together so the mesh is a single connected component. The joint
regressor averages the ring nearest each joint, which makes the regressor
consistent with the skinned geometry by construction.

All 3D quantities are millimeters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

JOINT_NAMES = [
    "pelvis", "spine", "neck", "head",
    "l_shoulder", "l_elbow", "r_shoulder", "r_elbow",
    "l_hip", "l_knee", "r_hip", "r_knee",
]
PARENTS = [-1, 0, 1, 2, 2, 4, 2, 6, 0, 8, 0, 10]
ROOT_INDEX = 0
SYMMETRY_PAIRS = [(4, 6), (5, 7), (8, 10), (9, 11)]

# rest-pose direction of each bone (unit vector from parent joint), indexed
# by the child joint; lengths come from the template spec
_BONE_DIRECTIONS = {
    1: (0.0, 0.0, 1.0),    # pelvis -> spine
    2: (0.0, 0.0, 1.0),    # spine -> neck
    3: (0.0, 0.0, 1.0),    # neck -> head
    4: (1.0, 0.0, 0.0),    # neck -> l_shoulder
    5: (1.0, 0.0, 0.0),    # l_shoulder -> l_elbow
    6: (-1.0, 0.0, 0.0),   # neck -> r_shoulder
    7: (-1.0, 0.0, 0.0),   # r_shoulder -> r_elbow
    8: (1.0, 0.0, 0.0),    # pelvis -> l_hip
    9: (0.0, 0.0, -1.0),   # l_hip -> l_knee
    10: (-1.0, 0.0, 0.0),  # pelvis -> r_hip
    11: (0.0, 0.0, -1.0),  # r_hip -> r_knee
}

_DEFAULT_BONE_LENGTHS = {
    "spine": 180.0, "neck": 120.0, "head": 90.0,
    "l_shoulder": 110.0, "l_elbow": 150.0,
    "r_shoulder": 110.0, "r_elbow": 150.0,
    "l_hip": 90.0, "l_knee": 200.0,
    "r_hip": 90.0, "r_knee": 200.0,
}


@dataclass
class TubeBodySpec:
    """Geometry knobs for the synthetic tube body."""

    bone_lengths: dict[str, float] = field(
        default_factory=lambda: dict(_DEFAULT_BONE_LENGTHS))
    tube_radius: float = 30.0
    verts_per_ring: int = 4
    rings_per_bone: int = 4

    def validate(self) -> None:
        if self.verts_per_ring < 3:
            raise ValueError("TubeBodySpec: need at least 3 vertices per ring")
        if self.rings_per_bone < 2:
            raise ValueError("TubeBodySpec: need at least 2 rings per bone")
        if self.tube_radius <= 0:
            raise ValueError("TubeBodySpec: tube_radius must be positive")
        missing = [n for n in JOINT_NAMES[1:] if n not in self.bone_lengths]
        if missing:
            raise ValueError(f"TubeBodySpec: missing bone lengths for {missing}")
        for name, ln in self.bone_lengths.items():
            if name not in JOINT_NAMES[1:]:
                raise ValueError(f"TubeBodySpec: unknown bone {name!r}")
            if ln <= 0:
                raise ValueError(f"TubeBodySpec: bone {name!r} length must be positive")


@dataclass
class MeshTemplate:
    """Rest-pose mesh plus everything needed to pose and measure it."""

    vertices: np.ndarray          # (V, 3) float64, mm
    faces: np.ndarray             # (F, 3) int
    joint_regressor: np.ndarray   # (J, V), rows sum to 1
    skinning_weights: np.ndarray  # (V, J), rows sum to 1
    skeleton_edges: list[tuple[int, int]]
    symmetry_pairs: list[tuple[int, int]]
    root_index: int

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_joints(self) -> int:
        return self.joint_regressor.shape[0]

    @property
    def parents(self) -> list[int]:
        par = [-1] * self.num_joints
        for p, c in self.skeleton_edges:
            par[c] = p
        return par

    def rest_joints(self) -> np.ndarray:
        return self.joint_regressor @ self.vertices

    def validate(self) -> None:
        v, f = self.num_vertices, self.faces
        if f.size and (f.min() < 0 or f.max() >= v):
            raise ValueError("MeshTemplate: face references vertex out of range")
        if not np.allclose(self.joint_regressor.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("MeshTemplate: joint regressor rows must sum to 1")
        if not np.allclose(self.skinning_weights.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("MeshTemplate: skinning weight rows must sum to 1")
        par = self.parents
        if par[self.root_index] != -1:
            raise ValueError("MeshTemplate: root joint must have no parent")
        seen = {self.root_index}
        for p, c in self.skeleton_edges:
            if p not in seen:
                raise ValueError("MeshTemplate: skeleton edges must be in tree order")
            seen.add(c)
        if len(seen) != self.num_joints:
            raise ValueError("MeshTemplate: skeleton must reach every joint")


def _perpendicular_frame(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors spanning the plane perpendicular to direction."""
    d = direction / np.linalg.norm(direction)
    helper = np.zeros(3)
    helper[np.argmin(np.abs(d))] = 1.0
    u = np.cross(d, helper)
    u /= np.linalg.norm(u)
    v = np.cross(d, u)
    return u, v


def _seam_faces(ring_a: np.ndarray, ring_b: np.ndarray) -> list[list[int]]:
    m = ring_a.size
    faces = []
    for i in range(m):
        j = (i + 1) % m
        faces.append([int(ring_a[i]), int(ring_a[j]), int(ring_b[i])])
        faces.append([int(ring_a[j]), int(ring_b[j]), int(ring_b[i])])
    return faces


def build_tube_body(spec: TubeBodySpec) -> MeshTemplate:
    """Construct the rest-pose tube body for a spec. Deterministic."""
    spec.validate()
    n_joints = len(JOINT_NAMES)
    rest = np.zeros((n_joints, 3))
    for child in range(1, n_joints):
        d = np.asarray(_BONE_DIRECTIONS[child])
        rest[child] = rest[PARENTS[child]] + d * spec.bone_lengths[JOINT_NAMES[child]]

    m, r = spec.verts_per_ring, spec.rings_per_bone
    phis = 2.0 * np.pi * np.arange(m) / m
    verts: list[np.ndarray] = []
    owner: list[int] = []
    faces: list[list[int]] = []
    rings: dict[int, np.ndarray] = {}          # child joint -> (R, M) vertex ids

    for child in range(1, n_joints):
        parent = PARENTS[child]
        start, end = rest[parent], rest[child]
        u, v = _perpendicular_frame(end - start)
        ids = np.zeros((r, m), dtype=np.int64)
        for k in range(r):
            t = (k + 1.0) / (r + 1.0)
            center = start + t * (end - start)
            for i in range(m):
                ids[k, i] = len(verts)
                verts.append(center + spec.tube_radius * (np.cos(phis[i]) * u
                                                          + np.sin(phis[i]) * v))
                owner.append(parent)  # bone geometry follows the parent joint
        rings[child] = ids
        for k in range(r - 1):
            faces.extend(_seam_faces(ids[k], ids[k + 1]))

    # seams: join each joint's incoming tube to its outgoing tubes; at the
    # root (no incoming tube) the first child tube stands in, which also
    # keeps the whole mesh one connected component
    children_of: dict[int, list[int]] = {}
    for child in range(1, n_joints):
        children_of.setdefault(PARENTS[child], []).append(child)
    for joint, kids in children_of.items():
        if joint == ROOT_INDEX:
            hub = rings[kids[0]][0]
            rest_kids = kids[1:]
        else:
            hub = rings[joint][-1]
            rest_kids = kids
        for child in rest_kids:
            faces.extend(_seam_faces(hub, rings[child][0]))

    vertices = np.asarray(verts)
    # joint regressor: uniform average of the ring nearest each joint
    regressor = np.zeros((n_joints, len(verts)))
    for joint in range(n_joints):
        if joint == ROOT_INDEX:
            ring = rings[children_of[ROOT_INDEX][0]][0]
        else:
            ring = rings[joint][-1]
        regressor[joint, ring] = 1.0 / m

    weights = np.zeros((len(verts), n_joints))
    weights[np.arange(len(verts)), owner] = 1.0

    template = MeshTemplate(
        vertices=vertices,
        faces=np.asarray(faces, dtype=np.int64),
        joint_regressor=regressor,
        skinning_weights=weights,
        skeleton_edges=[(PARENTS[c], c) for c in range(1, n_joints)],
        symmetry_pairs=list(SYMMETRY_PAIRS),
        root_index=ROOT_INDEX,
    )
    template.validate()
    return template


def euler_rotation(angles: np.ndarray) -> np.ndarray:
    """Rotation matrix R = Rz(c) @ Ry(b) @ Rx(a) for angles (a, b, c) in radians."""
    a, b, c = angles
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cc, sc = np.cos(c), np.sin(c)
    rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rz = np.array([[cc, -sc, 0], [sc, cc, 0], [0, 0, 1]])
    return rz @ ry @ rx


def forward_kinematics(parents, rest_joints: np.ndarray,
                       rotations: np.ndarray) -> np.ndarray:
    """Compose per-joint rotations down the tree; returns (J, 4, 4) world
    transforms. rotations is (J, 3, 3), one local rotation per joint applied
    about the joint itself.
    """
    rest_joints = np.asarray(rest_joints, dtype=np.float64)
    n = rest_joints.shape[0]
    if rotations.shape != (n, 3, 3):
        raise ValueError(f"forward_kinematics: rotations must be ({n}, 3, 3)")
    world = np.zeros((n, 4, 4))
    for j in range(n):
        p = parents[j]
        offset = rest_joints[j] - (rest_joints[p] if p >= 0 else 0.0)
        local = np.eye(4)
        local[:3, :3] = rotations[j]
        local[:3, 3] = offset
        world[j] = local if p < 0 else world[p] @ local
    return world


def pose_mesh(template: MeshTemplate, rotations: np.ndarray) -> np.ndarray:
    """Linear blend skinning of the template under per-joint rotations.

    With the rigid one-hot weights this moves each tube with its owning
    joint's frame; identity rotations reproduce the rest mesh exactly.
    """
    parents = template.parents
    rest = template.rest_joints()
    world = forward_kinematics(parents, rest, rotations)
    bind = forward_kinematics(parents, rest,
                              np.broadcast_to(np.eye(3), rotations.shape).copy())
    joint_mats = np.einsum("jab,jbc->jac", world,
                           np.linalg.inv(bind))  # (J, 4, 4)
    verts_h = np.concatenate(
        [template.vertices, np.ones((template.num_vertices, 1))], axis=1)
    per_joint = np.einsum("jab,vb->jva", joint_mats, verts_h)[:, :, :3]
    return np.einsum("vj,jva->va", template.skinning_weights, per_joint)
