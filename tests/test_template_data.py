"""Tube body construction, kinematics, normalization, error synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshlift import data as D
from meshlift import template as TP
from meshlift.graphs import build_mesh_graph


def small_spec(**kw):
    return TP.TubeBodySpec(**{"verts_per_ring": 4, "rings_per_bone": 3, **kw})


class TestTubeBody:
    def test_vertex_and_joint_counts(self):
        t = TP.build_tube_body(small_spec())
        bones = len(TP.JOINT_NAMES) - 1
        assert t.num_vertices == bones * 4 * 3
        assert t.num_joints == 12
        assert t.root_index == 0

    def test_default_spec_in_desk_range(self):
        t = TP.build_tube_body(TP.TubeBodySpec())
        assert 150 <= t.num_vertices <= 250

    def test_faces_valid_and_mesh_connected(self):
        t = TP.build_tube_body(small_spec())
        g = build_mesh_graph(t)  # validates faces while building
        # BFS over the whole mesh: one connected component
        seen = {0}
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for v in g.neighbors[u][g.neighbors[u] >= 0]:
                if int(v) not in seen:
                    seen.add(int(v))
                    frontier.append(int(v))
        assert len(seen) == t.num_vertices

    def test_regressor_and_weights_rows_sum_to_one(self):
        t = TP.build_tube_body(small_spec(verts_per_ring=5))
        np.testing.assert_allclose(t.joint_regressor.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(t.skinning_weights.sum(axis=1), 1.0, atol=1e-12)

    def test_rest_joints_near_skeleton(self):
        # ring averages sit on the bone axis, within one ring spacing of the joint
        spec = small_spec()
        t = TP.build_tube_body(spec)
        rest = np.zeros((12, 3))
        for c in range(1, 12):
            d = np.asarray(TP._BONE_DIRECTIONS[c])
            rest[c] = rest[TP.PARENTS[c]] + d * spec.bone_lengths[TP.JOINT_NAMES[c]]
        approx = t.rest_joints()
        for c in range(12):
            # nearest bone length bounds the offset of the regressor ring
            lens = [spec.bone_lengths[TP.JOINT_NAMES[k]] for k in range(1, 12)
                    if TP.PARENTS[k] == c or k == c]
            assert np.linalg.norm(approx[c] - rest[c]) <= max(lens) / (spec.rings_per_bone + 1) + 1e-9

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="ring"):
            TP.build_tube_body(small_spec(verts_per_ring=2))
        with pytest.raises(ValueError, match="radius"):
            TP.build_tube_body(small_spec(tube_radius=-1.0))
        bad = small_spec()
        bad.bone_lengths = {"spine": 100.0}
        with pytest.raises(ValueError, match="missing"):
            TP.build_tube_body(bad)


class TestKinematics:
    def test_identity_rotations_reproduce_rest_mesh(self):
        t = TP.build_tube_body(small_spec())
        eye = np.broadcast_to(np.eye(3), (12, 3, 3)).copy()
        posed = TP.pose_mesh(t, eye)
        np.testing.assert_allclose(posed, t.vertices, atol=1e-9)

    def test_two_bone_chain_hand_values(self):
        # chain along +x: joint1 at (2,0,0), joint2 at (3,0,0); rotating
        # joint1 by +90deg about z sends its offspring offset (1,0,0)->(0,1,0)
        parents = [-1, 0, 1]
        rest = np.array([[0.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        rot = np.broadcast_to(np.eye(3), (3, 3, 3)).copy()
        rot[1] = TP.euler_rotation(np.array([0.0, 0.0, np.pi / 2]))
        world = TP.forward_kinematics(parents, rest, rot)
        np.testing.assert_allclose(world[1][:3, 3], [2, 0, 0], atol=1e-12)
        np.testing.assert_allclose(world[2][:3, 3], [2, 1, 0], atol=1e-12)

    def test_rotating_one_joint_moves_only_its_subtree(self):
        t = TP.build_tube_body(small_spec())
        rot = np.broadcast_to(np.eye(3), (12, 3, 3)).copy()
        l_shoulder = TP.JOINT_NAMES.index("l_shoulder")
        rot[l_shoulder] = TP.euler_rotation(np.array([0.0, np.pi / 2, 0.0]))
        posed = TP.pose_mesh(t, rot)
        moved = np.linalg.norm(posed - t.vertices, axis=1) > 1e-9
        # exactly the tubes owned by l_shoulder (the l_elbow bone) move
        expected = t.skinning_weights[:, l_shoulder] > 0
        np.testing.assert_array_equal(moved, expected)

    def test_rotation_preserves_bone_tube_shape(self):
        t = TP.build_tube_body(small_spec())
        rng = np.random.default_rng(0)
        angles = rng.uniform(-np.pi / 4, np.pi / 4, size=(12, 3))
        rot = np.stack([TP.euler_rotation(a) for a in angles])
        posed = TP.pose_mesh(t, rot)
        # rigid skinning: distances within one tube are preserved
        owner = np.argmax(t.skinning_weights, axis=1)
        for j in set(owner.tolist()):
            vs = np.flatnonzero(owner == j)[:6]
            for a in vs:
                for b in vs:
                    d0 = np.linalg.norm(t.vertices[a] - t.vertices[b])
                    d1 = np.linalg.norm(posed[a] - posed[b])
                    assert abs(d0 - d1) < 1e-6


class TestNormalize:
    def test_hand_value(self):
        p, mean, std = D.normalize_2d_pose(np.array([[0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_allclose(mean, [1.0, 1.0])
        assert std == pytest.approx(1.0)
        np.testing.assert_allclose(p, [[-1, -1], [1, 1]])

    def test_roundtrip(self):
        pose = np.random.default_rng(0).uniform(0, 640, (12, 2))
        p, mean, std = D.normalize_2d_pose(pose)
        np.testing.assert_allclose(p * std + mean, pose, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_output_is_zero_mean_unit_power(self, seed):
        pose = np.random.default_rng(seed).uniform(-5, 5, (10, 2))
        try:
            p, _, _ = D.normalize_2d_pose(pose)
        except ValueError:
            return  # degenerate draws are allowed to error
        np.testing.assert_allclose(p.mean(axis=0), 0.0, atol=1e-9)
        assert np.sqrt(np.mean(p ** 2)) == pytest.approx(1.0)

    def test_degenerate_pose_errors(self):
        with pytest.raises(ValueError, match="degenerate"):
            D.normalize_2d_pose(np.ones((5, 2)))

    @pytest.mark.parametrize("batch", [(7,), (2, 3)])
    def test_batch_equals_each_pose(self, batch):
        poses = np.random.default_rng(1).uniform(0, 640, batch + (12, 2))
        p, mean, std = D.normalize_2d_pose(poses)
        assert mean.shape == batch + (2,) and std.shape == batch
        for idx in np.ndindex(*batch):
            one = D.normalize_2d_pose(poses[idx])
            for got, want in zip((p[idx], mean[idx], std[idx]), one):
                np.testing.assert_array_equal(got, want)

    def test_one_degenerate_pose_in_a_batch_errors(self):
        poses = np.random.default_rng(2).uniform(0, 640, (4, 12, 2))
        poses[2] = 5.0
        with pytest.raises(ValueError, match="degenerate"):
            D.normalize_2d_pose(poses)
        with pytest.raises(ValueError, match=r"expected \(\.\.\., J, 2\)"):
            D.normalize_2d_pose(poses[..., :1])


class TestErrorSynthesis:
    def pose(self):
        return np.random.default_rng(3).uniform(0, 500, (12, 2))

    def test_identity_config_returns_input(self):
        cfg = D.ErrorSynthConfig(p_miss=0.0, p_swap=0.0, jitter_sigma_frac=0.0)
        out = D.synthesize_pose_errors(self.pose(), cfg, TP.SYMMETRY_PAIRS,
                                       np.random.default_rng(0))
        np.testing.assert_array_equal(out, self.pose())

    def test_all_swaps_exchange_pairs_only(self):
        cfg = D.ErrorSynthConfig(p_miss=0.0, p_swap=1.0, jitter_sigma_frac=0.0)
        pose = self.pose()
        out = D.synthesize_pose_errors(pose, cfg, TP.SYMMETRY_PAIRS,
                                       np.random.default_rng(0))
        paired = set()
        for i, j in TP.SYMMETRY_PAIRS:
            np.testing.assert_array_equal(out[i], pose[j])
            np.testing.assert_array_equal(out[j], pose[i])
            paired |= {i, j}
        for k in range(12):
            if k not in paired:
                np.testing.assert_array_equal(out[k], pose[k])

    def test_misses_land_in_expanded_bbox(self):
        cfg = D.ErrorSynthConfig(p_miss=1.0, p_swap=0.0, jitter_sigma_frac=0.0)
        pose = self.pose()
        out = D.synthesize_pose_errors(pose, cfg, TP.SYMMETRY_PAIRS,
                                       np.random.default_rng(1))
        lo, hi = pose.min(axis=0), pose.max(axis=0)
        c, h = (lo + hi) / 2, (hi - lo) / 2
        assert np.all(out >= c - 1.2 * h - 1e-9) and np.all(out <= c + 1.2 * h + 1e-9)
        assert not np.allclose(out, pose)

    def test_jitter_scale(self):
        cfg = D.ErrorSynthConfig(p_miss=0.0, p_swap=0.0, jitter_sigma_frac=0.1)
        pose = self.pose()
        diag = np.linalg.norm(pose.max(axis=0) - pose.min(axis=0))
        deltas = []
        for s in range(200):
            out = D.synthesize_pose_errors(pose, cfg, [], np.random.default_rng(s))
            deltas.append(out - pose)
        sigma = np.std(np.concatenate(deltas))
        assert abs(sigma - 0.1 * diag) / (0.1 * diag) < 0.15

    def test_seed_reproducible(self):
        cfg = D.ErrorSynthConfig(p_miss=0.3, p_swap=0.5, jitter_sigma_frac=0.05)
        a = D.synthesize_pose_errors(self.pose(), cfg, TP.SYMMETRY_PAIRS,
                                     np.random.default_rng(42))
        b = D.synthesize_pose_errors(self.pose(), cfg, TP.SYMMETRY_PAIRS,
                                     np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            D.ErrorSynthConfig(p_miss=1.5).validate()


class TestGenerator:
    def test_dataset_shapes_and_consistency(self):
        spec = small_spec()
        template, samples = D.generate_synthetic_dataset(spec, 8, seed=5)
        assert len(samples) == 8
        for s in samples:
            assert s.pose2d.shape == (12, 2)
            assert s.pose3d.shape == (12, 3)
            assert s.mesh.shape == (template.num_vertices, 3)
            np.testing.assert_array_equal(s.pose3d[template.root_index], 0.0)
            # regressor consistency: pose3d is regressor @ mesh
            err = np.abs(template.joint_regressor @ s.mesh - s.pose3d).max()
            assert err < 1e-6
            # projection consistency with the stored camera
            cam = s.camera
            expect = cam["scale"] * s.pose3d[:, :2] + np.asarray(cam["offset"])
            np.testing.assert_allclose(s.pose2d, expect, atol=1e-9)

    def test_reproducible_and_seed_sensitive(self):
        spec = small_spec()
        _, a = D.generate_synthetic_dataset(spec, 4, seed=9)
        _, b = D.generate_synthetic_dataset(spec, 4, seed=9)
        _, c = D.generate_synthetic_dataset(spec, 4, seed=10)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.mesh, y.mesh)
        assert not np.allclose(a[0].mesh, c[0].mesh)

    def test_prefix_stability(self):
        # sample i depends only on (seed, i), not on n_samples
        spec = small_spec()
        _, a = D.generate_synthetic_dataset(spec, 6, seed=2)
        _, b = D.generate_synthetic_dataset(spec, 3, seed=2)
        for x, y in zip(a[:3], b):
            np.testing.assert_array_equal(x.pose2d, y.pose2d)
