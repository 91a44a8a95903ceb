"""Metric identities and hand values."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshlift.metrics import (NN_BLOCK_ROWS, SimilarityTransform, align_batch,
                              f_score, f_scores, mpjpe, mpvpe, pa_mpjpe,
                              procrustes_align)
from meshlift.template import euler_rotation


def random_cloud(rng, n=2, p=12, scale=100.0):
    return rng.standard_normal((n, p, 3)) * scale


def similarity(points, rng):
    r = euler_rotation(rng.uniform(-np.pi, np.pi, 3))
    s = rng.uniform(0.5, 2.0)
    t = rng.uniform(-50, 50, 3)
    return s * points @ r.T + t


class TestMpjpe:
    def test_hand_value_with_root_alignment(self):
        gt = np.zeros((1, 3, 3))
        pred = np.zeros((1, 3, 3))
        pred[0, 0] = [1, 0, 0]   # root offset is removed by alignment
        pred[0, 1] = [1, 3, 0]   # lands at (0,3,0): error 3
        pred[0, 2] = [1, 0, 4]   # lands at (0,0,4): error 4
        assert mpjpe(pred, gt) == pytest.approx((0 + 3 + 4) / 3)

    def test_single_joint_off_by_six_of_twelve(self):
        gt = np.zeros((12, 3))
        pred = gt.copy()
        pred[5, 1] = 6.0
        assert mpjpe(pred, gt) == pytest.approx(0.5)

    def test_common_offset_cancels(self):
        rng = np.random.default_rng(0)
        gt = random_cloud(rng)
        assert mpjpe(gt + np.array([5.0, -3.0, 9.0]), gt) == pytest.approx(0.0)

    def test_no_alignment_mode(self):
        gt = np.zeros((1, 2, 3))
        pred = np.ones((1, 2, 3))
        assert mpjpe(pred, gt, root_index=None) == pytest.approx(np.sqrt(3))

    def test_joint_mask(self):
        gt = np.zeros((1, 3, 3))
        pred = np.zeros((1, 3, 3))
        pred[0, 2] = [0, 0, 9]
        assert mpjpe(pred, gt, joint_mask=[1]) == 0.0
        assert mpjpe(pred, gt, joint_mask=[2]) == pytest.approx(9.0)

    def test_errors(self):
        with pytest.raises(ValueError, match="points"):
            mpjpe(np.zeros((2, 4)), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="root index"):
            mpjpe(np.zeros((1, 3, 3)), np.zeros((1, 3, 3)), root_index=5)


class TestProcrustes:
    def test_recovers_similarity_transform(self):
        rng = np.random.default_rng(0)
        gt = random_cloud(rng, n=1)[0]
        r0 = euler_rotation(np.array([0.4, -1.1, 2.0]))
        t0 = np.array([10.0, -4.0, 7.0])
        pred = gt.copy()
        gt2 = 2.0 * gt @ r0.T + t0
        tr = procrustes_align(pred, gt2)
        assert tr.scale == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(tr.rotation, r0, atol=1e-9)
        np.testing.assert_allclose(tr.translation, t0, atol=1e-7)
        np.testing.assert_allclose(tr.apply(pred), gt2, atol=1e-7)

    def test_identity_at_equality_and_idempotent(self):
        rng = np.random.default_rng(3)
        gt = random_cloud(rng, n=1)[0]
        pred = similarity(gt, rng)
        aligned = procrustes_align(pred, gt).apply(pred)
        tr2 = procrustes_align(aligned, gt)
        assert tr2.scale == pytest.approx(1.0, abs=1e-7)
        np.testing.assert_allclose(tr2.rotation, np.eye(3), atol=1e-7)
        np.testing.assert_allclose(tr2.translation, 0.0, atol=1e-6)

    def test_pa_mpjpe_vanishes_under_similarity(self):
        rng = np.random.default_rng(4)
        gt = random_cloud(rng)
        pred = similarity(gt, rng)
        assert pa_mpjpe(pred, gt) < 1e-9

    def test_reflection_not_used(self):
        rng = np.random.default_rng(1)
        gt = random_cloud(rng, n=1)[0]
        pred = gt.copy()
        pred[:, 2] *= -1  # mirrored input
        tr = procrustes_align(pred, gt)
        assert np.linalg.det(tr.rotation) == pytest.approx(1.0, abs=1e-9)
        # a reflection would align perfectly; a proper rotation cannot
        assert mpjpe(tr.apply(pred), gt, root_index=None) > 1.0

    def test_validation(self):
        gt = np.zeros((4, 3))
        gt[:, 0] = [0, 1, 2, 3]
        with pytest.raises(ValueError, match="zero spread"):
            procrustes_align(np.zeros((4, 3)), gt)
        with pytest.raises(ValueError, match="at least 3"):
            procrustes_align(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="orthonormal"):
            SimilarityTransform(1.0, np.eye(3) * 2, np.zeros(3)).validate()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_pa_never_exceeds_root_aligned(self, seed):
        rng = np.random.default_rng(seed)
        gt = random_cloud(rng)
        pred = gt + rng.standard_normal(gt.shape) * rng.uniform(1, 50)
        assert pa_mpjpe(pred, gt) <= mpjpe(pred, gt) + 1e-9


class TestMpvpe:
    def test_regressed_root_alignment(self):
        row = np.array([0.5, 0.5, 0.0])
        gt = np.array([[[0.0, 0, 0], [2, 0, 0], [0, 5, 0]]])
        pred = gt + np.array([10.0, 0, 0])  # pure shift: removed by alignment
        assert mpvpe(pred, gt, row) == pytest.approx(0.0, abs=1e-12)
        pred2 = gt.copy()
        pred2[0, 2, 1] += 6.0  # moves a non-root vertex
        assert mpvpe(pred2, gt, row) > 0

    def test_row_shape_check(self):
        with pytest.raises(ValueError, match="regressor row"):
            mpvpe(np.zeros((1, 3, 3)), np.zeros((1, 3, 3)), np.ones(4))


class TestFScore:
    def test_perfect_match_is_one(self):
        rng = np.random.default_rng(2)
        gt = random_cloud(rng, n=3, p=20)
        assert f_score(gt.copy(), gt, tau=1e-6) == 1.0

    def test_half_displaced_gives_two_thirds(self):
        # gt points come in coincident pairs; one pred of each pair stays
        # exact, the other moves beyond tau -> P = 0.5 while R = 1
        base = np.zeros((4, 3))
        base[:, 0] = np.arange(4) * 100.0
        gt = np.repeat(base, 2, axis=0)
        pred = gt.copy()
        pred[1::2, 1] += 70.0
        val = f_score(pred, gt, tau=1.0, align=False)
        assert val == pytest.approx(2 * 0.5 * 1 / 1.5, abs=1e-12)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(3)
        gt = random_cloud(rng, n=2, p=30)
        pred = gt + rng.standard_normal(gt.shape) * 20
        taus = [1.0, 5.0, 10.0, 25.0, 50.0, 200.0]
        vals = [f_score(pred, gt, tau) for tau in taus]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1.0

    def test_zero_when_nothing_matches(self):
        gt = np.zeros((1, 4, 3))
        gt[0, :, 0] = [0, 1, 2, 3]
        pred = gt + np.array([1e6, 0, 0])
        assert f_score(pred, gt, tau=1.0, align=False) == 0.0

    def test_alignment_default_forgives_similarity(self):
        rng = np.random.default_rng(4)
        gt = random_cloud(rng, n=1, p=15)
        pred = similarity(gt, rng)
        assert f_score(pred, gt, tau=1e-3) == 1.0
        assert f_score(pred, gt, tau=1.0, align=False) < 1.0

    @pytest.mark.parametrize("align", [True, False])
    def test_equals_brute_force_reference(self, align):
        # reference: the full (V, V, 3) norm matrix, one tau at a time;
        # V spans more than one block of the nearest-neighbour sweep
        rng = np.random.default_rng(6)
        v = 2 * NN_BLOCK_ROWS + 37
        gt = random_cloud(rng, n=3, p=v)
        pred = gt + rng.standard_normal(gt.shape) * 3
        taus = [0.01, 0.5, 2.0, 5.0, 10.0, 40.0]

        def reference(tau):
            p = align_batch(pred, gt) if align else pred
            scores = []
            for a, b in zip(p, gt):
                d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
                precision = (d.min(axis=1) <= tau).mean()
                recall = (d.min(axis=0) <= tau).mean()
                total = precision + recall
                scores.append(0.0 if total == 0 else 2 * precision * recall / total)
            return float(np.mean(scores))

        got = f_scores(pred, gt, taus, align=align)
        assert got == [reference(tau) for tau in taus]
        assert got == sorted(got) and 0.0 < got[3] < 1.0
        for tau in taus:
            assert f_score(pred, gt, tau, align=align) == \
                f_scores(pred, gt, [tau], align=align)[0]

    def test_memory_linear_in_vertex_count(self):
        # a (V, V, 3) float64 difference array alone would be 216 MB here
        rng = np.random.default_rng(7)
        gt = random_cloud(rng, n=1, p=3000)
        pred = gt + rng.standard_normal(gt.shape)
        tracemalloc.start()
        try:
            f_scores(pred, gt, [5.0, 15.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            f_score(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), tau=0.0)
        with pytest.raises(ValueError, match="positive"):
            f_scores(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), [1.0, -1.0])
        with pytest.raises(ValueError, match="empty"):
            f_score(np.zeros((1, 0, 3)), np.zeros((1, 0, 3)), tau=1.0)


class TestBatchedHelpers:
    def test_align_batch_matches_per_sample(self):
        rng = np.random.default_rng(5)
        gt = random_cloud(rng, n=3)
        pred = gt + rng.standard_normal(gt.shape) * 5
        batch = align_batch(pred, gt)
        for i in range(3):
            one = procrustes_align(pred[i], gt[i]).apply(pred[i])
            np.testing.assert_allclose(batch[i], one, rtol=0, atol=1e-12)

    def test_align_batch_rejects_one_degenerate_sample(self):
        rng = np.random.default_rng(8)
        gt = random_cloud(rng, n=4)
        pred = gt + rng.standard_normal(gt.shape) * 5
        pred[2] = 7.0  # every point of one sample in one place: zero spread
        with pytest.raises(ValueError) as one:
            procrustes_align(pred[2], gt[2])
        with pytest.raises(ValueError) as batch:
            align_batch(pred, gt)
        assert "zero spread" in str(one.value)
        assert str(batch.value) == str(one.value)
        with pytest.raises(ValueError, match="zero spread"):
            pa_mpjpe(pred, gt)
