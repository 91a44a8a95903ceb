"""Metric identities and hand values."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshlift.metrics as M
from meshlift.metrics import (NN_BLOCK_ROWS, _kabsch_umeyama, _sweep,
                              _validate_similarity, align_batch, f_score,
                              f_scores, mpjpe, mpvpe, pa_mpjpe)
from meshlift.template import euler_rotation


def random_cloud(rng, n=2, p=12, scale=100.0):
    return rng.standard_normal((n, p, 3)) * scale


def off_axis(pred, shifts):
    """A target for a prediction on the x axis at x = -150, -50, 50, 150:
    the prediction with ``shifts`` added along y. The shifts (70, -70,
    -70, 70) sum to 0 and to 0 against x, and are orthogonal to the
    prediction, so the best similarity transform of the prediction onto
    the target is the identity: alignment leaves it where it is."""
    gt = pred.copy()
    gt[..., 1] += shifts
    np.testing.assert_allclose(align_batch(pred, gt), pred, rtol=0, atol=1e-9)
    return gt


AXIS_X = np.array([-150.0, -50.0, 50.0, 150.0])
AXIS_SHIFTS = np.array([70.0, -70.0, -70.0, 70.0])


def brute_nearest(a, b):
    """Float64 nearest distances both ways, from the full norm matrix."""
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return d.min(axis=1), d.min(axis=0)


def oracle_f_scores(pred, gt, taus, align=True):
    """The F-score by brute force in float64, one sample and one tau at a
    time, after the same alignment as f_scores (when ``align``)."""
    if align:
        pred = align_batch(pred, gt)
    out = []
    for tau in taus:
        scores = []
        for a, b in zip(pred, gt):
            a_to_b, b_to_a = brute_nearest(a, b)
            precision = (a_to_b <= tau).mean()
            recall = (b_to_a <= tau).mean()
            total = precision + recall
            scores.append(0.0 if total == 0 else 2 * precision * recall / total)
        out.append(float(np.mean(scores)))
    return out


def tau_apart(tau, center, seed):
    """(prediction, target) on multiples of 0.5 mm around ``center``, each
    target point offset from its prediction by exactly tau, tau - 0.5,
    tau + 0.5 or 0 (exact 3-4-5 and axis vectors), and more than 2 tau + 1
    from every other point. The prediction is symmetric about ``center``
    and the offsets come as +d, +d, -d, -d on the points p, -p, q, -q, so
    they sum to 0 and are uncorrelated with the prediction: the best
    similarity transform is the identity up to rounding, and alignment
    leaves each distance within rounding of its offset."""
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(*[np.arange(-3, 4)] * 3), -1).reshape(-1, 3)
    grid = grid[np.any(grid != 0, axis=1) & (grid[:, 0] >= 0)]
    grid = grid[(grid[:, 0] > 0) | (grid[:, 1] > 0)
                | ((grid[:, 1] == 0) & (grid[:, 2] > 0))]   # one of each +-pair
    half = grid[rng.permutation(len(grid))[:24]] * (4 * tau + 40.0)
    half += rng.integers(-8, 9, half.shape) * 0.5        # still 0.5 mm steps
    offsets = [np.array(v, float) * tau / 5 for v in
               ([3, 4, 0], [0, -3, 4], [4, 0, 3], [5, 0, 0], [0, 0, -5])]
    offsets += [np.array([tau - 0.5, 0, 0]), np.array([0, tau + 0.5, 0]),
                np.zeros(3)]
    pred, gt = [], []
    for k in range(0, len(half), 2):
        d = offsets[rng.integers(len(offsets))]
        for p, sign in ((half[k], 1), (-half[k], 1), (half[k + 1], -1),
                        (-half[k + 1], -1)):
            pred.append(p)
            gt.append(p + sign * d)
    pred, gt = np.array(pred) + center, np.array(gt) + center
    return pred[None], gt[None]


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
        scale, rot, trans = _kabsch_umeyama(pred[None], gt2[None])
        assert scale[0] == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(rot[0], r0, atol=1e-9)
        np.testing.assert_allclose(trans[0], t0, atol=1e-7)
        np.testing.assert_allclose(align_batch(pred, gt2)[0], gt2, atol=1e-7)

    def test_identity_at_equality_and_idempotent(self):
        rng = np.random.default_rng(3)
        gt = random_cloud(rng, n=1)[0]
        pred = similarity(gt, rng)
        aligned = align_batch(pred, gt)
        scale, rot, trans = _kabsch_umeyama(aligned, gt[None])
        assert scale[0] == pytest.approx(1.0, abs=1e-7)
        np.testing.assert_allclose(rot[0], np.eye(3), atol=1e-7)
        np.testing.assert_allclose(trans[0], 0.0, atol=1e-6)

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
        _, rot, _ = _kabsch_umeyama(pred[None], gt[None])
        assert np.linalg.det(rot[0]) == pytest.approx(1.0, abs=1e-9)
        # a reflection would align perfectly; a proper rotation cannot
        assert mpjpe(align_batch(pred, gt), gt, root_index=None) > 1.0

    def test_validation(self):
        gt = np.zeros((4, 3))
        gt[:, 0] = [0, 1, 2, 3]
        with pytest.raises(ValueError, match="zero spread"):
            align_batch(np.zeros((4, 3)), gt)
        with pytest.raises(ValueError, match="at least 3"):
            align_batch(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="orthonormal"):
            _validate_similarity(np.ones(1), (np.eye(3) * 2)[None])

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
        # pred points come in coincident pairs; the gt twin of one point of
        # each pair stays exact, the other moves beyond tau -> P = 1 while
        # R = 0.5, on inputs that alignment does not move
        pred = np.zeros((1, 8, 3))
        pred[0, :, 0] = np.repeat(AXIS_X, 2)
        shifts = np.zeros(8)
        shifts[1::2] = AXIS_SHIFTS
        gt = off_axis(pred, shifts)
        val = f_score(pred, gt, tau=1.0)
        assert val == pytest.approx(2 * 1 * 0.5 / 1.5, abs=1e-12)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(3)
        gt = random_cloud(rng, n=2, p=30)
        pred = gt + rng.standard_normal(gt.shape) * 20
        taus = [1.0, 5.0, 10.0, 25.0, 50.0, 200.0]
        vals = [f_score(pred, gt, tau) for tau in taus]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1.0

    def test_zero_when_nothing_matches(self):
        # every point is 70 mm from the other set, and alignment does not
        # move the prediction
        pred = np.zeros((1, 4, 3))
        pred[0, :, 0] = AXIS_X
        gt = off_axis(pred, AXIS_SHIFTS)
        assert f_score(pred, gt, tau=1.0) == 0.0

    def test_alignment_forgives_similarity(self):
        rng = np.random.default_rng(4)
        gt = random_cloud(rng, n=1, p=15)
        pred = similarity(gt, rng)
        assert f_score(pred, gt, tau=1e-3) == 1.0
        # unaligned, some point lies beyond tau = 1 of the other set
        p_to_g, g_to_p = brute_nearest(pred[0], gt[0])
        assert max(p_to_g.max(), g_to_p.max()) > 1.0

    @pytest.mark.parametrize("center", [0.0, 1e6])
    @pytest.mark.parametrize("tau", [5.0, 15.0])
    def test_points_tau_apart_equal_oracle(self, tau, center):
        # |coordinate| about 1e6 mm: float32 spacing there is 1/16 mm
        for seed in range(4):
            pred, gt = tau_apart(tau, np.array([center, -center, center]), seed)
            np.testing.assert_allclose(align_batch(pred, gt), pred, rtol=0,
                                       atol=1e-6 * max(center, 1.0))
            want = oracle_f_scores(pred, gt, [tau, tau - 0.5, tau + 0.5])
            assert f_scores(pred, gt, [tau, tau - 0.5, tau + 0.5]) == want
            assert 0.0 < want[0] < 1.0

    def test_float32_alone_misjudges_points_tau_apart(self):
        # the float64 re-check is what makes the test above pass: at 1e6 mm
        # the float32 sweep puts points on the wrong side of tau
        wrong = 0
        for seed in range(4):
            pred, gt = tau_apart(5.0, np.array([1e6, -1e6, 1e6]), seed)
            aligned = align_batch(pred, gt)
            d32 = np.sqrt(_sweep(aligned, gt, np.float32)[0][0])
            d64 = brute_nearest(aligned[0], gt[0])[0]
            wrong += int(np.sum((d32 <= 5.0) != (d64 <= 5.0)))
        assert wrong > 0

    @pytest.mark.parametrize("center", [0.0, 1e6])
    @pytest.mark.parametrize("n, v", [(3, 2 * NN_BLOCK_ROWS + 37), (9, 60)])
    def test_random_clouds_equal_oracle(self, n, v, center):
        # (3, 549): each sample spans three blocks; (9, 60): nine samples
        # of one block each. Around 1e6 mm the float32 distances are off
        # by up to about 0.1 mm.
        rng = np.random.default_rng(6)
        gt = random_cloud(rng, n=n, p=v) + center
        pred = gt + rng.standard_normal(gt.shape) * 3
        taus = [1e-6, 1e-3, 0.01, 0.5, 2.0, 5.0, 10.0, 40.0]
        got = f_scores(pred, gt, taus)
        assert got == oracle_f_scores(pred, gt, taus)
        assert got == sorted(got) and 0.0 < got[5] < 1.0
        for tau in taus:
            assert f_score(pred, gt, tau) == f_scores(pred, gt, [tau])[0]

    def test_beyond_float32_range_equals_oracle(self):
        # nearest distances of about 1e20 mm: their float32 squares
        # overflow to inf, so such a sample is swept in float64
        rng = np.random.default_rng(10)
        gt = random_cloud(rng, n=2, p=20, scale=1e20)
        pred = gt + rng.standard_normal(gt.shape) * 5e19
        taus = [1e20, 3e20]
        want = oracle_f_scores(pred, gt, taus)
        assert f_scores(pred, gt, taus) == want
        assert 0.0 < want[0] < want[1]

    def test_nan_prediction_gives_oracle_value(self, monkeypatch):
        rng = np.random.default_rng(9)
        gt = random_cloud(rng, n=2, p=40)
        pred = gt + rng.standard_normal(gt.shape)
        pred[0, 7, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError) as want:
            oracle_f_scores(pred, gt, [5.0])
        with pytest.raises(np.linalg.LinAlgError) as got:
            f_scores(pred, gt, [5.0])
        assert str(got.value) == str(want.value)
        # past the alignment, the NaN reaches the sweep: the sample scores
        # 0, as its NaN distances do in the oracle
        monkeypatch.setattr(M, "align_batch", lambda p, g: p)
        want = oracle_f_scores(pred, gt, [1.0, 5.0], align=False)
        assert f_scores(pred, gt, [1.0, 5.0]) == want
        clean = oracle_f_scores(pred[1:], gt[1:], [5.0], align=False)[0]
        assert want[1] == clean / 2

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
        with pytest.raises(ValueError, match="at least one sample"):
            f_scores(np.zeros((0, 4, 3)), np.zeros((0, 4, 3)), [1.0])


class TestBatchedHelpers:
    def test_align_batch_matches_per_sample(self):
        rng = np.random.default_rng(5)
        gt = random_cloud(rng, n=3)
        pred = gt + rng.standard_normal(gt.shape) * 5
        batch = align_batch(pred, gt)
        for i in range(3):
            one = align_batch(pred[i:i + 1], gt[i:i + 1])[0]
            np.testing.assert_allclose(batch[i], one, rtol=0, atol=1e-12)

    def test_align_batch_rejects_one_degenerate_sample(self):
        rng = np.random.default_rng(8)
        gt = random_cloud(rng, n=4)
        pred = gt + rng.standard_normal(gt.shape) * 5
        pred[2] = 7.0  # every point of one sample in one place: zero spread
        with pytest.raises(ValueError) as one:
            align_batch(pred[2:3], gt[2:3])
        with pytest.raises(ValueError) as batch:
            align_batch(pred, gt)
        assert "zero spread" in str(one.value)
        assert str(batch.value) == str(one.value)
        with pytest.raises(ValueError, match="zero spread"):
            pa_mpjpe(pred, gt)
