"""Graphs, Laplacians, and the Chebyshev filter against its dense oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshlift import graphs as G
from meshlift import tensor as T
from meshlift.coarsen import graclus_coarsen
from meshlift.config import resolve_config
from meshlift.template import build_tube_body
from meshlift.tensor import Tape, Tensor

from dense_views import (dense, dense_spectral_oracle, gathered_product,
                         graph_from_dense, table_from_dense, table_to_dense)


def random_graph(n, seed, p=0.4, fakes=0):
    """Random symmetric 0/1 adjacency with self-loops; optional fake rows."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                a[i, j] = a[j, i] = 1.0
    a[np.diag_indices(n)] = 1.0
    for v in range(n - fakes, n):
        a[v, :] = 0.0
        a[:, v] = 0.0
    return graph_from_dense(a)


def hop_distances(adj, src):
    """BFS hop counts over off-diagonal edges; unreachable -> inf."""
    n = adj.shape[0]
    dist = np.full(n, np.inf)
    dist[src] = 0
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(adj[u]):
                if v != u and dist[v] == np.inf:
                    dist[v] = d
                    nxt.append(int(v))
        frontier = nxt
    return dist


class TestGraphType:
    def test_single_joint(self):
        g = G.build_pose_graph(1, [])
        np.testing.assert_array_equal(dense(g), [[1.0]])

    def test_pose_graph_edges_and_symmetry(self):
        g = G.build_pose_graph(4, [(0, 1), (1, 2)], [(2, 3)])
        a = dense(g)
        assert a[0, 1] == a[1, 0] == 1 and a[1, 2] == 1 and a[2, 3] == 1
        assert a[0, 2] == 0
        np.testing.assert_array_equal(np.diag(a), np.ones(4))

    def test_rejects_asymmetric_and_non_binary(self):
        with pytest.raises(ValueError, match="symmetric"):
            graph_from_dense(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="0 or 1"):
            graph_from_dense(np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_rejects_missing_self_loop(self):
        a = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="self-loop"):
            graph_from_dense(a)

    def test_fake_rows_allowed(self):
        g = random_graph(5, seed=0, fakes=2)
        assert g.is_fake().sum() == 2

    def test_mesh_graph_from_faces(self):
        faces = np.array([[0, 1, 2], [1, 2, 3]])
        g = G.mesh_graph_from_faces(4, faces)
        a = dense(g)
        assert a[0, 1] == a[1, 2] == a[2, 3] == 1 and a[0, 3] == 0

    def test_mesh_graph_rejects_degenerate_face(self):
        with pytest.raises(ValueError, match="degenerate"):
            G.mesh_graph_from_faces(4, np.array([[0, 1, 1]]))

    def test_mesh_graph_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            G.mesh_graph_from_faces(3, np.array([[0, 1, 3]]))


class TestLaplacian:
    def test_two_vertex_hand_value(self):
        g = graph_from_dense(np.ones((2, 2)))
        lap = dense(G.normalized_laplacian(g))
        np.testing.assert_allclose(lap, [[0.5, -0.5], [-0.5, 0.5]])

    def test_fake_vertex_row_is_identity(self):
        g = random_graph(6, seed=1, fakes=2)
        lap = dense(G.normalized_laplacian(g))
        np.testing.assert_array_equal(lap[4], np.eye(6)[4])
        np.testing.assert_array_equal(lap[5], np.eye(6)[5])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 12), st.integers(0, 2))
    def test_spectrum_in_0_2(self, seed, n, fakes):
        g = random_graph(n, seed=seed, fakes=min(fakes, n - 1))
        lam = np.linalg.eigvalsh(dense(G.normalized_laplacian(g)))
        assert lam.min() > -1e-12 and lam.max() < 2 + 1e-12

    def test_symmetry(self):
        g = random_graph(9, seed=3)
        lap = dense(G.normalized_laplacian(g))
        np.testing.assert_allclose(lap, lap.T, atol=1e-15)


class TestNeighbourTable:
    def test_rows_ascending_padding_last(self):
        g = random_graph(7, seed=4, fakes=2)
        nbr = g.neighbors
        assert nbr.shape == (7, g.d_max)
        for i, row in enumerate(nbr):
            real = row[row >= 0]
            assert np.all(row[real.size:] == -1)
            np.testing.assert_array_equal(real, np.flatnonzero(dense(g)[i]))
        np.testing.assert_array_equal(g.degrees, dense(g).sum(axis=1))

    def test_rejects_unsorted_or_repeated_rows(self):
        nbr = np.array([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="ascending"):
            G.Graph(nbr)
        with pytest.raises(ValueError, match="repeated"):
            G.row_table(2, [0, 0], [1, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match="outside"):
            G.row_table(2, [0], [2], [1.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_laplacians_equal_dense_formulas(self, seed):
        # entry by entry the same float64 expressions as the dense
        # I - D^-1/2 A D^-1/2 and 2 L / lambda_max - I
        g = random_graph(11, seed=seed, fakes=seed % 3)
        a = dense(g)
        d = a.sum(axis=1)
        s = np.zeros_like(d)
        np.divide(1.0, np.sqrt(d), out=s, where=d > 0)
        lap = np.eye(11) - (s[:, None] * a) * s[None, :]
        np.testing.assert_array_equal(dense(G.normalized_laplacian(g)), lap)
        sl = G.scaled_laplacian(g)
        scaled = (2.0 / sl.lambda_max) * lap - np.eye(11)
        np.testing.assert_array_equal(dense(sl), scaled)
        np.testing.assert_array_equal(table_to_dense(sl.table, np.float32),
                                      scaled.astype(np.float32))
        x = np.random.default_rng(seed).standard_normal(11)
        np.testing.assert_allclose(G.normalized_laplacian(g).matvec(x), lap @ x,
                                   rtol=0, atol=1e-15)


class TestLambdaMax:
    def test_hand_value(self):
        est = G.estimate_lambda_max(table_from_dense([[0.5, -0.5], [-0.5, 0.5]]))
        assert abs(est - 1.0) < 1e-6

    def test_identity(self):
        est = G.estimate_lambda_max(table_from_dense(np.eye(5)))
        assert abs(est - 1.0) < 1e-9

    def test_matches_eigh_or_falls_back(self):
        converged = 0
        for seed in range(8):
            g = random_graph(8, seed=seed)
            lap = G.normalized_laplacian(g)
            est = G.estimate_lambda_max(lap)
            exact = np.linalg.eigvalsh(dense(lap)).max()
            if est != G.LAMBDA_MAX_FALLBACK:
                converged += 1
                assert abs(est - exact) < 1e-6, (seed, est, exact)
            else:
                # tiny eigengap: the contract is a safe upper bound
                assert exact < 2.0
        assert converged >= 5  # the fallback is the exception, not the rule

    def test_one_product_per_iteration_is_bit_identical(self):
        # the Rayleigh quotient's product is reused as the next iterate
        def two_products(lap, seed):
            v = np.random.default_rng(seed).standard_normal(lap.num_rows)
            v /= np.linalg.norm(v)
            prev = np.inf
            for _ in range(G.POWER_ITER_MAX):
                w = lap.matvec(v)
                v = w / np.linalg.norm(w)
                rayleigh = float(v @ lap.matvec(v))
                if abs(rayleigh - prev) < G.POWER_ITER_TOL:
                    return rayleigh
                prev = rayleigh
            return G.LAMBDA_MAX_FALLBACK

        for seed in range(8):
            lap = G.normalized_laplacian(random_graph(9, seed=seed))
            assert G.estimate_lambda_max(lap, seed) == two_products(lap, seed)

    def test_zero_matrix_single_vertex(self):
        # one real vertex with self-loop: L == 0, scaled falls back to -I
        g = graph_from_dense(np.array([[1.0]]))
        sl = G.scaled_laplacian(g)
        np.testing.assert_allclose(dense(sl), [[-1.0]])

    def test_fallback_is_not_converged(self):
        """The 2.0 that replaces a zero estimate is not a converged one:
        on one vertex, and on the coarsest level of one edge coarsened
        once."""
        one = graph_from_dense(np.array([[1.0]]))
        assert G.estimate_lambda_max(G.normalized_laplacian(one)) == 2.0
        sl = G.scaled_laplacian(one)
        assert (sl.lambda_max, sl.converged) == (2.0, False)
        h = graclus_coarsen(G.build_pose_graph(2, [(0, 1)]), levels=1)
        fine, coarsest = h.scaled_laplacians
        assert fine.converged and abs(fine.lambda_max - 1.0) < 1e-9
        assert (coarsest.lambda_max, coarsest.converged) == (2.0, False)

    def test_normalized_laplacian_spectrum_below_two(self):
        """The converged flag is lambda_max < 2 because, with self-loops,
        no normalized Laplacian reaches 2: every level of the desk body's
        hierarchy at seeds 0, 7 and 11, its pose graph, and random graphs
        with fake slots."""
        cfg = resolve_config("desk")
        t = build_tube_body(cfg.template)
        mesh = G.build_mesh_graph(t)
        graphs = [G.build_pose_graph(t.num_joints, t.skeleton_edges, t.symmetry_pairs)]
        for seed in (0, 7, 11):
            graphs += graclus_coarsen(mesh, cfg.model.levels, seed=seed).levels
        graphs += [random_graph(10, seed=s, fakes=s % 4) for s in range(8)]
        assert sum(np.any(g.is_fake()) for g in graphs) >= 6
        for g in graphs:
            assert np.linalg.eigvalsh(dense(G.normalized_laplacian(g))).max() < 2.0

    def test_scaled_spectrum_in_minus1_1(self):
        for seed in range(5):
            g = random_graph(10, seed=seed, fakes=seed % 3)
            sl = G.scaled_laplacian(g)
            lam = np.linalg.eigvalsh(dense(sl))
            assert lam.min() > -1 - 1e-9 and lam.max() < 1 + 1e-6


def make_filter(f_in, f_out, order, seed, dtype=np.float64, requires_grad=False):
    rng = np.random.default_rng(seed)
    return G.ChebFilter([
        Tensor(rng.standard_normal((f_in, f_out)), requires_grad=requires_grad, dtype=dtype)
        for _ in range(order)
    ])


class TestChebyshevConv:
    def test_frozen_hand_value(self):
        # 2-vertex complete graph: L_tilde = [[0,-1],[-1,0]]; x = e_0,
        # theta_k = 1 for k < 3: T0 x + T1 x + T2 x = [2, -1]
        g = graph_from_dense(np.ones((2, 2)))
        sl = G.scaled_laplacian(g)
        np.testing.assert_allclose(dense(sl), [[0.0, -1.0], [-1.0, 0.0]], atol=1e-9)
        filt = G.ChebFilter([Tensor(np.ones((1, 1))) for _ in range(3)])
        out = G.chebyshev_conv(Tensor(np.array([[[1.0]], [[0.0]]])), sl, filt)
        np.testing.assert_allclose(out.data, [[[2.0]], [[-1.0]]], atol=1e-7)

    def test_identity_filter_first_order(self):
        g = random_graph(7, seed=2)
        sl = G.scaled_laplacian(g)
        x = Tensor(np.random.default_rng(0).standard_normal((7, 1, 3)))
        filt = G.ChebFilter([Tensor(np.eye(3))])
        out = G.chebyshev_conv(x, sl, filt)
        np.testing.assert_allclose(out.data, x.data, atol=1e-7)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 16), st.integers(1, 5))
    def test_matches_dense_oracle(self, seed, n, order):
        g = random_graph(n, seed=seed, fakes=seed % 3 if n > 3 else 0)
        sl = G.scaled_laplacian(g)
        rng = np.random.default_rng(seed + 1)
        theta = rng.standard_normal(order)
        x = rng.standard_normal(n)
        filt = G.ChebFilter([Tensor(np.full((1, 1), t), dtype=np.float64) for t in theta])
        ref = dense_spectral_oracle(x, sl, theta)
        ours = G.chebyshev_conv(Tensor(x[:, None, None]), sl, filt).data[:, 0, 0]
        assert np.max(np.abs(ours - ref)) < 1e-10

    def test_locality_k3_is_two_hops(self):
        g = random_graph(12, seed=5, p=0.25)
        sl = G.scaled_laplacian(g)
        filt = make_filter(1, 1, 3, seed=6)
        for src in range(0, 12, 3):
            x = np.zeros((12, 1, 1))
            x[src, 0, 0] = 1.0
            out = G.chebyshev_conv(Tensor(x, dtype=np.float64), sl, filt).data[:, 0, 0]
            dist = hop_distances(dense(g), src)
            outside = np.abs(out[dist > 2])
            assert outside.size == 0 or outside.max() < 1e-12

    def test_batched_equals_per_sample(self):
        g = random_graph(9, seed=7)
        sl = G.scaled_laplacian(g)
        filt = make_filter(4, 2, 3, seed=8)
        rng = np.random.default_rng(9)
        batch = rng.standard_normal((3, 9, 4))  # (B, V, f)
        vbf = Tensor(np.ascontiguousarray(batch.transpose(1, 0, 2)))
        out = G.chebyshev_conv(vbf, sl, filt, batch=3).data
        for b in range(3):
            single = G.chebyshev_conv(Tensor(batch[b][:, None]), sl, filt).data
            np.testing.assert_allclose(out[:, b:b + 1], single, atol=1e-12)

    def test_shape_errors(self):
        g = random_graph(5, seed=1)
        sl = G.scaled_laplacian(g)
        filt = make_filter(3, 2, 3, seed=2)
        with pytest.raises(T.ShapeError):
            G.chebyshev_conv(Tensor(np.zeros((4, 1, 3))), sl, filt)
        with pytest.raises(T.ShapeError):
            G.chebyshev_conv(Tensor(np.zeros((5, 1, 4))), sl, filt)

    def test_rejects_stacked_input_and_batch_mismatch(self):
        g = random_graph(5, seed=1)
        sl = G.scaled_laplacian(g)
        filt = make_filter(3, 2, 3, seed=2)
        # the (V, batch * f) layout of the same features is not accepted
        with pytest.raises(T.ShapeError, match=r"\(5, 6\) vs \(5, 2, 3\)"):
            G.chebyshev_conv(Tensor(np.zeros((5, 6))), sl, filt, batch=2)
        with pytest.raises(T.ShapeError, match=r"\(5, 2, 3\) vs \(5, 3, 3\)"):
            G.chebyshev_conv(Tensor(np.zeros((5, 2, 3))), sl, filt, batch=3)

    def test_gradcheck_wrt_features_and_coefficients(self):
        g = random_graph(6, seed=11, fakes=1)
        x0 = np.random.default_rng(13).standard_normal((6, 2, 3))
        w = Tensor(np.random.default_rng(14).standard_normal((6, 2, 2)), dtype=np.float64)

        def loss(x, sl, filt):
            # batch 2, unequal output weights: no gradient is a plain sum
            return T.reduce_sum(T.mul(G.chebyshev_conv(x, sl, filt, batch=2), w))

        sl = G.scaled_laplacian(g)
        for order in (1, 2, 3, 4):
            filt = make_filter(3, 2, order, seed=12)
            rep = T.gradient_check(lambda x: loss(x, sl, filt),
                                   Tensor(x0, dtype=np.float64))
            assert rep.max_rel_err < 1e-7, order

            for k in range(order):
                def f_theta(th, k=k):
                    coeffs = list(filt.coefficients)
                    coeffs[k] = th
                    return loss(Tensor(x0, dtype=np.float64), sl,
                                G.ChebFilter(coeffs))
                rep = T.gradient_check(f_theta, filt.coefficients[k])
                assert rep.max_rel_err < 1e-7, (order, k)

    def test_grads_flow_in_training_dtype(self):
        g = random_graph(6, seed=14)
        sl = G.scaled_laplacian(g)
        filt = make_filter(3, 2, 3, seed=15, dtype=np.float32, requires_grad=True)
        x = Tensor(np.random.default_rng(16).standard_normal((6, 1, 3)), dtype=np.float32)
        with Tape():
            loss = T.reduce_sum(G.chebyshev_conv(x, sl, filt))
        T.backward(loss)
        for c in filt.coefficients:
            assert c.grad is not None and c.grad.dtype == np.float32


@pytest.fixture(scope="module")
def body_laplacians():
    """Scaled Laplacians of every hierarchy level, then the pose graph, of
    the desk body (V = 176) and the dense body (V = 1,584), seed 7."""
    out = {}
    for name, ring in (("desk", 4), ("dense", 12)):
        cfg = resolve_config("desk", {"seed": 7, "template": {
            "verts_per_ring": ring, "rings_per_bone": ring}})
        t = build_tube_body(cfg.template)
        h = graclus_coarsen(G.build_mesh_graph(t), cfg.model.levels, seed=7)
        pose = G.build_pose_graph(t.num_joints, t.skeleton_edges, t.symmetry_pairs)
        out[name] = h.scaled_laplacians + [G.scaled_laplacian(pose, seed=7)]
    return out


class TestLaplacianProduct:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_the_replaced_paths(self, body_laplacians, dtype):
        # The block product keeps the bits of the two products it replaced:
        # a dense V x V matmul on every desk level, both pose graphs and
        # dense-body level 3, and row gathers on dense-body levels 0-2
        # (0.29-1.3% non-zero). Column counts are batch * width multiples
        # of 16, as in training; at other counts OpenBLAS's edge kernels
        # sum in another order. On dense-body levels 0-2 only float32 is
        # pinned: in float64 the gathers sum each row in another order, and
        # the dense matmul splits its 486-1,944 terms, so the block product
        # there is held to test_product_equals_dense_view's 1e-12 bound.
        rng = np.random.default_rng(5)
        for body, cols in (("desk", 1024), ("dense", 256)):
            for level, sl in enumerate(body_laplacians[body]):
                a = rng.standard_normal((sl.num_vertices, cols)).astype(dtype)
                if body == "dense" and level < 3:
                    if dtype == np.float32:
                        np.testing.assert_array_equal(
                            sl.product(a), gathered_product(sl, a), (body, level))
                else:
                    np.testing.assert_array_equal(
                        sl.product(a), table_to_dense(sl.table, dtype) @ a,
                        (body, level))

    @pytest.mark.parametrize("body", ["desk", "dense"])
    def test_product_equals_dense_view(self, body_laplacians, body):
        rng = np.random.default_rng(3)
        eps32 = np.finfo(np.float32).eps
        for level, sl in enumerate(body_laplacians[body]):
            ref_l = dense(sl)
            a = rng.standard_normal((sl.num_vertices, 40))
            a32 = a.astype(np.float32)
            ref32 = ref_l @ a32.astype(np.float64)
            bound32 = 16 * eps32 * (np.abs(ref_l) @ np.abs(a32.astype(np.float64)))
            err = np.max(np.abs(sl.product(a) - ref_l @ a))
            assert err < 1e-12, (level, err)
            p32 = sl.product(a32)
            assert p32.dtype == np.float32
            assert np.all(np.abs(p32 - ref32) <= bound32), level

    def test_block_conv_stays_below_dense_operand(self):
        cfg = resolve_config("desk", {"template": {"verts_per_ring": 18,
                                                   "rings_per_bone": 18}})
        t = build_tube_body(cfg.template)
        assert t.num_vertices == 3564
        sl = graclus_coarsen(G.build_mesh_graph(t), 3, seed=7).scaled_laplacians[0]
        v = sl.num_vertices
        batch, f = 4, 32
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((v, batch, f)), requires_grad=True,
                   dtype=np.float32)
        filt = make_filter(f, f, 3, seed=1, dtype=np.float32, requires_grad=True)
        tracemalloc.start()
        try:
            with Tape():
                loss = T.reduce_sum(G.chebyshev_conv(x, sl, filt, batch=batch))
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad is not None
        assert peak < 4 * v * v, f"peak {peak / 1e6:.1f} MB, V = {v}"
        # the block operands are built once per dtype: a second product
        # reuses them
        built = dict(sl._blocks)
        assert list(built) == [np.dtype(np.float32)]
        sl.product(x.data.reshape(v, batch * f))
        assert list(sl._blocks) == list(built)
        assert sl._blocks[np.dtype(np.float32)] is built[np.dtype(np.float32)]


class TestDenseOracle:
    def test_rejects_bad_input(self):
        g = random_graph(4, seed=0)
        sl = G.scaled_laplacian(g)
        with pytest.raises(ValueError):
            dense_spectral_oracle(np.zeros(5), sl, [1.0])
        with pytest.raises(ValueError, match="empty"):
            dense_spectral_oracle(np.zeros(4), sl, [])
