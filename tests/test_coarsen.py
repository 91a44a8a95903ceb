"""Coarsening hierarchy: structural invariants, determinism, upsampling,
the recorded hierarchy, and bounded memory."""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from meshlift import coarsen as C
from meshlift import graphs as G
from meshlift import tensor as T
from meshlift.graphs import build_mesh_graph, build_pose_graph, scaled_laplacian
from meshlift.io import load_checkpoint
from meshlift.template import TubeBodySpec, build_tube_body
from meshlift.tensor import Tensor

from dense_views import (assert_same_hierarchy, assert_same_operators, dense,
                         edge_list, graph_from_dense, table_to_dense)

GOLDEN = Path(__file__).parent / "data" / "hierarchy_golden.json"
V2_CHECKPOINT = GOLDEN.with_name("checkpoint_v2_tiny.ckpt")


def path_graph(n):
    a = np.eye(n)
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return graph_from_dense(a)


def triangle_graph():
    a = np.ones((3, 3))
    return graph_from_dense(a)


def random_mesh_like_graph(n, seed, extra=2.0):
    """Connected random graph: a random spanning tree plus extra edges."""
    rng = np.random.default_rng(seed)
    a = np.eye(n)
    order = rng.permutation(n)
    for i in range(1, n):
        j = order[rng.integers(0, i)]
        a[order[i], j] = a[j, order[i]] = 1.0
    for _ in range(int(extra * n)):
        i, j = rng.integers(0, n, 2)
        if i != j:
            a[i, j] = a[j, i] = 1.0
    return graph_from_dense(a)


def fake_counts(h):
    """Fake slots per level, finest first, from tree_ids."""
    return [int(np.sum(ids < 0)) for ids in h.tree_ids]


def check_invariants(g, h):
    """The full structural contract of a hierarchy over graph g."""
    c_levels = h.num_levels
    assert len(h.levels) == c_levels + 1
    # exact doubling of padded sizes
    for c in range(c_levels):
        assert h.level_size(c) == 2 * h.level_size(c + 1), c
    # coarsest level is all real
    assert fake_counts(h)[-1] == 0
    # each level's real slots hold its pre-padding vertices, one each
    sizes = [g.num_vertices] + [int(p.max()) + 1 for p in h.raw_parents]
    for c, lvl in enumerate(h.levels):
        ids = h.tree_ids[c]
        assert ids.size == lvl.num_vertices
        np.testing.assert_array_equal(np.sort(ids[ids >= 0]), np.arange(sizes[c]))
        # fake slots are exactly the degree-0 rows
        fake_slots = h.tree_ids[c] < 0
        np.testing.assert_array_equal(lvl.is_fake(), fake_slots)
    # parent-child law: slot s at level c has parent slot s//2 at level c+1,
    # and the raw matching agrees
    for c in range(c_levels):
        ids_fine = h.tree_ids[c]
        ids_coarse = h.tree_ids[c + 1]
        parents = h.raw_parents[c]
        for slot, vid in enumerate(ids_fine):
            pid = ids_coarse[slot // 2]
            if vid >= 0:
                assert pid == parents[vid], (c, slot)
            # a fake child under a real parent is allowed (singleton pad);
            # a real child under a fake parent is not
            if pid < 0:
                assert vid < 0, (c, slot)
    # perm is a bijection original vertices -> real level-0 slots
    n0 = g.num_vertices
    assert h.perm.shape == (n0,)
    assert len(set(h.perm.tolist())) == n0
    real_slots = set(np.flatnonzero(h.tree_ids[0] >= 0).tolist())
    assert set(h.perm.tolist()) == real_slots
    # connectivity preservation: adjacent fine vertices have adjacent-or-equal
    # parent clusters
    for c in range(c_levels):
        fine = dense(h.levels[c])
        coarse = dense(h.levels[c + 1])
        n = fine.shape[0]
        for i in range(n):
            for j in np.flatnonzero(fine[i]):
                pi, pj = i // 2, j // 2
                assert pi == pj or coarse[pi, pj] == 1, (c, i, j)
    # level 0 edges equal the original graph's edges, relabeled by perm
    a0 = dense(h.levels[0])
    recovered = a0[np.ix_(h.perm, h.perm)]
    np.testing.assert_array_equal(recovered, dense(g))


class TestHandExamples:
    def test_path_two_vertices_one_level(self):
        h = C.graclus_coarsen(path_graph(2), levels=1, seed=0)
        assert h.level_size(1) == 1 and h.level_size(0) == 2
        assert fake_counts(h) == [0, 0]  # the pair matches; no padding needed

    def test_triangle_one_level(self):
        h = C.graclus_coarsen(triangle_graph(), levels=1, seed=0)
        # one matched pair plus one singleton -> 2 coarse, 4 fine slots, 1 fake
        assert h.level_size(1) == 2
        assert h.level_size(0) == 4
        assert fake_counts(h) == [1, 0]
        check_invariants(triangle_graph(), h)

    def test_single_vertex(self):
        g = graph_from_dense(np.array([[1.0]]))
        h = C.graclus_coarsen(g, levels=1, seed=0)
        assert h.level_size(1) == 1 and h.level_size(0) == 2
        assert fake_counts(h)[0] == 1

    def test_levels_cap_error(self):
        with pytest.raises(ValueError, match="levels"):
            C.graclus_coarsen(triangle_graph(), levels=5, seed=0)
        with pytest.raises(ValueError, match="levels must be"):
            C.graclus_coarsen(triangle_graph(), levels=0, seed=0)


class TestInvariantsOnRandomGraphs:
    @pytest.mark.parametrize("seed", range(8))
    def test_structural_contract(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 60))
        levels = int(rng.integers(1, 4))
        g = random_mesh_like_graph(n, seed=seed)
        h = C.graclus_coarsen(g, levels=levels, seed=seed)
        check_invariants(g, h)

    def test_deterministic_for_seed(self):
        g = random_mesh_like_graph(40, seed=3)
        h1 = C.graclus_coarsen(g, levels=3, seed=11)
        h2 = C.graclus_coarsen(g, levels=3, seed=11)
        np.testing.assert_array_equal(h1.perm, h2.perm)
        for a, b in zip(h1.levels, h2.levels):
            np.testing.assert_array_equal(dense(a), dense(b))

    def test_different_seeds_usually_differ(self):
        g = random_mesh_like_graph(40, seed=3)
        h1 = C.graclus_coarsen(g, levels=2, seed=0)
        h2 = C.graclus_coarsen(g, levels=2, seed=1)
        assert not np.array_equal(h1.perm, h2.perm)

    def test_disconnected_graph_supported(self):
        a = np.eye(6)
        a[0, 1] = a[1, 0] = 1.0
        a[2, 3] = a[3, 2] = 1.0
        # vertices 4, 5 isolated (self-loop only)
        g = graph_from_dense(a)
        h = C.graclus_coarsen(g, levels=1, seed=0)
        check_invariants(g, h)


class TestUpsampleAndPerm:
    def make(self):
        g = random_mesh_like_graph(20, seed=7)
        return g, C.graclus_coarsen(g, levels=2, seed=7)

    def test_upsample_copies_parent_rows(self):
        _, h = self.make()
        size1 = h.level_size(1)
        f = Tensor(np.random.default_rng(0).standard_normal((size1, 3)), dtype=np.float64)
        up = C.upsample_features(f, h, level=0)
        assert up.shape == (h.level_size(0), 3)
        for i in range(size1):
            np.testing.assert_array_equal(up.data[2 * i], f.data[i])
            np.testing.assert_array_equal(up.data[2 * i + 1], f.data[i])

    def test_upsample_backward_sums_children(self):
        _, h = self.make()
        size1 = h.level_size(1)
        f = Tensor(np.ones((size1, 2)), requires_grad=True, dtype=np.float64)
        with T.Tape():
            up = C.upsample_features(f, h, level=0)
            w = Tensor(np.arange(up.size, dtype=np.float64).reshape(up.shape))
            loss = T.reduce_sum(T.mul(up, w))
        T.backward(loss)
        expected = w.data[0::2] + w.data[1::2]
        np.testing.assert_array_equal(f.grad, expected)

    def test_upsample_shape_errors(self):
        _, h = self.make()
        with pytest.raises(T.ShapeError):
            C.upsample_features(Tensor(np.zeros((3, 2))), h, level=0)
        with pytest.raises(ValueError, match="level"):
            C.upsample_features(Tensor(np.zeros((h.level_size(1), 2))), h, level=5)

    def test_apply_perm_roundtrip(self):
        g, h = self.make()
        f = np.random.default_rng(1).standard_normal((g.num_vertices, 4))
        tree = np.zeros((h.level_size(0), 4))
        tree[h.perm] = f
        back = C.apply_perm(Tensor(tree, dtype=np.float64), h)
        np.testing.assert_array_equal(back.data, f)

    def test_apply_perm_differentiable(self):
        g, h = self.make()
        tree = Tensor(np.random.default_rng(2).standard_normal((h.level_size(0), 2)),
                      requires_grad=True, dtype=np.float64)
        with T.Tape():
            out = C.apply_perm(tree, h)
            loss = T.reduce_sum(out)
        T.backward(loss)
        # every real slot contributes once; fake slots get zero gradient
        fake = h.tree_ids[0] < 0
        assert np.all(tree.grad[fake] == 0)
        assert np.all(tree.grad[~fake] == 1)


def digest(arr):
    """sha256 of an array's dtype, shape and bytes."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def tube_body(ring):
    return build_tube_body(TubeBodySpec(verts_per_ring=ring, rings_per_bone=ring))


class TestRecordedHierarchy:
    """Same seed, same hierarchy as the dense implementation recorded in
    GOLDEN: structure and float32 operands exactly, lambda_max to 1e-12
    relative (the sparse power iteration sums in a different order)."""

    @pytest.mark.parametrize("case", json.loads(GOLDEN.read_text())["cases"],
                             ids=lambda c: f"ring{c['ring']}-seed{c['seed']}")
    def test_matches_record(self, case):
        t = tube_body(case["ring"])
        assert t.num_vertices == case["num_vertices"]
        h = C.graclus_coarsen(build_mesh_graph(t), case["levels"], seed=case["seed"])
        pose = build_pose_graph(t.num_joints, t.skeleton_edges, t.symmetry_pairs)
        laps = h.scaled_laplacians + [scaled_laplacian(pose, seed=case["seed"])]
        assert digest(h.perm) == case["perm"]
        assert [digest(a) for a in h.tree_ids] == case["tree_ids"]
        assert [digest(a) for a in h.raw_parents] == case["raw_parents"]
        assert [digest(edge_list(g)) for g in h.levels] == case["edges"]
        assert [sl.converged for sl in laps] == case["converged"]
        np.testing.assert_allclose([sl.lambda_max for sl in laps],
                                   case["lambda_max"], rtol=1e-12, atol=0)
        assert ([digest(table_to_dense(sl.table, np.float32)) for sl in laps]
                == case["operand_f32"])


def test_recorded_flags_are_the_derived_ones():
    """Every converged flag written so far, in GOLDEN and in the v2
    checkpoint fixture, equals value < 2: the flag that a ScaledLaplacian
    derives, and that hierarchy_record now writes."""
    entries = [(value, flag) for case in json.loads(GOLDEN.read_text())["cases"]
               for value, flag in zip(case["lambda_max"], case["converged"],
                                      strict=True)]
    record = load_checkpoint(V2_CHECKPOINT)[2]
    entries += [(e["value"], e["converged"])
                for e in record["lambda_max"] + [record["pose_lambda_max"]]]
    assert {flag for _, flag in entries} == {True, False}
    for value, flag in entries:
        assert flag == (value < 2), (value, flag)


def record_round_trip(g, h, pose_lap, levels):
    """Rebuild h and the pose operator from their JSON checkpoint record."""
    record = json.loads(json.dumps(C.hierarchy_record(h, pose_lap)))
    return C.hierarchy_from_record(g, record, levels)


class TestCheckpointRecord:
    """Coarsening and loading share the assembly step: a hierarchy rebuilt
    from its record, with no matching and no power iteration, equals the
    coarsened one in every field, and so does the pose operator."""

    @pytest.mark.parametrize("ring, seed", [(4, 0), (4, 7), (4, 11), (12, 7)],
                             ids=["desk-seed0", "desk-seed7", "desk-seed11",
                                  "dense-seed7"])
    def test_tube_body(self, ring, seed, monkeypatch):
        t = tube_body(ring)
        g = build_mesh_graph(t)
        h = C.graclus_coarsen(g, 3, seed=seed)
        pose = build_pose_graph(t.num_joints, t.skeleton_edges, t.symmetry_pairs)
        pose_lap = scaled_laplacian(pose, seed=seed)
        monkeypatch.setattr(C, "_match_round", None)
        monkeypatch.setattr(G, "estimate_lambda_max", None)
        rebuilt, pose_est = record_round_trip(g, h, pose_lap, 3)
        assert_same_hierarchy(h, rebuilt)
        assert_same_operators([pose_lap], [scaled_laplacian(pose, lambda_max=pose_est)])

    @pytest.mark.parametrize("seed", range(4))
    def test_graphs_with_fake_and_isolated_vertices(self, seed):
        a = np.eye(30)
        rng = np.random.default_rng(seed)
        for i, j in rng.integers(0, 24, (40, 2)):
            a[i, j] = a[j, i] = 1.0
        a[26:, :] = a[:, 26:] = 0.0  # 26-29 fake, 24-25 isolated
        g = graph_from_dense(a)
        h = C.graclus_coarsen(g, levels=3, seed=seed)
        assert_same_hierarchy(h, C.assemble_hierarchy(g, h.raw_parents, seed=seed))
        rebuilt, _ = record_round_trip(g, h, h.scaled_laplacians[0], 3)
        assert_same_hierarchy(h, rebuilt)


class TestMemory:
    def test_graph_and_coarsening_peak_at_3564_vertices(self):
        # the dense implementation peaked at about 868 MB here
        t = tube_body(18)
        assert t.num_vertices == 3564
        tracemalloc.start()
        try:
            h = C.graclus_coarsen(build_mesh_graph(t), 3, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.level_size(0) >= t.num_vertices
        assert peak < 64e6, f"peak {peak / 1e6:.1f} MB"
