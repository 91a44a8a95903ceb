"""Greedy graph coarsening into a balanced binary vertex hierarchy.

Each coarsening round visits vertices in a seeded-shuffled order and
matches each unmarked vertex with the unmarked neighbor maximizing the
normalized-cut score w_ij * (1/d_i + 1/d_j); leftovers become singleton
clusters. Coarse edge weights accumulate the fine weights between
clusters (self-weights collect intra-cluster mass). After all rounds the
levels are padded with fake (degree-0) vertices and reordered so that the
children of parent slot i sit at slots 2i and 2i+1 (0-based), which makes
nearest-neighbor upsampling a plain row gather.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from meshlift import tensor as T
from meshlift.graphs import Graph, ScaledLaplacian, row_table, scaled_laplacian
from meshlift.tensor import ShapeError, Tensor


@dataclass
class CoarseningHierarchy:
    """Coarse-to-fine vertex hierarchy over a mesh graph.

    levels[0] is the finest (tree-ordered, fake slots included),
    levels[-1] the coarsest. tree_ids[c][slot] holds the pre-padding
    vertex id at that slot, or -1 for a fake slot. perm maps an original
    mesh vertex index to its level-0 tree slot. raw_parents[c] maps
    pre-padding ids at level c to cluster ids at level c+1.
    """

    levels: list[Graph]
    scaled_laplacians: list[ScaledLaplacian]
    perm: np.ndarray
    tree_ids: list[np.ndarray]
    raw_parents: list[np.ndarray]
    num_real: list[int]
    num_fake: list[int]
    seed: int

    @property
    def num_levels(self) -> int:
        return len(self.levels) - 1

    def level_size(self, c: int) -> int:
        return self.levels[c].num_vertices


def _match_round(n: int, rows: np.ndarray, cols: np.ndarray,
                 weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One greedy matching pass over a weighted edge list sorted by (row,
    col), self-weights included; returns fine-vertex -> cluster-id map.

    Neighbours are scanned in ascending index order and only a strictly
    higher score replaces the best so far, so the lowest index wins ties.
    Weights are integer counts, so the degree sums are exact.
    """
    degrees = np.bincount(rows, weights=weights, minlength=n)
    inv = np.zeros(n)
    np.divide(1.0, degrees, out=inv, where=degrees > 0)
    scores = (weights * (inv[rows] + inv[cols])).tolist()
    bounds = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))]).tolist()
    nbrs = cols.tolist()
    cluster = [-1] * n
    next_id = 0
    for u in rng.permutation(n).tolist():
        if cluster[u] >= 0:
            continue
        best_v = -1
        best_score = -np.inf
        for k in range(bounds[u], bounds[u + 1]):
            v = nbrs[k]
            if v != u and cluster[v] < 0 and scores[k] > best_score:
                best_score = scores[k]
                best_v = v
        cluster[u] = next_id
        if best_v >= 0:
            cluster[best_v] = next_id
        next_id += 1
    return np.asarray(cluster, dtype=np.int64)


def _accumulate_weights(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray,
                        cluster: np.ndarray):
    """Coarse edge list (m, rows, cols, weights), sorted by (row, col):
    fine weights summed between clusters, intra-cluster mass on the
    diagonal."""
    m = int(cluster.max()) + 1
    keys, inverse = np.unique(cluster[rows] * m + cluster[cols], return_inverse=True)
    return m, keys // m, keys % m, np.bincount(inverse, weights=weights)


def _tree_order(raw_parents: list[np.ndarray], n_coarsest: int) -> list[np.ndarray]:
    """Slot layouts per level, coarsest row first; -1 marks a fake slot."""
    orders = [np.arange(n_coarsest, dtype=np.int64)]
    for parents in reversed(raw_parents):
        children: dict[int, list[int]] = {}
        for fine, p in enumerate(parents):
            children.setdefault(int(p), []).append(fine)
        slots: list[int] = []
        for pid in orders[-1]:
            kids = children.get(int(pid), []) if pid >= 0 else []
            while len(kids) < 2:
                kids.append(-1)
            slots.extend(kids)
        orders.append(np.asarray(slots, dtype=np.int64))
    orders.reverse()  # finest first
    return orders


def _reorder(rows: np.ndarray, cols: np.ndarray, ids: np.ndarray) -> Graph:
    """Level graph in slot order: adjacency entries (rows, cols) between
    pre-padding ids, moved to the slots that ids lists them at."""
    real = np.flatnonzero(ids >= 0)
    slot = np.empty(real.size, dtype=np.int64)
    slot[ids[real]] = real
    return Graph(row_table(ids.size, slot[rows], slot[cols], np.ones(rows.size)))


def graclus_coarsen(g: Graph, levels: int, seed: int = 0) -> CoarseningHierarchy:
    """Coarsen a mesh graph `levels` times into a padded binary hierarchy.

    Deterministic for a given seed. Every level c satisfies
    |V^c| == 2 |V^{c+1}| after padding.
    """
    if levels < 1:
        raise ValueError(f"graclus_coarsen: levels must be >= 1, got {levels}")
    n0 = g.num_vertices
    if n0 < 1 or np.all(g.is_fake()):
        raise ValueError("graclus_coarsen: graph has no real vertices")
    cap = max(1, int(np.ceil(np.log2(n0))))
    if levels > cap:
        raise ValueError(
            f"graclus_coarsen: {levels} levels would coarsen {n0} vertices "
            f"past a single vertex (cap {cap})")

    rng = np.random.default_rng(seed)
    n = n0
    rows, k = np.nonzero(g.neighbors >= 0)
    cols, weights = g.neighbors[rows, k], g.weights[rows, k]
    entries = [(rows, cols)]  # adjacency entries per level, pre-padding ids
    sizes = [n0]
    raw_parents: list[np.ndarray] = []
    for _ in range(levels):
        cluster = _match_round(n, rows, cols, weights, rng)
        raw_parents.append(cluster)
        n, rows, cols, weights = _accumulate_weights(rows, cols, weights, cluster)
        # every coarse vertex is real, even a cluster of fake vertices
        loops = np.arange(n, dtype=np.int64)
        keys = np.union1d(rows * n + cols, loops * n + loops)
        entries.append((keys // n, keys % n))
        sizes.append(n)

    tree_ids = _tree_order(raw_parents, sizes[-1])
    graphs = [_reorder(r, c, ids) for (r, c), ids in zip(entries, tree_ids)]
    laplacians = [scaled_laplacian(lg, seed=seed) for lg in graphs]

    perm = np.full(n0, -1, dtype=np.int64)
    real = np.flatnonzero(tree_ids[0] >= 0)
    perm[tree_ids[0][real]] = real
    if np.any(perm < 0):
        missing = int(np.flatnonzero(perm < 0)[0])
        raise RuntimeError(f"graclus_coarsen: vertex {missing} lost during reordering")

    num_fake = [ids.size - nr for ids, nr in zip(tree_ids, sizes)]
    return CoarseningHierarchy(
        levels=graphs,
        scaled_laplacians=laplacians,
        perm=perm,
        tree_ids=tree_ids,
        raw_parents=raw_parents,
        num_real=sizes,
        num_fake=num_fake,
        seed=seed,
    )


def upsample_features(f_coarse: Tensor, hierarchy: CoarseningHierarchy,
                      level: int) -> Tensor:
    """Copy each level-(c+1) parent row to its two level-c children.

    The tree ordering puts the children of parent slot i at slots 2i and
    2i+1, so the forward repeats every row twice and the backward sums
    each pair of child gradients into the parent row.
    """
    if not 0 <= level < hierarchy.num_levels:
        raise ValueError(
            f"upsample_features: level {level} outside 0..{hierarchy.num_levels - 1}")
    coarse_size = hierarchy.level_size(level + 1)
    if f_coarse.shape[0] != coarse_size:
        raise ShapeError("upsample_features", f_coarse.shape, (coarse_size,))

    def bw(g, needs):
        return (g[0::2] + g[1::2] if needs[0] else None,)

    return T._apply("upsample_features", (f_coarse,),
                    np.repeat(f_coarse.data, 2, axis=0), bw)


def apply_perm(f_tree: Tensor, hierarchy: CoarseningHierarchy) -> Tensor:
    """Reorder level-0 tree rows back to original mesh vertex order.

    Output row v equals tree row perm[v]; fake rows are dropped.
    """
    if f_tree.shape[0] != hierarchy.level_size(0):
        raise ShapeError("apply_perm", f_tree.shape, (hierarchy.level_size(0),))
    return T.gather_rows(f_tree, hierarchy.perm)
