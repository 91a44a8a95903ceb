"""Greedy graph coarsening into a balanced binary vertex hierarchy.

Each coarsening round visits vertices in a seeded-shuffled order and
matches each unmarked vertex with the unmarked neighbor maximizing the
normalized-cut score w_ij * (1/d_i + 1/d_j); leftovers become singleton
clusters. Coarse edge weights accumulate the fine weights between
clusters (self-weights collect intra-cluster mass). After all rounds the
levels are padded with fake (degree-0) vertices and reordered so that the
children of parent slot i sit at slots 2i and 2i+1 (0-based), which makes
nearest-neighbor upsampling a plain row gather.

graclus_coarsen is the seeded matching followed by assemble_hierarchy,
the deterministic step from the matching (raw_parents) to the padded
levels, Laplacians, perm and tree_ids. A checkpoint stores the matching
and every lambda_max (hierarchy_record), so loading runs only the
assembly (hierarchy_from_record): no matching and no power iteration.
Each stored converged flag is derived from its value on write and only
type-checked on read. The pose graph's operator, which MeshRegressor
takes built, comes from train.build_models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from meshlift import tensor as T
from meshlift.graphs import (LAMBDA_MAX_MIN, Graph, ScaledLaplacian, row_table,
                             scaled_laplacian)
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

    Deterministic for a given seed: the seeded matching, then
    assemble_hierarchy. Every level c satisfies |V^c| == 2 |V^{c+1}|
    after padding.
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
    raw_parents: list[np.ndarray] = []
    for _ in range(levels):
        cluster = _match_round(n, rows, cols, weights, rng)
        raw_parents.append(cluster)
        n, rows, cols, weights = _accumulate_weights(rows, cols, weights, cluster)
    return assemble_hierarchy(g, raw_parents, seed=seed)


def assemble_hierarchy(g: Graph, raw_parents: list[np.ndarray], seed: int = 0,
                       lambda_max: list[float] | None = None
                       ) -> CoarseningHierarchy:
    """The padded, tree-ordered hierarchy that a matching gives: level
    graphs, scaled Laplacians, perm and tree_ids from g and raw_parents.

    Each level's lambda_max is estimated from ``seed``, or taken from
    ``lambda_max`` (one per level, finest first), which skips the power
    iteration. Deterministic; raw_parents must be a valid matching (every
    cluster id in 0..max used, by one or two vertices).
    """
    n = g.num_vertices
    rows, k = np.nonzero(g.neighbors >= 0)
    cols = g.neighbors[rows, k]
    entries = [(rows, cols)]  # adjacency entries per level, pre-padding ids
    sizes = [n]
    for cluster in raw_parents:
        n = int(cluster.max()) + 1
        # every coarse vertex is real, even a cluster of fake vertices
        loops = np.arange(n, dtype=np.int64)
        keys = np.union1d(cluster[rows] * n + cluster[cols], loops * n + loops)
        rows, cols = keys // n, keys % n
        entries.append((rows, cols))
        sizes.append(n)

    tree_ids = _tree_order(raw_parents, sizes[-1])
    graphs = [_reorder(r, c, ids) for (r, c), ids in zip(entries, tree_ids)]
    estimates = [None] * len(graphs) if lambda_max is None else lambda_max
    laplacians = [scaled_laplacian(lg, seed=seed, lambda_max=est)
                  for lg, est in zip(graphs, estimates, strict=True)]

    perm = np.full(sizes[0], -1, dtype=np.int64)
    real = np.flatnonzero(tree_ids[0] >= 0)
    perm[tree_ids[0][real]] = real
    if np.any(perm < 0):
        missing = int(np.flatnonzero(perm < 0)[0])
        raise RuntimeError(f"assemble_hierarchy: vertex {missing} lost during reordering")

    return CoarseningHierarchy(
        levels=graphs,
        scaled_laplacians=laplacians,
        perm=perm,
        tree_ids=tree_ids,
        raw_parents=raw_parents,
    )


# ------------------------------------------------- checkpoint record

def hierarchy_record(h: CoarseningHierarchy, pose_lap: ScaledLaplacian) -> dict:
    """The JSON object that rebuilds h and the pose graph's operator:
    each level's raw_parents, and every operator's lambda_max with its
    converged flag (JSON keeps float64 values exactly)."""
    def estimate(lap):
        return {"value": lap.lambda_max, "converged": lap.converged}

    return {"raw_parents": [p.tolist() for p in h.raw_parents],
            "lambda_max": [estimate(lap) for lap in h.scaled_laplacians],
            "pose_lambda_max": estimate(pose_lap)}


def hierarchy_from_record(g: Graph, record, levels: int):
    """(hierarchy, pose graph lambda_max) from a hierarchy_record, with
    no matching and no power iteration; g is the mesh graph that was
    coarsened. Every malformed or mismatched record raises a ValueError
    naming the field, before anything is built. A converged flag is only
    type-checked: the operator derives it from lambda_max."""
    keys = {"raw_parents", "lambda_max", "pose_lambda_max"}
    if not (isinstance(record, dict) and set(record) == keys):
        raise ValueError(f"hierarchy must be an object with keys {sorted(keys)}")
    parents, lams = record["raw_parents"], record["lambda_max"]
    if not (isinstance(parents, list) and isinstance(lams, list)):
        raise ValueError("hierarchy raw_parents and lambda_max must be lists")
    if len(parents) != levels or len(lams) != levels + 1:
        raise ValueError(f"hierarchy has {len(parents)} levels and {len(lams)} "
                         f"lambda_max entries, the model {levels} and {levels + 1}")
    raw_parents = []
    n = g.num_vertices
    for c, ids in enumerate(parents):
        where = f"hierarchy raw_parents[{c}]"
        if not (isinstance(ids, list) and len(ids) == n):
            raise ValueError(f"{where}: expected {n} parent ids, one per vertex "
                             f"of level {c}")
        if not all(type(p) is int and 0 <= p < n for p in ids):
            raise ValueError(f"{where}: parent ids must be integers in 0..{n - 1}")
        cluster = np.asarray(ids, dtype=np.int64)
        counts = np.bincount(cluster)
        if counts.min() < 1 or counts.max() > 2:
            bad = int(np.flatnonzero((counts < 1) | (counts > 2))[0])
            raise ValueError(f"{where}: cluster {bad} has {counts[bad]} children, "
                             f"not 1 or 2")
        raw_parents.append(cluster)
        n = counts.size
    estimates = [_estimate(e, f"hierarchy lambda_max[{c}]") for c, e in enumerate(lams)]
    pose = _estimate(record["pose_lambda_max"], "hierarchy pose_lambda_max")
    return assemble_hierarchy(g, raw_parents, lambda_max=estimates), pose


def _estimate(entry, where: str) -> float:
    if not (isinstance(entry, dict) and set(entry) == {"value", "converged"}):
        raise ValueError(f"{where}: expected an object with keys converged and value")
    value, converged = entry["value"], entry["converged"]
    if not (type(value) in (int, float) and LAMBDA_MAX_MIN < value <= 2.0):
        raise ValueError(f"{where}: value must be a number in "
                         f"({LAMBDA_MAX_MIN:g}, 2], got {value!r}")
    if type(converged) is not bool:
        raise ValueError(f"{where}: converged must be true or false, got {converged!r}")
    return float(value)


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
