"""Vertex graphs, normalized Laplacians, and Chebyshev spectral filtering.

Graphs are stored as padded neighbour tables, and Laplacians as padded
row tables (RowTable): no row of a mesh Laplacian has more than a dozen
non-zeros, so building, coarsening and the lambda_max power iteration
cost O(V * d_max), not O(V^2), and so does the Laplacian product, which
multiplies each block of PRODUCT_BLOCK_ROWS rows by only the columns its
entries touch. Table values are float64, the single source of truth; the
product casts them to the feature dtype on first use (cached), so float32
training and float64 oracle runs share one graph object.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from meshlift import tensor as T
from meshlift.tensor import ShapeError, Tensor

POWER_ITER_MAX = 200
POWER_ITER_TOL = 1e-9
LAMBDA_MAX_FALLBACK = 2.0
# Smallest usable lambda_max: at or below it 2 / lambda_max blows L up (a
# zero Laplacian estimates 0), so such an estimate gets the fallback and
# such a stored value is rejected.
LAMBDA_MAX_MIN = 1e-9
# Rows per block of the Laplacian product. One float32 product on 1 BLAS
# thread: desk level 0 (208 slots, 1,024 columns) 0.64 ms as a dense V x V
# matmul, 0.20 ms in blocks; dense-body level 0 (1,944 slots, 256 columns)
# 1.39 ms by per-row gathers, 0.98 ms in blocks.
PRODUCT_BLOCK_ROWS = 8


class RowTable(NamedTuple):
    """Square matrix stored by rows, padded to the widest row.

    Row i holds values[i, k] at column cols[i, k], columns ascending; a
    -1 column is padding and carries the value 0.
    """

    cols: np.ndarray
    values: np.ndarray

    @property
    def num_rows(self) -> int:
        return self.cols.shape[0]

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """self @ x for a finite x: padding reads x[-1] and multiplies it by 0."""
        return np.einsum("ij,ij->i", self.values, x[self.cols])


def row_table(num_rows: int, rows, cols, values) -> RowTable:
    """Pack (row, col, value) entries, in any order, into a RowTable."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if rows.size and (min(rows.min(), cols.min()) < 0
                      or max(rows.max(), cols.max()) >= num_rows):
        raise ValueError(f"row_table: entry outside a {num_rows}x{num_rows} matrix")
    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    if np.any((np.diff(rows) == 0) & (np.diff(cols) == 0)):
        raise ValueError("row_table: repeated (row, col) entry")
    counts = np.bincount(rows, minlength=num_rows)
    width = max(1, int(counts.max(initial=0)))
    slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    table_cols = np.full((num_rows, width), -1, dtype=np.int64)
    table_values = np.zeros((num_rows, width))
    table_cols[rows, slot] = cols
    table_values[rows, slot] = values
    return RowTable(table_cols, table_values)


class Graph:
    """Undirected 0/1 vertex graph as a padded neighbour table.

    Row i of ``neighbors`` lists i's neighbours in ascending order, i
    itself included (self-loop), padded with -1 up to d_max entries.
    Every edge has weight 1, so the entry mask ``neighbors >= 0`` is the
    adjacency. Fake vertices (padding slots from coarsening) have no
    entries. The table must be symmetric.
    """

    def __init__(self, neighbors: np.ndarray):
        nbr = neighbors
        if nbr.ndim != 2:
            raise ValueError(f"Graph: neighbour table must be (V, d_max), got "
                             f"{nbr.shape}")
        n = nbr.shape[0]
        entry = nbr >= 0
        if np.any(nbr < -1) or np.any(nbr >= n):
            raise ValueError(f"Graph: neighbour index outside 0..{n - 1}")
        if np.any(entry[:, 1:] & ~(entry[:, :-1] & (nbr[:, 1:] > nbr[:, :-1]))):
            raise ValueError("Graph: neighbour rows must be strictly ascending, "
                             "padding last")
        rows, k = np.nonzero(entry)
        cols = nbr[rows, k]
        if not np.array_equal(np.sort(cols * n + rows), rows * n + cols):
            raise ValueError("Graph: adjacency must be symmetric")
        bad = entry.any(axis=1) & ~(nbr == np.arange(n)[:, None]).any(axis=1)
        if np.any(bad):
            v = int(np.flatnonzero(bad)[0])
            raise ValueError(f"Graph: real vertex {v} is missing its self-loop")
        self.neighbors = nbr

    @property
    def num_vertices(self) -> int:
        return self.neighbors.shape[0]

    @property
    def d_max(self) -> int:
        return int(self.degrees.max(initial=0))

    @property
    def degrees(self) -> np.ndarray:
        return np.count_nonzero(self.neighbors >= 0, axis=1).astype(np.float64)

    def is_fake(self) -> np.ndarray:
        """Boolean mask of degree-0 (padding) vertices."""
        return self.degrees == 0


def _undirected_graph(num_vertices: int, i, j) -> Graph:
    """Edges (i, j) in both directions plus a self-loop on every vertex;
    an edge listed more than once counts once."""
    loops = np.arange(num_vertices, dtype=np.int64)
    rows = np.concatenate([np.asarray(i, np.int64), np.asarray(j, np.int64), loops])
    cols = np.concatenate([np.asarray(j, np.int64), np.asarray(i, np.int64), loops])
    keys = np.unique(rows * num_vertices + cols)
    return Graph(row_table(num_vertices, keys // num_vertices,
                           keys % num_vertices, np.ones(keys.size)).cols)


def build_pose_graph(num_joints: int, skeleton_edges: Sequence[tuple[int, int]],
                     symmetry_pairs: Sequence[tuple[int, int]] = ()) -> Graph:
    """Joint graph: skeleton edges plus left/right symmetry edges plus self-loops."""
    if num_joints < 1:
        raise ValueError("build_pose_graph: need at least one joint")
    edges = list(skeleton_edges) + list(symmetry_pairs)
    for i, j in edges:
        if not (0 <= i < num_joints and 0 <= j < num_joints):
            raise ValueError(f"build_pose_graph: edge ({i}, {j}) out of range")
        if i == j:
            raise ValueError(f"build_pose_graph: self edge ({i}, {j})")
    return _undirected_graph(num_joints, [i for i, _ in edges], [j for _, j in edges])


def mesh_graph_from_faces(num_vertices: int, faces: np.ndarray) -> Graph:
    """Vertex graph induced by triangle edges, plus self-loops."""
    faces = np.asarray(faces, dtype=np.int64)
    if faces.ndim != 2 or faces.shape[1] != 3:
        raise ValueError(f"mesh_graph_from_faces: faces must be (F, 3), got {faces.shape}")
    if faces.size and (faces.min() < 0 or faces.max() >= num_vertices):
        raise ValueError("mesh_graph_from_faces: face references vertex out of range")
    i, j, k = faces.T
    degenerate = np.flatnonzero((i == j) | (j == k) | (i == k))
    if degenerate.size:
        f = faces[degenerate[0]]
        raise ValueError(f"mesh_graph_from_faces: degenerate face {tuple(int(v) for v in f)}")
    return _undirected_graph(num_vertices, np.concatenate([i, j, i]),
                             np.concatenate([j, k, k]))


def build_mesh_graph(template) -> Graph:
    """Mesh graph of a template (anything with .vertices and .faces)."""
    return mesh_graph_from_faces(len(template.vertices), template.faces)


def _diagonal(cols: np.ndarray) -> np.ndarray:
    """1.0 where a row table's entry sits on the diagonal, else 0.0."""
    return (cols == np.arange(cols.shape[0])[:, None]).astype(np.float64)


def normalized_laplacian(g: Graph) -> RowTable:
    """L = I - D^{-1/2} A D^{-1/2}, float64, on the graph's neighbour table.

    Degree-0 (fake) vertices get the identity row e_i, so they stay inert
    under filtering and the spectrum stays inside [0, 2].
    """
    nbr = g.neighbors
    d = g.degrees
    inv_sqrt = np.zeros_like(d)
    np.divide(1.0, np.sqrt(d), out=inv_sqrt, where=d > 0)
    fake = np.flatnonzero(d == 0)
    cols = nbr.copy()
    cols[fake, 0] = fake
    # same expression, entry by entry, as the dense eye - (s A) s^T
    values = _diagonal(cols) - (inv_sqrt[:, None] * (nbr >= 0)) * inv_sqrt[cols]
    return RowTable(cols, values)


def estimate_lambda_max(lap: RowTable, seed: int = 0) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    Seeded start vector, Rayleigh-quotient convergence below 1e-9, at most
    200 iterations, one sparse matvec each: the product that gives the
    Rayleigh quotient is the next iteration's. Returns the safe upper
    bound 2.0 (valid for normalized Laplacians) on non-convergence, and
    for an estimate at or below LAMBDA_MAX_MIN (a zero Laplacian).
    """
    n = lap.num_rows
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    w = lap.matvec(v)
    prev = np.inf
    for _ in range(POWER_ITER_MAX):
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break  # lap annihilates v: lambda_max 0
        v = w / nw
        w = lap.matvec(v)
        rayleigh = float(v @ w)
        if abs(rayleigh - prev) < POWER_ITER_TOL:
            return rayleigh if rayleigh > LAMBDA_MAX_MIN else LAMBDA_MAX_FALLBACK
        prev = rayleigh
    return LAMBDA_MAX_FALLBACK


class ScaledLaplacian:
    """L_tilde = 2 L / lambda_max - I, spectrum mapped into [-1, 1].

    Stored as a RowTable. product() multiplies block by block: each
    PRODUCT_BLOCK_ROWS rows hold, per dtype and built on first use, the
    dense (rows x touched columns) sub-matrix of their table entries and
    those columns' indices. Each output is then one sum over its block's
    touched columns in ascending order: the dense product's sum without
    most of its zero terms, which on OpenBLAS leaves its bits unchanged
    (at the training column counts, multiples of 16; see test_graphs).
    L_tilde is symmetric, so the same product is its own adjoint. Hashed
    by identity.
    """

    def __init__(self, table: RowTable, lambda_max: float):
        self.table = table
        self.lambda_max = float(lambda_max)
        self._blocks: dict = {}

    @property
    def converged(self) -> bool:
        """Not the fallback: with self-loops, every eigenvalue of L is < 2."""
        return self.lambda_max < LAMBDA_MAX_FALLBACK

    @property
    def num_vertices(self) -> int:
        return self.table.num_rows

    def _block_operands(self, dtype) -> list:
        """(first row, end row, touched columns, (rows, touched) sub-matrix)
        per block, in dtype: views into one buffer that one scatter fills."""
        key = np.dtype(dtype)
        if key not in self._blocks:
            n, size = self.num_vertices, PRODUCT_BLOCK_ROWS
            rows, k = np.nonzero(self.table.cols >= 0)
            block = rows // size
            # one sort over (block, column) keys: each block's columns, ascending
            keys, at = np.unique(block * n + self.table.cols[rows, k], return_inverse=True)
            starts = np.arange(0, n, size)
            heights = np.minimum(n - starts, size)
            widths = np.bincount(keys // n, minlength=starts.size)
            firsts, offsets = (np.cumsum(c) - c for c in (widths, heights * widths))
            flat = np.zeros(int(heights @ widths), dtype=key)
            flat[offsets[block] + (rows - starts[block]) * widths[block]
                 + at - firsts[block]] = self.table.values[rows, k]
            self._blocks[key] = [
                (s, s + h, keys[f:f + w] % n, flat[o:o + h * w].reshape(h, w))
                for s, h, w, f, o in zip(*(x.tolist() for x in (
                    starts, heights, widths, firsts, offsets)))]
        return self._blocks[key]

    def product(self, a: np.ndarray) -> np.ndarray:
        """L_tilde @ a for a finite (V, C) array, in a's dtype."""
        out = np.empty(a.shape, a.dtype)
        for s, e, used, sub in self._block_operands(a.dtype):
            np.matmul(sub, a.take(used, axis=0), out=out[s:e])
        return out


def scaled_laplacian(g: Graph, seed: int = 0,
                     lambda_max: float | None = None) -> ScaledLaplacian:
    """The graph's L_tilde, with lambda_max estimated by power iteration
    from ``seed``, or taken as given (a checkpoint's stored value)."""
    lap = normalized_laplacian(g)
    if lambda_max is None:
        lambda_max = estimate_lambda_max(lap, seed=seed)
    values = (2.0 / lambda_max) * lap.values - _diagonal(lap.cols)
    return ScaledLaplacian(RowTable(lap.cols, values), lambda_max)


class ChebFilter:
    """Chebyshev filter: K trainable coefficient matrices of shape (f_in, f_out)."""

    def __init__(self, coefficients: Sequence[Tensor]):
        coeffs = list(coefficients)
        if not coeffs:
            raise ValueError("ChebFilter: need at least one coefficient matrix")
        f_in, f_out = coeffs[0].shape
        for c in coeffs:
            if c.ndim != 2 or c.shape != (f_in, f_out):
                raise ShapeError("ChebFilter", coeffs[0].shape, c.shape)
        self.coefficients = coeffs
        self.f_in = f_in
        self.f_out = f_out

    @property
    def order(self) -> int:
        return len(self.coefficients)


def chebyshev_conv(f_in: Tensor, lap: ScaledLaplacian, filt: ChebFilter,
                   batch: int = 1) -> Tensor:
    """Spectral filtering sum_k T_k(L_tilde) F Theta_k via the recurrence
    Z_0 = F, Z_1 = L Z_0, Z_k = 2 L Z_{k-1} - Z_{k-2}, as one taped op.

    f_in is (V, batch, f) and the output (V, batch, f_out). Inside the op
    they are viewed as (V, batch * f), so that each Laplacian product
    covers the whole batch, and as (V * batch, f), so that one matmul
    applies Theta_k per vertex per sample. Backward gives dTheta_k =
    Z_k^T G and dZ_k = G Theta_k^T, then runs the adjoint recurrence with
    the same K - 1 Laplacian products as the forward.
    """
    v, f, f_out = lap.num_vertices, filt.f_in, filt.f_out
    if f_in.shape != (v, batch, f):
        raise ShapeError("chebyshev_conv", f_in.shape, (v, batch, f))
    coeffs = filt.coefficients
    T._check_dtype("chebyshev_conv", f_in, *coeffs)
    cols = batch * f

    zs = [f_in.data.reshape(v, cols)]
    if filt.order > 1:
        zs.append(lap.product(zs[0]))
    for _ in range(2, filt.order):
        z = lap.product(zs[-1])
        z *= 2
        z -= zs[-2]
        zs.append(z)
    rows = [z.reshape(v * batch, f) for z in zs]
    out = rows[0] @ coeffs[0].data
    for z, c in zip(rows[1:], coeffs[1:]):
        out += z @ c.data

    def bw(g, needs):
        g = g.reshape(v * batch, f_out)
        grads = [None] + [z.T @ g if need else None
                          for z, need in zip(rows, needs[1:])]
        if needs[0]:
            adj = [(g @ c.data.T).reshape(v, cols) for c in coeffs]
            for k in range(len(adj) - 1, 1, -1):
                p = lap.product(adj[k])
                p *= 2
                adj[k - 1] += p
                adj[k - 2] -= adj[k]
            if len(adj) > 1:
                adj[0] += lap.product(adj[1])
            grads[0] = adj[0].reshape(v, batch, f)
        return tuple(grads)

    return T._apply("chebyshev_conv", (f_in, *coeffs),
                    out.reshape(v, batch, f_out), bw)
