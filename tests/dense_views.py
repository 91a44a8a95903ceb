"""Dense views of the sparse graph types, and the dense spectral oracle.

The library keeps graphs and Laplacians as padded row tables and never
builds a dense matrix. Tests read and write small graphs as dense matrices
through these helpers. gathered_product is the row-gather Laplacian
product that the block product replaced, kept as a bit-level reference.
assert_same_operators and assert_same_hierarchy compare rebuilt
structures field by field.
"""

from typing import Sequence

import numpy as np

from meshlift import graphs as G


def table_to_dense(table: G.RowTable, dtype=np.float64) -> np.ndarray:
    """The square matrix a RowTable stores, padding entries left 0."""
    n = table.num_rows
    out = np.zeros((n, n), dtype=dtype)
    rows, k = np.nonzero(table.cols >= 0)
    out[rows, table.cols[rows, k]] = table.values[rows, k]
    return out


def table_from_dense(m) -> G.RowTable:
    """RowTable holding the non-zero entries of a square matrix."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"table_from_dense: matrix must be square, got {m.shape}")
    rows, cols = np.nonzero(m)
    return G.row_table(m.shape[0], rows, cols, m[rows, cols])


def graph_from_dense(a) -> G.Graph:
    """Graph from a dense 0/1 adjacency matrix; Graph validates its
    structure."""
    table = table_from_dense(a)
    if np.any(table.values[table.cols >= 0] != 1):
        raise ValueError("graph_from_dense: adjacency entries must be 0 or 1")
    return G.Graph(table.cols)


def dense(x) -> np.ndarray:
    """Float64 matrix of a Graph (its adjacency), RowTable or ScaledLaplacian."""
    if isinstance(x, G.Graph):
        x = G.RowTable(x.neighbors, (x.neighbors >= 0).astype(np.float64))
    elif isinstance(x, G.ScaledLaplacian):
        x = x.table
    return table_to_dense(x)


def gathered_product(lap: G.ScaledLaplacian, a: np.ndarray,
                     block: int = 1 << 18) -> np.ndarray:
    """L_tilde @ a by row gathers, in a's dtype: each row's table values
    times the rows of a its columns name, a padding entry reading row 0
    and multiplying it by 0, in blocks of about ``block`` gathered values."""
    cols, values = lap.table
    cols = np.maximum(cols, 0)
    values = values.astype(a.dtype)[:, None, :]
    n, width = cols.shape
    out = np.empty_like(a)
    step = max(1, block // (width * max(1, a.shape[1])))
    for i in range(0, n, step):
        np.matmul(values[i:i + step], a[cols[i:i + step]],
                  out=out[i:i + step, None, :])
    return out


def edge_list(g: G.Graph) -> np.ndarray:
    """(row, col) adjacency entries, self-loops included, sorted, int64."""
    rows, k = np.nonzero(g.neighbors >= 0)
    pairs = np.stack([rows, g.neighbors[rows, k]], axis=1).astype(np.int64)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def assert_same_operators(a: Sequence[G.ScaledLaplacian],
                          b: Sequence[G.ScaledLaplacian]) -> None:
    """Equal scaled Laplacians: table columns and values, lambda_max and
    the converged flag, bit for bit."""
    assert len(a) == len(b)
    for la, lb in zip(a, b):
        np.testing.assert_array_equal(la.table.cols, lb.table.cols)
        np.testing.assert_array_equal(la.table.values, lb.table.values)
        assert (la.lambda_max, la.converged) == (lb.lambda_max, lb.converged)


def assert_same_hierarchy(a, b) -> None:
    """Two CoarseningHierarchy objects agree in every field."""
    assert_same_operators(a.scaled_laplacians, b.scaled_laplacians)
    np.testing.assert_array_equal(a.perm, b.perm)
    for fa, fb in ((a.tree_ids, b.tree_ids), (a.raw_parents, b.raw_parents)):
        assert len(fa) == len(fb)
        for x, y in zip(fa, fb):
            np.testing.assert_array_equal(x, y)
    assert [edge_list(g).tolist() for g in a.levels] == \
        [edge_list(g).tolist() for g in b.levels]


def dense_spectral_oracle(x: np.ndarray, lap: G.ScaledLaplacian,
                          theta: Sequence[float]) -> np.ndarray:
    """Reference filtering U diag(sum_k theta_k T_k(lambda)) U^T x.

    Single-channel, float64, by explicit eigendecomposition; exists purely
    to cross-check chebyshev_conv through an independent route.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != lap.num_vertices:
        raise ValueError(f"dense_spectral_oracle: x must be ({lap.num_vertices},), got {x.shape}")
    theta = [float(t) for t in theta]
    if not theta:
        raise ValueError("dense_spectral_oracle: empty filter")
    lam, u = np.linalg.eigh(dense(lap))
    t_prev = np.ones_like(lam)
    gain = theta[0] * t_prev
    if len(theta) > 1:
        t_cur = lam.copy()
        gain = gain + theta[1] * t_cur
        for k in range(2, len(theta)):
            t_next = 2.0 * lam * t_cur - t_prev
            gain = gain + theta[k] * t_next
            t_prev, t_cur = t_cur, t_next
    return u @ (gain * (u.T @ x))
