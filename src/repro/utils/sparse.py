"""Sparse linear-algebra helpers used by the SLIDE hot paths.

These helpers are intentionally tiny wrappers around NumPy fancy indexing;
the important property is that their cost is proportional to the number of
*active* indices, never to the full layer width.
"""

from __future__ import annotations

import numpy as np

from repro.types import FloatArray, IntArray

__all__ = [
    "spans_all",
    "sparse_dense_matvec",
    "sparse_rows_dot",
    "normalize_rows",
    "random_sparse_matrix",
]


def spans_all(cols: IntArray | None, width: int) -> bool:
    """Whether a column selection is every column ``0..width-1`` in order.

    ``a[rows]`` then equals ``a[np.ix_(rows, cols)]`` and moves contiguous
    rows instead of single elements.  ``None`` means "all columns".
    """
    return cols is None or (
        cols.size == width and bool(np.array_equal(cols, np.arange(width)))
    )


def sparse_dense_matvec(
    weights: FloatArray,
    row_indices: IntArray,
    col_indices: IntArray,
    col_values: FloatArray,
) -> FloatArray:
    """Compute ``weights[row_indices][:, col_indices] @ col_values``.

    This is the core sparse forward-pass primitive: ``row_indices`` are the
    active neurons of the current layer, ``col_indices``/``col_values`` the
    sparse input from the previous layer.
    """
    if row_indices.size == 0 or col_indices.size == 0:
        return np.zeros(row_indices.shape[0], dtype=np.float64)
    submatrix = weights[np.ix_(row_indices, col_indices)]
    return submatrix @ col_values


def sparse_rows_dot(
    weights: FloatArray,
    row_indices: IntArray,
    dense_vector: FloatArray,
) -> FloatArray:
    """Dot each selected weight row with a dense vector."""
    if row_indices.size == 0:
        return np.zeros(0, dtype=np.float64)
    return weights[row_indices] @ dense_vector


def normalize_rows(matrix: FloatArray, epsilon: float = 1e-12) -> FloatArray:
    """Return a copy of ``matrix`` with each row scaled to unit L2 norm."""
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, epsilon)


def random_sparse_matrix(
    rows: int,
    cols: int,
    density: float,
    rng: np.random.Generator,
    scale: float = 1.0,
) -> FloatArray:
    """Generate a dense matrix whose entries are zero with prob ``1-density``.

    Used by tests and the synthetic dataset generator; small enough sizes that
    a dense representation is fine.
    """
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    values = rng.normal(scale=scale, size=(rows, cols))
    mask = rng.random((rows, cols)) < density
    return values * mask
