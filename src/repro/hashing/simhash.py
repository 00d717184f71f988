"""SimHash — signed random projections for cosine similarity.

This follows the paper's implementation notes (Section 3.2 and Appendix A):

* projection vectors have components in ``{+1, 0, -1}`` so hashing needs
  additions only, not multiplications;
* the projections are *sparse* (by default only one third of the coordinates
  are non-zero), which cuts the per-hash work from ``d`` to ``d/3``.

The paper's projection memoisation (Section 4.2, item 3) is not used: a
rebuild re-hashes its dirty rows with :meth:`SimHash.hash_matrix`.

Rows are hashed in :data:`~repro.types.FLOAT` (float32) and the projection
matrix is stored in it; its ``{+1, 0, -1}`` entries are exact.  Near a zero
projection, where summation order could decide the sign, the margin is taken
from float32's unit roundoff and the projection is re-summed in one fixed
order, so a row's codes never depend on the rows hashed beside it.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.base import HashCodes, LSHFamily, VectorLike
from repro.types import FLOAT, FloatArray, IntArray
from repro.utils.rng import derive_rng

__all__ = ["SimHash"]


class SimHash(LSHFamily):
    """Sparse signed-random-projection hashing.

    Parameters
    ----------
    input_dim:
        Dimensionality of the vectors being hashed.
    k, l:
        ``K`` elementary codes per table, ``L`` tables.
    sparsity:
        Fraction of non-zero coordinates per projection vector.
    seed:
        Seed for generating the (fixed) random projections.
    """

    def __init__(
        self,
        input_dim: int,
        k: int,
        l: int,
        sparsity: float = 1.0 / 3.0,
        seed: int = 0,
    ) -> None:
        super().__init__(input_dim=input_dim, k=k, l=l, seed=seed)
        if not 0.0 < sparsity <= 1.0:
            raise ValueError("sparsity must lie in (0, 1]")
        self.sparsity = float(sparsity)
        rng = derive_rng(seed, stream=101)

        total = k * l
        nnz = max(1, int(round(input_dim * sparsity)))
        self._nnz = nnz
        # ``(total, nnz)`` non-zero coordinate indices of each projection and
        # the matching signs.  Stored separately so a projection is a gather
        # plus a signed sum — additions only.
        self._proj_indices = np.empty((total, nnz), dtype=np.int64)
        for row in range(total):
            self._proj_indices[row] = rng.choice(input_dim, size=nnz, replace=False)
        signs = rng.choice(np.array([-1.0, 1.0]), size=(total, nnz))
        self._proj_signs = signs.astype(FLOAT)

        # Dense ``(input_dim, total)`` projection matrix used for the
        # vectorised matrix path (hashing all neurons of a layer at once).
        # Its +-1 / 0 entries are exact in any float dtype.
        dense = np.zeros((input_dim, total), dtype=FLOAT)
        rows = self._proj_indices.reshape(-1)
        cols = np.repeat(np.arange(total), nnz)
        dense[rows, cols] = self._proj_signs.reshape(-1)
        self._dense_projection = dense

    # ------------------------------------------------------------------
    # LSHFamily interface
    # ------------------------------------------------------------------
    @property
    def code_cardinality(self) -> int:
        return 2

    def hash_vector(self, vector: VectorLike) -> HashCodes:
        return self.codes_from_projections(self.project(vector))

    # Rows projected per block: bounds the float32 projection temporaries
    # to ~1 MB whatever the number of rows hashed.
    _BLOCK_ROWS = 1024

    def hash_matrix(self, matrix: FloatArray) -> HashCodes:
        """Signs of the projections as one-byte codes, ``(rows, L, K)``.

        Rows are projected in fixed blocks and each block's signs are
        written straight into the code array.  :meth:`_projections` makes a
        row's codes independent of the rows hashed beside it, so blocking
        changes no code.
        """
        matrix = np.asarray(matrix, dtype=FLOAT)
        if matrix.ndim != 2 or matrix.shape[1] != self.input_dim:
            raise ValueError("hash_matrix expects shape (rows, input_dim)")
        codes = np.empty((matrix.shape[0], self.k * self.l), dtype=self.code_dtype)
        for start in range(0, matrix.shape[0], self._BLOCK_ROWS):
            block = slice(start, start + self._BLOCK_ROWS)
            codes[block] = self._projections(matrix[block]) > 0
        return codes.reshape(matrix.shape[0], self.l, self.k)

    # ------------------------------------------------------------------
    # Projections
    # ------------------------------------------------------------------
    def _projections(self, matrix: FloatArray) -> FloatArray:
        """``(rows, K*L)`` projections of a dense ``(rows, input_dim)`` block.

        One BLAS product computes them, and its summation order depends on
        the kernel and on how many rows share the call.  Where that order
        could decide the sign — within twice the rounding bound of every
        order — the projection is summed again over its own coordinates in
        one fixed order.  So a row's codes never depend on the rows hashed
        beside it, and a row hashed alone gets the same codes.
        """
        projections = matrix @ self._dense_projection
        # Any summation order of ``d = input_dim`` exact products lands
        # within ``gamma_d * sum|x_j|`` of the true projection, with the unit
        # roundoff of the dtype the product sums in; a projection within
        # twice that of zero could take either sign.
        d = self.input_dim
        unit = np.finfo(projections.dtype).eps / 2
        gamma = d * unit / (1.0 - d * unit)
        # sum_j |x_j| <= sqrt(d) * ||x||_2, which is cheaper to take.
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        bound = (norms * (2.0 * gamma * np.sqrt(d)))[:, None]
        uncertain = projections <= bound
        uncertain &= projections >= -bound
        if uncertain.any():
            rows, cols = np.nonzero(uncertain)
            gathered = matrix[rows[:, None], self._proj_indices[cols]]
            projections[rows, cols] = np.sum(gathered * self._proj_signs[cols], axis=1)
        return projections

    def project(self, vector: VectorLike) -> FloatArray:
        """Return the ``K*L`` signed projections ``w_i . x``."""
        return self._projections(self._as_dense(vector)[None, :])[0]

    def codes_from_projections(self, projections: FloatArray) -> HashCodes:
        """Convert projections into ``(L, K)`` elementary codes."""
        projections = np.asarray(projections)
        if projections.shape[0] != self.k * self.l:
            raise ValueError("projections must have length K*L")
        return (projections > 0).astype(np.int64).reshape(self.l, self.k)

    @property
    def projection_nnz(self) -> int:
        """Number of non-zero coordinates per projection vector."""
        return self._nnz
