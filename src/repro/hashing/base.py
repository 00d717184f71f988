"""Abstract interface shared by all LSH hash families.

A hash family produces, for an input vector, ``K * L`` elementary integer
hash codes.  The LSH index (:mod:`repro.lsh`) groups each consecutive run of
``K`` codes into one *meta* hash — the bucket fingerprint of one table — so a
family only needs to map a vector to a ``(L, K)`` integer array.

Codes are small integers in ``[0, code_cardinality)``, so
:meth:`LSHFamily.hash_matrix` returns them in the family's
:attr:`~LSHFamily.code_dtype` — the smallest unsigned dtype that holds
``code_cardinality - 1`` (one byte for every family the factory builds) —
and the index packs them into int64 keys without widening the code tensor.

Inputs may be dense (``numpy.ndarray``) or sparse
(:class:`repro.types.SparseVector`); every family must accept both because
SLIDE hashes *layer inputs* (sparse data or sparse activations) as well as
*neuron weight vectors* (dense rows of the weight matrix).
"""

from __future__ import annotations

import abc
from typing import Union

import numpy as np

from repro.types import FLOAT, FloatArray, IntArray, SparseVector

__all__ = ["LSHFamily", "HashCodes", "VectorLike"]

# The ``(L, K)`` array of elementary hash codes for one input vector.
HashCodes = IntArray

VectorLike = Union[FloatArray, SparseVector]


class LSHFamily(abc.ABC):
    """Base class for ``(K, L)``-parameterised LSH hash families."""

    def __init__(self, input_dim: int, k: int, l: int, seed: int = 0) -> None:
        if input_dim <= 0:
            raise ValueError("input_dim must be positive")
        if k <= 0 or l <= 0:
            raise ValueError("k and l must be positive")
        self.input_dim = int(input_dim)
        self.k = int(k)
        self.l = int(l)
        self.seed = int(seed)

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def hash_vector(self, vector: VectorLike) -> HashCodes:
        """Return the ``(L, K)`` array of elementary codes for one vector."""

    @property
    @abc.abstractmethod
    def code_cardinality(self) -> int:
        """Number of distinct values an elementary code can take.

        Used by the LSH index to pack ``K`` elementary codes into a single
        bucket fingerprint without collisions between distinct code tuples.
        """

    @property
    def code_dtype(self) -> np.dtype:
        """The smallest unsigned dtype that holds ``code_cardinality - 1``.

        :meth:`hash_matrix` returns codes in it and the LSH index stores
        them in it.
        """
        return np.min_scalar_type(self.code_cardinality - 1)

    # ------------------------------------------------------------------
    # Conveniences shared by all families
    # ------------------------------------------------------------------
    def hash_matrix(self, matrix: FloatArray) -> HashCodes:
        """Hash each row of a dense matrix; returns ``(rows, L, K)`` codes.

        The codes are in :attr:`code_dtype`, whatever the implementation.
        Subclasses override this when a vectorised implementation is
        available (SimHash does); the default simply loops over rows.
        """
        matrix = np.asarray(matrix, dtype=FLOAT)
        if matrix.ndim != 2:
            raise ValueError("hash_matrix expects a 2-D array")
        codes = np.empty((matrix.shape[0], self.l, self.k), dtype=self.code_dtype)
        for row in range(matrix.shape[0]):
            codes[row] = self.hash_vector(matrix[row])
        return codes

    def _as_dense(self, vector: VectorLike) -> FloatArray:
        """Densify the input (helper for families without sparse fast paths)."""
        if isinstance(vector, SparseVector):
            if vector.dimension != self.input_dim:
                raise ValueError(
                    f"vector dimension {vector.dimension} does not match "
                    f"hash family input_dim {self.input_dim}"
                )
            return vector.to_dense()
        dense = np.asarray(vector, dtype=FLOAT)
        if dense.shape[0] != self.input_dim:
            raise ValueError(
                f"vector dimension {dense.shape[0]} does not match "
                f"hash family input_dim {self.input_dim}"
            )
        return dense

    def _as_sparse(self, vector: VectorLike) -> SparseVector:
        """View the input as a :class:`SparseVector` (helper for sparse paths)."""
        if isinstance(vector, SparseVector):
            if vector.dimension != self.input_dim:
                raise ValueError(
                    f"vector dimension {vector.dimension} does not match "
                    f"hash family input_dim {self.input_dim}"
                )
            return vector
        dense = np.asarray(vector, dtype=FLOAT)
        if dense.shape[0] != self.input_dim:
            raise ValueError(
                f"vector dimension {dense.shape[0]} does not match "
                f"hash family input_dim {self.input_dim}"
            )
        return SparseVector.from_dense(dense)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(input_dim={self.input_dim}, "
            f"k={self.k}, l={self.l}, seed={self.seed})"
        )
