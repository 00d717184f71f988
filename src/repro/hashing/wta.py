"""Winner-Take-All (WTA) hashing (Yagnik et al., 2011).

Following Appendix A, SLIDE's memory-optimised variant generates
``ceil(K * L * m / d)`` full permutations of ``[0, d)`` instead of ``K * L``
of them; each permutation is split into ``d / m`` bins of size ``m`` and each
bin yields one elementary hash code: the *position within the bin* of the
maximum input coordinate.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.base import HashCodes, LSHFamily, VectorLike
from repro.types import FLOAT, FloatArray
from repro.utils.rng import derive_rng

__all__ = ["WTAHash"]


class WTAHash(LSHFamily):
    """Winner-take-all hashing over dense inputs.

    Parameters
    ----------
    bin_size:
        ``m`` — the number of coordinates examined per elementary code.
    """

    def __init__(
        self,
        input_dim: int,
        k: int,
        l: int,
        bin_size: int = 8,
        seed: int = 0,
    ) -> None:
        super().__init__(input_dim=input_dim, k=k, l=l, seed=seed)
        if bin_size < 2:
            raise ValueError("bin_size must be at least 2")
        self.bin_size = int(min(bin_size, input_dim))
        rng = derive_rng(seed, stream=202)

        total_codes = k * l
        bins_per_perm = max(1, input_dim // self.bin_size)
        n_perms = int(np.ceil(total_codes / bins_per_perm))
        # Each permutation is a shuffled copy of [0, d); bins are consecutive
        # slices of length ``bin_size``.
        perms = np.stack([rng.permutation(input_dim) for _ in range(n_perms)])
        # Flatten all bins from all permutations and keep the first
        # ``total_codes`` of them, shaped (total_codes, bin_size).
        usable = bins_per_perm * self.bin_size
        bins = perms[:, :usable].reshape(n_perms * bins_per_perm, self.bin_size)
        self._bins = bins[:total_codes]

    @property
    def code_cardinality(self) -> int:
        return self.bin_size

    def hash_vector(self, vector: VectorLike) -> HashCodes:
        dense = self._as_dense(vector)
        gathered = dense[self._bins]
        codes = np.argmax(gathered, axis=1).astype(np.int64)
        return codes.reshape(self.l, self.k)

    def hash_matrix(self, matrix: FloatArray) -> HashCodes:
        """Vectorised batch hashing: one gather + argmax for all rows."""
        matrix = np.asarray(matrix, dtype=FLOAT)
        if matrix.ndim != 2 or matrix.shape[1] != self.input_dim:
            raise ValueError("hash_matrix expects shape (rows, input_dim)")
        gathered = matrix[:, self._bins]
        codes = np.argmax(gathered, axis=2).astype(self.code_dtype)
        return codes.reshape(matrix.shape[0], self.l, self.k)

    @property
    def bins(self) -> np.ndarray:
        """The ``(K*L, bin_size)`` coordinate bins (read-only view)."""
        return self._bins
