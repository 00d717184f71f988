"""Densified One Permutation Hashing (DOPH) with top-k binarisation.

Appendix A: DOPH is designed for binary inputs; neuron weight vectors are not
binary, so SLIDE first thresholds the input — the ``k`` largest coordinates
become 1 and the rest 0 — then applies one-permutation minwise hashing with
densification (Shrivastava & Li, 2014b).
"""

from __future__ import annotations

import numpy as np

from repro.hashing.base import HashCodes, LSHFamily, VectorLike
from repro.hashing.densify import densify_codes_batch
from repro.hashing.dwta import _coprime_offsets
from repro.types import FLOAT, FloatArray, SparseVector
from repro.utils.rng import derive_rng
from repro.utils.topk import top_k_indices

__all__ = ["DOPH"]


class DOPH(LSHFamily):
    """Densified one-permutation minwise hashing over thresholded inputs.

    Parameters
    ----------
    top_k:
        Number of largest-magnitude coordinates retained by the binarisation
        threshold (``idx_k`` in the paper's notation).
    """

    def __init__(
        self,
        input_dim: int,
        k: int,
        l: int,
        top_k: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__(input_dim=input_dim, k=k, l=l, seed=seed)
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        self.top_k = int(min(top_k, input_dim))
        rng = derive_rng(seed, stream=505)

        total = k * l
        self._total = total
        # One global permutation of the coordinates, split into ``total`` bins.
        self._permutation = rng.permutation(input_dim)
        # bin id of each permuted position
        self._bin_of_position = np.minimum(
            np.arange(input_dim) * total // max(input_dim, 1), total - 1
        )
        # position of each coordinate inside the permutation
        self._position_of_coord = np.empty(input_dim, dtype=np.int64)
        self._position_of_coord[self._permutation] = np.arange(input_dim)
        # densification probing offsets (coprime with the ring size so the
        # walk is guaranteed to reach a filled bin when one exists)
        self._probe_offsets = _coprime_offsets(rng, total)
        # bin sizes vary by at most 1; code cardinality is the largest bin + sentinel
        bin_counts = np.bincount(self._bin_of_position, minlength=total)
        self._max_bin = int(bin_counts.max())
        # offset of the first position of each bin, so codes are local positions
        self._bin_start = np.zeros(total, dtype=np.int64)
        np.cumsum(bin_counts[:-1], out=self._bin_start[1:])

    @property
    def code_cardinality(self) -> int:
        return self._max_bin + 1

    # ------------------------------------------------------------------
    def binarise(self, vector: VectorLike) -> np.ndarray:
        """Indices of the coordinates kept by the top-k threshold."""
        if isinstance(vector, SparseVector):
            sparse = self._as_sparse(vector)
            if sparse.nnz <= self.top_k:
                return np.array(sparse.indices, dtype=np.int64)
            keep = top_k_indices(sparse.values, self.top_k)
            return np.asarray(sparse.indices[keep], dtype=np.int64)
        dense = self._as_dense(vector)
        keep = top_k_indices(dense, self.top_k)
        # Drop exact zeros so an all-zero vector produces an empty support.
        keep = keep[dense[keep] != 0]
        return keep.astype(np.int64)

    def hash_vector(self, vector: VectorLike) -> HashCodes:
        support = self.binarise(vector)
        total = self._total
        codes = np.full(total, self._max_bin, dtype=np.int64)
        filled = np.zeros(total, dtype=bool)
        if support.size:
            positions = self._position_of_coord[support]
            bins = self._bin_of_position[positions]
            local = positions - self._bin_start[bins]
            # minwise: keep the smallest local position per bin
            order = np.argsort(local)
            for idx in order[::-1]:
                codes[bins[idx]] = local[idx]
                filled[bins[idx]] = True
        codes = self._densify(codes, filled)
        return codes.reshape(self.l, self.k)

    # Rows hashed per chunk: bounds the boolean keep-mask and the flat
    # scatter-min temporaries for paper-scale neuron counts.
    _CHUNK_ROWS = 1024

    def hash_matrix(self, matrix: FloatArray) -> HashCodes:
        """Vectorised batch hashing over the rows of a dense matrix.

        Binarisation (top-k threshold, zeros dropped), minwise reduction and
        densification all run as whole-chunk array operations; agreement
        with the per-vector path holds wherever the top-k threshold is
        untied.  Rows are processed in fixed chunks to bound temporaries.
        """
        matrix = np.asarray(matrix, dtype=FLOAT)
        if matrix.ndim != 2 or matrix.shape[1] != self.input_dim:
            raise ValueError("hash_matrix expects shape (rows, input_dim)")
        out = np.empty((matrix.shape[0], self.l, self.k), dtype=self.code_dtype)
        for start in range(0, matrix.shape[0], self._CHUNK_ROWS):
            chunk = matrix[start : start + self._CHUNK_ROWS]
            out[start : start + self._CHUNK_ROWS] = self._hash_chunk(chunk)
        return out

    def _hash_chunk(self, matrix: FloatArray) -> HashCodes:
        rows, total = matrix.shape[0], self._total
        keep = np.zeros(matrix.shape, dtype=bool)
        if self.top_k >= self.input_dim:
            keep[:] = True
        else:
            part = np.argpartition(matrix, -self.top_k, axis=1)[:, -self.top_k :]
            np.put_along_axis(keep, part, True, axis=1)
        keep &= matrix != 0.0

        kept_row, kept_coord = np.nonzero(keep)
        positions = self._position_of_coord[kept_coord]
        bins = self._bin_of_position[positions]
        local = positions - self._bin_start[bins]
        # Minwise per (row, bin): scatter-min of the local positions.
        min_local = np.full(rows * total, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(min_local, kept_row * total + bins, local)
        min_local = min_local.reshape(rows, total)
        filled = min_local != np.iinfo(np.int64).max
        codes = np.where(filled, min_local, self._max_bin)
        codes = densify_codes_batch(codes, filled, self._probe_offsets, self._max_bin)
        return codes.reshape(rows, self.l, self.k)

    def _densify(self, codes: np.ndarray, filled: np.ndarray) -> np.ndarray:
        if filled.all() or not filled.any():
            return codes
        total = self._total
        densified = codes.copy()
        for code_idx in np.flatnonzero(~filled):
            offset = int(self._probe_offsets[code_idx])
            for attempt in range(1, total + 1):
                probe = (code_idx + attempt * offset) % total
                if filled[probe]:
                    densified[code_idx] = codes[probe]
                    break
        return densified
