"""Densified Winner-Take-All (DWTA) hashing (Chen & Shrivastava, 2018).

WTA hashing degrades on very sparse inputs because most bins see only zero
coordinates and therefore carry no information.  DWTA fixes this in two ways
(Appendix A):

1. it loops over the *non-zero* coordinates of the input only, so hashing
   costs ``O(nnz * K * L * m / d)`` instead of ``O(K * L * m)``;
2. *empty* bins borrow the code of a non-empty bin chosen by a fixed
   pseudo-random probing sequence ("densification"), which restores the LSH
   property for sparse vectors.
"""

from __future__ import annotations

import numpy as np

from math import gcd

from repro.hashing.base import HashCodes, LSHFamily, VectorLike
from repro.hashing.densify import densify_codes_batch
from repro.types import FLOAT, FloatArray, SparseVector
from repro.utils.rng import derive_rng

__all__ = ["DWTAHash"]


def _coprime_offsets(rng: np.random.Generator, total: int) -> np.ndarray:
    """Random ring-walk step sizes, each coprime with ``total``.

    A step coprime with the ring size visits every position, which guarantees
    the densification probe always finds a filled bin when one exists.
    """
    if total <= 1:
        return np.ones(max(total, 1), dtype=np.int64)
    offsets = np.empty(total, dtype=np.int64)
    for idx in range(total):
        step = int(rng.integers(1, total))
        while gcd(step, total) != 1:
            step = step % total + 1
        offsets[idx] = step
    return offsets


class DWTAHash(LSHFamily):
    """Densified WTA hashing for sparse inputs."""

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
        rng = derive_rng(seed, stream=303)

        total_codes = k * l
        bins_per_perm = max(1, input_dim // self.bin_size)
        n_perms = int(np.ceil(total_codes / bins_per_perm))
        perms = np.stack([rng.permutation(input_dim) for _ in range(n_perms)])
        usable = bins_per_perm * self.bin_size
        bins = perms[:, :usable].reshape(n_perms * bins_per_perm, self.bin_size)
        self._bins = bins[:total_codes]

        # Bin positions reordered by ascending coordinate id.  The per-vector
        # path iterates coordinates in ascending order with a strict ``>``
        # comparison, so ties resolve to the smallest coordinate; gathering in
        # this order lets the batched path's ``argmax`` (first maximum wins)
        # reproduce that tie-break exactly.
        self._bin_coord_order = np.argsort(self._bins, axis=1, kind="stable")
        self._bins_by_coord = np.take_along_axis(
            self._bins, self._bin_coord_order, axis=1
        )

        # Inverse mapping: coordinate -> list of (code_index, position) pairs.
        # Stored as flat arrays for cheap gathering in the sparse path.
        coord_to_codes: list[list[tuple[int, int]]] = [[] for _ in range(input_dim)]
        for code_idx in range(total_codes):
            for pos in range(self.bin_size):
                coord = int(self._bins[code_idx, pos])
                coord_to_codes[coord].append((code_idx, pos))
        self._coord_map = coord_to_codes

        # Densification probing sequence: for each code index, a fixed random
        # step size used to walk the ring of bins.  Steps are forced coprime
        # with the ring size so the walk visits every bin and densification
        # always terminates at a filled one.
        self._probe_offsets = _coprime_offsets(rng, total_codes)
        self._total_codes = total_codes

    @property
    def code_cardinality(self) -> int:
        # +1 accounts for the sentinel "empty after densification" value.
        return self.bin_size + 1

    def hash_vector(self, vector: VectorLike) -> HashCodes:
        sparse = self._as_sparse(vector)
        codes, filled = self._raw_codes(sparse)
        codes = self._densify(codes, filled)
        return codes.reshape(self.l, self.k)

    # Rows hashed per chunk: bounds the (chunk, K*L, bin_size) gather
    # temporaries to tens of MB even for paper-scale neuron counts.
    _CHUNK_ROWS = 1024

    def hash_matrix(self, matrix: FloatArray) -> HashCodes:
        """Vectorised batch hashing: one gather/reduce sweep per row chunk.

        Agrees bin-for-bin with mapping :meth:`hash_vector` over the rows;
        zero coordinates are excluded from the winner search exactly as the
        sparse per-vector path excludes them.  Rows are processed in fixed
        chunks so the ``(rows, K*L, bin_size)`` gather never materialises
        for a full 100K+-neuron weight matrix at once.
        """
        matrix = np.asarray(matrix, dtype=FLOAT)
        if matrix.ndim != 2 or matrix.shape[1] != self.input_dim:
            raise ValueError("hash_matrix expects shape (rows, input_dim)")
        out = np.empty((matrix.shape[0], self.l, self.k), dtype=self.code_dtype)
        for start in range(0, matrix.shape[0], self._CHUNK_ROWS):
            chunk = matrix[start : start + self._CHUNK_ROWS]
            out[start : start + self._CHUNK_ROWS] = self._hash_chunk(chunk)
        return out

    def _hash_chunk(self, chunk: FloatArray) -> HashCodes:
        total = self._total_codes
        # (chunk, total, bin_size) values at each bin's coordinates, with
        # exact zeros masked out of contention.
        gathered = chunk[:, self._bins_by_coord]
        masked = np.where(gathered != 0.0, gathered, -np.inf)
        best = masked.max(axis=2)
        filled = best > -np.inf
        winner = masked.argmax(axis=2)
        codes = self._bin_coord_order[np.arange(total)[None, :], winner]
        codes = np.where(filled, codes, 0)
        codes = densify_codes_batch(codes, filled, self._probe_offsets, self.bin_size)
        return codes.reshape(chunk.shape[0], self.l, self.k)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _raw_codes(self, sparse: SparseVector) -> tuple[np.ndarray, np.ndarray]:
        """Winner positions per bin considering only non-zero coordinates."""
        total = self._total_codes
        best_value = np.full(total, -np.inf, dtype=FLOAT)
        codes = np.zeros(total, dtype=np.int64)
        filled = np.zeros(total, dtype=bool)
        for coord, value in zip(sparse.indices, sparse.values):
            for code_idx, pos in self._coord_map[int(coord)]:
                if value > best_value[code_idx]:
                    best_value[code_idx] = value
                    codes[code_idx] = pos
                    filled[code_idx] = True
        return codes, filled

    def _densify(self, codes: np.ndarray, filled: np.ndarray) -> np.ndarray:
        """Fill empty bins by probing other bins with a fixed random offset."""
        if filled.all():
            return codes
        if not filled.any():
            # Degenerate all-zero input: return the sentinel code everywhere.
            return np.full_like(codes, self.bin_size)
        total = self._total_codes
        densified = codes.copy()
        for code_idx in np.flatnonzero(~filled):
            probe = code_idx
            offset = int(self._probe_offsets[code_idx])
            # Bounded probing: at most ``total`` hops (guaranteed to terminate
            # because at least one bin is filled and offsets cycle the ring).
            for attempt in range(1, total + 1):
                probe = (code_idx + attempt * offset) % total
                if filled[probe]:
                    densified[code_idx] = codes[probe]
                    break
            else:  # pragma: no cover - unreachable given filled.any()
                densified[code_idx] = self.bin_size
        return densified

    @property
    def bins(self) -> np.ndarray:
        """The ``(K*L, bin_size)`` coordinate bins (read-only view)."""
        return self._bins
