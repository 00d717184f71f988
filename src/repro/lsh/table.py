"""A single LSH hash table on flat array-backed storage.

One table owns one *meta* hash function — the concatenation of ``K``
elementary codes — and maps the resulting ``int64`` fingerprint to a row of
a shared fixed-width slot matrix (:class:`~repro.lsh.bucket.FlatBuckets`).
The fingerprint→row directory is a pair of parallel sorted arrays probed
with ``searchsorted``, so whole batches of fingerprints resolve to bucket
rows in one vectorised lookup and whole batches of items are inserted or
removed with array ops (:meth:`insert_many` / :meth:`remove_many`) instead
of per-item dictionary and list mutations.
"""

from __future__ import annotations

import numpy as np

from repro.lsh.bucket import FlatBuckets
from repro.lsh.policies import InsertionPolicy
from repro.types import IntArray

__all__ = ["HashTable"]

# splitmix64-flavoured combine constant for chunked fingerprint mixing.
_MIX_CONSTANT = np.uint64(0x9E3779B97F4A7C15)


def _radix_chunks(k: int, cardinality: int) -> list[tuple[slice, np.ndarray]]:
    """Split ``K`` code positions into chunks whose packing fits int64.

    Each chunk is ``(column_slice, radix_weights)``; a single chunk means the
    whole tuple packs exactly into one int64 (the common case).  Wider
    (cardinality, K) combinations pack chunk by chunk and mix the chunk
    values into one 64-bit fingerprint.
    """
    digits_per_chunk = max(1, int(np.floor(62.0 / np.log2(cardinality))))
    chunks: list[tuple[slice, np.ndarray]] = []
    for start in range(0, k, digits_per_chunk):
        width = min(digits_per_chunk, k - start)
        radix = cardinality ** np.arange(width - 1, -1, -1, dtype=np.int64)
        chunks.append((slice(start, start + width), radix))
    return chunks


class HashTable:
    """Flat-layout hash table from meta-hash fingerprints to bounded buckets.

    Parameters
    ----------
    code_cardinality:
        Number of distinct values an elementary code can take; used to pack
        the ``K`` codes into a single integer fingerprint.  When
        ``code_cardinality ** k`` fits in an int64 the packing is exact
        (injective over code tuples); wider combinations fall back to a
        chunked pack-and-mix that stays batched but may collide — harmless
        for LSH, where the fingerprint is itself a hash.
    bucket_size:
        Maximum ids per bucket (the slot-matrix row width).
    policy:
        Replacement policy applied when a bucket is full.
    store:
        The slot matrix this table allocates its bucket rows from; the
        tables of one :class:`~repro.lsh.index.LSHIndex` share one.
    """

    def __init__(
        self,
        k: int,
        code_cardinality: int,
        bucket_size: int,
        policy: InsertionPolicy,
        store: FlatBuckets | None = None,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if code_cardinality < 2:
            raise ValueError("code_cardinality must be at least 2")
        if bucket_size <= 0:
            raise ValueError("bucket_size must be positive")
        self.k = int(k)
        self.code_cardinality = int(code_cardinality)
        self.bucket_size = int(bucket_size)
        self.policy = policy
        self._chunks = _radix_chunks(self.k, self.code_cardinality)
        # An index hands all its tables one store; a lone table makes its own.
        self._flat = FlatBuckets(self.bucket_size) if store is None else store
        if self._flat.capacity != self.bucket_size:
            raise ValueError("store capacity must equal bucket_size")
        # Fingerprint -> bucket-row directory as parallel sorted arrays.
        self._keys = np.zeros(0, dtype=np.int64)
        self._key_rows = np.zeros(0, dtype=np.int64)

    @property
    def exact_fingerprints(self) -> bool:
        """True when the code tuple packs injectively into one int64."""
        return len(self._chunks) == 1

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    def fingerprint(self, codes: IntArray) -> int:
        """Pack ``K`` elementary codes into one int64 fingerprint."""
        codes = np.asarray(codes, dtype=np.int64)
        if codes.shape != (self.k,):
            raise ValueError(f"expected {self.k} codes, got shape {codes.shape}")
        return int(self.fingerprint_many(codes[None, :])[0])

    def fingerprint_many(self, codes: IntArray) -> IntArray:
        """Fingerprints for ``(..., K)`` codes as an ``int64`` array.

        The batched counterpart of :meth:`fingerprint`: one product per
        radix chunk packs the whole block — ``(n, K)`` tuples, or the
        ``(n, L, K)`` codes of every table of an index at once, since its
        tables share ``K`` and the cardinality — and one range check covers
        it.  Over-wide radixes stay batched too: each chunk packs vectorised
        and the chunk values are mixed into one 64-bit word.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim < 2 or codes.shape[-1] != self.k:
            raise ValueError(f"expected shape (..., {self.k}), got {codes.shape}")
        if codes.size and (codes.min() < 0 or codes.max() >= self.code_cardinality):
            raise ValueError("code value out of range for code_cardinality")
        cols, radix = self._chunks[0][0], self._chunks[0][1]
        if len(self._chunks) == 1:
            return codes @ radix
        mixed = (codes[..., cols] @ radix).astype(np.uint64)
        for cols, radix in self._chunks[1:]:
            packed = (codes[..., cols] @ radix).astype(np.uint64)
            combined = (
                packed
                + _MIX_CONSTANT
                + (mixed << np.uint64(6))
                + (mixed >> np.uint64(2))
            )
            mixed = mixed ^ combined
        return mixed.view(np.int64)

    # ------------------------------------------------------------------
    # Fingerprint -> bucket-row directory
    # ------------------------------------------------------------------
    def rows_of(self, keys: IntArray) -> IntArray:
        """Bucket rows for a batch of fingerprints (``-1`` where unmapped)."""
        keys = np.asarray(keys, dtype=np.int64)
        if self._keys.size == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        pos = self._keys.searchsorted(keys)  # == size past the last key: clipped
        hit = self._keys.take(pos, mode="clip") == keys
        return np.where(hit, self._key_rows.take(pos, mode="clip"), -1)

    def _row_of_scalar(self, key: int) -> int:
        """Bucket row for one fingerprint (``-1`` when unmapped)."""
        pos = int(np.searchsorted(self._keys, key))
        if pos < self._keys.size and self._keys[pos] == key:
            return int(self._key_rows[pos])
        return -1

    def _rows_for_insert(self, keys: IntArray) -> IntArray:
        """Like :meth:`rows_of` but allocates buckets for unmapped keys."""
        rows = self.rows_of(keys)
        missing = rows < 0
        if np.any(missing):
            new_keys = np.unique(keys[missing])
            new_rows = self._flat.alloc(new_keys.size)
            merged_keys = np.concatenate([self._keys, new_keys])
            merged_rows = np.concatenate([self._key_rows, new_rows])
            order = np.argsort(merged_keys, kind="stable")
            self._keys = merged_keys[order]
            self._key_rows = merged_rows[order]
            rows = self.rows_of(keys)
        return rows

    def _row_for_insert_scalar(self, key: int) -> int:
        pos = int(np.searchsorted(self._keys, key))
        if pos < self._keys.size and self._keys[pos] == key:
            return int(self._key_rows[pos])
        row = int(self._flat.alloc(1)[0])
        self._keys = np.insert(self._keys, pos, key)
        self._key_rows = np.insert(self._key_rows, pos, row)
        return row

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, codes: IntArray, item: int) -> bool:
        """Insert ``item`` under the bucket addressed by ``codes``."""
        return self.insert_fingerprint(self.fingerprint(codes), item)

    def insert_fingerprint(self, key: int, item: int) -> bool:
        """Insert ``item`` under a precomputed fingerprint key."""
        if item < 0:
            raise ValueError("items must be non-negative (−1 is the slot sentinel)")
        row = self._row_for_insert_scalar(int(key))
        return self.policy.insert_flat(self._flat, row, int(item))

    def insert_many(self, keys: IntArray, items: IntArray) -> int:
        """Insert a whole batch of ``(fingerprint, item)`` pairs at once.

        Produces the same bucket contents as calling
        :meth:`insert_fingerprint` pair by pair in order (reservoir draws are
        requested from the generator in one vectorised call rather than one
        scalar draw per overflowing arrival).  Returns the number stored.
        """
        keys = np.asarray(keys, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if keys.shape != items.shape or keys.ndim != 1:
            raise ValueError("keys and items must be 1-D arrays of equal length")
        if keys.size == 0:
            return 0
        if items.min() < 0:
            raise ValueError("items must be non-negative (−1 is the slot sentinel)")
        rows = self._rows_for_insert(keys)
        return self.policy.insert_many_flat(self._flat, rows, items)

    def remove(self, codes: IntArray, item: int) -> bool:
        """Remove ``item`` from the bucket addressed by ``codes`` if present."""
        return self.remove_fingerprint(self.fingerprint(codes), item)

    def remove_fingerprint(self, key: int, item: int) -> bool:
        """Remove one occurrence of ``item`` under a precomputed fingerprint."""
        row = self._row_of_scalar(int(key))
        if row < 0:
            return False
        size = int(self._flat.sizes[row])
        bucket = self._flat.slots[row, :size]
        hits = np.flatnonzero(bucket == item)
        if hits.size == 0:
            return False
        slot = int(hits[0])
        self._flat.slots[row, slot : size - 1] = self._flat.slots[row, slot + 1 : size]
        self._flat.slots[row, size - 1] = -1
        self._flat.sizes[row] = size - 1
        if size == 1:
            self._release_rows(np.asarray([row], dtype=np.int64))
        return True

    def _release_rows(self, rows: IntArray) -> None:
        """Reclaim emptied bucket rows and drop their directory entries.

        Keeps table memory proportional to the *live* bucket count (the
        object-per-bucket layout deleted empty buckets; the flat layout
        recycles their slot rows through the allocator's free list).
        """
        self._flat.release(rows)
        keep = ~np.isin(self._key_rows, rows)
        self._keys = self._keys[keep]
        self._key_rows = self._key_rows[keep]

    def remove_many(self, keys: IntArray, items: IntArray) -> int:
        """Remove a batch of ``(fingerprint, item)`` pairs in one sweep.

        Every occurrence of each pair is removed; buckets are compacted in
        place preserving the order of the surviving slots.  Pairs whose
        bucket or item is absent are ignored.  Returns the number removed.
        """
        keys = np.asarray(keys, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if keys.shape != items.shape or keys.ndim != 1:
            raise ValueError("keys and items must be 1-D arrays of equal length")
        if keys.size == 0:
            return 0
        rows = self.rows_of(keys)
        present = rows >= 0
        if not np.any(present):
            return 0
        rows = rows[present]
        items = items[present]
        affected = np.unique(rows)
        block = self._flat.slots[affected]
        capacity = self._flat.capacity

        # Encode (bucket, item) pairs as single int64 keys so membership of
        # every slot in the removal set is one np.isin sweep.
        base = int(max(int(items.max()), int(block.max()), 0)) + 2
        if (int(affected.max()) + 1) * base < 2**62:
            row_index = np.searchsorted(affected, rows)
            removal_keys = row_index * base + items
            slot_keys = (
                np.arange(affected.size, dtype=np.int64)[:, None] * base + block
            )
            hit = np.isin(slot_keys, removal_keys) & (block >= 0)
        else:  # pragma: no cover - astronomically large ids
            hit = np.zeros_like(block, dtype=bool)
            for row_index, row in enumerate(affected):
                to_remove = items[rows == row]
                hit[row_index] = np.isin(block[row_index], to_remove)

        sizes = self._flat.sizes[affected]
        keep = ~hit & (np.arange(capacity)[None, :] < sizes[:, None])
        removed = int(hit.sum())
        if removed == 0:
            return 0
        order = np.argsort(~keep, axis=1, kind="stable")
        compacted = np.take_along_axis(block, order, axis=1)
        new_sizes = keep.sum(axis=1)
        compacted[np.arange(capacity)[None, :] >= new_sizes[:, None]] = -1
        self._flat.slots[affected] = compacted
        self._flat.sizes[affected] = new_sizes
        emptied = affected[(new_sizes == 0) & (sizes > 0)]
        if emptied.size:
            self._release_rows(emptied)
        return removed

    def clear(self) -> None:
        """Drop every bucket of this table (other users of the store keep theirs)."""
        self._flat.release(self._key_rows)
        self._keys = np.zeros(0, dtype=np.int64)
        self._key_rows = np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, codes: IntArray) -> np.ndarray:
        """Return the ids stored in the bucket addressed by ``codes``."""
        return self.query_fingerprint(self.fingerprint(codes))

    def query_fingerprint(self, key: int) -> np.ndarray:
        """Return the ids stored in the bucket under a precomputed fingerprint."""
        row = self._row_of_scalar(int(key))
        if row < 0:
            return np.zeros(0, dtype=np.int64)
        return self._flat.contents(row)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_buckets(self) -> int:
        """Number of non-empty buckets currently in the table."""
        return int(np.count_nonzero(self._flat.sizes[self._key_rows]))

    @property
    def num_items(self) -> int:
        """Total number of ids stored across all buckets."""
        return int(self._flat.sizes[self._key_rows].sum())

    def bucket_sizes(self) -> np.ndarray:
        """Sizes of all non-empty buckets (for load-balance diagnostics)."""
        sizes = self._flat.sizes[self._key_rows]
        return sizes[sizes > 0]

    def load_factor(self) -> float:
        """Mean bucket occupancy relative to the bucket size limit."""
        sizes = self.bucket_sizes()
        if sizes.size == 0:
            return 0.0
        return float(sizes.mean() / self.bucket_size)
