"""The per-layer LSH index: ``L`` hash tables over neuron weight vectors.

This is the data structure at the heart of SLIDE (Figure 2).  It supports:

* bulk construction from a weight matrix (one row per neuron);
* probing with a block of layer inputs, returning per-table candidate
  buckets that the sampling strategies (:mod:`repro.sampling`) turn into
  active-neuron sets;
* full rebuilds and *incremental* rebuilds of a subset of neurons after
  their weights change.

The ``L`` tables are not objects of their own.  All their buckets share one
:class:`~repro.lsh.bucket.FlatBuckets` slot matrix, whose row 0 is never
handed out and stays the empty bucket, and one *directory* — a pair of
parallel sorted arrays — maps a (table, fingerprint) key to a bucket row.  A
key carries the table id in its high ``ceil(log2 L)`` bits and the table's
packed ``K`` codes below them, so each table owns one contiguous run of the
directory.  A table's ``K`` codes are packed by one radix product
(``codes @ [cardinality ** (K-1), ..., cardinality, 1]``) into one int64
``(n, L)`` array, taken over blocks of at most 1,024 rows, so no int64 copy
of all ``(n, L, K)`` codes is ever made and a one-row probe packs in one
call.  When ``cardinality ** K * 2 ** ceil(log2 L)`` fits in ``2 ** 63``
the packing is exact (injective over code tuples, and ordered like them);
wider combinations pack chunk by chunk and mix the chunks into one 64-bit
word whose high bits fill the space below the table id, which may collide —
harmless for LSH, where the fingerprint is itself a hash.  Either way two
tables never share a bucket row.

Every probe, one query or a whole batch, in training or in serving, is hash
→ pack → **one** ``searchsorted`` → one gather (:meth:`LSHIndex.query_batch_flat`).

The index is positional: its items are the rows ``0..n-1`` of the weight
matrix it was built over, and the one per-row state is the ``(n, L, K)``
code matrix in the hash family's narrow code dtype (``L·K`` bytes a row for
one-byte codes).  ``build``/``restore_codes`` are array ops, and ``update``
is a *code diff*: it re-packs the stored codes of the given rows, and a row
is moved between buckets of table ``t`` only when its key in table ``t``
actually changed, so an incremental rebuild costs O(changed entries), not
O(dirty rows × L).
Mutations walk the tables in order and call the insertion policy's batched
kernel once per table, new keys taking rows from the free list in ascending
key order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import LSHConfig
from repro.hashing.base import LSHFamily
from repro.hashing.factory import make_hash_family
from repro.lsh.bucket import FlatBuckets
from repro.lsh.policies import make_insertion_policy
from repro.types import FLOAT, FloatArray, IntArray
from repro.utils.rng import derive_rng

__all__ = ["LSHIndex", "BatchQueryResult"]

# splitmix64-flavoured combine constant for chunked fingerprint mixing.
_MIX_CONSTANT = np.uint64(0x9E3779B97F4A7C15)


# Rows packed per radix product: bounds the int64 copy of the narrow codes
# that the product makes to _PACK_ROWS * L * K * 8 bytes.
_PACK_ROWS = 1024


def _radix_chunks(
    k: int, cardinality: int, bits: int
) -> list[tuple[slice, IntArray]]:
    """Split ``K`` code positions into chunks whose packing fits ``bits`` bits.

    Each chunk is its code columns and their int64 radix vector
    ``[cardinality ** (width - 1), ..., cardinality, 1]``.  A single chunk
    means the whole tuple packs exactly (the common case).  Wider
    (cardinality, K) combinations pack chunk by chunk and mix the chunk
    values into one 64-bit fingerprint.
    """
    digits_per_chunk = max(1, int(np.floor(bits / np.log2(cardinality))))
    chunks = []
    for start in range(0, k, digits_per_chunk):
        stop = min(start + digits_per_chunk, k)
        powers = np.arange(stop - start - 1, -1, -1, dtype=np.int64)
        chunks.append((slice(start, stop), np.int64(cardinality) ** powers))
    return chunks


def _radix_pack(codes: IntArray, columns: slice, radix: IntArray) -> IntArray:
    """Pack code ``columns`` of ``(n, L, K)`` codes into int64 ``(n, L)``.

    The exact radix value of the chunk, one ``codes @ radix`` product per
    block of at most ``_PACK_ROWS`` rows (one call for a one-row probe).
    """
    keys = np.empty(codes.shape[:2], dtype=np.int64)
    for start in range(0, codes.shape[0], _PACK_ROWS):
        rows = slice(start, start + _PACK_ROWS)
        np.matmul(codes[rows, :, columns], radix, out=keys[rows])
    return keys


@dataclass
class BatchQueryResult:
    """Candidate sets for a whole query batch, as flat arrays.

    ``candidates[b, t]`` holds the bucket contents table ``t`` returned for
    query row ``b``, padded with ``-1`` beyond ``sizes[b, t]`` — no per-query
    Python objects are materialised.  The sampling strategies read one row
    in place: table ``t``'s bucket is ``candidates[row, t, :sizes[row, t]]``.
    """

    codes: IntArray  # (batch, L, K)
    candidates: IntArray  # (batch, L, bucket_size), -1 padded
    sizes: IntArray  # (batch, L)

    @property
    def batch_size(self) -> int:
        return int(self.candidates.shape[0])

    def frequencies(self, row: int) -> tuple[IntArray, IntArray]:
        """One row's candidate ids with their cross-table collision counts."""
        values = self.candidates[row]
        values = values[values >= 0]
        if values.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        return np.unique(values, return_counts=True)


class LSHIndex:
    """``L`` hash tables built over the rows of a weight matrix."""

    def __init__(
        self,
        input_dim: int,
        config: LSHConfig,
        seed: int = 0,
    ) -> None:
        self.input_dim = int(input_dim)
        self.config = config
        self.seed = int(seed)
        self._rng = derive_rng(seed, stream=7)
        self.hash_family: LSHFamily = make_hash_family(input_dim, config, seed=seed)
        self._policy = make_insertion_policy(config.insertion_policy, rng=self._rng)
        self._store = FlatBuckets(config.bucket_size)
        self._store.alloc(1)  # row 0: the empty bucket every unmapped key reads
        # Key = table id above ``_fp_bits`` fingerprint bits.
        self._fp_bits = 63 - (config.l - 1).bit_length()
        self._table_base = np.arange(config.l, dtype=np.int64) << self._fp_bits
        self._chunks = _radix_chunks(
            config.k, self.hash_family.code_cardinality, self._fp_bits
        )
        # The directory: sorted (table, fingerprint) keys and their rows.
        self._dir_keys = np.zeros(0, dtype=np.int64)
        self._dir_rows = np.zeros(0, dtype=np.int64)
        # Codes stay in the family's narrow dtype on every path; only
        # snapshot_codes hands out an int64 copy.  Row r holds item r's codes.
        self._code_dtype = self.hash_family.code_dtype
        self._codes = np.zeros((0, config.l, config.k), dtype=self._code_dtype)
        # Counters used by the cost model and diagnostics.
        self.num_insertions = 0
        self.num_queries = 0
        # Incremental-rebuild accounting: items passed to update() and the
        # (item, table) bucket moves actually applied.
        self.num_update_items = 0
        self.num_moved_entries = 0
        # Stored ids a full bucket dropped to make room (FIFO: the oldest;
        # reservoir: the overwritten slot), over the index's lifetime.
        self.num_evictions = 0

    # ------------------------------------------------------------------
    # Construction / maintenance
    # ------------------------------------------------------------------
    @property
    def l(self) -> int:
        return self.config.l

    @property
    def k(self) -> int:
        return self.config.k

    @property
    def num_items(self) -> int:
        """Number of items indexed: rows ``0..num_items-1``."""
        return int(self._codes.shape[0])

    def _pack(self, codes: IntArray) -> IntArray:
        """Directory keys ``(n, L)`` for ``(n, L, K)`` codes."""
        first, *rest = self._chunks
        keys = _radix_pack(codes, *first)
        if rest:
            # Chunk values are non-negative int64, so viewing them as uint64
            # keeps every bit.
            mixed = keys.view(np.uint64)
            for columns, radix in rest:
                packed = _radix_pack(codes, columns, radix).view(np.uint64)
                mixed ^= (
                    packed
                    + _MIX_CONSTANT
                    + (mixed << np.uint64(6))
                    + (mixed >> np.uint64(2))
                )
            keys = (mixed >> np.uint64(64 - self._fp_bits)).view(np.int64)
        keys += self._table_base
        return keys

    def _rows_of(self, keys: IntArray) -> IntArray:
        """Bucket rows of directory keys; the empty row 0 where unmapped."""
        if self._dir_keys.size == 0:
            return np.zeros(keys.shape, dtype=np.int64)
        pos = self._dir_keys.searchsorted(keys)  # == size past the last key: clipped
        hit = self._dir_keys.take(pos, mode="clip") == keys
        return np.where(hit, self._dir_rows.take(pos, mode="clip"), 0)

    def _locate(self, keys: IntArray) -> tuple[IntArray, IntArray]:
        """Directory positions of ``keys`` (clipped) and which are present.

        Searches only the run between the smallest and the largest key —
        one table's run when the keys are one table's, as builds and
        rebuilds hand them — and needs a non-empty directory.
        """
        lo = int(self._dir_keys.searchsorted(keys.min()))
        hi = int(self._dir_keys.searchsorted(keys.max(), side="right"))
        pos = self._dir_keys[lo:hi].searchsorted(keys) + lo
        np.minimum(pos, self._dir_keys.size - 1, out=pos)
        return pos, self._dir_keys[pos] == keys

    def _insert(self, keys: IntArray, items: IntArray) -> None:
        """Store ``items`` under ``keys`` through the insertion policy.

        Keys the directory lacks get bucket rows from the free list in
        ascending key order and are merged in by ``searchsorted`` insertion.
        """
        rows = np.zeros(keys.shape, dtype=np.int64)
        if self._dir_keys.size:
            pos, present = self._locate(keys)
            rows[present] = self._dir_rows[pos[present]]
        missing = rows == 0
        if np.any(missing):
            new_keys, inverse = np.unique(keys[missing], return_inverse=True)
            new_rows = self._store.alloc(new_keys.size)
            at = self._dir_keys.searchsorted(new_keys)
            self._dir_keys = np.insert(self._dir_keys, at, new_keys)
            self._dir_rows = np.insert(self._dir_rows, at, new_rows)
            rows[missing] = new_rows[inverse]
        self.num_evictions += self._policy.insert_many_flat(self._store, rows, items)

    def _remove(self, keys: IntArray, items: IntArray) -> None:
        """Remove every ``(key, item)`` pair in one sweep.

        Buckets are compacted in place preserving the order of the surviving
        slots; pairs whose bucket or item is absent are ignored.  Emptied
        buckets leave the directory and their rows go back to the free list
        (ascending), so memory tracks the *live* bucket count.
        """
        if keys.size == 0 or self._dir_keys.size == 0:
            return
        pos, present = self._locate(keys)
        if not np.any(present):
            return
        pos = pos[present]
        items = items[present]
        affected, row_index = np.unique(self._dir_rows[pos], return_inverse=True)
        block = self._store.slots[affected]
        capacity = self._store.capacity

        # Encode (bucket, item) pairs as single int64 keys so membership of
        # every slot in the removal set is one np.isin sweep.
        # Ids are rows below n and at most n·L + 1 buckets exist, so the
        # keys stay far below 2**63.
        base = int(max(int(items.max()), int(block.max()), 0)) + 2
        removal_keys = row_index * base + items
        slot_keys = np.arange(affected.size, dtype=np.int64)[:, None] * base + block
        hit = np.isin(slot_keys, removal_keys) & (block >= 0)
        if not np.any(hit):
            return

        sizes = self._store.sizes[affected]
        keep = ~hit & (np.arange(capacity)[None, :] < sizes[:, None])
        order = np.argsort(~keep, axis=1, kind="stable")
        compacted = np.take_along_axis(block, order, axis=1)
        new_sizes = keep.sum(axis=1)
        compacted[np.arange(capacity)[None, :] >= new_sizes[:, None]] = -1
        self._store.slots[affected] = compacted
        self._store.sizes[affected] = new_sizes
        emptied = new_sizes == 0
        if np.any(emptied):
            self._store.release(affected[emptied])
            where = np.empty_like(affected)
            where[row_index] = pos  # every pair of a bucket has its position
            drop = where[emptied]
            self._dir_keys = np.delete(self._dir_keys, drop)
            self._dir_rows = np.delete(self._dir_rows, drop)

    def _fill(self, codes: IntArray) -> None:
        """Index rows ``0..n-1`` under ``(n, L, K)`` codes, table by table."""
        self.clear()
        self._codes = codes
        keys = self._pack(codes)
        items = np.arange(codes.shape[0], dtype=np.int64)
        for table in range(self.l):
            self._insert(keys[:, table], items)
        self.num_insertions += int(items.size)

    def build(self, weights: FloatArray) -> None:
        """(Re)build the index from scratch over the rows of ``weights``."""
        weights = np.asarray(weights, dtype=FLOAT)
        if weights.ndim != 2 or weights.shape[1] != self.input_dim:
            raise ValueError("weights must have shape (n_items, input_dim)")
        self._fill(self.hash_family.hash_matrix(weights))

    def update(self, item_ids: IntArray, weights: FloatArray) -> None:
        """Re-hash only the given rows (incremental rebuild after updates).

        The stored codes of ``item_ids`` are re-packed and compared against
        the keys of the new codes, and only entries whose bucket actually
        changed are moved, so the cost scales with the number of *changed*
        keys rather than the size of the dirty set.  Duplicate ids keep
        their last occurrence; an id outside ``[0, num_items)`` raises.
        """
        item_ids = np.asarray(item_ids, dtype=np.int64)
        weights = np.asarray(weights, dtype=FLOAT)
        if weights.ndim != 2 or weights.shape[0] != item_ids.shape[0]:
            raise ValueError("weights rows must align with item_ids")
        if item_ids.size and (item_ids.min() < 0 or item_ids.max() >= self.num_items):
            raise ValueError(f"item ids must be rows in [0, {self.num_items})")
        if item_ids.size and np.unique(item_ids).size != item_ids.size:
            reversed_ids = item_ids[::-1]
            _, first_in_reversed = np.unique(reversed_ids, return_index=True)
            keep = np.sort(item_ids.size - 1 - first_in_reversed)
            item_ids = item_ids[keep]
            weights = weights[keep]
        codes = self.hash_family.hash_matrix(weights)
        old_keys = self._pack(self._codes[item_ids])
        new_keys = self._pack(codes)
        changed = old_keys != new_keys
        for table in range(self.l):
            moved = changed[:, table]
            if np.any(moved):
                self._remove(old_keys[moved, table], item_ids[moved])
                self._insert(new_keys[moved, table], item_ids[moved])
        self._codes[item_ids] = codes
        self.num_moved_entries += int(changed.sum())
        self.num_insertions += int(item_ids.size)
        self.num_update_items += int(item_ids.size)

    def snapshot_codes(self) -> tuple[IntArray, IntArray]:
        """The indexed items and their codes.

        Returns ``(items, codes)`` with shapes ``(n,)`` and ``(n, L, K)`` —
        ``items`` is always ``arange(n)`` — everything :meth:`restore_codes`
        needs to rebuild the tables without re-hashing (the serialisation
        surface used by checkpoints).
        """
        return np.arange(self.num_items, dtype=np.int64), self._codes.astype(np.int64)

    def restore_codes(self, items: IntArray, codes: IntArray) -> None:
        """Rebuild the tables from a :meth:`snapshot_codes` snapshot.

        ``items`` must be ``arange(n)``.  Replaying stored codes reproduces
        bucket membership exactly for any bucket that never overflowed; the
        eviction order of overflowed buckets is not preserved.
        """
        items = np.asarray(items, dtype=np.int64)
        codes = np.asarray(codes)
        if codes.shape != (items.shape[0], self.l, self.k):
            raise ValueError(
                f"codes must have shape ({items.shape[0]}, {self.l}, {self.k})"
            )
        # The range is checked on the dtype given, so the narrowing cast
        # below cannot wrap a value.
        if codes.size and (
            codes.min() < 0 or codes.max() >= self.hash_family.code_cardinality
        ):
            raise ValueError("code value out of range for code_cardinality")
        if not np.array_equal(items, np.arange(items.shape[0])):
            raise ValueError("snapshot items must be the rows 0..n-1 in order")
        self._fill(codes.astype(self._code_dtype))

    def clear(self) -> None:
        """Drop every bucket in every table.

        Rows go back to the free list in directory order — table by table,
        each in key order — so a rebuild hands them out in a fixed order.
        """
        self._store.release(self._dir_rows)
        self._dir_keys = np.zeros(0, dtype=np.int64)
        self._dir_rows = np.zeros(0, dtype=np.int64)
        self._codes = np.zeros((0, self.l, self.k), dtype=self._code_dtype)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_batch_flat(self, queries: FloatArray) -> BatchQueryResult:
        """Probe the tables with a ``(batch, input_dim)`` block of dense queries.

        One hash sweep (one matmul for SimHash, one gather/reduce sweep for
        (D)WTA/DOPH), one key pack for all ``L`` tables, one directory
        ``searchsorted``, then a single fancy-index gather from the slot
        matrix: ``slots[r, sizes[r]:] == -1`` holds for every row, the empty
        row 0 included, so the gathered block is already ``-1`` padded.
        """
        queries = np.asarray(queries, dtype=FLOAT)
        if queries.ndim != 2 or queries.shape[1] != self.input_dim:
            raise ValueError(
                f"queries must have shape (batch, {self.input_dim}), "
                f"got {queries.shape}"
            )
        codes = self.hash_family.hash_matrix(queries)
        rows = self._rows_of(self._pack(codes))
        self.num_queries += codes.shape[0]
        return BatchQueryResult(
            codes=codes, candidates=self._store.slots[rows], sizes=self._store.sizes[rows]
        )

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Summary statistics used by tests and the benchmark harness."""
        # Every directory entry is a non-empty bucket of its key's table.
        table_of = self._dir_keys >> self._fp_bits
        buckets = np.bincount(table_of, minlength=self.l)
        items = np.bincount(
            table_of, weights=self._store.sizes[self._dir_rows], minlength=self.l
        )
        load = np.zeros(self.l)
        filled = buckets > 0
        load[filled] = items[filled] / buckets[filled] / self.config.bucket_size
        sizes = self._store.sizes[self._dir_rows]
        full = np.count_nonzero(sizes == self._store.capacity)
        return {
            "tables": float(self.l),
            "indexed_items": float(self.num_items),
            "mean_buckets_per_table": float(buckets.mean()),
            "mean_items_per_table": float(items.mean()),
            "mean_load_factor": float(load.mean()),
            "insertions": float(self.num_insertions),
            "queries": float(self.num_queries),
            "update_items": float(self.num_update_items),
            "moved_entries": float(self.num_moved_entries),
            "evictions": float(self.num_evictions),
            "full_bucket_frac": float(full / max(sizes.size, 1)),
        }
