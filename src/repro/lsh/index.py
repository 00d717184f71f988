"""The per-layer LSH index: ``L`` hash tables over neuron weight vectors.

This is the data structure at the heart of SLIDE (Figure 2).  It supports:

* bulk construction from a weight matrix (one row per neuron);
* querying with a layer input, returning per-table candidate buckets that the
  sampling strategies (:mod:`repro.sampling`) turn into an active-neuron set;
* full rebuilds and *incremental* rebuilds of a subset of neurons after
  their weights change.

Storage is flat and contiguous: the index keeps one ``(n,)`` item array, one
``(n, L, K)`` code matrix and one ``(n, L)`` fingerprint matrix instead of
per-item dictionary entries.  ``build``/``restore_codes`` are pure array ops
(one vectorised hash sweep, one fingerprint pack and one batched table
insert per table), and ``update`` is a *code diff*: an item is moved between
buckets of table ``t`` only when its fingerprint in table ``t`` actually
changed, so an incremental rebuild costs O(changed entries), not O(dirty
items × L).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import LSHConfig
from repro.hashing.base import LSHFamily, VectorLike
from repro.hashing.factory import make_hash_family
from repro.lsh.bucket import FlatBuckets
from repro.lsh.policies import make_insertion_policy
from repro.lsh.table import HashTable
from repro.types import FloatArray, IntArray
from repro.utils.rng import derive_rng

__all__ = ["LSHIndex", "QueryResult", "BatchQueryResult"]


@dataclass
class QueryResult:
    """Outcome of probing the ``L`` tables with one query vector.

    Attributes
    ----------
    buckets:
        One integer array of candidate neuron ids per table (length ``L``).
    codes:
        The ``(L, K)`` elementary hash codes of the query.
    """

    buckets: list[IntArray] = field(default_factory=list)
    codes: IntArray | None = None

    def union(self) -> IntArray:
        """Unique union of all candidate ids across the probed tables."""
        if not self.buckets:
            return np.zeros(0, dtype=np.int64)
        return np.unique(np.concatenate(self.buckets))

    def frequencies(self) -> tuple[IntArray, IntArray]:
        """Candidate ids with the number of tables in which each appeared."""
        if not self.buckets:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        concatenated = np.concatenate(self.buckets)
        if concatenated.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        ids, counts = np.unique(concatenated, return_counts=True)
        return ids.astype(np.int64), counts.astype(np.int64)

    @property
    def total_candidates(self) -> int:
        """Number of (non-unique) candidates returned across tables."""
        return int(sum(bucket.size for bucket in self.buckets))


@dataclass
class BatchQueryResult:
    """Candidate sets for a whole query batch, as flat arrays.

    ``candidates[b, t]`` holds the bucket contents table ``t`` returned for
    query row ``b``, padded with ``-1`` beyond ``sizes[b, t]`` — no per-query
    Python objects are materialised.  :meth:`result` builds a per-row
    :class:`QueryResult` view on demand for consumers that want the
    per-table bucket list (e.g. the sampling strategies).
    """

    codes: IntArray  # (batch, L, K)
    candidates: IntArray  # (batch, L, bucket_size), -1 padded
    sizes: IntArray  # (batch, L)

    @property
    def batch_size(self) -> int:
        return int(self.candidates.shape[0])

    @property
    def num_tables(self) -> int:
        return int(self.candidates.shape[1])

    def result(self, row: int) -> QueryResult:
        """Per-row :class:`QueryResult` (bucket arrays are views)."""
        candidates = self.candidates[row]
        buckets = [
            candidates[t, :size] for t, size in enumerate(self.sizes[row].tolist())
        ]
        return QueryResult(buckets=buckets, codes=self.codes[row])

    def union(self, row: int) -> IntArray:
        """Unique union of one row's candidates across all tables."""
        values = self.candidates[row]
        values = values[values >= 0]
        return np.unique(values)

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
        # One slot matrix for all L tables, so a probe is one gather.  Row 0
        # is never handed to a table: it stays the empty bucket that
        # query_batch_flat reads for a fingerprint no table has mapped.
        self._store = FlatBuckets(config.bucket_size)
        self._store.alloc(1)
        self._tables = [
            HashTable(
                k=config.k,
                code_cardinality=self.hash_family.code_cardinality,
                bucket_size=config.bucket_size,
                policy=make_insertion_policy(config.insertion_policy, rng=self._rng),
                store=self._store,
            )
            for _ in range(config.l)
        ]
        # Stored codes are only ever read back through item_codes and
        # snapshot_codes, so they are kept in the narrowest dtype that fits.
        self._code_dtype = np.min_scalar_type(self.hash_family.code_cardinality - 1)
        # Contiguous per-item state: row r of every matrix describes the item
        # stored in self._items[r].  The fingerprint matrix is what makes
        # update() a code diff — only rows whose fingerprint changed move.
        self._items = np.zeros(0, dtype=np.int64)
        self._codes = np.zeros((0, config.l, config.k), dtype=self._code_dtype)
        self._fps = np.zeros((0, config.l), dtype=np.int64)
        self._row_of: dict[int, int] = {}
        # Counters used by the cost model and diagnostics.
        self.num_insertions = 0
        self.num_queries = 0
        # Incremental-rebuild accounting: items passed to update() and the
        # (item, table) bucket moves actually applied.
        self.num_update_items = 0
        self.num_moved_entries = 0

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
    def tables(self) -> list[HashTable]:
        return self._tables

    @property
    def num_items(self) -> int:
        """Number of distinct items currently indexed."""
        return int(self._items.size)

    def item_codes(self, item: int) -> IntArray:
        """Last-known ``(L, K)`` codes of one indexed item (copy)."""
        row = self._row_of.get(int(item))
        if row is None:
            raise KeyError(f"item {item} is not indexed")
        return self._codes[row].astype(np.int64)

    def _fingerprint_matrix(self, all_codes: IntArray) -> IntArray:
        """Per-item ``(n, L)`` bucket fingerprints for ``(n, L, K)`` codes.

        Every table has the same ``K`` and cardinality, hence the same
        packing, so any one of them packs the block for all ``L`` at once.
        """
        return self._tables[0].fingerprint_many(all_codes)

    def insert(self, item: int, vector: VectorLike) -> None:
        """Hash ``vector`` and store ``item`` in every table."""
        codes = self.hash_family.hash_vector(vector)
        self._apply_codes(np.asarray([int(item)], dtype=np.int64), codes[None])

    def _set_contents(
        self, item_ids: IntArray, codes: IntArray, fps: IntArray
    ) -> None:
        """Replace the index contents wholesale (tables already cleared)."""
        for table_idx, table in enumerate(self._tables):
            table.insert_many(fps[:, table_idx], item_ids)
        self._items = item_ids.copy()
        self._codes = codes.astype(self._code_dtype)
        self._fps = fps
        self._row_of = {int(item): row for row, item in enumerate(item_ids)}
        self.num_insertions += int(item_ids.size)

    def _apply_codes(self, item_ids: IntArray, codes: IntArray) -> None:
        """Index ``item_ids`` under fresh ``(d, L, K)`` codes.

        Already-indexed items are *moved*: for each table, only the entries
        whose fingerprint differs from the stored one are removed from their
        old bucket and inserted into the new one (the code diff).  Unknown
        items are appended.
        """
        fps = self._fingerprint_matrix(codes)
        rows = np.fromiter(
            (self._row_of.get(int(item), -1) for item in item_ids),
            dtype=np.int64,
            count=item_ids.size,
        )
        known = rows >= 0
        if np.any(known):
            known_rows = rows[known]
            known_ids = item_ids[known]
            old_fps = self._fps[known_rows]
            new_fps = fps[known]
            changed = old_fps != new_fps
            for table_idx, table in enumerate(self._tables):
                moved = changed[:, table_idx]
                if np.any(moved):
                    table.remove_many(old_fps[moved, table_idx], known_ids[moved])
                    table.insert_many(new_fps[moved, table_idx], known_ids[moved])
            self._codes[known_rows] = codes[known]
            self._fps[known_rows] = new_fps
            self.num_moved_entries += int(changed.sum())
        if not np.all(known):
            fresh_ids = item_ids[~known]
            fresh_fps = fps[~known]
            base = self._items.size
            self._items = np.concatenate([self._items, fresh_ids])
            self._codes = np.concatenate(
                [self._codes, codes[~known].astype(self._code_dtype)], axis=0
            )
            self._fps = np.concatenate([self._fps, fresh_fps], axis=0)
            for offset, item in enumerate(fresh_ids):
                self._row_of[int(item)] = base + offset
            for table_idx, table in enumerate(self._tables):
                table.insert_many(fresh_fps[:, table_idx], fresh_ids)
        self.num_insertions += int(item_ids.size)

    def build(self, weights: FloatArray, item_ids: IntArray | None = None) -> None:
        """(Re)build the index from scratch over the rows of ``weights``."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[1] != self.input_dim:
            raise ValueError("weights must have shape (n_items, input_dim)")
        if item_ids is None:
            item_ids = np.arange(weights.shape[0], dtype=np.int64)
        else:
            item_ids = np.asarray(item_ids, dtype=np.int64)
            if item_ids.shape[0] != weights.shape[0]:
                raise ValueError("item_ids must align with weights rows")
            if np.unique(item_ids).size != item_ids.size:
                raise ValueError("item_ids must be unique")
        self.clear()
        all_codes = self.hash_family.hash_matrix(weights)
        self._set_contents(item_ids, all_codes, self._fingerprint_matrix(all_codes))

    def update(self, item_ids: IntArray, weights: FloatArray) -> None:
        """Re-hash only the given items (incremental rebuild after updates).

        The new codes are compared against the stored fingerprint matrix and
        only entries whose bucket actually changed are moved, so the cost
        scales with the number of *changed* fingerprints rather than the
        size of the dirty set.  Duplicate ids keep their last occurrence.
        """
        item_ids = np.asarray(item_ids, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[0] != item_ids.shape[0]:
            raise ValueError("weights rows must align with item_ids")
        if item_ids.size and np.unique(item_ids).size != item_ids.size:
            reversed_ids = item_ids[::-1]
            _, first_in_reversed = np.unique(reversed_ids, return_index=True)
            keep = np.sort(item_ids.size - 1 - first_in_reversed)
            item_ids = item_ids[keep]
            weights = weights[keep]
        codes = self.hash_family.hash_matrix(weights)
        self._apply_codes(item_ids, codes)
        self.num_update_items += int(item_ids.size)

    def snapshot_codes(self) -> tuple[IntArray, IntArray]:
        """The indexed items and their codes, in insertion order.

        Returns ``(items, codes)`` with shapes ``(n,)`` and ``(n, L, K)`` —
        everything :meth:`restore_codes` needs to rebuild the tables without
        re-hashing (the serialisation surface used by checkpoints).
        """
        return self._items.copy(), self._codes.astype(np.int64)

    def restore_codes(self, items: IntArray, codes: IntArray) -> None:
        """Rebuild the tables from a :meth:`snapshot_codes` snapshot.

        Replaying stored codes reproduces bucket membership exactly for any
        bucket that never overflowed; the eviction order of overflowed
        buckets is not preserved.
        """
        items = np.asarray(items, dtype=np.int64)
        codes = np.asarray(codes, dtype=np.int64)
        if codes.shape != (items.shape[0], self.l, self.k):
            raise ValueError(
                f"codes must have shape ({items.shape[0]}, {self.l}, {self.k})"
            )
        if np.unique(items).size != items.size:
            raise ValueError("snapshot items must be unique")
        self.clear()
        self._set_contents(items, codes, self._fingerprint_matrix(codes))

    def remove(self, item: int) -> bool:
        """Remove ``item`` from every table (if it was indexed)."""
        row = self._row_of.pop(int(item), None)
        if row is None:
            return False
        fps = self._fps[row]
        for table_idx, table in enumerate(self._tables):
            table.remove_fingerprint(int(fps[table_idx]), item)
        last = self._items.size - 1
        if row != last:
            moved_item = int(self._items[last])
            self._items[row] = self._items[last]
            self._codes[row] = self._codes[last]
            self._fps[row] = self._fps[last]
            self._row_of[moved_item] = row
        self._items = self._items[:last]
        self._codes = self._codes[:last]
        self._fps = self._fps[:last]
        return True

    def clear(self) -> None:
        """Drop every bucket in every table."""
        for table in self._tables:
            table.clear()
        self._items = np.zeros(0, dtype=np.int64)
        self._codes = np.zeros((0, self.l, self.k), dtype=self._code_dtype)
        self._fps = np.zeros((0, self.l), dtype=np.int64)
        self._row_of = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, vector: VectorLike, max_tables: int | None = None) -> QueryResult:
        """Probe the tables with ``vector``.

        Parameters
        ----------
        max_tables:
            When given, only the first ``max_tables`` tables (in a random
            order) are probed — the Vanilla-sampling fast path.
        """
        codes = self.hash_family.hash_vector(vector)
        result = QueryResult(codes=codes)
        order = np.arange(self.l)
        if max_tables is not None and max_tables < self.l:
            order = self._rng.permutation(self.l)[:max_tables]
        for table_idx in order:
            result.buckets.append(self._tables[table_idx].query(codes[table_idx]))
        self.num_queries += 1
        return result

    def query_with_codes(self, codes: IntArray) -> QueryResult:
        """Probe every table with pre-computed ``(L, K)`` codes."""
        codes = np.asarray(codes, dtype=np.int64)
        if codes.shape != (self.l, self.k):
            raise ValueError(f"codes must have shape ({self.l}, {self.k})")
        result = QueryResult(codes=codes)
        for table_idx, table in enumerate(self._tables):
            result.buckets.append(table.query(codes[table_idx]))
        self.num_queries += 1
        return result

    def hash_batch(self, queries: FloatArray) -> IntArray:
        """Codes for a ``(batch, input_dim)`` block of dense queries.

        One call into the hash family's vectorised matrix path (one matmul
        for SimHash, one gather/reduce sweep for (D)WTA/DOPH) replaces
        ``batch`` per-vector hashes.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.input_dim:
            raise ValueError(
                f"queries must have shape (batch, {self.input_dim}), "
                f"got {queries.shape}"
            )
        return self.hash_family.hash_matrix(queries)

    def query_batch_flat(self, queries: FloatArray) -> BatchQueryResult:
        """Probe the tables with a dense query block; flat-array result.

        One hash sweep, one fingerprint pack for all ``L`` tables, one
        directory ``searchsorted`` per table, then a single fancy-index
        gather from the shared slot matrix: ``slots[r, sizes[r]:] == -1``
        holds for every row, the empty row 0 included, so the gathered
        block is already ``-1`` padded.
        """
        codes = self.hash_batch(queries)
        fps = self._fingerprint_matrix(codes)
        rows = np.empty(fps.shape, dtype=np.int64)
        for table_idx, table in enumerate(self._tables):
            rows[:, table_idx] = table.rows_of(fps[:, table_idx])
        np.maximum(rows, 0, out=rows)
        self.num_queries += codes.shape[0]
        return BatchQueryResult(
            codes=codes, candidates=self._store.slots[rows], sizes=self._store.sizes[rows]
        )

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Summary statistics used by tests and the benchmark harness."""
        bucket_counts = np.array([t.num_buckets for t in self._tables])
        items = np.array([t.num_items for t in self._tables])
        load = np.array([t.load_factor() for t in self._tables])
        return {
            "tables": float(self.l),
            "indexed_items": float(self.num_items),
            "mean_buckets_per_table": float(bucket_counts.mean()) if self.l else 0.0,
            "mean_items_per_table": float(items.mean()) if self.l else 0.0,
            "mean_load_factor": float(load.mean()) if self.l else 0.0,
            "insertions": float(self.num_insertions),
            "queries": float(self.num_queries),
            "update_items": float(self.num_update_items),
            "moved_entries": float(self.num_moved_entries),
        }
