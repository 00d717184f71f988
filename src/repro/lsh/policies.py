"""Bucket insertion policies (paper Section 4.2, Table 3).

When a bucket is already at its size limit, SLIDE needs a replacement rule.
The paper implements two:

* **Reservoir sampling** (Vitter, 1985) — the new item replaces a uniformly
  random existing slot with probability ``capacity / seen``, which preserves
  the adaptive-sampling property of the LSH tables (Wang et al., 2018).
* **FIFO** — the new item always replaces the oldest one.

Each policy exposes two entry points:

* ``insert(bucket, item)`` — the sequential reference semantics on the
  object-per-bucket :class:`~repro.lsh.bucket.Bucket` (pinned by the policy
  unit tests, and the oracle the batched kernel is tested against);
* ``insert_many_flat(store, rows, items)`` — the batched kernel: the whole
  item batch is applied with array ops (one stable sort to group items by
  bucket, then vectorised slot arithmetic), producing the same final bucket
  contents and ``evictions`` counts as inserting the items one by one in
  order (for reservoir, up to the draws — the batched path consumes the
  generator in one vectorised request instead of one scalar draw per
  overflowing arrival).  It returns the number of stored ids it evicted.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.lsh.bucket import FlatBuckets
from repro.types import IntArray

__all__ = ["InsertionPolicy", "FIFOPolicy", "ReservoirPolicy", "make_insertion_policy"]


def _group_by_row(rows: IntArray, items: IntArray):
    """Stable-sort ``(rows, items)`` by row and return group bookkeeping.

    Returns ``(sorted_rows, sorted_items, unique_rows, counts, ranks)`` where
    ``ranks`` is each sorted item's 0-based arrival position within its
    bucket group (stable sort preserves the original insertion order inside
    each group).
    """
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    sorted_items = items[order]
    unique_rows, starts, counts = np.unique(
        sorted_rows, return_index=True, return_counts=True
    )
    ranks = np.arange(sorted_rows.size, dtype=np.int64) - np.repeat(starts, counts)
    return sorted_rows, sorted_items, unique_rows, counts, ranks


class InsertionPolicy(abc.ABC):
    """Decides what happens when an item arrives at a full bucket."""

    name: str = "base"

    @abc.abstractmethod
    def insert(self, bucket: "Bucket", item: int) -> bool:
        """Insert ``item`` into ``bucket``; return True if it was stored."""

    @abc.abstractmethod
    def insert_many_flat(
        self, store: FlatBuckets, rows: IntArray, items: IntArray
    ) -> int:
        """Batched insert; returns the number of stored ids it evicted."""


class FIFOPolicy(InsertionPolicy):
    """Replace the oldest item when the bucket is full (always stores).

    On the flat layout FIFO buckets keep their slots in arrival order, so the
    batched step keeps, per bucket, the newest ``capacity`` of (existing
    items + batch arrivals).
    """

    name = "fifo"

    def insert(self, bucket, item: int) -> bool:
        if len(bucket) < bucket.capacity:
            bucket.append(item)
        else:
            bucket.replace(bucket.oldest_slot(), item)
        return True

    def insert_many_flat(
        self, store: FlatBuckets, rows: IntArray, items: IntArray
    ) -> int:
        if rows.size == 0:
            return 0
        capacity = store.capacity
        sorted_rows, sorted_items, unique_rows, counts, ranks = _group_by_row(
            rows, items
        )
        sizes = store.sizes[unique_rows]
        new_keep = np.minimum(counts, capacity)
        exist_keep = np.minimum(sizes, np.maximum(capacity - counts, 0))
        drop = sizes - exist_keep
        # One eviction per arrival at a full bucket: the existing items
        # dropped plus the arrivals a later arrival of the batch pushed out.
        evicted = drop + (counts - new_keep)

        # Shift surviving existing items to the front (drop the oldest).
        block = store.slots[unique_rows]
        gather = np.minimum(
            drop[:, None] + np.arange(capacity, dtype=np.int64)[None, :],
            capacity - 1,
        )
        shifted = np.take_along_axis(block, gather, axis=1)
        shifted[np.arange(capacity)[None, :] >= exist_keep[:, None]] = -1
        store.slots[unique_rows] = shifted

        # Scatter the surviving batch items behind them, in arrival order.
        keep_mask = ranks >= np.repeat(counts - new_keep, counts)
        dest = np.repeat(exist_keep - (counts - new_keep), counts) + ranks
        store.slots[sorted_rows[keep_mask], dest[keep_mask]] = sorted_items[keep_mask]

        store.sizes[unique_rows] = exist_keep + new_keep
        store.seen[unique_rows] += counts
        store.evictions[unique_rows] += evicted
        return int(evicted.sum())


class ReservoirPolicy(InsertionPolicy):
    """Vitter's reservoir sampling replacement.

    Each bucket tracks how many items it has *seen*; the ``n``-th arrival is
    kept with probability ``capacity / n`` and, if kept, overwrites a
    uniformly random slot.  The result is a uniform sample of everything ever
    hashed to the bucket, which is exactly what the adaptive-sampling view of
    LSH requires.
    """

    name = "reservoir"

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng()

    def insert(self, bucket, item: int) -> bool:
        if len(bucket) < bucket.capacity:
            bucket.append(item)
            return True
        slot = int(self._rng.integers(0, bucket.seen + 1))
        if slot < bucket.capacity:
            bucket.replace(slot, item)
            return True
        bucket.count_rejection()
        return False

    def insert_many_flat(
        self, store: FlatBuckets, rows: IntArray, items: IntArray
    ) -> int:
        if rows.size == 0:
            return 0
        capacity = store.capacity
        sorted_rows, sorted_items, unique_rows, counts, ranks = _group_by_row(
            rows, items
        )
        sizes = np.repeat(store.sizes[unique_rows], counts)
        seen_before = np.repeat(store.seen[unique_rows], counts) + ranks

        # Arrivals that still find a free slot append in order.
        append = sizes + ranks < capacity
        store.slots[sorted_rows[append], (sizes + ranks)[append]] = sorted_items[append]

        # The rest run the reservoir test: the n-th arrival draws a slot in
        # [0, n) (n = attempts seen so far, including this batch) and is kept
        # only if the slot lands inside the bucket.
        overflow = ~append
        evictions = 0
        rejected_rows = np.zeros(0, dtype=np.int64)
        if np.any(overflow):
            draws = self._rng.integers(0, seen_before[overflow] + 1)
            accept = draws < capacity
            target_rows = sorted_rows[overflow][accept]
            target_slots = draws[accept]
            target_items = sorted_items[overflow][accept]
            if target_rows.size:
                # Later arrivals overwrite earlier ones hitting the same slot
                # (sequential last-wins), made explicit by deduplicating on
                # (row, slot) and keeping the final occurrence.
                pair = target_rows * capacity + target_slots
                last = pair.size - 1 - np.unique(pair[::-1], return_index=True)[1]
                store.slots[target_rows[last], target_slots[last]] = target_items[last]
                # Every kept overflow arrival overwrites a stored id.
                evict_rows, evict_counts = np.unique(target_rows, return_counts=True)
                store.evictions[evict_rows] += evict_counts
                evictions = int(target_rows.size)
            rejected_rows = sorted_rows[overflow][~accept]

        if rejected_rows.size:
            rej_rows, rej_counts = np.unique(rejected_rows, return_counts=True)
            store.rejections[rej_rows] += rej_counts
        store.sizes[unique_rows] += np.minimum(
            counts, np.maximum(capacity - store.sizes[unique_rows], 0)
        )
        store.seen[unique_rows] += counts
        return evictions


def make_insertion_policy(
    name: str, rng: np.random.Generator | None = None
) -> InsertionPolicy:
    """Build an insertion policy by name (``fifo`` or ``reservoir``)."""
    lowered = name.lower()
    if lowered == "fifo":
        return FIFOPolicy()
    if lowered == "reservoir":
        return ReservoirPolicy(rng=rng)
    raise ValueError(f"unknown insertion policy {name!r}")
