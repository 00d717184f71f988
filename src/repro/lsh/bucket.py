"""Bucket storage for LSH hash tables.

The paper limits every bucket to a fixed size: "Such a limit helps with the
memory usage and also balances the load on threads during parallel
aggregation of neurons" (Section 3.2).

Two implementations live here:

* :class:`FlatBuckets` — the production layout.  All buckets of all ``L``
  tables of an index share a single fixed-width ``int64`` slot matrix (one
  row per bucket, the paper's fixed bucket size as the row width) plus
  parallel ``sizes`` / ``seen`` / ``rejections`` / ``evictions`` counter
  arrays, so whole-batch insertions and removals are plain array ops
  instead of per-item object mutations and a probe of every table is one
  gather.
* :class:`Bucket` — the original object-per-bucket container, kept as the
  one sequential reference for the insertion-policy semantics (the policy
  and index tests pin the batched kernels against it).
"""

from __future__ import annotations

import numpy as np

from repro.types import IntArray

__all__ = ["Bucket", "FlatBuckets"]

_EMPTY_SLOT = -1


class FlatBuckets:
    """The buckets of an index's tables as a flat slot matrix plus counters.

    The owner (one :class:`~repro.lsh.index.LSHIndex`) holds the rows it
    ``alloc``-ed until it ``release``-s them.  Row ``r`` holds one bucket:
    ``slots[r, :sizes[r]]`` are the stored ids and ``slots[r, sizes[r]:]``
    is all ``-1`` (the empty slot), ``seen[r]`` counts every insertion attempt
    ever made against the bucket, ``rejections[r]`` the attempts a policy
    declined to store (reservoir only) and ``evictions[r]`` the stored ids
    dropped to make room for a later arrival — for FIFO, every arrival at a
    full bucket, including batch arrivals that a later arrival of the same
    batch pushed out again.  FIFO buckets keep their slots in
    arrival order (oldest first), which is what makes batched FIFO eviction
    a single keep-the-newest-``capacity`` gather.

    Stored ids must be non-negative — ``-1`` is reserved as the empty-slot
    sentinel so batched query gathers can mask missing buckets for free.
    """

    __slots__ = (
        "capacity",
        "slots",
        "sizes",
        "seen",
        "rejections",
        "evictions",
        "num_rows",
        "_free",
    )

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.slots = np.full((0, self.capacity), _EMPTY_SLOT, dtype=np.int64)
        self.sizes = np.zeros(0, dtype=np.int64)
        self.seen = np.zeros(0, dtype=np.int64)
        self.rejections = np.zeros(0, dtype=np.int64)
        self.evictions = np.zeros(0, dtype=np.int64)
        self.num_rows = 0
        # Rows released by emptied buckets, reused before the matrix grows —
        # keeps table memory tracking the *live* bucket count.
        self._free: list[int] = []

    def alloc(self, count: int) -> IntArray:
        """Allocate ``count`` empty bucket rows (reusing released rows)."""
        if count <= 0:
            return np.zeros(0, dtype=np.int64)
        reused = []
        while self._free and len(reused) < count:
            reused.append(self._free.pop())
        fresh_count = count - len(reused)
        needed = self.num_rows + fresh_count
        if needed > self.slots.shape[0]:
            grown = max(needed, 2 * self.slots.shape[0], 8)
            new_slots = np.full((grown, self.capacity), _EMPTY_SLOT, dtype=np.int64)
            new_slots[: self.num_rows] = self.slots[: self.num_rows]
            self.slots = new_slots
            for name in ("sizes", "seen", "rejections", "evictions"):
                old = getattr(self, name)
                new = np.zeros(grown, dtype=np.int64)
                new[: self.num_rows] = old[: self.num_rows]
                setattr(self, name, new)
        fresh = np.arange(self.num_rows, needed, dtype=np.int64)
        self.num_rows = needed
        rows = np.concatenate([np.asarray(reused, dtype=np.int64), fresh])
        # A released row still holds its last bucket; re-blank.
        self.slots[rows] = _EMPTY_SLOT
        self.sizes[rows] = 0
        self.seen[rows] = 0
        self.rejections[rows] = 0
        self.evictions[rows] = 0
        return rows

    def release(self, rows: IntArray) -> None:
        """Return emptied bucket rows to the allocator for reuse."""
        self._free.extend(np.asarray(rows, dtype=np.int64).tolist())


class Bucket:
    """Fixed-size container of integer ids with slot-replacement support.

    The bucket keeps insertion-order bookkeeping (``oldest_slot``) for the
    FIFO policy, a ``seen`` counter for reservoir sampling and an
    ``evictions`` counter of the stored ids that :meth:`replace` dropped.
    """

    __slots__ = (
        "capacity",
        "_items",
        "_arrival",
        "_next_arrival",
        "seen",
        "rejections",
        "evictions",
    )

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._items: list[int] = []
        self._arrival: list[int] = []
        self._next_arrival = 0
        # Number of insertion attempts ever made against this bucket.
        self.seen = 0
        # Number of attempts rejected by the policy (reservoir only).
        self.rejections = 0
        # Number of stored ids dropped by replace().
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: int) -> bool:
        return item in self._items

    @property
    def items(self) -> np.ndarray:
        """Current contents as an ``int64`` array (copy)."""
        return np.asarray(self._items, dtype=np.int64)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    def append(self, item: int) -> None:
        """Add to a non-full bucket (raises if full)."""
        if self.is_full:
            raise ValueError("bucket is full; use a replacement policy")
        self._items.append(int(item))
        self._arrival.append(self._next_arrival)
        self._next_arrival += 1
        self.seen += 1

    def replace(self, slot: int, item: int) -> None:
        """Overwrite ``slot`` with ``item`` (an arrival and an eviction)."""
        if not 0 <= slot < len(self._items):
            raise IndexError(f"slot {slot} out of range")
        self._items[slot] = int(item)
        self._arrival[slot] = self._next_arrival
        self._next_arrival += 1
        self.seen += 1
        self.evictions += 1

    def count_rejection(self) -> None:
        """Record an arrival that the policy decided not to store."""
        self.seen += 1
        self.rejections += 1

    def oldest_slot(self) -> int:
        """Slot index of the item that arrived earliest (for FIFO)."""
        if not self._items:
            raise ValueError("bucket is empty")
        return int(np.argmin(self._arrival))

    def remove(self, item: int) -> bool:
        """Remove one occurrence of ``item`` if present; return success."""
        try:
            slot = self._items.index(int(item))
        except ValueError:
            return False
        self._items.pop(slot)
        self._arrival.pop(slot)
        return True

    def clear(self) -> None:
        """Drop all contents and reset the arrival/seen counters."""
        self._items.clear()
        self._arrival.clear()
        self._next_arrival = 0
        self.seen = 0
        self.rejections = 0
        self.evictions = 0
