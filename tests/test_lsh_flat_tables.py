"""Equivalence and regression tests for the flat array-backed LSH tables.

Pins four contracts of the PR-3 storage refactor:

1. **Batched ≡ per-item** — building tables through the batched
   ``insert_many`` path produces the same buckets as the sequential
   per-item scalar path (exactly for FIFO, and for reservoir wherever no
   bucket overflows), across SimHash / DWTA / DOPH and both policies.
2. **Code-diff ``update`` ≡ full ``build``** — after an incremental update
   the index answers queries exactly like an index built from scratch over
   the new weights, stale entries are gone, and untouched rows never move.
3. **Snapshot round-trip** — ``snapshot_codes``/``restore_codes`` reproduce
   bucket membership on the flat layout.
4. **Batched fingerprints** — ``fingerprint_many`` returns int64 arrays,
   agrees with the scalar path, and stays batched (chunked pack-and-mix)
   for over-wide radixes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LSHConfig
from repro.lsh.bucket import FlatBuckets
from repro.lsh.index import LSHIndex
from repro.lsh.policies import FIFOPolicy, ReservoirPolicy
from repro.lsh.table import HashTable

FAMILIES = ["simhash", "dwta", "doph"]
POLICIES = ["fifo", "reservoir"]


def make_index(family: str, policy: str, dim: int = 24, **overrides) -> LSHIndex:
    params = dict(hash_family=family, k=3, l=6, bucket_size=256, insertion_policy=policy)
    params.update(overrides)
    return LSHIndex(input_dim=dim, config=LSHConfig(**params), seed=3)


def table_contents(table: HashTable) -> dict[int, np.ndarray]:
    """Bucket contents keyed by fingerprint (sorted ids per bucket)."""
    contents = {}
    for key, row in zip(table._keys, table._key_rows):
        bucket = table._flat.contents(int(row))
        if bucket.size:
            contents[int(key)] = np.sort(bucket)
    return contents


def assert_same_tables(index_a: LSHIndex, index_b: LSHIndex) -> None:
    for table_a, table_b in zip(index_a.tables, index_b.tables):
        contents_a = table_contents(table_a)
        contents_b = table_contents(table_b)
        assert contents_a.keys() == contents_b.keys()
        for key in contents_a:
            np.testing.assert_array_equal(contents_a[key], contents_b[key])


# ----------------------------------------------------------------------
# 1. Batched vs per-item equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("policy", POLICIES)
def test_batched_build_matches_per_item_inserts(rng, family, policy):
    """With buckets large enough to never overflow, the batched ``build``
    stores exactly what the sequential scalar inserts store — for every hash
    family and both replacement policies (reservoir appends
    deterministically below capacity)."""
    dim, n = 24, 80
    weights = rng.normal(size=(n, dim))
    weights[rng.random(size=weights.shape) < 0.5] = 0.0  # sparse-ish rows

    batched = make_index(family, policy, dim=dim)
    batched.build(weights)

    per_item = make_index(family, policy, dim=dim)
    for item in range(n):
        per_item.insert(item, weights[item])

    assert batched.num_items == per_item.num_items == n
    assert_same_tables(batched, per_item)
    # Query parity on top of storage parity.
    for query in rng.normal(size=(10, dim)):
        np.testing.assert_array_equal(
            batched.query(query).union(), per_item.query(query).union()
        )


@pytest.mark.parametrize("policy", POLICIES)
def test_query_batch_flat_matches_scalar_queries(rng, policy):
    index = make_index("simhash", policy)
    index.build(rng.normal(size=(70, 24)))
    queries = rng.normal(size=(9, 24))
    flat = index.query_batch_flat(queries)
    assert flat.candidates.shape == (9, index.l, index.config.bucket_size)
    for row in range(queries.shape[0]):
        single = index.query(queries[row])
        view = flat.result(row)
        for got, expected in zip(view.buckets, single.buckets):
            np.testing.assert_array_equal(got, expected)
        ids, counts = flat.frequencies(row)
        ids_expected, counts_expected = single.frequencies()
        np.testing.assert_array_equal(ids, ids_expected)
        np.testing.assert_array_equal(counts, counts_expected)
        np.testing.assert_array_equal(flat.union(row), single.union())


def test_fifo_overflow_batched_matches_sequential_exactly(rng):
    """FIFO keeps the newest ``capacity`` arrivals; the batched kernel must
    reproduce the sequential result slot-for-slot, including order."""
    for trial in range(5):
        keys = rng.integers(0, 5, size=60).astype(np.int64)
        items = np.arange(60, dtype=np.int64)

        scalar = HashTable(k=1, code_cardinality=5, bucket_size=4, policy=FIFOPolicy())
        for key, item in zip(keys, items):
            scalar.insert_fingerprint(int(key), int(item))

        batched = HashTable(k=1, code_cardinality=5, bucket_size=4, policy=FIFOPolicy())
        stored = batched.insert_many(keys, items)
        assert stored == 60

        for key in np.unique(keys):
            np.testing.assert_array_equal(
                batched.query_fingerprint(int(key)),
                scalar.query_fingerprint(int(key)),
            )
        assert batched.num_items == scalar.num_items
        assert batched.num_buckets == scalar.num_buckets


def test_fifo_batched_mixed_with_scalar_inserts(rng):
    """Scalar and batched mutations interleave on the same table."""
    table = HashTable(k=1, code_cardinality=3, bucket_size=3, policy=FIFOPolicy())
    table.insert_fingerprint(0, 1)
    table.insert_fingerprint(0, 2)
    table.insert_many(np.zeros(3, dtype=np.int64), np.array([3, 4, 5]))
    # Capacity 3, newest win: 3, 4, 5.
    np.testing.assert_array_equal(table.query_fingerprint(0), [3, 4, 5])
    table.insert_fingerprint(0, 6)
    np.testing.assert_array_equal(table.query_fingerprint(0), [4, 5, 6])


def test_reservoir_overflow_bookkeeping_matches_sequential(rng):
    """Under overflow the reservoir draws differ between the scalar and
    batched paths, but the policy bookkeeping (sizes, seen counts, stored ⊆
    inserted, stored + rejected = attempts) must agree exactly."""
    keys = rng.integers(0, 4, size=120).astype(np.int64)
    items = np.arange(120, dtype=np.int64)

    def build(batched: bool) -> HashTable:
        table = HashTable(
            k=1,
            code_cardinality=4,
            bucket_size=8,
            policy=ReservoirPolicy(rng=np.random.default_rng(7)),
        )
        if batched:
            table.insert_many(keys, items)
        else:
            for key, item in zip(keys, items):
                table.insert_fingerprint(int(key), int(item))
        return table

    scalar, batched = build(batched=False), build(batched=True)
    assert batched.num_items == scalar.num_items
    assert batched.num_buckets == scalar.num_buckets
    flat_s, flat_b = scalar._flat, batched._flat
    for key in np.unique(keys):
        row_s = scalar._row_of_scalar(int(key))
        row_b = batched._row_of_scalar(int(key))
        assert flat_b.sizes[row_b] == flat_s.sizes[row_s]
        assert flat_b.seen[row_b] == flat_s.seen[row_s]
        attempts = int((keys == key).sum())
        stored = int(flat_b.sizes[row_b])
        assert set(batched.query_fingerprint(int(key))) <= set(items[keys == key])
        assert flat_b.seen[row_b] == attempts
        assert stored <= min(8, attempts)


@given(
    seed=st.integers(0, 500),
    n=st.integers(1, 80),
    capacity=st.integers(1, 6),
    cardinality=st.integers(2, 5),
)
@settings(max_examples=40, deadline=None)
def test_fifo_batched_equals_sequential_property(seed, n, capacity, cardinality):
    """Property form of the FIFO equivalence over random streams."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, cardinality, size=n).astype(np.int64)
    items = rng.integers(0, 1000, size=n).astype(np.int64)
    scalar = HashTable(
        k=1, code_cardinality=cardinality, bucket_size=capacity, policy=FIFOPolicy()
    )
    for key, item in zip(keys, items):
        scalar.insert_fingerprint(int(key), int(item))
    batched = HashTable(
        k=1, code_cardinality=cardinality, bucket_size=capacity, policy=FIFOPolicy()
    )
    batched.insert_many(keys, items)
    for key in np.unique(keys):
        np.testing.assert_array_equal(
            batched.query_fingerprint(int(key)), scalar.query_fingerprint(int(key))
        )


# ----------------------------------------------------------------------
# 2. Code-diff update ≡ full build
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("policy", POLICIES)
def test_incremental_update_equals_full_build(rng, family, policy):
    """After ``update(dirty)`` the index must answer exactly like a fresh
    ``build`` over the new weights (buckets large enough to never evict):
    moved items are retrievable at their new position, stale entries are
    gone, and every table holds every item exactly once."""
    dim, n = 24, 60
    weights = rng.normal(size=(n, dim))
    index = make_index(family, policy, dim=dim)
    index.build(weights)

    dirty = np.sort(rng.choice(n, size=20, replace=False)).astype(np.int64)
    weights[dirty] = rng.normal(size=(dirty.size, dim)) * 3.0
    index.update(dirty, weights[dirty])

    fresh = make_index(family, policy, dim=dim)
    fresh.build(weights)

    assert index.num_items == n
    for table in index.tables:
        assert table.num_items == n  # no stale duplicates, no losses
    assert_same_tables(index, fresh)
    for query in rng.normal(size=(10, dim)):
        np.testing.assert_array_equal(
            index.query(query).union(), fresh.query(query).union()
        )


def test_update_moves_only_changed_fingerprints(rng):
    """An update whose weights are unchanged must not touch the tables at
    all — no removals, no insertions, no eviction-bookkeeping churn."""
    index = make_index("simhash", "fifo")
    weights = rng.normal(size=(50, 24))
    index.build(weights)
    seen_before = [table._flat.seen[: table._flat.num_rows].copy() for table in index.tables]
    moved_before = index.num_moved_entries

    index.update(np.arange(50, dtype=np.int64), weights)

    assert index.num_moved_entries == moved_before  # zero moves applied
    for table, seen in zip(index.tables, seen_before):
        np.testing.assert_array_equal(table._flat.seen[: table._flat.num_rows], seen)


def test_update_move_count_scales_with_changed_items(rng):
    """Perturbing one neuron moves at most L entries; the rest stay put."""
    index = make_index("simhash", "fifo")
    weights = rng.normal(size=(50, 24))
    index.build(weights)
    weights[7] = -weights[7] * 5.0
    before = index.num_moved_entries
    index.update(np.array([7], dtype=np.int64), weights[7:8])
    moved = index.num_moved_entries - before
    assert 0 < moved <= index.l
    # The moved item is retrievable under its new codes in every table.
    codes = index.item_codes(7)
    for table_idx, table in enumerate(index.tables):
        assert 7 in table.query(codes[table_idx])


def test_update_handles_duplicate_and_unknown_ids(rng):
    index = make_index("simhash", "fifo")
    weights = rng.normal(size=(10, 24))
    index.build(weights)
    # Duplicate ids keep the last occurrence; unknown ids are appended.
    vectors = rng.normal(size=(3, 24))
    index.update(np.array([3, 3, 12]), vectors)
    assert index.num_items == 11
    np.testing.assert_array_equal(
        index.item_codes(3), index.hash_family.hash_matrix(vectors[1:2])[0]
    )
    assert index._row_of[12] == 10


# ----------------------------------------------------------------------
# 3. Snapshot round-trip on the flat layout
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", POLICIES)
def test_snapshot_restore_round_trip(rng, policy):
    index = make_index("dwta", policy)
    weights = rng.normal(size=(40, 24))
    index.build(weights)
    index.remove(11)  # holes in the id space must survive the round trip

    items, codes = index.snapshot_codes()
    assert items.shape == (39,)
    assert codes.shape == (39, index.l, index.k)

    clone = make_index("dwta", policy)
    clone.restore_codes(items, codes)
    assert clone.num_items == 39
    assert_same_tables(index, clone)
    # The restored index keeps working for incremental updates.
    new_vector = rng.normal(size=(1, 24))
    clone.update(np.array([5]), new_vector)
    np.testing.assert_array_equal(
        clone.item_codes(5), clone.hash_family.hash_matrix(new_vector)[0]
    )

    with pytest.raises(ValueError, match="shape"):
        clone.restore_codes(items[:1], codes)
    with pytest.raises(ValueError, match="unique"):
        clone.restore_codes(np.zeros(39, dtype=np.int64), codes)


# ----------------------------------------------------------------------
# 4. Batched fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_many_returns_int64_ndarray(rng):
    table = HashTable(k=4, code_cardinality=8, bucket_size=4, policy=FIFOPolicy())
    codes = rng.integers(0, 8, size=(30, 4))
    packed = table.fingerprint_many(codes)
    assert isinstance(packed, np.ndarray)
    assert packed.dtype == np.int64
    assert table.exact_fingerprints
    np.testing.assert_array_equal(packed, [table.fingerprint(row) for row in codes])
    assert table.fingerprint_many(np.zeros((0, 4), dtype=np.int64)).shape == (0,)


def test_fingerprint_chunked_over_wide_radix(rng):
    """A (cardinality, K) combination that cannot pack into one int64 stays
    batched: chunk-packed and mixed, scalar and batched paths agreeing."""
    table = HashTable(k=80, code_cardinality=2, bucket_size=4, policy=FIFOPolicy())
    assert not table.exact_fingerprints
    codes = rng.integers(0, 2, size=(200, 80))
    packed = table.fingerprint_many(codes)
    assert packed.dtype == np.int64
    np.testing.assert_array_equal(packed, [table.fingerprint(row) for row in codes])
    # 2^80 tuples into 64 bits cannot be injective, but random tuples must
    # essentially never collide if the mix is any good.
    assert np.unique(packed).size == np.unique(codes, axis=0).shape[0]
    # Equal tuples agree, and the table round-trips inserts through it.
    table.insert(codes[0], 42)
    assert 42 in table.query(codes[0])


def test_fingerprint_validates_range():
    table = HashTable(k=2, code_cardinality=3, bucket_size=4, policy=FIFOPolicy())
    with pytest.raises(ValueError, match="range"):
        table.fingerprint_many(np.array([[0, 3]]))
    with pytest.raises(ValueError, match="shape"):
        table.fingerprint_many(np.array([[0, 1, 2]]))


# ----------------------------------------------------------------------
# Flat-storage unit behaviour
# ----------------------------------------------------------------------
class TestFlatStorage:
    def test_insert_many_validates(self):
        table = HashTable(k=1, code_cardinality=4, bucket_size=2, policy=FIFOPolicy())
        with pytest.raises(ValueError, match="equal length"):
            table.insert_many(np.array([1, 2]), np.array([1]))
        with pytest.raises(ValueError, match="non-negative"):
            table.insert_many(np.array([1]), np.array([-3]))
        with pytest.raises(ValueError, match="non-negative"):
            table.insert_fingerprint(1, -3)
        assert table.insert_many(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)) == 0

    def test_remove_many_compacts_and_empties(self):
        table = HashTable(k=1, code_cardinality=4, bucket_size=8, policy=FIFOPolicy())
        keys = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
        items = np.array([10, 11, 12, 20, 21, 30], dtype=np.int64)
        table.insert_many(keys, items)
        assert table.num_buckets == 3
        removed = table.remove_many(
            np.array([0, 0, 1, 2, 3], dtype=np.int64),
            np.array([10, 12, 99, 30, 1], dtype=np.int64),
        )
        assert removed == 3  # (3, 1) has no bucket, (1, 99) not present
        np.testing.assert_array_equal(table.query_fingerprint(0), [11])
        np.testing.assert_array_equal(table.query_fingerprint(1), [20, 21])
        assert table.query_fingerprint(2).size == 0
        assert table.num_buckets == 2  # the emptied bucket no longer counts
        assert table.num_items == 3

    def test_emptied_buckets_are_reclaimed(self):
        """Emptying a bucket releases its slot row and directory entry, so
        table memory tracks the live bucket count instead of growing with
        every fingerprint ever observed (the code-diff update path churns
        through fingerprints for the whole life of a training run)."""
        table = HashTable(k=1, code_cardinality=256, bucket_size=4, policy=FIFOPolicy())
        for wave in range(50):
            keys = np.arange(8, dtype=np.int64) + 8 * (wave % 2)
            items = np.arange(8, dtype=np.int64)
            table.insert_many(keys, items)
            table.remove_many(keys, items)
            # Scalar removal path reclaims too.
            table.insert_fingerprint(99, 1)
            assert table.remove_fingerprint(99, 1)
        assert table.num_buckets == 0
        assert table.num_items == 0
        # Slot matrix stayed at the high-water mark of *live* buckets.
        assert table._flat.slots.shape[0] <= 32
        assert table._keys.size == 0

    def test_flat_buckets_growth_and_reuse(self):
        store = FlatBuckets(capacity=2)
        rows = store.alloc(3)
        np.testing.assert_array_equal(rows, [0, 1, 2])
        store.slots[0, 0] = 5
        store.sizes[0] = 1
        store.clear()
        rows = store.alloc(1)  # reused row must come back blank
        assert store.sizes[int(rows[0])] == 0
        assert np.all(store.slots[int(rows[0])] == -1)

    def test_index_counters_track_updates(self, rng):
        index = make_index("simhash", "fifo")
        weights = rng.normal(size=(30, 24))
        index.build(weights)
        stats = index.stats()
        assert stats["update_items"] == 0.0
        weights[4] *= -2.0
        index.update(np.array([4]), weights[4:5])
        stats = index.stats()
        assert stats["update_items"] == 1.0
        assert stats["moved_entries"] >= 0.0


# ----------------------------------------------------------------------
# 5. One slot matrix per index, one gather per probe
# ----------------------------------------------------------------------
# DWTA codes take 9 values: 9 ** 20 >= 2 ** 62, so this one takes the chunked
# pack-and-mix fingerprint path.
SHARED_STORE_CASES = {
    **{
        f"{family}-{policy}": dict(family=family, policy=policy)
        for family in FAMILIES
        for policy in POLICIES
    },
    "dwta-fifo-chunked": dict(family="dwta", policy="fifo", k=20, l=4),
}
# Written at the commit before the tables shared a store (see dump_table_stats).
PARENT_TABLE_STATS = Path(__file__).parent / "data" / "lsh_parent_table_stats.json"


def seeded_build(case: str) -> tuple[LSHIndex, np.ndarray]:
    rng = np.random.default_rng(2024)
    weights = rng.normal(size=(120, 24))
    weights[rng.random(size=weights.shape) < 0.5] = 0.0
    index = make_index(**SHARED_STORE_CASES[case])
    index.build(weights)
    return index, weights


def table_stats(index: LSHIndex) -> dict:
    return {
        "num_buckets": [table.num_buckets for table in index.tables],
        "num_items": [table.num_items for table in index.tables],
        "bucket_sizes": [sorted(table.bucket_sizes().tolist()) for table in index.tables],
        "mean_load_factor": index.stats()["mean_load_factor"],
    }


def dump_table_stats() -> None:
    """How the fixture was written (run once, at the parent commit)."""
    stats = {case: table_stats(seeded_build(case)[0]) for case in SHARED_STORE_CASES}
    PARENT_TABLE_STATS.write_text(json.dumps(stats, separators=(",", ":")) + "\n")


@pytest.mark.parametrize("case", SHARED_STORE_CASES)
def test_per_table_stats_equal_the_parents(case):
    """Each table counts its own rows of the shared store, not everybody's."""
    index, _ = seeded_build(case)
    assert table_stats(index) == json.loads(PARENT_TABLE_STATS.read_text())[case]
    assert len({id(table._flat) for table in index.tables}) == 1


def assert_probe_equals_scalar(index: LSHIndex, queries: np.ndarray) -> None:
    """``query_batch_flat`` against ``query_with_codes``, row for row."""
    flat = index.query_batch_flat(queries)
    assert flat.batch_size == queries.shape[0]
    for row in range(queries.shape[0]):
        single = index.query_with_codes(flat.codes[row])
        for table, expected in enumerate(single.buckets):
            size = flat.sizes[row, table]
            np.testing.assert_array_equal(flat.candidates[row, table, :size], expected)
            assert np.all(flat.candidates[row, table, size:] == -1)


@pytest.mark.parametrize("case", SHARED_STORE_CASES)
def test_shared_store_probe_through_build_update_remove_clear(case):
    """Rows released by one table are reused by another; ids never leak."""
    index, weights = seeded_build(case)
    rng = np.random.default_rng(7)

    def check(current: np.ndarray, items: np.ndarray) -> None:
        fresh = make_index(**SHARED_STORE_CASES[case])
        fresh.build(current, items)
        assert_same_tables(index, fresh)  # bucket_size 256: nothing overflows
        for table in index.tables:
            stored = np.concatenate([*table_contents(table).values(), items[:0]])
            assert np.isin(stored, items).all()
            assert table.num_items == items.size
        # Stored vectors find themselves; random ones mostly miss.
        assert_probe_equals_scalar(
            index, np.concatenate([current[:12], rng.normal(size=(6, 24))])
        )

    items = np.arange(120, dtype=np.int64)
    check(weights, items)

    dirty = rng.choice(120, size=60, replace=False)
    weights[dirty] = rng.normal(size=(60, 24))
    index.update(dirty, weights[dirty])
    check(weights, items)

    # Every emptied bucket goes back to the one free list ...
    for item in range(0, 120, 2):
        assert index.remove(item)
    items = items[1::2]
    check(weights[1::2], items)
    # ... and whichever table inserts next takes those rows.
    index.update(np.arange(200, 230), rng.normal(size=(30, 24)))
    assert_probe_equals_scalar(index, rng.normal(size=(8, 24)))

    index.clear()
    assert index.query_batch_flat(rng.normal(size=(3, 24))).sizes.sum() == 0
    smaller = rng.normal(size=(40, 24))
    index.build(smaller)
    check(smaller, np.arange(40, dtype=np.int64))


def test_a_standalone_table_still_owns_its_store():
    table = HashTable(k=2, code_cardinality=4, bucket_size=4, policy=FIFOPolicy())
    other = HashTable(k=2, code_cardinality=4, bucket_size=4, policy=FIFOPolicy())
    assert table._flat is not other._flat
    with pytest.raises(ValueError, match="bucket_size"):
        HashTable(
            k=2, code_cardinality=4, bucket_size=4, policy=FIFOPolicy(),
            store=FlatBuckets(8),
        )
