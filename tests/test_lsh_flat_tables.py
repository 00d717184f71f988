"""Equivalence and regression tests for the flat array-backed LSH index.

Pins five contracts of the flat storage:

1. **Batched ≡ sequential reference** — the index's batched insertion
   stores what inserting the items one at a time into
   :class:`~repro.lsh.bucket.Bucket` objects through ``policy.insert``
   stores (slot for slot, in arrival order, for FIFO; and for reservoir
   wherever no bucket overflows, plus its bookkeeping where they do),
   across SimHash / DWTA / DOPH and both policies.
2. **Code-diff ``update`` ≡ full ``build``** — after an incremental update
   the index holds exactly what an index built from scratch over the new
   weights holds, stale entries are gone, and untouched rows never move.
3. **Snapshot round-trip** — ``snapshot_codes``/``restore_codes`` reproduce
   bucket membership.
4. **Directory keys** — the (table, fingerprint) key packs the codes exactly
   beside the table id when they fit and stays batched (chunked pack-and-mix)
   when they do not; in both regimes a key of one table is never found in
   another.
5. **One store, one probe** — per-table counts equal the parent commit's,
   and every probe equals a brute-force oracle through build, update,
   clear and rebuild.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LSHConfig
from repro.lsh.bucket import Bucket, FlatBuckets
from repro.lsh.index import LSHIndex
from repro.lsh.policies import FIFOPolicy, ReservoirPolicy, make_insertion_policy

FAMILIES = ["simhash", "dwta", "doph"]
POLICIES = ["fifo", "reservoir"]


def make_index(family: str, policy: str, dim: int = 24, **overrides) -> LSHIndex:
    params = dict(hash_family=family, k=3, l=6, bucket_size=256, insertion_policy=policy)
    params.update(overrides)
    return LSHIndex(input_dim=dim, config=LSHConfig(**params), seed=3)


def one_table(policy: str, bucket_size: int) -> LSHIndex:
    """An index of one table, fed raw keys through its insertion helper."""
    config = LSHConfig(k=1, l=1, bucket_size=bucket_size, insertion_policy=policy)
    return LSHIndex(input_dim=4, config=config, seed=0)


def tables_of(index: LSHIndex) -> list[dict[int, np.ndarray]]:
    """Each table's buckets as ``{key: stored ids}`` in slot order.

    The index keeps no table objects: this reads its private directory,
    where a key's high bits are its table id, and its slot matrix.
    """
    tables: list[dict[int, np.ndarray]] = [{} for _ in range(index.l)]
    store = index._store
    for key, row in zip(index._dir_keys.tolist(), index._dir_rows.tolist()):
        tables[key >> index._fp_bits][key] = store.slots[row, : store.sizes[row]]
    return tables


def bucket_of(index: LSHIndex, key: int) -> np.ndarray:
    row = int(index._rows_of(np.array([key], dtype=np.int64))[0])
    return index._store.slots[row, : index._store.sizes[row]]


def arrival_order(bucket: Bucket) -> np.ndarray:
    """A reference bucket's ids, oldest arrival first."""
    return bucket.items[np.argsort(bucket._arrival, kind="stable")]


def sequential(policy, keys, items, capacity: int) -> dict[int, Bucket]:
    """The reference: one ``policy.insert`` per item into per-key ``Bucket``s."""
    buckets: dict[int, Bucket] = {}
    for key, item in zip(keys.tolist(), items.tolist()):
        policy.insert(buckets.setdefault(key, Bucket(capacity)), item)
    return buckets


def assert_same_tables(index_a: LSHIndex, index_b: LSHIndex) -> None:
    for contents_a, contents_b in zip(tables_of(index_a), tables_of(index_b)):
        assert contents_a.keys() == contents_b.keys()
        for key in contents_a:
            np.testing.assert_array_equal(np.sort(contents_a[key]), np.sort(contents_b[key]))


def assert_probe_matches_oracle(index: LSHIndex, queries: np.ndarray) -> None:
    """``query_batch_flat`` against brute force: in each table, the stored
    items whose codes there equal the query's (no bucket may overflow)."""
    items, codes = index.snapshot_codes()
    flat = index.query_batch_flat(queries)
    assert flat.batch_size == queries.shape[0]
    for row in range(queries.shape[0]):
        expected_all = []
        for table in range(index.l):
            expected = items[(codes[:, table] == flat.codes[row, table]).all(axis=1)]
            size = flat.sizes[row, table]
            got = flat.candidates[row, table]
            np.testing.assert_array_equal(np.sort(got[:size]), np.sort(expected))
            assert np.all(got[size:] == -1)
            expected_all.append(expected)
        ids, counts = flat.frequencies(row)
        ids_expected, counts_expected = np.unique(
            np.concatenate(expected_all), return_counts=True
        )
        np.testing.assert_array_equal(ids, ids_expected)
        np.testing.assert_array_equal(counts, counts_expected)


# ----------------------------------------------------------------------
# 1. Batched vs the sequential reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("policy", POLICIES)
def test_batched_build_matches_per_item_inserts(rng, family, policy):
    """With buckets large enough to never overflow, the batched ``build``
    stores exactly what per-item ``policy.insert`` calls store, in arrival
    order — for every hash family and both replacement policies (reservoir
    appends deterministically below capacity)."""
    dim, n = 24, 80
    weights = rng.normal(size=(n, dim))
    weights[rng.random(size=weights.shape) < 0.5] = 0.0  # sparse-ish rows

    index = make_index(family, policy, dim=dim)
    index.build(weights)
    items = np.arange(n)
    keys = index._pack(index.hash_family.hash_matrix(weights))
    policy_ref = make_insertion_policy(policy, rng=np.random.default_rng(0))

    assert index.num_items == n
    for table, contents in enumerate(tables_of(index)):
        reference = sequential(policy_ref, keys[:, table], items, index.config.bucket_size)
        assert contents.keys() == reference.keys()
        for key, bucket in reference.items():
            np.testing.assert_array_equal(contents[key], arrival_order(bucket))
    assert_probe_matches_oracle(index, rng.normal(size=(10, dim)))


def test_fifo_overflow_batched_matches_sequential_exactly(rng):
    """FIFO keeps the newest ``capacity`` arrivals; the batched kernel must
    reproduce the sequential result slot-for-slot, in arrival order."""
    for trial in range(5):
        keys = rng.integers(0, 5, size=60).astype(np.int64)
        items = np.arange(60, dtype=np.int64)
        index = one_table("fifo", bucket_size=4)
        index._insert(keys, items)
        reference = sequential(FIFOPolicy(), keys, items, capacity=4)
        assert tables_of(index)[0].keys() == reference.keys()
        for key, bucket in reference.items():
            np.testing.assert_array_equal(bucket_of(index, key), arrival_order(bucket))
            assert index._store.seen[index._rows_of(np.array([key]))[0]] == bucket.seen


def test_fifo_eviction_counts_match_the_sequential_oracle(rng):
    """Every arrival at a full FIFO bucket evicts one stored id: the batched
    kernel counts, per bucket row, the existing ids it drops plus the batch
    arrivals a later arrival of the same batch pushes out, which is what the
    sequential ``Bucket`` reference counts one ``replace`` at a time.  The
    index total and the full-bucket fraction in ``stats()`` follow."""
    index = one_table("fifo", bucket_size=4)
    policy = FIFOPolicy()
    reference: dict[int, Bucket] = {}
    for batch in range(6):
        keys = rng.integers(0, 7, size=int(rng.integers(1, 30))).astype(np.int64)
        items = rng.integers(0, 1000, size=keys.size).astype(np.int64)
        index._insert(keys, items)
        for key, item in zip(keys.tolist(), items.tolist()):
            policy.insert(reference.setdefault(key, Bucket(4)), item)
    store = index._store
    for key, bucket in reference.items():
        row = int(index._rows_of(np.array([key]))[0])
        np.testing.assert_array_equal(bucket_of(index, key), arrival_order(bucket))
        assert store.evictions[row] == bucket.evictions
    total = sum(bucket.evictions for bucket in reference.values())
    assert total > 0
    stats = index.stats()
    assert index.num_evictions == stats["evictions"] == total
    full = sum(len(bucket) == 4 for bucket in reference.values())
    assert stats["full_bucket_frac"] == full / len(reference)


def test_reservoir_evictions_and_rejections_cover_every_overflow(rng):
    """A reservoir arrival at a full bucket is either rejected or evicts the
    slot it drew, so the two counters add up to the overflowing arrivals."""
    keys = rng.integers(0, 4, size=120).astype(np.int64)
    items = np.arange(120, dtype=np.int64)
    index = one_table("reservoir", bucket_size=8)
    index._insert(keys[:50], items[:50])
    index._insert(keys[50:], items[50:])
    store = index._store
    for key in np.unique(keys).tolist():
        row = int(index._rows_of(np.array([key]))[0])
        overflow = max(0, int((keys == key).sum()) - 8)
        assert store.evictions[row] + store.rejections[row] == overflow
    assert index.num_evictions == int(store.evictions.sum()) > 0


def test_eviction_counts_reset_with_the_bucket_row():
    store = FlatBuckets(capacity=2)
    row = store.alloc(1)
    FIFOPolicy().insert_many_flat(store, np.repeat(row, 5), np.arange(5))
    assert store.evictions[row[0]] == 3
    store.release(row)
    assert store.evictions[store.alloc(1)[0]] == 0


def test_fifo_batched_mixed_with_scalar_inserts():
    """One-item and many-item insertions interleave on the same bucket."""
    index = one_table("fifo", bucket_size=3)
    index._insert(np.array([0]), np.array([1]))
    index._insert(np.array([0]), np.array([2]))
    index._insert(np.zeros(3, dtype=np.int64), np.array([3, 4, 5]))
    # Capacity 3, newest win: 3, 4, 5.
    np.testing.assert_array_equal(bucket_of(index, 0), [3, 4, 5])
    index._insert(np.array([0]), np.array([6]))
    np.testing.assert_array_equal(bucket_of(index, 0), [4, 5, 6])


def test_reservoir_overflow_bookkeeping_matches_sequential(rng):
    """Under overflow the reservoir draws differ between the sequential
    reference and the batched kernel, but the policy bookkeeping (sizes, seen
    counts, stored ⊆ inserted, stored + rejected = attempts) must agree."""
    keys = rng.integers(0, 4, size=120).astype(np.int64)
    items = np.arange(120, dtype=np.int64)
    index = one_table("reservoir", bucket_size=8)
    index._insert(keys, items)
    reference = sequential(ReservoirPolicy(rng=np.random.default_rng(7)), keys, items, 8)
    store = index._store
    for key, bucket in reference.items():
        row = int(index._rows_of(np.array([key]))[0])
        attempts = int((keys == key).sum())
        assert store.sizes[row] == len(bucket) == min(8, attempts)
        assert store.seen[row] == bucket.seen == attempts
        assert set(bucket_of(index, key).tolist()) <= set(items[keys == key].tolist())
        assert bucket.seen - bucket.rejections >= len(bucket)


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
    index = one_table("fifo", bucket_size=capacity)
    index._insert(keys, items)
    for key, bucket in sequential(FIFOPolicy(), keys, items, capacity).items():
        np.testing.assert_array_equal(bucket_of(index, key), arrival_order(bucket))


# ----------------------------------------------------------------------
# 2. Code-diff update ≡ full build
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("policy", POLICIES)
def test_incremental_update_equals_full_build(rng, family, policy):
    """After ``update(dirty)`` the index must hold exactly what a fresh
    ``build`` over the new weights holds (buckets large enough to never
    evict): moved items are retrievable at their new position, stale entries
    are gone, and every table holds every item exactly once."""
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
    for contents in tables_of(index):
        stored = np.concatenate(list(contents.values()))
        np.testing.assert_array_equal(np.sort(stored), np.arange(n))  # no stale, no loss
    assert_same_tables(index, fresh)
    assert_probe_matches_oracle(index, rng.normal(size=(10, dim)))


def test_update_moves_only_changed_fingerprints(rng):
    """An update whose weights are unchanged must not touch the tables at
    all — no removals, no insertions, no eviction-bookkeeping churn."""
    index = make_index("simhash", "fifo")
    weights = rng.normal(size=(50, 24))
    index.build(weights)
    seen_before = index._store.seen[: index._store.num_rows].copy()
    moved_before = index.num_moved_entries

    index.update(np.arange(50, dtype=np.int64), weights)

    assert index.num_moved_entries == moved_before  # zero moves applied
    np.testing.assert_array_equal(index._store.seen[: index._store.num_rows], seen_before)


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
    flat = index.query_batch_flat(weights[7:8])
    np.testing.assert_array_equal(flat.codes[0], index.snapshot_codes()[1][7])
    assert np.all((flat.candidates[0] == 7).any(axis=1))


def test_update_handles_duplicate_and_unknown_ids(rng):
    index = make_index("simhash", "fifo")
    weights = rng.normal(size=(10, 24))
    index.build(weights)
    # Duplicate ids keep the last occurrence.
    vectors = rng.normal(size=(2, 24))
    index.update(np.array([3, 3]), vectors)
    assert index.num_items == 10
    _, codes = index.snapshot_codes()
    np.testing.assert_array_equal(codes[3], index.hash_family.hash_matrix(vectors[1:2])[0])
    # Ids are rows: one past the last row raises, and nothing is touched.
    for unknown in (10, 12):
        with pytest.raises(ValueError, match=r"rows in \[0, 10\)"):
            index.update(np.array([2, unknown]), rng.normal(size=(2, 24)))
    assert index.num_items == 10
    np.testing.assert_array_equal(index.snapshot_codes()[1], codes)


# ----------------------------------------------------------------------
# 3. Snapshot round-trip on the flat layout
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", POLICIES)
def test_snapshot_restore_round_trip(rng, policy):
    index = make_index("dwta", policy)
    weights = rng.normal(size=(40, 24))
    index.build(weights)

    items, codes = index.snapshot_codes()
    np.testing.assert_array_equal(items, np.arange(40))
    assert codes.shape == (40, index.l, index.k)

    clone = make_index("dwta", policy)
    clone.restore_codes(items, codes)
    assert clone.num_items == 40
    assert_same_tables(index, clone)
    # The restored index keeps working for incremental updates.
    new_vector = rng.normal(size=(1, 24))
    clone.update(np.array([5]), new_vector)
    np.testing.assert_array_equal(
        clone.snapshot_codes()[1][5], clone.hash_family.hash_matrix(new_vector)[0]
    )

    with pytest.raises(ValueError, match="shape"):
        clone.restore_codes(items[:1], codes)
    # Items are the rows 0..n-1 in order: repeats, holes and reorderings raise.
    for bad in (np.zeros(40), np.arange(1, 41), items[::-1]):
        with pytest.raises(ValueError, match="rows 0..n-1"):
            clone.restore_codes(bad, codes)


# ----------------------------------------------------------------------
# 4. Directory keys
# ----------------------------------------------------------------------
def test_keys_pack_codes_exactly_beside_the_table_id(rng):
    """Exact regime: ``key = table * 2**(63 - ceil(log2 L)) + fingerprint``,
    with the fingerprint the codes read as base-cardinality digits."""
    index = make_index("dwta", "fifo", k=4, l=6)
    cardinality = index.hash_family.code_cardinality
    codes = rng.integers(0, cardinality, size=(30, index.l, index.k))
    keys = index._pack(codes)
    assert isinstance(keys, np.ndarray) and keys.dtype == np.int64
    digits = cardinality ** np.arange(index.k - 1, -1, -1)
    np.testing.assert_array_equal(keys, (codes @ digits) + (np.arange(index.l) << 60))
    assert index._pack(np.zeros((0, index.l, index.k), dtype=np.int64)).shape == (0, index.l)

    # SimHash at K = 58, L = 32 is the widest exact case: 2**58 * 2**5 = 2**63.
    wide = LSHIndex(8, LSHConfig(k=58, l=32), seed=0)
    top = wide._pack(np.ones((1, 32, 58), dtype=np.int64))
    assert top.tolist() == [[table * 2**58 + 2**58 - 1 for table in range(32)]]
    assert top.max() == 2**63 - 1


def test_keys_chunked_over_wide_radix(rng):
    """A (cardinality, K) combination that cannot pack into one int64 stays
    batched: chunk-packed and mixed, equal tuples agreeing."""
    index = make_index("simhash", "fifo", k=80, l=2)
    assert len(index._chunks) > 1
    codes = rng.integers(0, 2, size=(200, 2, 80))
    keys = index._pack(codes)
    assert keys.dtype == np.int64
    np.testing.assert_array_equal(keys, index._pack(codes.copy()))
    np.testing.assert_array_equal(keys >> index._fp_bits, np.tile([0, 1], (200, 1)))
    # 2^80 tuples into 63 bits cannot be injective, but random tuples must
    # essentially never collide if the mix is any good.
    assert np.unique(keys).size == 400


@pytest.mark.parametrize("family", ["simhash", "wta", "dwta", "doph", "minhash"])
def test_hash_matrix_codes_are_narrow_and_pack_like_int64(rng, family):
    """Every family returns one-byte codes (its ``code_dtype``), the index
    stores them so, and a key packed from them equals the key packed from
    the same codes widened to int64 — in the exact and the mixed regime."""
    index = make_index(family, "fifo", k=4, l=6)
    weights = rng.normal(size=(40, 24))
    weights[rng.random(size=weights.shape) < 0.3] = 0.0
    codes = index.hash_family.hash_matrix(weights)
    assert codes.dtype == index.hash_family.code_dtype == np.uint8
    np.testing.assert_array_equal(index._pack(codes), index._pack(codes.astype(np.int64)))
    index.build(weights)
    assert index._codes.dtype == np.uint8
    mixed = make_index(family, "fifo", k=64, l=4)
    assert len(mixed._chunks) > 1
    wide = rng.integers(0, mixed.hash_family.code_cardinality, size=(30, 4, 64))
    np.testing.assert_array_equal(mixed._pack(wide.astype(np.uint8)), mixed._pack(wide))


def test_simhash_row_blocks_do_not_change_codes(rng):
    """Rows hashed in blocks, together or one at a time, get the same codes."""
    index = make_index("simhash", "fifo", k=4, l=6)
    family = index.hash_family
    weights = rng.normal(size=(2 * family._BLOCK_ROWS + 37, 24)).astype(np.float32)
    codes = family.hash_matrix(weights)
    for row in range(0, weights.shape[0], 97):
        np.testing.assert_array_equal(codes[row], family.hash_matrix(weights[row : row + 1])[0])
        np.testing.assert_array_equal(codes[row], family.hash_vector(weights[row]))


def test_restore_codes_checks_the_range_on_the_dtype_given():
    """A one-byte code past the cardinality is refused before any narrowing
    cast, and so is an int64 code that a uint8 cast would wrap into range."""
    index = make_index("simhash", "fifo", k=2, l=2)
    items = np.arange(2, dtype=np.int64)
    good = np.zeros((2, 2, 2), dtype=np.uint8)
    index.restore_codes(items, good)
    assert index.num_items == 2 and index._codes.dtype == np.uint8
    for bad in (good + 2, np.full((2, 2, 2), 256, dtype=np.int64)):
        with pytest.raises(ValueError, match="out of range"):
            index.restore_codes(items, bad)


KEY_REGIMES = {
    "exact": dict(family="simhash", policy="fifo", k=16),
    # DWTA codes take 9 values: 9 ** 20 >= 2 ** 62, so these keys are mixed.
    "mixed": dict(family="dwta", policy="fifo", k=20, l=4),
}


@pytest.mark.parametrize("regime", KEY_REGIMES)
def test_a_key_is_never_found_in_another_table(regime):
    """Item ``j`` stores in table ``t`` what the query hashes to in table
    ``t + j``.  Only item 0 may answer: were the table id not part of the
    key, every item would answer in every table."""
    index = make_index(**KEY_REGIMES[regime])
    assert (len(index._chunks) == 1) == (regime == "exact")
    query = np.random.default_rng(5).normal(size=(1, 24))
    codes = index.hash_family.hash_matrix(query)[0]
    assert len({tuple(table) for table in codes.tolist()}) == index.l
    items = np.arange(index.l, dtype=np.int64)
    index.restore_codes(items, np.stack([np.roll(codes, -j, axis=0) for j in items]))
    flat = index.query_batch_flat(query)
    np.testing.assert_array_equal(flat.sizes[0], 1)
    np.testing.assert_array_equal(flat.candidates[0, :, 0], 0)


# ----------------------------------------------------------------------
# Flat-storage unit behaviour
# ----------------------------------------------------------------------
class TestFlatStorage:
    def test_negative_item_ids_are_rejected(self, rng):
        index = make_index("simhash", "fifo")
        index.build(rng.normal(size=(2, 24)))
        with pytest.raises(ValueError, match=r"rows in \[0, 2\)"):
            index.update(np.array([-1]), rng.normal(size=(1, 24)))
        assert index.num_items == 2

    def test_remove_compacts_and_empties(self):
        index = one_table("fifo", bucket_size=8)
        keys = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
        items = np.array([10, 11, 12, 20, 21, 30], dtype=np.int64)
        index._insert(keys, items)
        assert index.stats()["mean_buckets_per_table"] == 3
        index._remove(
            np.array([0, 0, 1, 2, 3], dtype=np.int64),
            np.array([10, 12, 99, 30, 1], dtype=np.int64),
        )
        # (3, 1) has no bucket and (1, 99) is not present.
        np.testing.assert_array_equal(bucket_of(index, 0), [11])
        np.testing.assert_array_equal(bucket_of(index, 1), [20, 21])
        assert bucket_of(index, 2).size == 0
        stats = index.stats()
        assert stats["mean_buckets_per_table"] == 2  # the emptied bucket is gone
        assert stats["mean_items_per_table"] == 3

    def test_emptied_buckets_are_reclaimed(self):
        """Emptying a bucket releases its slot row and directory entry, so
        memory tracks the live bucket count instead of growing with every
        key ever observed (the code-diff update path churns through keys for
        the whole life of a training run)."""
        index = one_table("fifo", bucket_size=4)
        for wave in range(50):
            keys = np.arange(8, dtype=np.int64) + 8 * (wave % 2)
            items = np.arange(8, dtype=np.int64)
            index._insert(keys, items)
            index._remove(keys, items)
            # Single-item removal reclaims too.
            index._insert(np.array([99]), np.array([1]))
            index._remove(np.array([99]), np.array([1]))
        assert index.stats()["mean_buckets_per_table"] == 0
        # Slot matrix stayed at the high-water mark of *live* buckets.
        assert index._store.slots.shape[0] <= 32
        assert index._dir_keys.size == 0

    def test_flat_buckets_growth_and_reuse(self):
        store = FlatBuckets(capacity=2)
        rows = store.alloc(3)
        np.testing.assert_array_equal(rows, [0, 1, 2])
        store.slots[0, 0] = 5
        store.sizes[0] = 1
        store.seen[0] = 4
        store.release(np.array([0]))
        rows = store.alloc(2)  # the released row comes back first, blank
        np.testing.assert_array_equal(rows, [0, 3])
        assert store.sizes[0] == 0 and store.seen[0] == 0
        assert np.all(store.slots[0] == -1)

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
# pack-and-mix key path.
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
    sizes = [[ids.size for ids in contents.values()] for contents in tables_of(index)]
    return {
        "num_buckets": [int(np.count_nonzero(table)) for table in sizes],
        "num_items": [int(sum(table)) for table in sizes],
        "bucket_sizes": [sorted(size for size in table if size) for table in sizes],
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


@pytest.mark.parametrize("case", SHARED_STORE_CASES)
def test_probe_matches_brute_force_oracle(case, rng):
    index, weights = seeded_build(case)
    assert_probe_matches_oracle(index, np.concatenate([weights[:20], rng.normal(size=(20, 24))]))
    # A one-row block — the per-sample path — answers like a row of a batch.
    for row in range(5):
        single = index.query_batch_flat(weights[row : row + 1])
        batch = index.query_batch_flat(weights[:5])
        np.testing.assert_array_equal(single.candidates[0], batch.candidates[row])


@pytest.mark.parametrize("case", SHARED_STORE_CASES)
def test_shared_store_probe_through_build_update_remove_clear(case):
    """Rows released by one table are reused by another; ids never leak."""
    index, weights = seeded_build(case)
    rng = np.random.default_rng(7)

    def check(current: np.ndarray) -> None:
        fresh = make_index(**SHARED_STORE_CASES[case])
        fresh.build(current)
        assert_same_tables(index, fresh)  # bucket_size 256: nothing overflows
        for contents in tables_of(index):
            stored = np.concatenate(list(contents.values()))
            np.testing.assert_array_equal(np.sort(stored), np.arange(current.shape[0]))
        # Every bucket a move empties goes back to the one free list, and
        # whichever table inserts next takes its row: besides the empty
        # row 0, the store holds exactly the directory's rows.
        store = index._store
        assert store.num_rows - len(store._free) == index._dir_rows.size + 1
        # Stored vectors find themselves; random ones mostly miss.
        assert_probe_matches_oracle(
            index, np.concatenate([current[:12], rng.normal(size=(6, 24))])
        )

    check(weights)
    for _ in range(3):
        # Duplicates included: the last occurrence wins.
        dirty = rng.choice(120, size=60, replace=True)
        fresh_rows = rng.normal(size=(60, 24))
        weights[dirty] = fresh_rows
        index.update(dirty, fresh_rows)
        check(weights)

    index.clear()
    assert index.num_items == 0
    assert index.query_batch_flat(rng.normal(size=(3, 24))).sizes.sum() == 0
    smaller = rng.normal(size=(40, 24))
    index.build(smaller)
    check(smaller)
