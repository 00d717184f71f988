"""Tests for the multi-table LSH index and its query results."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LSHConfig
from repro.lsh.index import BatchQueryResult, LSHIndex


def probe_union(index: LSHIndex, query: np.ndarray) -> np.ndarray:
    """Unique candidates of one query across all tables."""
    return index.query_batch_flat(query[None, :]).frequencies(0)[0]


def assert_each_item_once_per_table(index: LSHIndex, vectors: dict[int, np.ndarray]) -> None:
    """Every indexed item sits in its own bucket of every table exactly once,
    and nothing else is stored (buckets large enough to never evict)."""
    items = sorted(vectors)
    flat = index.query_batch_flat(np.array([vectors[item] for item in items]))
    for row, item in enumerate(items):
        np.testing.assert_array_equal((flat.candidates[row] == item).sum(axis=1), 1)
    assert index.stats()["mean_items_per_table"] == len(items)


class TestDirectoryKeys:
    def test_keys_are_injective_over_tables_and_code_tuples(self):
        config = LSHConfig(hash_family="dwta", k=3, l=5, wta_bin_size=3)
        index = LSHIndex(input_dim=12, config=config, seed=0)
        cardinality = index.hash_family.code_cardinality
        tuples = np.array(list(itertools.product(range(cardinality), repeat=3)))
        codes = np.repeat(tuples[:, None, :], index.l, axis=1)
        keys = index._pack(codes)
        assert keys.dtype == np.int64
        assert np.unique(keys).size == keys.size == tuples.shape[0] * index.l

    def test_restore_codes_validates_code_range(self):
        index = LSHIndex(8, LSHConfig(k=2, l=3), seed=0)
        codes = np.zeros((1, 3, 2), dtype=np.int64)
        codes[0, 1, 1] = 2  # SimHash codes are bits
        with pytest.raises(ValueError, match="range"):
            index.restore_codes(np.array([0]), codes)
        with pytest.raises(ValueError, match="shape"):
            index.restore_codes(np.array([0]), np.zeros((1, 3, 3), dtype=np.int64))


class TestBatchQueryResultFrequencies:
    @staticmethod
    def _flat(candidates, sizes) -> BatchQueryResult:
        candidates = np.array(candidates, dtype=np.int64)
        codes = np.zeros(candidates.shape[:2] + (2,), dtype=np.int64)
        return BatchQueryResult(codes, candidates, np.array(sizes, dtype=np.int64))

    def test_frequencies(self):
        flat = self._flat(
            [[[9, -1], [9, -1], [-1, -1]], [[1, 2], [2, 3], [-1, -1]]],
            [[1, 1, 0], [2, 2, 0]],
        )
        ids, counts = flat.frequencies(1)
        np.testing.assert_array_equal(ids, [1, 2, 3])
        np.testing.assert_array_equal(counts, [1, 2, 1])
        assert ids.dtype == counts.dtype == np.int64

    def test_empty_result(self):
        ids, counts = self._flat([[[-1], [-1]]], [[0, 0]]).frequencies(0)
        assert ids.size == 0 and counts.size == 0


class TestLSHIndex:
    @pytest.fixture
    def index(self) -> LSHIndex:
        config = LSHConfig(hash_family="simhash", k=4, l=12, bucket_size=16)
        return LSHIndex(input_dim=32, config=config, seed=0)

    def test_build_and_stats(self, index, rng):
        weights = rng.normal(size=(50, 32))
        index.build(weights)
        stats = index.stats()
        assert stats["indexed_items"] == 50
        assert stats["tables"] == 12
        assert index.num_items == 50

    def test_stats_count_buckets_items_and_load(self):
        index = LSHIndex(8, LSHConfig(k=1, l=2, bucket_size=4), seed=0)
        weights = np.zeros((3, 8))
        weights[:, 0] = 1.0  # all three share every code
        index.build(weights)
        stats = index.stats()
        assert stats["mean_buckets_per_table"] == 1.0
        assert stats["mean_items_per_table"] == 3.0
        assert stats["mean_load_factor"] == pytest.approx(0.75)

    def test_query_retrieves_similar_item(self, index, rng):
        weights = rng.normal(size=(100, 32))
        index.build(weights)
        # Querying with (a noisy copy of) an indexed vector should retrieve it
        # from at least one bucket.
        target = 17
        query = weights[target] + 0.01 * rng.normal(size=32)
        assert target in probe_union(index, query)

    def test_query_batch_flat_validates_shape(self, index):
        with pytest.raises(ValueError, match="shape"):
            index.query_batch_flat(np.zeros((2, 31)))
        with pytest.raises(ValueError, match="shape"):
            index.query_batch_flat(np.zeros(32))

    def test_update_rehashes_items(self, index, rng):
        weights = rng.normal(size=(20, 32))
        index.build(weights)
        # Move item 0 to a completely different weight vector and update.
        new_weights = weights.copy()
        new_weights[0] = -weights[0] + rng.normal(size=32)
        index.update(np.array([0]), new_weights[:1])
        assert index.num_items == 20
        # The item should now be retrievable by its new vector.
        assert 0 in probe_union(index, new_weights[0])

    def test_update_same_item_twice_keeps_single_entry_per_table(self, index, rng):
        weights = rng.normal(size=(10, 32))
        index.build(weights)
        vector = rng.normal(size=32)
        index.update(np.array([7]), vector[None, :])
        index.update(np.array([7]), vector[None, :] + 0.001)
        assert index.num_items == 10
        # Each table holds item 7 exactly once, under its latest codes.
        weights[7] = vector + 0.001
        assert_each_item_once_per_table(index, dict(enumerate(weights)))

    def test_build_validates_shapes(self, index, rng):
        with pytest.raises(ValueError):
            index.build(rng.normal(size=(5, 16)))
        with pytest.raises(ValueError):
            index.build(rng.normal(size=32))
        index.build(rng.normal(size=(5, 32)))
        with pytest.raises(ValueError, match="align"):
            index.update(np.arange(4), rng.normal(size=(5, 32)))

    def test_clear(self, index, rng):
        weights = rng.normal(size=(10, 32))
        index.build(weights)
        index.clear()
        assert index.num_items == 0
        assert index.stats()["mean_items_per_table"] == 0.0
        assert index.query_batch_flat(weights).sizes.sum() == 0

    def test_recall_beats_random_guessing(self, rng):
        """Nearest-neighbour recall of the LSH index must far exceed the
        fraction of the dataset a random bucket of the same size would give."""
        config = LSHConfig(hash_family="simhash", k=6, l=30, bucket_size=32)
        index = LSHIndex(input_dim=24, config=config, seed=1)
        n = 400
        weights = rng.normal(size=(n, 24))
        index.build(weights)
        hits = 0
        probes = 40
        total_candidates = 0
        for trial in range(probes):
            target = int(rng.integers(0, n))
            query = weights[target] + 0.05 * rng.normal(size=24)
            union = probe_union(index, query)
            total_candidates += union.size
            hits += int(target in union)
        recall = hits / probes
        candidate_fraction = total_candidates / (probes * n)
        assert recall > 0.8
        assert recall > candidate_fraction * 2


@given(seed=st.integers(0, 200), n_items=st.integers(1, 40))
@settings(max_examples=20, deadline=None)
def test_index_build_indexes_every_item(seed, n_items):
    rng = np.random.default_rng(seed)
    config = LSHConfig(hash_family="simhash", k=3, l=5, bucket_size=64)
    index = LSHIndex(input_dim=16, config=config, seed=seed)
    weights = rng.normal(size=(n_items, 16))
    index.build(weights)
    assert index.num_items == n_items
    # Every item must be present in every table (buckets are large enough).
    assert_each_item_once_per_table(index, dict(enumerate(weights)))
