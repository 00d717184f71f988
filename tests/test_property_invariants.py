"""Cross-cutting property-based tests (hypothesis) for core invariants.

These complement the per-module property tests with invariants that span
module boundaries: LSH index consistency under arbitrary build/update/clear
sequences, fingerprint injectivity and rebuild-schedule monotonicity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LSHConfig
from repro.lsh.index import LSHIndex
from repro.lsh.scheduler import ExponentialDecaySchedule


@given(
    seed=st.integers(0, 100),
    operations=st.lists(
        st.one_of(
            st.integers(1, 16),  # build over that many rows
            st.just("clear"),
            st.lists(st.integers(0, 15), min_size=1, max_size=8),  # update rows
        ),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=40, deadline=None)
def test_lsh_index_consistent_under_arbitrary_operation_sequences(seed, operations):
    """After any sequence of build / update / clear operations the index holds
    rows ``0..n-1`` of the last build (none after a clear), every table holds
    exactly those rows, each in the bucket of its latest vector (buckets large
    enough to never evict), and an update of a row past ``n`` raises."""
    rng = np.random.default_rng(seed)
    config = LSHConfig(hash_family="simhash", k=2, l=3, bucket_size=64)
    index = LSHIndex(8, config, seed=seed)
    vectors = np.zeros((0, 8))
    for op in operations:
        if op == "clear":
            index.clear()
            vectors = vectors[:0]
        elif isinstance(op, int):
            vectors = rng.normal(size=(op, 8))
            index.build(vectors)
        else:
            ids = np.array(op)
            fresh = rng.normal(size=(ids.size, 8))
            if ids.max() >= vectors.shape[0]:
                with pytest.raises(ValueError, match="rows in"):
                    index.update(ids, fresh)
                continue
            index.update(ids, fresh)
            for item, vector in zip(op, fresh):  # the last occurrence wins
                vectors[item] = vector
    rows = vectors.shape[0]
    assert index.num_items == rows
    assert index.stats()["mean_items_per_table"] == rows
    if rows:
        flat = index.query_batch_flat(vectors)
        for item in range(rows):
            np.testing.assert_array_equal((flat.candidates[item] == item).sum(axis=1), 1)


@given(
    k=st.integers(1, 5),
    cardinality=st.integers(2, 6),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_fingerprint_injective_on_random_code_pairs(k, cardinality, data):
    config = LSHConfig(hash_family="wta", k=k, l=3, wta_bin_size=cardinality)
    index = LSHIndex(8, config, seed=0)
    assert index.hash_family.code_cardinality == cardinality
    codes_a = np.array(
        data.draw(st.lists(st.integers(0, cardinality - 1), min_size=k, max_size=k))
    )
    codes_b = np.array(
        data.draw(st.lists(st.integers(0, cardinality - 1), min_size=k, max_size=k))
    )
    # The same tuple in all three tables: one key per table.
    keys_a, keys_b = index._pack(np.stack([[codes_a] * 3, [codes_b] * 3]))
    assert np.unique(keys_a).size == 3
    if np.array_equal(codes_a, codes_b):
        np.testing.assert_array_equal(keys_a, keys_b)
    else:
        assert not np.isin(keys_a, keys_b).any()


@given(
    initial=st.integers(1, 100),
    decay=st.floats(0.0, 1.5),
    rebuilds=st.integers(1, 15),
)
@settings(max_examples=60, deadline=None)
def test_rebuild_schedule_iterations_strictly_increase(initial, decay, rebuilds):
    schedule = ExponentialDecaySchedule(initial_period=initial, decay=decay, max_period=10**6)
    planned = schedule.planned_iterations(rebuilds)
    assert all(b > a for a, b in zip(planned, planned[1:]))
    # Gaps never shrink (exponential decay of the *frequency*), up to the
    # +/-1 jitter introduced by rounding the cumulative sum to integers.
    gaps = np.diff([0] + planned)
    assert all(b >= a - 1 for a, b in zip(gaps, gaps[1:]))
