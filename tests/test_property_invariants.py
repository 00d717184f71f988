"""Cross-cutting property-based tests (hypothesis) for core invariants.

These complement the per-module property tests with invariants that span
module boundaries: LSH index consistency under arbitrary insert/remove
sequences, fingerprint injectivity and rebuild-schedule monotonicity.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LSHConfig
from repro.lsh.index import LSHIndex
from repro.lsh.scheduler import ExponentialDecaySchedule


@given(
    seed=st.integers(0, 100),
    operations=st.lists(
        st.tuples(st.sampled_from(["insert", "remove", "update"]), st.integers(0, 15)),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=40, deadline=None)
def test_lsh_index_consistent_under_arbitrary_operation_sequences(seed, operations):
    """After any sequence of insert/remove/update operations the index's item
    count matches the set of live ids, and every table holds exactly the live
    ids, each in its own bucket (buckets large enough to never evict)."""
    rng = np.random.default_rng(seed)
    config = LSHConfig(hash_family="simhash", k=2, l=3, bucket_size=64)
    index = LSHIndex(8, config, seed=seed)
    live: set[int] = set()
    vectors = rng.normal(size=(16, 8))
    for op, item in operations:
        if op == "insert":
            index.update(np.array([item]), vectors[item][None, :])
            live.add(item)
        elif op == "update":
            vectors[item] = rng.normal(size=8)
            index.update(np.array([item]), vectors[item][None, :])
            live.add(item)
        else:
            index.remove(item)
            live.discard(item)
    assert index.num_items == len(live)
    assert index.stats()["mean_items_per_table"] == len(live)
    if live:
        items = sorted(live)
        flat = index.query_batch_flat(vectors[items])
        for row, item in enumerate(items):
            np.testing.assert_array_equal((flat.candidates[row] == item).sum(axis=1), 1)


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
