"""Cross-cutting property-based tests (hypothesis) for core invariants.

These complement the per-module property tests with invariants that span
module boundaries: LSH index consistency under arbitrary insert/remove
sequences, fingerprint injectivity, workload-count algebra, rebuild-schedule
monotonicity, and simulator monotonicity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LSHConfig
from repro.lsh.index import LSHIndex
from repro.lsh.scheduler import ExponentialDecaySchedule
from repro.perf.cost_model import WorkloadCounts, slide_iteration_work
from repro.perf.devices import SLIDE_CPU_PROFILE, TF_GPU_PROFILE
from repro.perf.simulator import WallClockSimulator


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


@given(
    dense=st.floats(0, 1e9),
    sparse=st.floats(0, 1e9),
    hashes=st.floats(0, 1e7),
    lookups=st.floats(0, 1e5),
    factor=st.floats(0.1, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_workload_counts_algebra(dense, sparse, hashes, lookups, factor):
    a = WorkloadCounts(dense, sparse, hashes, lookups, 0.0)
    b = WorkloadCounts(1.0, 2.0, 3.0, 4.0, 5.0)
    total = a + b
    assert total.total_macs == pytest.approx(a.total_macs + b.total_macs)
    scaled = a.scaled(factor)
    assert scaled.dense_macs == pytest.approx(dense * factor)
    # Scaling and adding commute: (a + b) * f == a*f + b*f
    lhs = (a + b).scaled(factor)
    rhs = a.scaled(factor) + b.scaled(factor)
    assert lhs.total_macs == pytest.approx(rhs.total_macs)
    assert lhs.table_lookups == pytest.approx(rhs.table_lookups)


@given(
    batch=st.integers(1, 512),
    active=st.floats(1, 10_000),
    cores=st.integers(1, 44),
)
@settings(max_examples=60, deadline=None)
def test_device_times_positive_and_cpu_gpu_consistent(batch, active, cores):
    work = slide_iteration_work(batch, 75, 128, active, 8, 50, output_dim=670_091)
    cpu_time = SLIDE_CPU_PROFILE.iteration_seconds(work, cores=cores)
    gpu_time = TF_GPU_PROFILE.iteration_seconds(work)
    assert cpu_time > 0 and gpu_time > 0
    # More cores never hurt.
    assert SLIDE_CPU_PROFILE.iteration_seconds(work, cores=44) <= cpu_time + 1e-12


@given(
    accuracies=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_simulated_run_time_axis_is_monotone(accuracies):
    work = [WorkloadCounts(dense_macs=1e6)] * len(accuracies)
    run = WallClockSimulator(TF_GPU_PROFILE).simulate("x", work, accuracies)
    assert np.all(np.diff(run.cumulative_seconds) > 0)
    best = max(accuracies)
    reached = run.time_to_accuracy(best)
    assert reached is not None
    assert reached <= run.cumulative_seconds[-1] + 1e-12
