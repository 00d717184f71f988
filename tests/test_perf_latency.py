"""Latency histogram and throughput meter."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.perf.latency import LatencyHistogram, ThroughputMeter


def test_empty_histogram():
    histogram = LatencyHistogram()
    assert histogram.count == 0
    assert histogram.mean == 0.0
    assert histogram.percentile(50) == 0.0
    summary = histogram.summary()
    assert summary["count"] == 0.0
    assert summary["p99_s"] == 0.0


def test_percentiles_match_exact_quantiles_within_bucket_error():
    rng = np.random.default_rng(0)
    samples = rng.lognormal(mean=-6.0, sigma=1.0, size=20_000)  # ~ms scale
    histogram = LatencyHistogram(growth=1.1)
    for sample in samples:
        histogram.record(sample)
    for p in (50, 95, 99):
        exact = np.percentile(samples, p)
        estimate = histogram.percentile(p)
        assert estimate == pytest.approx(exact, rel=0.12), f"p{p}"


def test_percentiles_are_monotone_and_bounded_by_observed_range():
    histogram = LatencyHistogram()
    for value in (0.001, 0.002, 0.004, 0.008, 0.5):
        histogram.record(value)
    p50, p95, p99 = (histogram.percentile(p) for p in (50, 95, 99))
    assert 0.001 <= p50 <= p95 <= p99 <= 0.5


def test_out_of_range_observations_are_clamped():
    histogram = LatencyHistogram(min_latency=1e-3, max_latency=1.0)
    histogram.record(1e-9)
    histogram.record(100.0)
    assert histogram.count == 2
    assert histogram.summary()["max_s"] == 100.0  # exact extremes still tracked
    assert histogram.percentile(100) <= 100.0


def test_concurrent_recording_loses_nothing():
    histogram = LatencyHistogram()
    per_thread = 2_000

    def record():
        for _ in range(per_thread):
            histogram.record(0.005)

    threads = [threading.Thread(target=record) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert histogram.count == 4 * per_thread


def test_validation():
    with pytest.raises(ValueError):
        LatencyHistogram(min_latency=0.0)
    with pytest.raises(ValueError):
        LatencyHistogram(growth=1.0)
    with pytest.raises(ValueError):
        LatencyHistogram().percentile(101)


def test_throughput_meter():
    meter = ThroughputMeter()
    assert meter.requests_per_second() == 0.0
    meter.start()
    meter.mark(10)
    assert meter.completed == 10
    assert meter.elapsed() >= 0.0
    # Elapsed time is tiny but positive, so the rate is finite and positive.
    assert meter.requests_per_second() > 0.0


# ----------------------------------------------------------------------
# Raw-sample reservoir (exact percentiles)
# ----------------------------------------------------------------------
def test_exact_percentile_is_exact_while_samples_fit_reservoir():
    histogram = LatencyHistogram(reservoir_size=1000)
    values = np.linspace(0.001, 0.5, 500)
    for value in values:
        histogram.record(float(value))
    assert histogram.retained_samples == 500
    for p in (50.0, 99.0, 99.9):
        assert histogram.exact_percentile(p) == pytest.approx(
            float(np.percentile(values, p)), rel=1e-12
        )
    # The summary prefers exact percentiles when a reservoir is populated.
    summary = histogram.summary()
    assert summary["p999_s"] == pytest.approx(float(np.percentile(values, 99.9)))


def test_reservoir_subsamples_uniformly_beyond_capacity():
    histogram = LatencyHistogram(reservoir_size=200)
    for value in np.linspace(0.001, 1.0, 5000):
        histogram.record(float(value))
    assert histogram.retained_samples == 200
    # A uniform sample of a uniform ramp: the median estimate must land
    # near the true median (loose bound — it is a 200-sample estimate).
    assert histogram.exact_percentile(50.0) == pytest.approx(0.5, abs=0.1)


def test_exact_percentile_falls_back_to_buckets_without_reservoir():
    histogram = LatencyHistogram()  # reservoir_size=0
    for value in (0.01, 0.02, 0.03):
        histogram.record(value)
    assert histogram.retained_samples == 0
    assert histogram.exact_percentile(50.0) == histogram.percentile(50.0)


def test_reservoir_validation():
    with pytest.raises(ValueError):
        LatencyHistogram(reservoir_size=-1)
