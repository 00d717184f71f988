"""The serving latency record: exact moments, percentiles from a reservoir."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.perf.latency import LatencyHistogram


def test_empty_histogram():
    histogram = LatencyHistogram(reservoir_size=16)
    assert histogram.count == 0
    assert histogram.percentile(50) == 0.0
    summary = histogram.summary()
    assert set(summary) == {
        "count", "mean_s", "min_s", "max_s", "p50_s", "p95_s", "p99_s", "p999_s"
    }
    assert all(value == 0.0 for value in summary.values())


def test_exact_percentile_is_exact_while_samples_fit_reservoir():
    rng = np.random.default_rng(0)
    samples = rng.lognormal(mean=-6.0, sigma=1.0, size=1_000)
    histogram = LatencyHistogram(reservoir_size=1_000)
    for sample in samples:
        histogram.record(float(sample))
    for p in (0.0, 50.0, 95.0, 99.0, 99.9, 100.0):
        assert histogram.percentile(p) == float(np.percentile(samples, p))
    summary = histogram.summary()
    assert summary["count"] == 1_000.0
    assert summary["min_s"] == samples.min()
    assert summary["max_s"] == samples.max()
    assert summary["mean_s"] == pytest.approx(samples.mean(), rel=1e-12)
    assert summary["p999_s"] == float(np.percentile(samples, 99.9))


def test_reservoir_subsamples_uniformly_beyond_capacity():
    histogram = LatencyHistogram(reservoir_size=500)
    ramp = np.linspace(0.001, 1.0, 20_000)
    for value in ramp:
        histogram.record(float(value))
    summary = histogram.summary()
    # Count and extremes are exact over every observation, not the sample.
    assert summary["count"] == 20_000.0
    assert summary["min_s"] == 0.001 and summary["max_s"] == 1.0
    assert summary["mean_s"] == pytest.approx(ramp.mean(), rel=1e-9)
    # A uniform 500-sample of a uniform ramp: its quantiles track the
    # ramp's (the standard error of a sample quartile here is ~0.02).
    for p in (10.0, 25.0, 50.0, 75.0, 90.0):
        assert histogram.percentile(p) == pytest.approx(p / 100.0, abs=0.08)


def test_percentiles_are_monotone_and_bounded_by_observed_range():
    histogram = LatencyHistogram(reservoir_size=4)
    for value in (0.001, 0.002, 0.004, 0.008, 0.5, 0.003, 0.006):
        histogram.record(value)
    p50, p95, p99 = (histogram.percentile(p) for p in (50, 95, 99))
    assert 0.001 <= p50 <= p95 <= p99 <= 0.5


def test_negative_observations_are_clamped_to_zero():
    histogram = LatencyHistogram(reservoir_size=4)
    histogram.record(-1.0)
    histogram.record(0.5)
    assert histogram.summary()["min_s"] == 0.0
    assert histogram.percentile(0) == 0.0


def test_concurrent_recording_loses_nothing():
    histogram = LatencyHistogram(reservoir_size=64)
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
    summary = histogram.summary()
    assert summary["count"] == 4.0 * per_thread
    assert summary["mean_s"] == pytest.approx(0.005)


def test_validation():
    histogram = LatencyHistogram(reservoir_size=4)
    for p in (-0.1, 100.1):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            histogram.percentile(p)


def test_reservoir_validation():
    for size in (0, -1):
        with pytest.raises(ValueError, match="positive"):
            LatencyHistogram(reservoir_size=size)


def test_summary_of_a_fixed_sequence_is_pinned():
    """10,000 values through a serving-sized reservoir (4,096), bit for bit:
    the reservoir's ``default_rng(0)`` stream and draw order fix every
    number a stats endpoint or bench artifact reports for them."""
    values = np.random.default_rng(2024).lognormal(mean=-7.0, sigma=1.0, size=10_000)
    histogram = LatencyHistogram(reservoir_size=4096)
    for value in values:
        histogram.record(float(value))
    assert histogram.summary() == {
        "count": 10000.0,
        "mean_s": 0.0014991529585691625,
        "min_s": 1.7243258663626983e-05,
        "max_s": 0.05275735835370658,
        "p50_s": 0.0009091045805583397,
        "p95_s": 0.004492018753172681,
        "p99_s": 0.009504361608587203,
        "p999_s": 0.022870342358240987,
    }


def test_summary_is_one_consistent_copy_under_concurrent_records():
    histogram = LatencyHistogram(reservoir_size=256)
    stop = threading.Event()

    def record():
        value = 0.0
        while not stop.is_set():
            value = value % 0.05 + 0.001
            histogram.record(value)

    threads = [threading.Thread(target=record) for _ in range(2)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(200):
            summary = histogram.summary()
            if summary["count"] == 0.0:
                continue
            assert summary["min_s"] <= summary["p50_s"] <= summary["p95_s"]
            assert summary["p95_s"] <= summary["p99_s"] <= summary["p999_s"]
            assert summary["p999_s"] <= summary["max_s"]
            assert summary["min_s"] <= summary["mean_s"] <= summary["max_s"]
    finally:
        stop.set()
        for thread in threads:
            thread.join()
