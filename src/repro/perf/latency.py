"""Latency histogram and throughput accounting for the serving path.

Unlike the rest of :mod:`repro.perf` — which attributes *simulated*
wall-clock time to measured per-iteration work — this module records *real*
wall-clock observations: per-request latencies measured by the model server
(:mod:`repro.serving`).  The histogram is the classic log-spaced-bucket
design used by production serving systems (HdrHistogram, Prometheus): O(1)
thread-safe recording, bounded memory, and percentile queries with a relative
error bounded by the bucket growth factor.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["LatencyHistogram", "ThroughputMeter"]


class LatencyHistogram:
    """Thread-safe log-bucketed histogram of latency observations (seconds).

    Parameters
    ----------
    min_latency / max_latency:
        Range covered by the log-spaced buckets.  Observations outside the
        range are clamped into the first / last bucket (their exact value
        still contributes to ``sum``/``min``/``max``).
    growth:
        Ratio between consecutive bucket boundaries; the relative error of
        a percentile estimate is at most ``growth - 1``.
    reservoir_size:
        When positive, retain up to this many *raw* observations in a
        uniform reservoir (Vitter's Algorithm R) alongside the buckets.
        :meth:`exact_percentile` then computes percentiles from the raw
        samples — exact while the observation count fits the reservoir,
        an unbiased sample estimate beyond it, so a p99/p999 is not limited
        to bucket resolution.
    """

    def __init__(
        self,
        min_latency: float = 1e-6,
        max_latency: float = 60.0,
        growth: float = 1.15,
        reservoir_size: int = 0,
    ) -> None:
        if min_latency <= 0 or max_latency <= min_latency:
            raise ValueError("require 0 < min_latency < max_latency")
        if growth <= 1.0:
            raise ValueError("growth must be greater than 1")
        if reservoir_size < 0:
            raise ValueError("reservoir_size must be non-negative")
        self.min_latency = float(min_latency)
        self.max_latency = float(max_latency)
        self.growth = float(growth)
        self.reservoir_size = int(reservoir_size)
        num_buckets = (
            int(math.ceil(math.log(max_latency / min_latency) / math.log(growth))) + 1
        )
        # Bucket i covers [boundaries[i], boundaries[i+1]).
        self._boundaries = min_latency * self.growth ** np.arange(num_buckets + 1)
        self._counts = np.zeros(num_buckets, dtype=np.int64)
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0
        self._reservoir: list[float] = []
        self._res_rng = np.random.default_rng(0)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, latency_seconds: float) -> None:
        """Record one latency observation (negative values are clamped to 0)."""
        value = max(float(latency_seconds), 0.0)
        clamped = min(max(value, self.min_latency), self.max_latency)
        bucket = int(
            math.floor(math.log(clamped / self.min_latency) / math.log(self.growth))
        )
        bucket = min(max(bucket, 0), self._counts.shape[0] - 1)
        with self._lock:
            self._counts[bucket] += 1
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            if self.reservoir_size:
                if len(self._reservoir) < self.reservoir_size:
                    self._reservoir.append(value)
                else:
                    # Algorithm R: observation i replaces a random slot with
                    # probability reservoir_size / i, keeping the sample
                    # uniform over everything seen so far.
                    slot = int(self._res_rng.integers(self._count))
                    if slot < self.reservoir_size:
                        self._reservoir[slot] = value

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Latency at percentile ``p`` (in [0, 100]), interpolated in-bucket."""
        if not 0 <= p <= 100:
            raise ValueError("p must lie in [0, 100]")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = (p / 100.0) * self._count
            cumulative = np.cumsum(self._counts)
            bucket = int(np.searchsorted(cumulative, rank, side="left"))
            bucket = min(bucket, self._counts.shape[0] - 1)
            lower = self._boundaries[bucket]
            upper = self._boundaries[bucket + 1]
            in_bucket = self._counts[bucket]
            before = cumulative[bucket] - in_bucket
            fraction = (rank - before) / in_bucket if in_bucket else 0.0
            estimate = lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            # Never report outside the observed range.
            return float(min(max(estimate, self._min), self._max))

    def exact_percentile(self, p: float) -> float:
        """Percentile from the retained raw samples (requires a reservoir).

        Exact while the observation count fits ``reservoir_size``; beyond
        that it is the percentile of a uniform sample of the history.  Falls
        back to the bucketed estimate when no reservoir is configured.
        """
        if not 0 <= p <= 100:
            raise ValueError("p must lie in [0, 100]")
        with self._lock:
            samples = list(self._reservoir)
        if not samples:
            return self.percentile(p)
        return float(np.percentile(np.asarray(samples, dtype=np.float64), p))

    @property
    def retained_samples(self) -> int:
        """Number of raw observations currently held in the reservoir."""
        with self._lock:
            return len(self._reservoir)

    def summary(self) -> dict[str, float]:
        """The quantiles and moments reported by the serving stats endpoint."""
        exact = self.reservoir_size > 0 and self.retained_samples > 0
        quantile = self.exact_percentile if exact else self.percentile
        return {
            "count": float(self.count),
            "mean_s": self.mean,
            "min_s": 0.0 if self._count == 0 else float(self._min),
            "max_s": float(self._max),
            "p50_s": quantile(50.0),
            "p95_s": quantile(95.0),
            "p99_s": quantile(99.0),
            "p999_s": quantile(99.9),
        }


@dataclass
class ThroughputMeter:
    """Counts completed requests against a monotonic wall-clock window."""

    started_at: float | None = None
    completed: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def start(self) -> None:
        """(Re)start the measurement window."""
        with self._lock:
            self.started_at = time.monotonic()
            self.completed = 0

    def mark(self, n: int = 1) -> None:
        """Record ``n`` completed requests."""
        with self._lock:
            if self.started_at is None:
                self.started_at = time.monotonic()
            self.completed += int(n)

    def elapsed(self) -> float:
        with self._lock:
            if self.started_at is None:
                return 0.0
            return time.monotonic() - self.started_at

    def requests_per_second(self) -> float:
        elapsed = self.elapsed()
        if elapsed <= 0.0:
            return 0.0
        return self.completed / elapsed
