"""The per-request latency record of the serving path.

Each answer the model server (:mod:`repro.serving`) resolves, and each
answer the load generator observes, is one real wall-clock observation.  A
:class:`LatencyHistogram` keeps the count, sum, minimum and maximum of all
of them exactly, plus a uniform sample of at most ``reservoir_size`` raw
values (Vitter's Algorithm R).  Every percentile it reports comes from that
sample: exact while the count fits the reservoir, an unbiased sample
estimate beyond it.  Memory is bounded by the reservoir, and a record is
one lock plus, past capacity, one draw from a ``default_rng(0)`` stream.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """Thread-safe latency record (seconds): exact moments, sampled quantiles.

    Parameters
    ----------
    reservoir_size:
        How many raw observations the uniform reservoir retains (positive).
    """

    def __init__(self, reservoir_size: int) -> None:
        if reservoir_size <= 0:
            raise ValueError("reservoir_size must be positive")
        self.reservoir_size = int(reservoir_size)
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0
        self._reservoir: list[float] = []
        self._res_rng = np.random.default_rng(0)

    def record(self, latency_seconds: float) -> None:
        """Record one latency observation (negative values are clamped to 0)."""
        value = max(float(latency_seconds), 0.0)
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            if len(self._reservoir) < self.reservoir_size:
                self._reservoir.append(value)
            else:
                # Algorithm R: observation i replaces a random slot with
                # probability reservoir_size / i, keeping the sample
                # uniform over everything seen so far.
                slot = int(self._res_rng.integers(self._count))
                if slot < self.reservoir_size:
                    self._reservoir[slot] = value

    @property
    def count(self) -> int:
        return self._count

    def percentile(self, p: float) -> float:
        """Latency at percentile ``p`` (in [0, 100]) of the reservoir; 0.0
        before the first observation."""
        if not 0 <= p <= 100:
            raise ValueError("p must lie in [0, 100]")
        with self._lock:
            samples = np.array(self._reservoir, dtype=np.float64)
        return float(np.percentile(samples, p)) if samples.size else 0.0

    def summary(self) -> dict[str, float]:
        """The quantiles and moments reported by the serving stats endpoint,
        all read from one locked copy of the record."""
        with self._lock:
            count, total, low, high = self._count, self._sum, self._min, self._max
            samples = np.array(self._reservoir, dtype=np.float64)
        quantiles = (
            np.percentile(samples, (50.0, 95.0, 99.0, 99.9))
            if samples.size
            else np.zeros(4)
        )
        p50, p95, p99, p999 = (float(q) for q in quantiles)
        return {
            "count": float(count),
            "mean_s": total / count if count else 0.0,
            "min_s": float(low) if count else 0.0,
            "max_s": float(high),
            "p50_s": p50,
            "p95_s": p95,
            "p99_s": p99,
            "p999_s": p999,
        }
