"""Serving-side metrics: request latency quantiles, batch sizes, throughput.

One :class:`ServingMetrics` instance is shared by every worker of an
:class:`~repro.serving.pool.EnginePool`; all recording paths are
thread-safe.

Latency is measured queue-to-completion: the clock starts when a request
enters the micro-batch queue and stops when its future is resolved, so the
reported p50/p95/p99 include queueing and batching delay — what a client
actually experiences — not just engine compute.  Each served answer is
recorded once, into one :class:`~repro.perf.latency.LatencyHistogram`
(exact count and moments, percentiles from a bounded raw-sample
reservoir), and its completion time is stamped into a window of the last
``_RATE_WINDOW`` answers.  That window is the one throughput figure: the
stats endpoint's ``throughput_rps`` and the drain rate behind a shed
request's Retry-After both read it, so an idle spell before a burst does
not dilute the rate the burst is served at.

Beyond request, batch and error counts, two more families:

* **Shed counters** (``record_shed``): one counter per rejection cause
  (``queue_full``, ``deadline``), so overload behaviour is observable and
  the bench can report shed rate by cause.
* **Reload records** (``record_reload``): every hot swap logs its version,
  duration, and how many LSH entries actually moved — the evidence that the
  swap went through the incremental ``update(dirty)`` path rather than a
  full rebuild — and how many stored ids full buckets evicted, the one
  field that says whether bitwise parity with a cold load still holds (it
  does only at 0).  The snapshot carries the evictions summed over every
  swap.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any

from repro.perf.latency import LatencyHistogram

__all__ = ["ServingMetrics", "RouterMetrics"]

# Raw samples retained per histogram.  4096 keeps p999 exact for the bench's
# per-step request counts while bounding memory to a few tens of KiB.
_GLOBAL_RESERVOIR = 4096
# Completions the throughput rate is measured over: enough to average out
# batch-sized bursts, few enough that the rate follows the current load.
_RATE_WINDOW = 256
_MAX_RELOAD_RECORDS = 64
_MAX_TRANSITIONS = 512


class ServingMetrics:
    """Aggregated counters for one serving runtime."""

    def __init__(self) -> None:
        self.request_latency = LatencyHistogram(reservoir_size=_GLOBAL_RESERVOIR)
        self._lock = threading.Lock()
        # Monotonic completion stamps of the last _RATE_WINDOW answers,
        # preceded by the start stamp until that is pushed out.
        self._stamps: deque[float] = deque(maxlen=_RATE_WINDOW + 1)
        self._batches = 0
        self._batched_requests = 0
        self._errors = 0
        self._mode_counts: dict[str, int] = {}
        self._shed_counts: dict[str, int] = {}
        self._reloads = 0
        self._reload_failures = 0
        self._reload_failures_by_cause: dict[str, int] = {}
        self._reload_evictions = 0
        self._reload_records: deque[dict[str, Any]] = deque(
            maxlen=_MAX_RELOAD_RECORDS
        )

    # ------------------------------------------------------------------
    # Recording (worker threads)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Stamp the start of serving (the pool calls this as it starts)."""
        with self._lock:
            self._stamps.clear()
            self._stamps.append(time.monotonic())

    def record_batch(self, batch_size: int) -> None:
        with self._lock:
            self._batches += 1
            self._batched_requests += int(batch_size)

    def record_request(self, latency_seconds: float, mode: str) -> None:
        self.request_latency.record(latency_seconds)
        with self._lock:
            self._stamps.append(time.monotonic())
            self._mode_counts[mode] = self._mode_counts.get(mode, 0) + 1

    def record_error(self) -> None:
        with self._lock:
            self._errors += 1

    def record_shed(self, cause: str) -> None:
        """Count one rejected request by cause (``queue_full``, ``deadline``)."""
        with self._lock:
            self._shed_counts[cause] = self._shed_counts.get(cause, 0) + 1

    def record_reload(
        self,
        version: str,
        duration_s: float,
        moved_entries: int,
        changed_rows: int,
        full_rebuild: bool,
        evictions: int,
    ) -> None:
        """Log one completed hot swap (see :meth:`reload_records`)."""
        with self._lock:
            self._reloads += 1
            self._reload_evictions += int(evictions)
            self._reload_records.append(
                {
                    "version": version,
                    "duration_s": float(duration_s),
                    "moved_entries": int(moved_entries),
                    "changed_rows": int(changed_rows),
                    "full_rebuild": bool(full_rebuild),
                    "evictions": int(evictions),
                }
            )

    def record_reload_failure(self, cause: str = "unknown") -> None:
        """Count one failed checkpoint reload by cause (``corrupt``,
        ``shape_mismatch``, ``io``, ``unknown``)."""
        with self._lock:
            self._reload_failures += 1
            self._reload_failures_by_cause[cause] = (
                self._reload_failures_by_cause.get(cause, 0) + 1
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def requests(self) -> int:
        return self.request_latency.count

    @property
    def sheds(self) -> dict[str, int]:
        with self._lock:
            return dict(self._shed_counts)

    @property
    def shed_total(self) -> int:
        with self._lock:
            return sum(self._shed_counts.values())

    @property
    def reloads(self) -> int:
        with self._lock:
            return self._reloads

    @property
    def reload_failures(self) -> int:
        with self._lock:
            return self._reload_failures

    @property
    def reload_failures_by_cause(self) -> dict[str, int]:
        with self._lock:
            return dict(self._reload_failures_by_cause)

    def reload_records(self) -> list[dict[str, Any]]:
        """Recent hot-swap reports, oldest first (bounded history)."""
        with self._lock:
            return [dict(record) for record in self._reload_records]

    def incremental_reloads(self) -> int:
        """How many recorded swaps went through the incremental LSH path."""
        with self._lock:
            return sum(
                1 for record in self._reload_records if not record["full_rebuild"]
            )

    def requests_per_second(self) -> float:
        """Answers per second over the last ``_RATE_WINDOW`` answers, or
        since :meth:`start` while fewer have been served.

        Lock-free: the queue calls it under its own submit lock to size a
        shed request's Retry-After, so it reads the stamps once as a copy.
        """
        stamps = tuple(self._stamps)
        if len(stamps) < 2:
            return 0.0
        elapsed = time.monotonic() - stamps[0]
        return (len(stamps) - 1) / elapsed if elapsed > 0.0 else 0.0

    def mean_batch_size(self) -> float:
        with self._lock:
            if self._batches == 0:
                return 0.0
            return self._batched_requests / self._batches

    def snapshot(self) -> dict[str, float | dict[str, float]]:
        """A JSON-serialisable view for the stats endpoint and tests."""
        latency = self.request_latency.summary()
        with self._lock:
            modes = dict(self._mode_counts)
            sheds = dict(self._shed_counts)
            batches = self._batches
            errors = self._errors
            reloads = self._reloads
            reload_failures = self._reload_failures
            reload_evictions = self._reload_evictions
            failures_by_cause = dict(self._reload_failures_by_cause)
        return {
            "requests": float(self.requests),
            "errors": float(errors),
            "batches": float(batches),
            "mean_batch_size": self.mean_batch_size(),
            "throughput_rps": self.requests_per_second(),
            "latency": latency,
            "latency_ms": {
                "p50": latency["p50_s"] * 1e3,
                "p95": latency["p95_s"] * 1e3,
                "p99": latency["p99_s"] * 1e3,
                "p999": latency["p999_s"] * 1e3,
                "mean": latency["mean_s"] * 1e3,
            },
            "modes": {name: float(count) for name, count in modes.items()},
            "sheds": {name: float(count) for name, count in sheds.items()},
            "shed_total": float(sum(sheds.values())),
            "reloads": float(reloads),
            "reload_failures": float(reload_failures),
            "reload_evictions": float(reload_evictions),
            "reload_failures_by_cause": {
                name: float(count) for name, count in failures_by_cause.items()
            },
        }

class RouterMetrics:
    """Aggregated counters for one :class:`~repro.serving.router.ReplicaRouter`.

    Router-level latency is *end-to-end across retries* — what a client of
    the router observes, including backoff sleeps and failed attempts —
    which is deliberately a different number from any single replica's
    queue-to-completion histogram.

    Besides counters, the router records every state **transition** it
    observes (replica liveness/readiness flips, circuit-breaker moves,
    degradation level changes) with a monotonic timestamp.  The failover
    bench reads these to measure detection latency: the gap between a
    replica being killed and its first ``live: True → False`` record.
    """

    def __init__(self) -> None:
        self.request_latency = LatencyHistogram(reservoir_size=_GLOBAL_RESERVOIR)
        self._lock = threading.Lock()
        self._attempts: dict[str, int] = {}
        self._attempt_failures: dict[str, dict[str, int]] = {}
        self._retries = 0
        self._failovers = 0
        self._outcomes: dict[str, int] = {}
        self._transitions: deque[dict[str, Any]] = deque(maxlen=_MAX_TRANSITIONS)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_attempt(self, replica: str) -> None:
        with self._lock:
            self._attempts[replica] = self._attempts.get(replica, 0) + 1

    def record_attempt_failure(self, replica: str, cause: str) -> None:
        with self._lock:
            per_replica = self._attempt_failures.setdefault(replica, {})
            per_replica[cause] = per_replica.get(cause, 0) + 1

    def record_retry(self, failover: bool) -> None:
        """One extra attempt after a failure; ``failover`` = new replica."""
        with self._lock:
            self._retries += 1
            if failover:
                self._failovers += 1

    def record_outcome(self, outcome: str, latency_s: float | None = None) -> None:
        """Terminal result of one routed request (``ok``, an error cause...)."""
        with self._lock:
            self._outcomes[outcome] = self._outcomes.get(outcome, 0) + 1
        if latency_s is not None:
            self.request_latency.record(latency_s)

    def record_transition(
        self, kind: str, replica: str, old: Any, new: Any, at: float
    ) -> None:
        """Log one observed state flip (``live``/``ready``/``breaker``/
        ``degradation``) at monotonic time ``at``."""
        with self._lock:
            self._transitions.append(
                {
                    "kind": kind,
                    "replica": replica,
                    "old": old,
                    "new": new,
                    "at": float(at),
                }
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def transitions(
        self, kind: str | None = None, replica: str | None = None
    ) -> list[dict[str, Any]]:
        """Recorded transitions, oldest first, optionally filtered."""
        with self._lock:
            records = list(self._transitions)
        if kind is not None:
            records = [r for r in records if r["kind"] == kind]
        if replica is not None:
            records = [r for r in records if r["replica"] == replica]
        return records

    @property
    def outcomes(self) -> dict[str, int]:
        with self._lock:
            return dict(self._outcomes)

    @property
    def retries(self) -> int:
        with self._lock:
            return self._retries

    @property
    def failovers(self) -> int:
        with self._lock:
            return self._failovers

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serialisable view for the router stats endpoint."""
        latency = self.request_latency.summary()
        with self._lock:
            attempts = dict(self._attempts)
            failures = {
                replica: dict(causes)
                for replica, causes in self._attempt_failures.items()
            }
            outcomes = dict(self._outcomes)
            retries = self._retries
            failovers = self._failovers
        return {
            "requests": float(sum(outcomes.values())),
            "outcomes": {name: float(count) for name, count in outcomes.items()},
            "retries": float(retries),
            "failovers": float(failovers),
            "attempts": {name: float(count) for name, count in attempts.items()},
            "attempt_failures": {
                replica: {name: float(count) for name, count in causes.items()}
                for replica, causes in failures.items()
            },
            "latency_ms": {
                "p50": latency["p50_s"] * 1e3,
                "p99": latency["p99_s"] * 1e3,
                "mean": latency["mean_s"] * 1e3,
            },
        }
