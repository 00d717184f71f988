"""Dynamic micro-batching: coalesce single requests into engine batches.

Batched inference amortises per-request overhead (one hidden-layer matrix
multiply serves the whole batch), but a serving queue cannot wait forever
for a batch to fill.  :class:`MicroBatchQueue` implements the standard
two-knob policy used by production model servers:

* dispatch as soon as a worker has gathered ``max_batch_size`` requests, or
* dispatch whatever it has gathered ``max_wait_ms`` milliseconds after it
  picked up the batch's first request — counted from the pick-up, not from
  when that request was queued.

The hold happens only when requests are already queued behind the first:
a worker that finds the queue empty after the pick-up dispatches the lone
request at once instead of waiting for company that is not there.  With a
backlog the queue is not empty at a pick-up, so batches under load form as
above; an idle server adds no batching delay to a request.

Workers call :meth:`MicroBatchQueue.next_batch` directly — each worker
assembles its own micro-batch, so there is no central dispatcher thread to
become a bottleneck.  The queue is bounded and admission has one policy: a
submission that finds it full is shed at once with a typed
:class:`~repro.serving.errors.RejectedError`, never left waiting for space.
"""

from __future__ import annotations

import queue
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

from repro.serving.errors import NotServingError, RejectedError
from repro.types import SparseExample
from repro.utils import sanitize

__all__ = ["InferenceRequest", "MicroBatchQueue"]

# Bounds on the Retry-After hint handed to shed clients: never so small the
# client hammers a saturated server, never so large a transient spike reads
# as an outage.
_MIN_RETRY_AFTER_S = 0.01
_MAX_RETRY_AFTER_S = 5.0


@dataclass
class InferenceRequest:
    """One queued prediction request awaiting a worker."""

    example: SparseExample
    k: int
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.monotonic)
    # Per-request time budget (seconds, measured from enqueue); None means
    # the request waits indefinitely.
    deadline_s: float | None = None

    def latency(self) -> float:
        """Seconds since the request entered the queue."""
        return time.monotonic() - self.enqueued_at

    def expired(self) -> bool:
        """True once the request has outlived its deadline in the queue."""
        return self.deadline_s is not None and self.latency() > self.deadline_s


class MicroBatchQueue:
    """Bounded request queue with size- and deadline-triggered batching.

    A submission that finds the queue full fails fast with a typed
    :class:`~repro.serving.errors.RejectedError` carrying a retry-after
    derived from queue depth and the measured drain rate.
    """

    def __init__(
        self,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        capacity: int = 1024,
        drain_rate: Callable[[], float] | None = None,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_ms) / 1000.0
        self._drain_rate = drain_rate
        self._queue: queue.Queue[InferenceRequest] = queue.Queue(maxsize=capacity)
        self._closed = False
        # Makes submit's closed-check-and-put atomic with close(): once
        # close() returns, no in-flight submit can still slip a request past
        # the workers' final drain (which would leave its future unresolved).
        self._submit_lock = sanitize.lock("serving.batching.submit")

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(
        self,
        example: SparseExample,
        k: int = 1,
        deadline_s: float | None = None,
    ) -> Future:
        """Enqueue a request, or shed it if the queue is full.

        The returned :class:`~concurrent.futures.Future` resolves to a
        :class:`~repro.serving.engine.Prediction` once a worker has served
        the batch containing this request.  A full queue raises
        :class:`~repro.serving.errors.RejectedError` instead of blocking.
        """
        request = InferenceRequest(example=example, k=int(k), deadline_s=deadline_s)
        with self._submit_lock:
            if self._closed:
                raise NotServingError("queue is closed")
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                raise self._rejection() from None
        return request.future

    def _rejection(self) -> RejectedError:
        """Build the typed 429 for a full queue.

        Retry-after is the time the current backlog needs to drain at the
        measured completion rate — proportional backoff, so clients ease off
        harder the deeper the overload.
        """
        pending = self._queue.qsize()
        rate = self._drain_rate() if self._drain_rate is not None else 0.0
        retry_after = pending / max(rate, 1.0)
        retry_after = min(max(retry_after, _MIN_RETRY_AFTER_S), _MAX_RETRY_AFTER_S)
        return RejectedError(retry_after_s=retry_after, pending=pending)

    def close(self) -> None:
        """Stop accepting new requests (queued ones still drain)."""
        with self._submit_lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def pending(self) -> int:
        """Approximate number of queued, not-yet-dispatched requests."""
        return self._queue.qsize()

    # ------------------------------------------------------------------
    # Consumer side (worker threads)
    # ------------------------------------------------------------------
    def next_batch(self, timeout: float | None = 0.1) -> list[InferenceRequest]:
        """Block for the next micro-batch.

        Waits up to ``timeout`` seconds for a first request (returning an
        empty list on timeout so callers can check for shutdown).  A first
        request with nothing queued behind it is dispatched alone at once;
        otherwise the worker keeps gathering until the batch is full or
        ``max_wait_ms`` has elapsed since the *first* request of the batch
        was picked up.
        """
        try:
            first = self._queue.get(timeout=timeout)
        except queue.Empty:
            return []
        batch = [first]
        if self._queue.empty():
            return batch
        deadline = time.monotonic() + self.max_wait_s
        while len(batch) < self.max_batch_size:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # Deadline passed: drain whatever is already queued, but do
                # not wait for more.
                try:
                    batch.append(self._queue.get_nowait())
                    continue
                except queue.Empty:
                    break
            try:
                batch.append(self._queue.get(timeout=remaining))
            except queue.Empty:
                break
        return batch
