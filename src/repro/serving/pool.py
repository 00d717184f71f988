"""The serving worker pool and the serving runtime facade.

:class:`EnginePool` is the one worker pool every runtime serves through:
``N`` threads that each loop — pull a micro-batch from the shared
:class:`~repro.serving.batching.MicroBatchQueue` (a lone request at once,
a batch held open up to ``max_wait_ms`` when others are queued behind
it), run it through the (shared, read-only) inference engine, resolve the
per-request futures, and record latency/throughput metrics.  NumPy
releases the GIL inside the matrix kernels that dominate inference, so
workers genuinely overlap.  The pool has a fixed size:
:meth:`EnginePool.start` spawns ``num_workers`` threads and
:meth:`EnginePool.stop` joins them.  A worker loop that raises does not die
silently: :meth:`EnginePool.stop` re-raises the first crash.

:class:`ServingRuntime` is the facade the HTTP front-end, the examples and
the tests use: it wires queue + pool + metrics together from a
:class:`~repro.config.ServingConfig` and exposes ``submit`` / ``predict`` /
``predict_many`` plus a ``stats()`` snapshot.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Sequence

from dataclasses import replace

from repro.config import ServingConfig
from repro.core.network import SlideNetwork
from repro.serving.batching import InferenceRequest, MicroBatchQueue
from repro.serving.engine import (
    DenseInferenceEngine,
    InferenceEngine,
    Prediction,
    SparseInferenceEngine,
)
from repro.serving.errors import (
    DeadlineExceededError,
    NotServingError,
    RejectedError,
)
from repro.serving.metrics import ServingMetrics
from repro.types import SparseExample
from repro.utils import sanitize

__all__ = ["EnginePool", "ServingRuntime", "build_engine"]

# How long an idle worker waits for a first request before it re-checks
# whether the pool is stopping.
_POLL_TIMEOUT_S = 0.05


def build_engine(network: SlideNetwork, config: ServingConfig) -> InferenceEngine:
    """Instantiate the engine described by ``config`` for ``network``.

    Asks for the sparse engine but the network has no LSH-enabled output
    layer?  Serve dense rather than fail — the knob is an optimisation.
    """
    if config.engine == "sparse" and network.output_layer.lsh_index is not None:
        return SparseInferenceEngine(network, active_budget=config.active_budget)
    return DenseInferenceEngine(network)


class EnginePool:
    """A fixed number of worker threads draining one queue into one engine.

    A worker loop that raises records the first exception and exits; the
    dead thread drops out of :meth:`alive_workers` (so readiness sees it at
    once) and :meth:`stop` re-raises the exception.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        request_queue: MicroBatchQueue,
        metrics: ServingMetrics,
        num_workers: int = 2,
    ) -> None:
        self.engine = engine
        self.queue = request_queue
        self.metrics = metrics
        self.num_workers = int(num_workers)
        self._threads: list[threading.Thread] = []
        self._error: BaseException | None = None
        self._error_lock = sanitize.lock("serving.pool.error")
        self._started = False
        self._stopping = False
        self._drain_on_stop = True

    def alive_workers(self) -> int:
        return sum(1 for thread in self._threads if thread.is_alive())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            # repro: allow[exc] lifecycle misuse, never reaches a client
            raise RuntimeError("pool already started")
        self._started = True
        self.metrics.start()
        for index in range(self.num_workers):
            thread = threading.Thread(
                target=self._serve_loop, name=f"serving-engine-{index}", daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def stop(self, drain: bool = True, timeout: float = 5.0) -> None:
        """Stop every worker, then re-raise the first worker crash.

        With ``drain=True`` (default) queued requests are served first;
        with ``drain=False`` workers stop after their in-flight batch.
        Anything still queued afterwards (``drain=False``, the drain timed
        out, or a worker crashed) has its future cancelled, so no caller is
        left blocking on an answer that will never come.  Only then is the
        first exception a worker loop died with raised, once: a second
        ``stop`` is silent.
        """
        self.queue.close()
        self._drain_on_stop = drain
        if drain:
            deadline = time.monotonic() + timeout
            while self.queue.pending() and time.monotonic() < deadline:
                sanitize.note_blocking("EnginePool.stop drain wait")
                time.sleep(_POLL_TIMEOUT_S / 2)
        self._stopping = True
        threads, self._threads = self._threads, []
        join_deadline = time.monotonic() + timeout
        for thread in threads:
            thread.join(timeout=max(join_deadline - time.monotonic(), 0.1))
        while True:
            batch = self.queue.next_batch(timeout=0.0)
            if not batch:
                break
            for request in batch:
                request.future.cancel()
        with self._error_lock:
            error, self._error = self._error, None
        if error is not None:
            raise error

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------
    def _serve_loop(self) -> None:
        try:
            while not self._stopping:
                batch = self.queue.next_batch(timeout=_POLL_TIMEOUT_S)
                if batch:
                    self._serve_batch(batch)
            # Final drain (draining stop only) so no accepted request is
            # left unresolved; stop() has already waited for the queue to
            # empty, so this serves at most a handful of stragglers.
            while self._drain_on_stop:
                batch = self.queue.next_batch(timeout=0.0)
                if not batch:
                    break
                self._serve_batch(batch)
        except BaseException as exc:  # noqa: BLE001 - re-raised from stop()
            with self._error_lock:
                if self._error is None:
                    self._error = exc

    def _serve_batch(self, batch: list[InferenceRequest]) -> None:
        # Deadline-expired requests are failed *before* compute: engine time
        # spent on an answer the client has abandoned only deepens the
        # overload.  They don't count as errors — the shed counter is theirs.
        live: list[InferenceRequest] = []
        for request in batch:
            if request.expired():
                self.metrics.record_shed(DeadlineExceededError.cause)
                if request.future.set_running_or_notify_cancel():
                    assert request.deadline_s is not None
                    request.future.set_exception(
                        DeadlineExceededError(
                            waited_s=request.latency(),
                            deadline_s=request.deadline_s,
                        )
                    )
            else:
                live.append(request)
        if not live:
            return
        self.metrics.record_batch(len(live))
        try:
            # One engine call serves the whole micro-batch; requests may ask
            # for different k, so score for the largest and trim per request
            # (predictions are sorted by descending score).  The guarded path
            # runs under the hot-swap read lock and stamps each answer with
            # the weight generation that produced it.
            max_k = max(request.k for request in live)
            predictions = self.engine.predict_batch_guarded(
                [request.example for request in live], k=max_k
            )
        except BaseException as exc:  # noqa: BLE001 - must reach the futures
            for request in live:
                self.metrics.record_error()
                if not request.future.set_running_or_notify_cancel():
                    continue
                request.future.set_exception(exc)
            return
        for request, prediction in zip(live, predictions):
            if request.k < prediction.class_ids.shape[0]:
                prediction = replace(
                    prediction,
                    class_ids=prediction.class_ids[: request.k],
                    scores=prediction.scores[: request.k],
                )
            if not request.future.set_running_or_notify_cancel():
                continue
            request.future.set_result(prediction)
            self.metrics.record_request(request.latency(), prediction.mode)


class ServingRuntime:
    """Queue + engine pool + metrics, assembled from a :class:`ServingConfig`."""

    def __init__(
        self,
        engine: InferenceEngine,
        config: ServingConfig | None = None,
    ) -> None:
        self.config = config or ServingConfig()
        self.engine = engine
        self.metrics = ServingMetrics()
        self.queue = MicroBatchQueue(
            max_batch_size=self.config.max_batch_size,
            max_wait_ms=self.config.max_wait_ms,
            capacity=self.config.queue_capacity,
            # Retry-after for shed requests = backlog / measured drain rate.
            drain_rate=self.metrics.requests_per_second,
        )
        self.pool = EnginePool(
            self.engine,
            self.queue,
            self.metrics,
            num_workers=self.config.num_workers,
        )
        self._started = False
        self._stopped = False

    @classmethod
    def from_network(
        cls, network: SlideNetwork, config: ServingConfig | None = None
    ) -> "ServingRuntime":
        config = config or ServingConfig()
        return cls(build_engine(network, config), config)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingRuntime":
        if self._stopped:
            # The queue is closed and the worker threads have exited; both
            # are single-use, so a stopped runtime cannot come back.
            # Lifecycle misuse by the embedding program, not a request-path
            # failure — a typed 5xx here would be misleading.
            # repro: allow[exc] lifecycle misuse, never reaches a client
            raise RuntimeError(
                "runtime cannot be restarted after stop(); build a new one"
            )
        self.pool.start()  # rejects a second start
        self._started = True
        return self

    def stop(self, drain: bool = True) -> None:
        if self._started:
            try:
                self.pool.stop(drain=drain)
            finally:
                # pool.stop() re-raises a crashed worker's exception; the
                # runtime must still transition to stopped, or submit()'s
                # fail-fast guard would keep accepting requests that no
                # worker will ever serve.
                self._started = False
                self._stopped = True

    def __enter__(self) -> "ServingRuntime":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Request API
    # ------------------------------------------------------------------
    def submit(self, example: SparseExample, k: int | None = None) -> Future:
        """Enqueue one request; resolves to a :class:`Prediction`."""
        if not self._started:
            # Without workers the future would never resolve; fail fast
            # instead of letting predict() block until its timeout.
            raise NotServingError("runtime is not started")
        # Validate k fully at submission time: inside a worker, an invalid k
        # would only surface from the engine's batch call and fail every
        # request co-batched with the bad one.  ("k or default" is also the
        # wrong tool here — it silently turns an explicit k=0 into top_k.)
        resolved = self.config.top_k if k is None else int(k)
        if resolved <= 0:
            raise ValueError("k must be positive")
        if resolved > self.engine.output_dim:
            raise ValueError(
                f"k={resolved} exceeds the number of output classes "
                f"({self.engine.output_dim})"
            )
        input_dim = self.engine.network.input_dim
        if example.features.dimension != input_dim:
            raise ValueError(
                f"example dimension {example.features.dimension} does not "
                f"match the model's input_dim {input_dim}"
            )
        deadline_s = (
            None if self.config.deadline_ms is None else self.config.deadline_ms / 1e3
        )
        try:
            return self.queue.submit(example, k=resolved, deadline_s=deadline_s)
        except RejectedError as exc:
            self.metrics.record_shed(exc.cause)
            raise

    def predict(
        self, example: SparseExample, k: int | None = None, timeout: float = 30.0
    ) -> Prediction:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(example, k=k).result(timeout=timeout)

    def predict_many(
        self,
        examples: Sequence[SparseExample],
        k: int | None = None,
        timeout: float = 60.0,
    ) -> list[Prediction]:
        """Submit many requests and wait for all answers (in input order).

        At most ``queue_capacity`` of this call's requests are outstanding
        at once: before submitting another it waits on the oldest, so a
        batch larger than the queue is not shed by its own backlog.
        """
        outstanding: deque[Future] = deque()
        answers: list[Prediction] = []
        for example in examples:
            if len(outstanding) == self.config.queue_capacity:
                answers.append(outstanding.popleft().result(timeout=timeout))
            outstanding.append(self.submit(example, k=k))
        answers.extend(future.result(timeout=timeout) for future in outstanding)
        return answers

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def input_dim(self) -> int:
        return self.engine.network.input_dim

    def alive_workers(self) -> int:
        """Worker threads currently alive (0 before start / after stop)."""
        if not self._started:
            return 0
        return self.pool.alive_workers()

    def readiness(self) -> tuple[bool, str]:
        """Can this runtime answer a predict right now?

        Liveness (the process responding) and readiness (able to serve)
        are different questions: a started runtime whose workers all died
        — or were resized away — is alive but must not receive traffic.
        Returns ``(ready, detail)`` so front-ends can surface the cause.
        """
        if self._stopped:
            return False, "stopped"
        if not self._started:
            return False, "not started"
        if self.pool.alive_workers() == 0:
            return False, "no alive workers"
        return True, "ok"

    def stats(self) -> dict[str, object]:
        snapshot = self.metrics.snapshot()
        snapshot["engine"] = self.engine.name
        snapshot["generation"] = float(self.engine.generation)
        snapshot["num_workers"] = float(self.pool.num_workers)
        snapshot["alive_workers"] = float(self.pool.alive_workers())
        snapshot["queue_pending"] = float(self.queue.pending())
        if isinstance(self.engine, SparseInferenceEngine):
            snapshot["fallback_rate"] = self.engine.fallback_rate()
            budget = self.engine.active_budget
            snapshot["active_budget"] = float(budget) if budget is not None else -1.0
        return snapshot
