"""repro.serving — turn a trained SLIDE network into a model server.

SLIDE's thesis is that LSH-driven sparsity beats brute-force computation;
this package carries that idea from the training loop to the serving path.
Models arrive as checkpoints from :mod:`repro.state` (a
:class:`~repro.state.CheckpointStore` numbers versions for the
trainer→server hand-off):

* :mod:`~repro.serving.engine` — the LSH-budgeted
  :class:`SparseInferenceEngine` (hash-table candidate selection + exact
  top-k rerank, dense fallback) and the exact batched
  :class:`DenseInferenceEngine`, both hot-swappable in place
  (:meth:`InferenceEngine.hot_swap`, incremental LSH patch);
* :mod:`~repro.serving.batching` — a dynamic micro-batching queue
  (``max_batch_size`` / ``max_wait_ms``) that holds a batch open only while
  requests are queued behind its first, and sheds when full;
* :mod:`~repro.serving.errors` — the typed overload errors
  (:class:`RejectedError` → 429, :class:`DeadlineExceededError` → 504);
* :mod:`~repro.serving.pool` — :class:`EnginePool`, the one fixed-size
  worker pool (a crashed worker is re-raised at ``stop``), and the
  :class:`ServingRuntime` facade; :mod:`~repro.serving.metrics` records
  each answer once, its latency into a :mod:`repro.perf.latency` reservoir
  (p50/p95/p99) and its completion into the window throughput is
  measured over;
* :mod:`~repro.serving.runtime` — the online train-to-serve loop:
  :class:`CheckpointWatcher` (zero-downtime hot reload), wired into a
  runtime by :class:`OnlineRuntime`;
* :mod:`~repro.serving.router` — resilient multi-replica serving:
  :class:`ReplicaRouter` fronts N :class:`OnlineRuntime` replicas with
  active health checks, power-of-two-choices routing, cross-replica
  retries, per-replica :class:`CircuitBreaker`\\ s, and a graceful
  degradation ladder (:class:`DegradationController`);
* :mod:`~repro.serving.loadgen` — open-loop sustained-QPS load generation
  for the serving benchmarks;
* :mod:`~repro.serving.server` — a stdlib HTTP/JSON front-end, with a CLI
  entry point (``python -m repro.serving`` / ``repro-serve``).

Quickstart::

    from repro.core import SlideNetwork
    from repro.serving import ServingRuntime
    from repro.state import save_checkpoint

    save_checkpoint("ckpt", network, optimizer)
    served = SlideNetwork.from_checkpoint("ckpt")
    with ServingRuntime.from_network(served) as runtime:
        prediction = runtime.predict(example, k=5)
"""

from repro.serving.batching import InferenceRequest, MicroBatchQueue
from repro.serving.engine import (
    DenseInferenceEngine,
    InferenceEngine,
    Prediction,
    SparseInferenceEngine,
    SwapReport,
)
from repro.serving.errors import (
    DeadlineExceededError,
    PayloadTooLargeError,
    RejectedError,
    ReplicaUnavailableError,
    RetriesExhaustedError,
    ServingError,
)
from repro.serving.loadgen import LoadReport, run_open_loop
from repro.serving.metrics import RouterMetrics, ServingMetrics
from repro.serving.pool import EnginePool, ServingRuntime, build_engine
from repro.serving.router import (
    CircuitBreaker,
    DegradationController,
    Replica,
    ReplicaHealth,
    ReplicaRouter,
)
from repro.serving.runtime import CheckpointWatcher, OnlineRuntime
from repro.serving.server import ModelServer, build_server

__all__ = [
    "InferenceRequest",
    "MicroBatchQueue",
    "DenseInferenceEngine",
    "InferenceEngine",
    "Prediction",
    "SparseInferenceEngine",
    "SwapReport",
    "ServingError",
    "RejectedError",
    "DeadlineExceededError",
    "PayloadTooLargeError",
    "ReplicaUnavailableError",
    "RetriesExhaustedError",
    "ServingMetrics",
    "RouterMetrics",
    "EnginePool",
    "ServingRuntime",
    "build_engine",
    "CircuitBreaker",
    "DegradationController",
    "Replica",
    "ReplicaHealth",
    "ReplicaRouter",
    "CheckpointWatcher",
    "OnlineRuntime",
    "LoadReport",
    "run_open_loop",
    "ModelServer",
    "build_server",
]
