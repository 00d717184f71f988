"""Micro-batching queue, engine pool, and the checkpoint→serve end-to-end path."""

from __future__ import annotations

import threading
import time
import types

import numpy as np
import pytest

from repro.config import (
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    SamplingConfig,
    ServingConfig,
    SlideNetworkConfig,
    TrainingConfig,
)
from repro.core.inference import evaluate_precision_at_1
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.serving import (
    DenseInferenceEngine,
    EnginePool,
    MicroBatchQueue,
    RejectedError,
    ServingMetrics,
    ServingRuntime,
    SparseInferenceEngine,
)
from repro.serving import metrics as serving_metrics
from repro.state import save_checkpoint


# ----------------------------------------------------------------------
# MicroBatchQueue
# ----------------------------------------------------------------------
def test_queue_batches_up_to_max_size(tiny_dataset):
    queue = MicroBatchQueue(max_batch_size=4, max_wait_ms=50.0)
    futures = [queue.submit(tiny_dataset.test[i]) for i in range(10)]
    assert len(queue.next_batch()) == 4
    assert len(queue.next_batch()) == 4
    assert len(queue.next_batch()) == 2
    assert queue.next_batch(timeout=0.01) == []
    assert all(not f.done() for f in futures)


def test_queue_dispatches_partial_batch_after_deadline(tiny_dataset):
    queue = MicroBatchQueue(max_batch_size=64, max_wait_ms=10.0)
    queue.submit(tiny_dataset.test[0])
    queue.submit(tiny_dataset.test[1])
    started = time.monotonic()
    batch = queue.next_batch(timeout=1.0)
    waited = time.monotonic() - started
    assert len(batch) == 2
    # A request queued behind the first opens the max_wait window, but the
    # worker does not block unboundedly for a full batch.
    assert queue.max_wait_s <= waited < 1.0


def test_queue_dispatches_a_lone_request_at_once(tiny_dataset):
    """Nothing queued behind the first request: no hold, whatever the window."""
    queue = MicroBatchQueue(max_batch_size=64, max_wait_ms=500.0)
    queue.submit(tiny_dataset.test[0])
    started = time.monotonic()
    batch = queue.next_batch(timeout=1.0)
    assert len(batch) == 1
    assert time.monotonic() - started < 0.1


def test_queue_holds_the_batch_open_when_requests_are_queued(tiny_dataset):
    """Requests queued behind the first: the window stays open, and a third
    request arriving inside it joins the batch."""
    queue = MicroBatchQueue(max_batch_size=3, max_wait_ms=500.0)
    queue.submit(tiny_dataset.test[0])
    queue.submit(tiny_dataset.test[1])
    late = threading.Timer(0.02, queue.submit, args=(tiny_dataset.test[2],))
    late.start()
    try:
        batch = queue.next_batch(timeout=1.0)
    finally:
        late.join(timeout=5.0)
    assert not late.is_alive()
    assert len(batch) == 3


def test_queue_rejects_submissions_after_close(tiny_dataset):
    queue = MicroBatchQueue()
    queue.close()
    with pytest.raises(RuntimeError, match="closed"):
        queue.submit(tiny_dataset.test[0])


def test_queue_validates_parameters():
    with pytest.raises(ValueError):
        MicroBatchQueue(max_batch_size=0)
    with pytest.raises(ValueError):
        MicroBatchQueue(max_wait_ms=-1.0)
    with pytest.raises(ValueError):
        MicroBatchQueue(capacity=0)


def test_full_queue_sheds_at_once_with_typed_error(tiny_dataset):
    # Shedding is the only admission policy: a full queue never blocks the
    # submitter, even with no worker to drain it.
    queue = MicroBatchQueue(max_batch_size=4, capacity=1)
    queue.submit(tiny_dataset.test[0])
    with pytest.raises(RejectedError) as excinfo:
        queue.submit(tiny_dataset.test[1])
    assert excinfo.value.pending == 1
    assert queue.pending() == 1


@pytest.fixture
def clock(monkeypatch) -> list[float]:
    """A hand-driven monotonic clock for :mod:`repro.serving.metrics`."""
    now = [1_000.0]
    monkeypatch.setattr(
        serving_metrics, "time", types.SimpleNamespace(monotonic=lambda: now[0])
    )
    return now


def _answer(metrics: ServingMetrics, clock: list[float], count: int, gap: float):
    for _ in range(count):
        clock[0] += gap
        metrics.record_request(gap, "sparse")


def test_throughput_is_zero_until_the_first_answer(clock):
    metrics = ServingMetrics()
    assert metrics.requests_per_second() == 0.0
    metrics.start()
    clock[0] += 5.0
    assert metrics.requests_per_second() == 0.0
    assert metrics.snapshot()["throughput_rps"] == 0.0


def test_throughput_counts_from_start_while_the_window_fills(clock):
    metrics = ServingMetrics()
    metrics.start()
    _answer(metrics, clock, 10, 0.1)
    assert metrics.requests_per_second() == pytest.approx(10.0)
    clock[0] += 1.0
    assert metrics.requests_per_second() == pytest.approx(5.0)


def test_throughput_window_forgets_answers_before_the_latest(clock):
    metrics = ServingMetrics()
    metrics.start()
    window = serving_metrics._RATE_WINDOW
    _answer(metrics, clock, 300, 1.0)  # five slow minutes, then a burst
    _answer(metrics, clock, window, 0.001)
    assert metrics.requests_per_second() == pytest.approx(1_000.0)
    assert metrics.requests == 300 + window


def test_throughput_decays_while_the_server_idles(clock):
    metrics = ServingMetrics()
    metrics.start()
    window = serving_metrics._RATE_WINDOW
    _answer(metrics, clock, window, 0.001)
    clock[0] += 10.0
    expected = window / (10.0 + window * 0.001)
    assert metrics.requests_per_second() == pytest.approx(expected)


def test_retry_after_follows_the_recent_drain_rate(tiny_dataset, clock):
    """An idle hour before a burst does not stretch the Retry-After a shed
    client is handed: the drain rate is taken over the latest answers, not
    averaged over the time since the pool started."""
    metrics = ServingMetrics()
    metrics.start()
    clock[0] += 3_600.0
    _answer(metrics, clock, 2_000, 0.0005)
    assert metrics.requests_per_second() == pytest.approx(2_000.0, rel=0.10)
    assert metrics.snapshot()["throughput_rps"] == metrics.requests_per_second()

    queue = MicroBatchQueue(capacity=64, drain_rate=metrics.requests_per_second)
    for i in range(64):
        queue.submit(tiny_dataset.test[i % len(tiny_dataset.test)])
    with pytest.raises(RejectedError) as excinfo:
        queue.submit(tiny_dataset.test[0])
    assert excinfo.value.pending == 64
    # 64 queued at 2,000 answers/s drain in 0.032 s; the lifetime average
    # (0.56/s) would have said 5 s, the cap.
    assert excinfo.value.retry_after_s < 0.1


# ----------------------------------------------------------------------
# EnginePool lifecycle
# ----------------------------------------------------------------------
class BarrierEngine(DenseInferenceEngine):
    """Dense engine holding every batch until ``parties`` are in flight."""

    def __init__(self, network: SlideNetwork, parties: int) -> None:
        super().__init__(network)
        self.barrier = threading.Barrier(parties, timeout=10.0)

    def predict_batch(self, examples, k=1):
        self.barrier.wait()
        return super().predict_batch(examples, k=k)


class FailingEngine(DenseInferenceEngine):
    """Dense engine whose every batch raises."""

    def predict_batch(self, examples, k=1):
        raise ValueError("engine rejected the batch")


def _pool(engine, num_workers: int, max_batch_size: int = 8) -> EnginePool:
    queue = MicroBatchQueue(max_batch_size=max_batch_size, max_wait_ms=1.0)
    return EnginePool(engine, queue, ServingMetrics(), num_workers=num_workers)


def _wait_for_alive(pool: EnginePool, count: int) -> None:
    deadline = time.monotonic() + 5.0
    while pool.alive_workers() != count and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pool.alive_workers() == count


def test_engine_pool_runs_every_worker(tiny_dataset, tiny_network_config):
    # Four one-request batches clear a four-party barrier only if four
    # workers each hold one at the same time.
    engine = BarrierEngine(SlideNetwork(tiny_network_config), parties=4)
    pool = _pool(engine, num_workers=4, max_batch_size=1)
    pool.start()
    futures = [pool.queue.submit(tiny_dataset.test[i], k=1) for i in range(4)]
    for future in futures:
        assert future.result(timeout=30.0).class_ids.shape == (1,)
    pool.stop()
    assert pool.alive_workers() == 0


def test_engine_pool_alive_count_and_double_start(tiny_network_config):
    pool = _pool(DenseInferenceEngine(SlideNetwork(tiny_network_config)), 2)
    assert pool.alive_workers() == 0
    pool.start()
    assert pool.alive_workers() == 2
    with pytest.raises(RuntimeError, match="already started"):
        pool.start()
    assert pool.num_workers == 2
    pool.stop()
    assert pool.alive_workers() == 0


def test_engine_pool_stop_reraises_first_worker_error_once(
    tiny_dataset, tiny_network_config, monkeypatch
):
    pool = _pool(
        DenseInferenceEngine(SlideNetwork(tiny_network_config)), 3, max_batch_size=1
    )
    crashes = iter(range(1, 10))

    def crash(batch_size):
        raise RuntimeError(f"worker crash {next(crashes)}")

    monkeypatch.setattr(pool.metrics, "record_batch", crash)
    pool.start()
    # One request at a time: each kills the worker that takes it, so the
    # crash order is fixed.
    pool.queue.submit(tiny_dataset.test[0], k=1)
    _wait_for_alive(pool, 2)
    pool.queue.submit(tiny_dataset.test[1], k=1)
    _wait_for_alive(pool, 1)
    with pytest.raises(RuntimeError, match="worker crash 1"):
        pool.stop()
    # Raised once, then cleared: a second stop is silent.
    pool.stop()
    assert pool.alive_workers() == 0


def test_engine_pool_clean_stop_is_silent(tiny_network_config):
    pool = _pool(DenseInferenceEngine(SlideNetwork(tiny_network_config)), 2)
    pool.start()
    pool.stop()
    pool.stop()
    assert pool.alive_workers() == 0


def test_engine_pool_stop_cancels_requests_no_worker_serves(
    tiny_dataset, tiny_network_config
):
    # Never started: requests reach the queue but no worker ever serves.
    pool = _pool(DenseInferenceEngine(SlideNetwork(tiny_network_config)), 1)
    futures = [pool.queue.submit(tiny_dataset.test[i], k=1) for i in range(3)]
    # The drain wait times out with nobody serving; stop() must still
    # settle every queued future rather than leave callers blocked.
    pool.stop(drain=True, timeout=0.2)
    assert all(future.cancelled() for future in futures)


def test_engine_pool_stop_cancels_queue_left_by_crashed_workers(
    tiny_dataset, tiny_network_config, monkeypatch
):
    pool = _pool(
        DenseInferenceEngine(SlideNetwork(tiny_network_config)), 1, max_batch_size=1
    )

    def crash(batch_size):
        raise RuntimeError("only worker crashed")

    monkeypatch.setattr(pool.metrics, "record_batch", crash)
    pool.start()
    pool.queue.submit(tiny_dataset.test[0], k=1)
    _wait_for_alive(pool, 0)
    stranded = pool.queue.submit(tiny_dataset.test[1], k=1)
    with pytest.raises(RuntimeError, match="only worker crashed"):
        pool.stop(timeout=0.2)
    assert stranded.cancelled()


def test_engine_pool_engine_error_fails_requests_not_workers(
    tiny_dataset, tiny_network_config
):
    """An engine exception is the request's failure, not a worker crash:
    the futures carry it, the worker keeps serving and stop() is silent."""
    pool = _pool(FailingEngine(SlideNetwork(tiny_network_config)), 2)
    pool.start()
    futures = [pool.queue.submit(tiny_dataset.test[i], k=1) for i in range(4)]
    for future in futures:
        with pytest.raises(ValueError, match="engine rejected the batch"):
            future.result(timeout=30.0)
    assert pool.alive_workers() == 2
    assert pool.metrics.snapshot()["errors"] == 4.0
    pool.stop()


# ----------------------------------------------------------------------
# End-to-end: train → checkpoint → load → serve
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served_checkpoint(tmp_path_factory, tiny_dataset):
    """Train a small SLIDE network and checkpoint it."""
    lsh = LSHConfig(hash_family="simhash", k=3, l=16, bucket_size=64)
    layers = (
        LayerConfig(size=32, activation="relu", lsh=None),
        LayerConfig(
            size=tiny_dataset.config.label_dim,
            activation="softmax",
            lsh=lsh,
            sampling=SamplingConfig(strategy="vanilla", target_active=12, min_active=8),
        ),
    )
    network = SlideNetwork(
        SlideNetworkConfig(
            input_dim=tiny_dataset.config.feature_dim, layers=layers, seed=3
        )
    )
    trainer = SlideTrainer(
        network,
        TrainingConfig(
            batch_size=16,
            epochs=2,
            optimizer=OptimizerConfig(name="adam", learning_rate=1e-3),
            seed=11,
        ),
    )
    trainer.train(tiny_dataset.train, tiny_dataset.test)
    path = tmp_path_factory.mktemp("serving") / "ckpt"
    save_checkpoint(path, network, trainer.optimizer, metadata={"purpose": "e2e"})
    return path


def test_end_to_end_checkpoint_microbatch_multiworker(served_checkpoint, tiny_dataset):
    """The acceptance scenario: ≥500 requests, ≥2 workers, sparse ≈ dense."""
    network = SlideNetwork.from_checkpoint(served_checkpoint)
    dense_precision = evaluate_precision_at_1(network, tiny_dataset.test)

    config = ServingConfig(
        engine="sparse",
        active_budget=32,
        top_k=1,
        max_batch_size=16,
        max_wait_ms=2.0,
        num_workers=2,
    )
    num_requests = 520
    examples = [
        tiny_dataset.test[i % len(tiny_dataset.test)] for i in range(num_requests)
    ]
    with ServingRuntime.from_network(network, config) as runtime:
        assert isinstance(runtime.engine, SparseInferenceEngine)
        assert runtime.pool.alive_workers() == 2
        predictions = runtime.predict_many(examples, timeout=120.0)
        stats = runtime.stats()

    assert len(predictions) == num_requests

    # (a) sparse precision@1 within 2 points of the dense forward pass.
    hits = judged = 0
    for example, prediction in zip(examples, predictions):
        if example.labels.size == 0:
            continue
        judged += 1
        hits += int(np.isin(prediction.class_ids[:1], example.labels).any())
    sparse_precision = hits / judged
    assert dense_precision - sparse_precision <= 0.02, (
        f"sparse {sparse_precision:.4f} vs dense {dense_precision:.4f}"
    )

    # (b) latency and throughput metrics are populated.
    assert stats["requests"] == float(num_requests)
    latency = stats["latency_ms"]
    assert latency["p50"] > 0.0
    assert latency["p95"] >= latency["p50"]
    assert stats["latency"]["p99_s"] >= stats["latency"]["p95_s"]
    assert stats["throughput_rps"] > 0.0
    assert stats["batches"] >= num_requests / config.max_batch_size
    assert stats["mean_batch_size"] > 1.0  # micro-batching actually batched
    assert stats["modes"].get("sparse", 0) > 0


def test_runtime_stats_key_set_is_pinned(served_checkpoint, tiny_dataset):
    """Every /v1/stats field a client may read, nested ones included."""
    network = SlideNetwork.from_checkpoint(served_checkpoint)
    config = ServingConfig(engine="sparse", num_workers=1)
    with ServingRuntime.from_network(network, config) as runtime:
        runtime.predict_many(tiny_dataset.test[:8], timeout=60.0)
        stats = runtime.stats()
    assert set(stats) == {
        "active_budget", "alive_workers", "batches", "engine", "errors",
        "fallback_rate", "generation", "latency", "latency_ms",
        "mean_batch_size", "modes", "num_workers", "queue_pending",
        "reload_evictions", "reload_failures", "reload_failures_by_cause",
        "reloads", "requests", "shed_total", "sheds", "throughput_rps",
    }
    assert set(stats["latency"]) == {
        "count", "max_s", "mean_s", "min_s", "p50_s", "p95_s", "p99_s", "p999_s"
    }
    assert set(stats["latency_ms"]) == {"mean", "p50", "p95", "p99", "p999"}
    assert stats["latency"]["count"] == stats["requests"] == 8.0


def test_runtime_serves_concurrent_submitters(served_checkpoint, tiny_dataset):
    """Many client threads sharing one runtime all get answers."""
    network = SlideNetwork.from_checkpoint(served_checkpoint)
    config = ServingConfig(num_workers=3, max_batch_size=8, max_wait_ms=1.0, top_k=2)
    results: list[int] = []
    lock = threading.Lock()

    with ServingRuntime.from_network(network, config) as runtime:

        def client(offset: int) -> None:
            for i in range(25):
                example = tiny_dataset.test[(offset + i) % len(tiny_dataset.test)]
                prediction = runtime.predict(example, timeout=30.0)
                with lock:
                    results.append(prediction.class_ids.shape[0])

        threads = [threading.Thread(target=client, args=(i * 7,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    assert len(results) == 100
    assert all(size == 2 for size in results)


def test_runtime_mixed_k_requests(served_checkpoint, tiny_dataset):
    network = SlideNetwork.from_checkpoint(served_checkpoint)
    config = ServingConfig(num_workers=2, max_batch_size=8, max_wait_ms=5.0)
    with ServingRuntime.from_network(network, config) as runtime:
        futures = [
            runtime.submit(tiny_dataset.test[i % len(tiny_dataset.test)], k=(i % 3) + 1)
            for i in range(30)
        ]
        for i, future in enumerate(futures):
            prediction = future.result(timeout=30.0)
            assert prediction.class_ids.shape == ((i % 3) + 1,)


def test_runtime_rejects_non_positive_k(served_checkpoint, tiny_dataset):
    network = SlideNetwork.from_checkpoint(served_checkpoint)
    with ServingRuntime.from_network(network, ServingConfig(num_workers=1)) as runtime:
        # An explicit k=0 must fail fast, not silently become top_k.
        with pytest.raises(ValueError, match="k must be positive"):
            runtime.submit(tiny_dataset.test[0], k=0)
        with pytest.raises(ValueError, match="k must be positive"):
            runtime.submit(tiny_dataset.test[0], k=-1)


def test_runtime_stop_drains_queue(served_checkpoint, tiny_dataset):
    network = SlideNetwork.from_checkpoint(served_checkpoint)
    config = ServingConfig(num_workers=2, max_batch_size=4, max_wait_ms=1.0, top_k=1)
    runtime = ServingRuntime.from_network(network, config).start()
    futures = [runtime.submit(tiny_dataset.test[i % 16]) for i in range(64)]
    runtime.stop(drain=True)
    assert all(future.done() for future in futures)
    assert runtime.metrics.requests == 64


def test_predict_many_keeps_its_own_batch_within_queue_capacity(
    served_checkpoint, tiny_dataset
):
    """A batch 25x the queue capacity is answered in full, in input order,
    without shedding a single one of its own requests."""
    network = SlideNetwork.from_checkpoint(served_checkpoint)
    config = ServingConfig(
        engine="dense", num_workers=2, queue_capacity=8, max_batch_size=4, top_k=3
    )
    examples = [
        tiny_dataset.test[i % len(tiny_dataset.test)] for i in range(200)
    ]
    with ServingRuntime.from_network(network, config) as runtime:
        predictions = runtime.predict_many(examples, timeout=60.0)
        expected = runtime.engine.predict_batch(examples, k=3)
        assert runtime.metrics.shed_total == 0
    assert len(predictions) == 200
    for got, want in zip(predictions, expected):
        assert np.array_equal(got.class_ids, want.class_ids)


def test_runtime_submit_before_start_fails_fast(served_checkpoint, tiny_dataset):
    network = SlideNetwork.from_checkpoint(served_checkpoint)
    runtime = ServingRuntime.from_network(network, ServingConfig(num_workers=1))
    with pytest.raises(RuntimeError, match="not started"):
        runtime.submit(tiny_dataset.test[0])


def test_runtime_answers_a_lone_request_without_the_batching_hold(
    served_checkpoint, tiny_dataset
):
    network = SlideNetwork.from_checkpoint(served_checkpoint)
    config = ServingConfig(num_workers=1, max_batch_size=64, max_wait_ms=500.0)
    with ServingRuntime.from_network(network, config) as runtime:
        runtime.predict(tiny_dataset.test[0])  # warm-up: lazy set-up off the clock
        started = time.monotonic()
        runtime.predict(tiny_dataset.test[1])
        assert time.monotonic() - started < 0.1


def test_runtime_stop_without_drain_cancels_pending(served_checkpoint, tiny_dataset):
    network = SlideNetwork.from_checkpoint(served_checkpoint)
    # One worker with a long batching window: requests pile up in the queue.
    config = ServingConfig(num_workers=1, max_batch_size=64, max_wait_ms=500.0)
    runtime = ServingRuntime.from_network(network, config).start()
    futures = [runtime.submit(tiny_dataset.test[i % 16]) for i in range(32)]
    runtime.stop(drain=False)
    # Every future is settled — served, or cancelled — never left hanging.
    assert all(future.done() or future.cancelled() for future in futures)


def test_runtime_cannot_restart_after_stop(served_checkpoint):
    network = SlideNetwork.from_checkpoint(served_checkpoint)
    runtime = ServingRuntime.from_network(network, ServingConfig(num_workers=1))
    runtime.start()
    runtime.stop()
    with pytest.raises(RuntimeError, match="cannot be restarted"):
        runtime.start()


def test_runtime_stop_transitions_even_when_pool_stop_raises(
    served_checkpoint, tiny_dataset, monkeypatch
):
    """Regression: EnginePool.stop re-raises crashed-worker exceptions, so
    pool.stop() can raise — the runtime must still reach the stopped state
    instead of keeping submit() open with no workers behind it."""
    network = SlideNetwork.from_checkpoint(served_checkpoint)
    runtime = ServingRuntime.from_network(network, ServingConfig(num_workers=1))
    runtime.start()

    real_stop = runtime.pool.stop

    def crashing_stop(drain=True):
        real_stop(drain=drain)
        raise RuntimeError("worker loop crashed")

    monkeypatch.setattr(runtime.pool, "stop", crashing_stop)
    with pytest.raises(RuntimeError, match="worker loop crashed"):
        runtime.stop()
    # The crash surfaced AND the runtime transitioned: no new submissions.
    with pytest.raises(RuntimeError, match="not started"):
        runtime.submit(tiny_dataset.test[0])
    with pytest.raises(RuntimeError, match="cannot be restarted"):
        runtime.start()


def test_runtime_rejects_wrong_dimension_example(served_checkpoint):
    import numpy as np

    from repro.types import SparseExample, SparseVector

    network = SlideNetwork.from_checkpoint(served_checkpoint)
    wrong = SparseExample(
        features=SparseVector(
            indices=np.array([0]), values=np.array([1.0]), dimension=3
        ),
        labels=np.zeros(0, dtype=np.int64),
    )
    with ServingRuntime.from_network(network, ServingConfig(num_workers=1)) as runtime:
        with pytest.raises(ValueError, match="input_dim"):
            runtime.submit(wrong)


def test_runtime_dense_engine_fallback_for_non_lsh_network(tiny_dataset):
    network = SlideNetwork(
        SlideNetworkConfig(
            input_dim=tiny_dataset.config.feature_dim,
            layers=(
                LayerConfig(size=16, activation="relu"),
                LayerConfig(size=tiny_dataset.config.label_dim, activation="softmax"),
            ),
            seed=0,
        )
    )
    config = ServingConfig(engine="sparse", num_workers=1)
    with ServingRuntime.from_network(network, config) as runtime:
        assert runtime.engine.name == "dense"
        prediction = runtime.predict(tiny_dataset.test[0], k=3)
    assert prediction.mode == "dense"
