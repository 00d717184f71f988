"""The online train-to-serve runtime: hot reload and admission control.

Covers the overload contract (typed 429 sheds with correct counters,
deadline drops *before* compute), hot-reload parity (post-swap engine ≡
cold-loaded checkpoint, bitwise top-k, incremental LSH patch — no full
rebuild), worker-crash surfacing, checkpoint retention
(prune / pin / auto-prune), the strict JSON config loader, and the full
reload-under-live-traffic integration scenario.
"""

from __future__ import annotations

import json
import threading
import time

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
    from_dict,
    load_config,
)
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.serving import (
    CheckpointWatcher,
    DeadlineExceededError,
    DenseInferenceEngine,
    EnginePool,
    OnlineRuntime,
    RejectedError,
    ServingMetrics,
    ServingRuntime,
    SparseInferenceEngine,
    run_open_loop,
)
from repro.serving.__main__ import main as serve_main
from repro.state import CheckpointStore


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _make_network(tiny_dataset, seed: int = 3) -> SlideNetwork:
    # bucket_size=64 > label_dim=48 guarantees no FIFO bucket ever
    # overflows, which is the precondition for bitwise hot-swap parity
    # (overflow eviction order is the one thing a swap does not preserve).
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
    return SlideNetwork(
        SlideNetworkConfig(
            input_dim=tiny_dataset.config.feature_dim, layers=layers, seed=seed
        )
    )


def _make_trainer(network: SlideNetwork) -> SlideTrainer:
    return SlideTrainer(
        network,
        TrainingConfig(
            batch_size=16,
            epochs=1,
            optimizer=OptimizerConfig(name="adam", learning_rate=1e-3),
            seed=11,
        ),
    )


class SlowDenseEngine(DenseInferenceEngine):
    """Dense engine with an artificial per-batch delay (overload tests)."""

    def __init__(self, network: SlideNetwork, delay_s: float) -> None:
        super().__init__(network)
        self.delay_s = delay_s
        self.batches_computed = 0

    def predict_batch(self, examples, k=1):
        time.sleep(self.delay_s)
        self.batches_computed += 1
        return super().predict_batch(examples, k=k)


# ----------------------------------------------------------------------
# Admission control: shed + deadline
# ----------------------------------------------------------------------
def test_full_queue_sheds_with_typed_429_and_counters(tiny_dataset):
    engine = SlowDenseEngine(_make_network(tiny_dataset), delay_s=0.05)
    config = ServingConfig(
        engine="dense",
        top_k=1,
        max_batch_size=1,
        max_wait_ms=0.0,
        num_workers=1,
        queue_capacity=1,
    )
    rejections = []
    with ServingRuntime(engine, config) as runtime:
        futures = []
        for i in range(30):
            try:
                futures.append(runtime.submit(tiny_dataset.test[i % 8]))
            except RejectedError as exc:
                rejections.append(exc)
        assert rejections, "a 1-deep queue under a 50ms/batch engine must shed"
        exc = rejections[0]
        assert exc.cause == "queue_full"
        assert exc.http_status == 429
        assert 0.0 < exc.retry_after_s <= 5.0
        assert exc.pending >= 1
        # Admitted requests still complete.
        for future in futures:
            future.result(timeout=30.0)
    assert runtime.metrics.sheds["queue_full"] == len(rejections)
    snapshot = runtime.stats()
    assert snapshot["sheds"]["queue_full"] == float(len(rejections))
    assert snapshot["shed_total"] == float(len(rejections))
    # Sheds are not errors.
    assert snapshot["errors"] == 0.0


def test_deadline_expired_requests_drop_before_compute(tiny_dataset):
    engine = SlowDenseEngine(_make_network(tiny_dataset), delay_s=0.05)
    config = ServingConfig(
        engine="dense",
        top_k=1,
        max_batch_size=1,
        max_wait_ms=0.0,
        num_workers=1,
        queue_capacity=64,
        deadline_ms=5.0,
    )
    with ServingRuntime(engine, config) as runtime:
        futures = [runtime.submit(tiny_dataset.test[i]) for i in range(4)]
        # First request reaches the worker within its budget; the rest sit
        # behind a 50ms batch and expire in queue.
        futures[0].result(timeout=10.0)
        for future in futures[1:]:
            with pytest.raises(DeadlineExceededError) as excinfo:
                future.result(timeout=10.0)
            assert excinfo.value.http_status == 504
            assert excinfo.value.waited_s > excinfo.value.deadline_s
    # Dropped before compute: only the one live batch hit the engine.
    assert engine.batches_computed == 1
    assert runtime.metrics.sheds["deadline"] == 3


# ----------------------------------------------------------------------
# Hot reload
# ----------------------------------------------------------------------
@pytest.fixture()
def trained_store(tmp_path, tiny_dataset):
    """A store with two versions: v1 after one epoch, v2 after two."""
    network = _make_network(tiny_dataset)
    trainer = _make_trainer(network)
    store = CheckpointStore(tmp_path / "store")
    trainer.train(tiny_dataset.train)
    store.save(network, trainer.optimizer)
    trainer.train(tiny_dataset.train)
    store.save(network, trainer.optimizer)
    return store


def test_hot_swap_is_incremental_and_bitwise_equal_to_cold_load(
    trained_store, tiny_dataset
):
    v1, v2 = trained_store.versions()
    resident = SlideNetwork.from_checkpoint(v1)
    engine = SparseInferenceEngine(resident, active_budget=32)
    incoming = SlideNetwork.from_checkpoint(v2)

    report = engine.hot_swap(incoming, version=v2.name)
    assert not report.full_rebuild
    assert report.changed_rows > 0
    assert report.update_items > 0
    assert report.evictions == 0  # the parity precondition, observed
    assert report.version == v2.name
    assert engine.generation == 2  # settled (even) after one swap

    cold = SparseInferenceEngine(
        SlideNetwork.from_checkpoint(v2), active_budget=32
    )
    examples = [tiny_dataset.test[i] for i in range(len(tiny_dataset.test))]
    swapped_preds = engine.predict_batch(examples, k=5)
    cold_preds = cold.predict_batch(examples, k=5)
    for swapped, fresh in zip(swapped_preds, cold_preds):
        assert np.array_equal(swapped.class_ids, fresh.class_ids)
        # Bitwise: identical weights + identical candidate sets must give
        # identical float scores, not merely close ones.
        assert np.array_equal(swapped.scores, fresh.scores)
        assert swapped.mode == fresh.mode


def _overflowing_pair(tiny_dataset) -> tuple[SlideNetwork, SlideNetwork]:
    """A resident network and a re-weighted incoming one whose output
    buckets are too small for the labels, so a swap between them evicts."""
    lsh = LSHConfig(hash_family="simhash", k=2, l=4, bucket_size=4)
    config = SlideNetworkConfig(
        input_dim=tiny_dataset.config.feature_dim,
        layers=(
            LayerConfig(size=32, activation="relu", lsh=None),
            LayerConfig(size=tiny_dataset.config.label_dim, activation="softmax", lsh=lsh),
        ),
        seed=3,
    )
    resident, incoming = SlideNetwork(config), SlideNetwork(config)
    output = incoming.output_layer
    output.weights[:] = np.random.default_rng(0).normal(size=output.weights.shape)
    return resident, incoming


def test_hot_swap_reports_the_evictions_of_overflowing_buckets(tiny_dataset):
    """Buckets too small for the labels overflow on the swap's re-hash, and
    the report carries the index's eviction delta."""
    resident, incoming = _overflowing_pair(tiny_dataset)
    engine = SparseInferenceEngine(resident)
    index = resident.output_layer.lsh_index
    before = index.num_evictions
    assert before > 0  # the build already overflowed
    report = engine.hot_swap(incoming)
    assert not report.full_rebuild
    assert report.evictions == index.num_evictions - before > 0


def test_hot_swap_rejects_shape_mismatch(trained_store, tiny_dataset):
    resident = SlideNetwork.from_checkpoint(trained_store.versions()[0])
    engine = SparseInferenceEngine(resident, active_budget=32)
    other = SlideNetwork(
        SlideNetworkConfig(
            input_dim=tiny_dataset.config.feature_dim,
            layers=(
                LayerConfig(size=16, activation="relu", lsh=None),
                LayerConfig(
                    size=tiny_dataset.config.label_dim,
                    activation="softmax",
                    lsh=None,
                ),
            ),
            seed=1,
        )
    )
    with pytest.raises(ValueError, match="shape mismatch"):
        engine.hot_swap(other)


def test_watcher_poll_once_swaps_and_records(trained_store):
    v1, v2 = trained_store.versions()
    engine = SparseInferenceEngine(
        SlideNetwork.from_checkpoint(v1), active_budget=32
    )
    metrics = ServingMetrics()
    watcher = CheckpointWatcher(
        trained_store, engine, metrics=metrics, current_version=v1.name
    )
    report = watcher.poll_once()
    assert report is not None and report.version == v2.name
    assert watcher.current_version == v2.name
    # Idempotent: already current → no swap.
    assert watcher.poll_once() is None
    assert metrics.reloads == 1
    assert metrics.incremental_reloads() == 1
    records = metrics.reload_records()
    assert records[-1]["version"] == v2.name
    assert records[-1]["full_rebuild"] is False
    assert records[-1]["evictions"] == report.evictions == 0
    assert metrics.snapshot()["reload_evictions"] == 0.0


def test_watcher_records_the_evictions_of_a_swap(tmp_path, tiny_dataset):
    """A swap over overflowing buckets: its eviction delta reaches the
    reload record and the stats snapshot, not only the SwapReport."""
    resident, incoming = _overflowing_pair(tiny_dataset)
    store = CheckpointStore(tmp_path / "store")
    v1 = store.save(resident)
    store.save(incoming)
    engine = SparseInferenceEngine(SlideNetwork.from_checkpoint(v1))
    metrics = ServingMetrics()
    watcher = CheckpointWatcher(store, engine, metrics=metrics, current_version=v1.name)
    report = watcher.poll_once()
    assert report is not None and report.evictions > 0
    assert metrics.reload_records()[-1]["evictions"] == report.evictions
    assert metrics.snapshot()["reload_evictions"] == float(report.evictions)


def test_watcher_quarantines_persistently_bad_version(trained_store, tiny_dataset):
    from repro.faults import tear_checkpoint

    v1, v2 = trained_store.versions()
    network = SlideNetwork.from_checkpoint(v1)
    engine = SparseInferenceEngine(network, active_budget=32)
    metrics = ServingMetrics()
    tear_checkpoint(v2)
    watcher = CheckpointWatcher(
        trained_store,
        engine,
        metrics=metrics,
        current_version=v1.name,
        max_load_attempts=2,
        retry_backoff_s=0.0,
    )
    # Two failed attempts (counted by cause), then the version is
    # quarantined: further polls stop retrying it entirely.
    assert watcher.poll_once() is None
    assert watcher.poll_once() is None
    assert watcher.poll_once() is None
    assert metrics.reload_failures == 2
    assert metrics.reload_failures_by_cause == {"corrupt": 2}
    assert v2.name in watcher.quarantined_versions
    assert watcher.current_version == v1.name
    assert metrics.snapshot()["reload_failures_by_cause"] == {"corrupt": 2.0}

    # A bad publish never wedges the watcher: the next good version still
    # swaps in even though the previous one is quarantined.
    v3 = trained_store.save(SlideNetwork.from_checkpoint(v1))
    report = watcher.poll_once()
    assert report is not None and report.version == v3.name
    assert watcher.current_version == v3.name
    assert metrics.reloads == 1


def test_watcher_survives_a_hand_edited_manifest(trained_store):
    """A malformed stored config is a recorded failed load ("corrupt"), not
    an exception that escapes poll_once and kills the poll thread."""
    v1, v2 = trained_store.versions()
    engine = SparseInferenceEngine(
        SlideNetwork.from_checkpoint(v1), active_budget=32
    )
    metrics = ServingMetrics()
    manifest = json.loads((v2 / "manifest.json").read_text())
    manifest["network_config"]["layers"][1]["lsh"]["k"] = "6"
    (v2 / "manifest.json").write_text(json.dumps(manifest))
    watcher = CheckpointWatcher(
        trained_store,
        engine,
        metrics=metrics,
        current_version=v1.name,
        max_load_attempts=1,
        retry_backoff_s=0.0,
    )
    assert watcher.poll_once() is None
    assert metrics.reload_failures_by_cause == {"corrupt": 1}
    assert v2.name in watcher.quarantined_versions
    assert watcher.current_version == v1.name


def test_started_watcher_survives_a_non_object_manifest(trained_store):
    """A published version whose manifest.json is a JSON array is a recorded
    "corrupt" reload failure; the poll thread lives on and swaps in the next
    good version."""
    v1, v2 = trained_store.versions()
    engine = SparseInferenceEngine(
        SlideNetwork.from_checkpoint(v1), active_budget=32
    )
    metrics = ServingMetrics()
    manifest = json.loads((v2 / "manifest.json").read_text())
    (v2 / "manifest.json").write_text(json.dumps([manifest]))
    watcher = CheckpointWatcher(
        trained_store,
        engine,
        metrics=metrics,
        poll_s=0.01,
        current_version=v1.name,
        max_load_attempts=1,
        retry_backoff_s=0.0,
    )
    watcher.start()
    try:
        deadline = time.monotonic() + 10.0
        while not metrics.reload_failures and time.monotonic() < deadline:
            time.sleep(0.01)
        assert metrics.reload_failures_by_cause == {"corrupt": 1}
        assert watcher._thread.is_alive()
        assert watcher.current_version == v1.name

        v3 = trained_store.save(SlideNetwork.from_checkpoint(v1))
        while watcher.current_version != v3.name and time.monotonic() < deadline:
            time.sleep(0.01)
        assert watcher.current_version == v3.name
        assert watcher._thread.is_alive()
    finally:
        watcher.stop()


def test_watcher_backoff_spaces_out_retries(trained_store):
    from repro.faults import tear_checkpoint

    v1, v2 = trained_store.versions()
    engine = SparseInferenceEngine(
        SlideNetwork.from_checkpoint(v1), active_budget=32
    )
    metrics = ServingMetrics()
    tear_checkpoint(v2)
    watcher = CheckpointWatcher(
        trained_store,
        engine,
        metrics=metrics,
        current_version=v1.name,
        max_load_attempts=3,
        retry_backoff_s=30.0,
    )
    assert watcher.poll_once() is None
    # The immediate re-poll lands inside the backoff window: the torn
    # payload is NOT re-read (and re-hashed) on every poll.
    assert watcher.poll_once() is None
    assert metrics.reload_failures == 1
    assert v2.name not in watcher.quarantined_versions


def test_watcher_counts_shape_mismatch_by_cause(trained_store, tiny_dataset):
    v1, _ = trained_store.versions()
    engine = SparseInferenceEngine(
        SlideNetwork.from_checkpoint(v1), active_budget=32
    )
    metrics = ServingMetrics()
    other = SlideNetwork(
        SlideNetworkConfig(
            input_dim=tiny_dataset.config.feature_dim,
            layers=(
                LayerConfig(size=16, activation="relu", lsh=None),
                LayerConfig(
                    size=tiny_dataset.config.label_dim,
                    activation="softmax",
                    lsh=None,
                ),
            ),
            seed=1,
        )
    )
    bad = trained_store.save(other)  # intact checkpoint, wrong architecture
    watcher = CheckpointWatcher(
        trained_store,
        engine,
        metrics=metrics,
        current_version=v1.name,
        max_load_attempts=1,
        retry_backoff_s=0.0,
    )
    assert watcher.poll_once() is None
    assert metrics.reload_failures_by_cause == {"shape_mismatch": 1}
    assert bad.name in watcher.quarantined_versions


# ----------------------------------------------------------------------
# Checkpoint retention
# ----------------------------------------------------------------------
def test_store_prune_keeps_newest_and_respects_pins(tmp_path, tiny_dataset):
    network = _make_network(tiny_dataset)
    store = CheckpointStore(tmp_path / "store")
    for _ in range(5):
        store.save(network)
    versions = store.versions()
    assert len(versions) == 5
    pinned = versions[0]
    with store.pin(pinned):
        removed = store.prune(keep_last=2)
        kept = {v.name for v in store.versions()}
        # Oldest is pinned → survives; the next two oldest go.
        assert pinned.name in kept
        assert len(removed) == 2
        assert {v.name for v in versions[-2:]} <= kept
    # Pin released → next prune collects it.
    removed = store.prune(keep_last=2)
    assert pinned in removed
    assert len(store.versions()) == 2


def test_store_save_auto_prunes(tmp_path, tiny_dataset):
    network = _make_network(tiny_dataset)
    store = CheckpointStore(tmp_path / "store")
    for _ in range(4):
        store.save(network, keep_last=2)
    names = [v.name for v in store.versions()]
    assert names == ["v0003", "v0004"]
    with pytest.raises(ValueError):
        store.prune(keep_last=0)
    with pytest.raises(ValueError):
        store.save(network, keep_last=0)


# ----------------------------------------------------------------------
# Worker crashes
# ----------------------------------------------------------------------
def test_online_runtime_surfaces_worker_crash(tmp_path, tiny_dataset, monkeypatch):
    """A worker loop that raises is visible at once (not ready: no alive
    workers) and stop() re-raises its exception instead of returning
    normally over a dead thread."""
    store = CheckpointStore(tmp_path / "store")
    store.save(_make_network(tiny_dataset))
    runtime = OnlineRuntime(store, ServingConfig(num_workers=1, reload_poll_s=60.0))
    runtime.start()

    def crash(batch_size):
        raise RuntimeError("metrics backend down")

    monkeypatch.setattr(runtime.metrics, "record_batch", crash)
    runtime.submit(tiny_dataset.test[0], k=1)
    deadline = time.monotonic() + 5.0
    while runtime.alive_workers() and time.monotonic() < deadline:
        time.sleep(0.01)
    readiness = runtime.readiness()
    with pytest.raises(RuntimeError, match="metrics backend down"):
        runtime.stop()
    assert readiness == (False, "no alive workers")


# ----------------------------------------------------------------------
# Strict config loading
# ----------------------------------------------------------------------
def test_serving_config_from_dict_names_bad_fields():
    with pytest.raises(ValueError, match="'workerz'"):
        from_dict(ServingConfig, {"workerz": 3})
    with pytest.raises(ValueError, match="'top_k'"):
        from_dict(ServingConfig, {"top_k": "five"})
    for workers in (0, -1):
        with pytest.raises(ValueError, match="num_workers"):
            from_dict(ServingConfig, {"num_workers": workers})
    config = from_dict(ServingConfig, {"deadline_ms": 25})
    assert config.deadline_ms == 25.0


def test_load_serving_config_file(tmp_path):
    path = tmp_path / "serving.json"
    path.write_text(json.dumps({"num_workers": 3, "deadline_ms": 40}))
    config = load_config(ServingConfig, path)
    assert config.num_workers == 3 and config.deadline_ms == 40.0
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_config(ServingConfig, path)
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_config(ServingConfig, path)


def test_cli_rejects_bad_config_naming_field(tmp_path, tiny_dataset, capsys):
    network = _make_network(tiny_dataset)
    store = CheckpointStore(tmp_path / "store")
    store.save(network)
    bad = tmp_path / "serving.json"
    bad.write_text(json.dumps({"workerz": 3}))
    code = serve_main([str(tmp_path / "store"), "--config", str(bad)])
    assert code == 2
    assert "workerz" in capsys.readouterr().err


def test_cli_watch_requires_store_root(tmp_path, tiny_dataset, capsys):
    from repro.state import save_checkpoint

    network = _make_network(tiny_dataset)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, network)
    code = serve_main([str(ckpt), "--watch"])
    assert code == 2
    assert "CheckpointStore root" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Integration: hot reload under live traffic
# ----------------------------------------------------------------------
def test_online_runtime_reload_under_live_traffic(tmp_path, tiny_dataset):
    """The acceptance scenario: ≥2 swaps under load, zero failed non-shed
    requests, every swap through the incremental LSH path."""
    network = _make_network(tiny_dataset)
    trainer = _make_trainer(network)
    store = CheckpointStore(tmp_path / "store")
    trainer.train(tiny_dataset.train)
    store.save(network, trainer.optimizer, keep_last=3)

    config = ServingConfig(
        engine="sparse",
        active_budget=32,
        top_k=1,
        num_workers=2,
        queue_capacity=512,
        reload_poll_s=60.0,  # polled synchronously below — no thread races
    )
    runtime = OnlineRuntime(store, config)
    assert type(runtime.pool) is EnginePool
    runtime.start()
    try:
        examples = [tiny_dataset.test[i] for i in range(len(tiny_dataset.test))]
        reports = []

        def client():
            reports.append(
                run_open_loop(runtime, examples, qps=120.0, duration_s=1.5, k=1)
            )

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        for _ in range(2):  # publish two new checkpoints mid-traffic
            time.sleep(0.35)
            trainer.train(tiny_dataset.train)
            store.save(network, trainer.optimizer, keep_last=3)
            swap = runtime.watcher.poll_once()
            assert swap is not None and not swap.full_rebuild
        thread.join(timeout=60.0)
        assert not thread.is_alive()
    finally:
        runtime.stop()

    report = reports[0]
    assert report.errors == 0, "hot reload must not fail live requests"
    assert report.completed == report.sent
    assert report.completed > 0
    # Both swaps recorded, both incremental.
    assert runtime.metrics.reloads == 2
    assert runtime.metrics.incremental_reloads() == 2
    # Traffic spanned at least two weight generations.
    assert len(report.generations) >= 2
    assert runtime.stats()["checkpoint_version"] == store.latest().name
