"""Multi-replica router: breakers, health, failover, retries, degradation."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.config import (
    LayerConfig,
    LSHConfig,
    RouterConfig,
    SamplingConfig,
    ServingConfig,
    SlideNetworkConfig,
)
from repro.core.network import SlideNetwork
from repro.faults import (
    InjectedFault,
    ServingFaultPlan,
    ServingFaultSpec,
)
from repro.serving import (
    OnlineRuntime,
    RejectedError,
    ReplicaRouter,
    ReplicaUnavailableError,
    RetriesExhaustedError,
    SparseInferenceEngine,
)
from repro.serving.router import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_HALF_OPEN_PROBES,
    BREAKER_OPEN,
    DEGRADATION_DOWN_PATIENCE,
    DEGRADATION_UP_PATIENCE,
    CircuitBreaker,
    DegradationController,
)
from repro.state import CheckpointStore
from repro.types import SparseExample, SparseVector


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _make_network(tiny_dataset, seed: int = 3) -> SlideNetwork:
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


def _example(tiny_dataset) -> SparseExample:
    return tiny_dataset.test[0]


@pytest.fixture
def store(tiny_dataset, tmp_path) -> CheckpointStore:
    store = CheckpointStore(tmp_path / "store")
    store.save(_make_network(tiny_dataset))
    return store


def _fast_router_config(**overrides) -> RouterConfig:
    defaults = dict(
        num_replicas=2,
        health_interval_s=0.05,
        probe_timeout_s=0.5,
        attempt_timeout_s=0.5,
        request_deadline_s=2.0,
    )
    defaults.update(overrides)
    return RouterConfig(**defaults)


def _router(store, **overrides) -> ReplicaRouter:
    return ReplicaRouter(
        store,
        serving_config=ServingConfig(num_workers=1, max_wait_ms=0.5),
        router_config=_fast_router_config(**overrides),
    )


# ----------------------------------------------------------------------
# Circuit breaker state machine (fake clock — no sleeping)
# ----------------------------------------------------------------------
class _Clock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _breaker(clock) -> CircuitBreaker:
    config = RouterConfig(breaker_failure_threshold=3, breaker_recovery_s=1.0)
    return CircuitBreaker(config, now=clock)


def test_breaker_opens_after_consecutive_failures():
    clock = _Clock()
    breaker = _breaker(clock)
    assert breaker.state == BREAKER_CLOSED
    breaker.record_failure()
    breaker.record_failure()
    # A success resets the streak.
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED
    breaker.record_failure()
    assert breaker.state == BREAKER_OPEN
    assert not breaker.allow()


def test_breaker_half_open_probes_close_or_reopen():
    clock = _Clock()
    breaker = _breaker(clock)
    for _ in range(3):
        breaker.record_failure()
    assert breaker.state == BREAKER_OPEN
    # Recovery elapses: half-open admits exactly the probe quota.
    clock.t = 1.5
    assert breaker.state == BREAKER_HALF_OPEN
    for _ in range(BREAKER_HALF_OPEN_PROBES):
        assert breaker.allow()
    assert not breaker.allow()
    for _ in range(BREAKER_HALF_OPEN_PROBES - 1):
        breaker.record_success()
    assert breaker.state == BREAKER_HALF_OPEN
    breaker.record_success()
    assert breaker.state == BREAKER_CLOSED

    # Same trip, but a failed probe goes straight back to open and the
    # recovery clock restarts.
    for _ in range(3):
        breaker.record_failure()
    clock.t = 3.0
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == BREAKER_OPEN
    clock.t = 3.5
    assert not breaker.allow()
    clock.t = 4.1
    assert breaker.allow()


def test_half_open_probes_without_verdict_get_fresh_slots():
    # A probe that is shed or dropped in a queue never reports back.  Once
    # every slot is out and the recovery time passes with no verdict, the
    # breaker issues new slots instead of staying half-open for good.
    clock = _Clock()
    breaker = _breaker(clock)
    for _ in range(3):
        breaker.record_failure()
    clock.t = 1.0
    for _ in range(BREAKER_HALF_OPEN_PROBES):
        assert breaker.allow()
    clock.t = 1.9
    assert not breaker.allow()
    clock.t = 2.0
    assert breaker.state == BREAKER_HALF_OPEN
    for _ in range(BREAKER_HALF_OPEN_PROBES):
        assert breaker.allow()
        breaker.record_success()
    assert breaker.state == BREAKER_CLOSED


def test_breaker_records_transitions():
    clock = _Clock()
    seen: list[tuple[str, str, float]] = []
    config = RouterConfig(breaker_failure_threshold=1, breaker_recovery_s=1.0)
    breaker = CircuitBreaker(
        config, now=clock, on_transition=lambda o, n, t: seen.append((o, n, t))
    )
    breaker.record_failure()
    clock.t = 2.0
    breaker.allow()
    breaker.record_success()
    breaker.record_success()
    assert [(o, n) for o, n, _ in seen] == [
        (BREAKER_CLOSED, BREAKER_OPEN),
        (BREAKER_OPEN, BREAKER_HALF_OPEN),
        (BREAKER_HALF_OPEN, BREAKER_CLOSED),
    ]


# ----------------------------------------------------------------------
# Routing, health, failover
# ----------------------------------------------------------------------
def test_predict_stamped_with_replica_and_degradation(store, tiny_dataset):
    with _router(store) as router:
        prediction = router.predict(_example(tiny_dataset), k=5)
        assert prediction.replica in ("r0", "r1")
        assert prediction.degradation == 0
        assert prediction.generation >= 0
        assert router.readiness() == (True, "ok")


def test_kill_one_replica_traffic_fails_over(store, tiny_dataset):
    with _router(store) as router:
        example = _example(tiny_dataset)
        router.predict(example, k=5)
        killed_at = time.monotonic()
        router.kill_replica("r0")
        # Every request after the kill must succeed on the survivor.
        for _ in range(25):
            prediction = router.predict(example, k=5)
            assert prediction.replica == "r1"
        # The health loop notices within ~2 check intervals.
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            flips = router.metrics.transitions(kind="live", replica="r0")
            if any(f["new"] is False for f in flips):
                break
            time.sleep(0.02)
        down = [f for f in router.metrics.transitions(kind="live", replica="r0")
                if f["new"] is False]
        assert down, "health checks never marked the killed replica down"
        assert down[0]["at"] - killed_at < 1.0
        assert router.readiness() == (True, "ok")
        assert router.stats()["replicas"]["r0"]["killed"] is True


def test_all_replicas_killed_raises_unavailable(store, tiny_dataset):
    with _router(store) as router:
        router.kill_replica("r0")
        router.kill_replica("r1")
        with pytest.raises(ReplicaUnavailableError):
            router.predict(_example(tiny_dataset), k=5)
        ready, detail = router.readiness()
        assert not ready
        assert "r0" in detail and "r1" in detail


def test_injected_crash_is_retried_on_other_replica(store, tiny_dataset):
    # r0 crashes every predict; retries must land the answer on r1.
    plan = ServingFaultPlan.of(
        ServingFaultSpec("predict_crash", "r0", at_request=0, count=10_000)
    )
    router = ReplicaRouter(
        store,
        serving_config=ServingConfig(num_workers=1, max_wait_ms=0.5),
        router_config=_fast_router_config(breaker_failure_threshold=3),
        fault_plan=plan,
    )
    with router:
        example = _example(tiny_dataset)
        for _ in range(12):
            prediction = router.predict(example, k=5)
            assert prediction.replica == "r1"
        # Enough consecutive crashes tripped r0's breaker open.
        assert router.replica("r0").breaker.state == BREAKER_OPEN
        snapshot = router.metrics.snapshot()
        assert snapshot["attempt_failures"]["r0"]["InjectedFault"] >= 3
        assert router.metrics.failovers >= 1


def test_retries_exhausted_when_every_attempt_fails(store, tiny_dataset):
    plan = ServingFaultPlan.of(
        ServingFaultSpec("predict_crash", "r0", at_request=0, count=10_000),
        ServingFaultSpec("predict_crash", "r1", at_request=0, count=10_000),
    )
    router = ReplicaRouter(
        store,
        serving_config=ServingConfig(num_workers=1, max_wait_ms=0.5),
        router_config=_fast_router_config(
            retry_max_attempts=2, breaker_failure_threshold=50
        ),
        fault_plan=plan,
    )
    with router:
        with pytest.raises(RetriesExhaustedError) as info:
            router.predict(_example(tiny_dataset), k=5)
        assert info.value.attempts == 2
        assert isinstance(info.value.last_error, InjectedFault)


def test_hang_fault_times_out_and_fails_over(store, tiny_dataset):
    # r0's worker sleeps 10s mid-request; the attempt timeout must cut the
    # wait short and the retry must land on r1 well inside the hang.
    plan = ServingFaultPlan.of(
        ServingFaultSpec("predict_hang", "r0", at_request=0, count=10_000,
                         duration_s=10.0)
    )
    router = ReplicaRouter(
        store,
        serving_config=ServingConfig(num_workers=1, max_wait_ms=0.5),
        router_config=_fast_router_config(attempt_timeout_s=0.2),
        fault_plan=plan,
    )
    with router:
        start = time.monotonic()
        prediction = router.predict(_example(tiny_dataset), k=5)
        elapsed = time.monotonic() - start
        assert prediction.replica == "r1"
        assert elapsed < 2.0
        # The hang must have been *detected*, by whichever mechanism fired
        # first: the startup health probe timing out (r0 never becomes
        # live, so no client attempt is wasted on it) or a client attempt
        # hitting its per-attempt timeout.
        failures = router.metrics.snapshot()["attempt_failures"].get("r0", {})
        health = router.replica("r0").health
        assert failures.get("timeout", 0) >= 1 or (
            not health.live and "timed out" in health.detail
        )
    # Teardown note: r0's worker thread is daemon and still sleeping; the
    # non-draining stop in ReplicaRouter.stop() must not wait for it.


def test_checkpoint_load_fault_counts_injected_and_keeps_serving(
    store, tiny_dataset
):
    plan = ServingFaultPlan.of(
        ServingFaultSpec("checkpoint_load_fail", "r0", at_request=0, count=1)
    )
    router = ReplicaRouter(
        store,
        serving_config=ServingConfig(num_workers=1, max_wait_ms=0.5),
        router_config=_fast_router_config(num_replicas=1),
        fault_plan=plan,
    )
    with router:
        runtime = router.replica("r0").runtime
        booted = runtime.watcher.current_version
        # Publish a perfectly good new version; the injector fails the
        # first load attempt, the watcher must count it and keep serving.
        store.save(_make_network(tiny_dataset, seed=9))
        assert runtime.watcher.poll_once() is None
        assert runtime.metrics.reload_failures_by_cause.get("injected") == 1
        assert runtime.watcher.current_version == booted
        router.predict(_example(tiny_dataset), k=5)
        # The fault window is spent; the retry (backoff skipped) succeeds.
        runtime.watcher._retry_at.clear()
        report = runtime.watcher.poll_once()
        assert report is not None
        assert runtime.watcher.current_version != booted


def test_shed_half_open_probes_do_not_wedge_the_router(
    store, tiny_dataset, monkeypatch
):
    with _router(
        store, num_replicas=1, breaker_failure_threshold=1, breaker_recovery_s=0.2
    ) as router:
        example = _example(tiny_dataset)
        replica = router.replica("r0")
        replica.breaker.record_failure()
        time.sleep(0.25)

        def shed(*args, **kwargs):
            raise RejectedError(retry_after_s=0.1, pending=99)

        # Every probe slot goes to an attempt the replica sheds.
        monkeypatch.setattr(replica.runtime, "submit", shed)
        with pytest.raises(RejectedError):
            router.predict(example, k=5)
        monkeypatch.undo()
        assert replica.breaker.state == BREAKER_HALF_OPEN
        time.sleep(0.25)
        for _ in range(BREAKER_HALF_OPEN_PROBES):
            assert router.predict(example, k=5).replica == "r0"
        assert replica.breaker.state == BREAKER_CLOSED


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
def test_degradation_ladder_actuates_engines(store, tiny_dataset):
    with _router(store) as router:
        engines = [r.runtime.engine for r in router.replicas]
        assert all(isinstance(e, SparseInferenceEngine) for e in engines)
        base = engines[0].output_dim  # configured budget is None -> full dim
        ladder = router.degradation
        assert ladder.max_level == 4  # two budget steps + norerank + shed

        ladder.set_level(1)
        assert all(e.active_budget == int(base * 0.5) for e in engines)
        assert all(e.rerank for e in engines)
        ladder.set_level(2)
        assert all(e.active_budget == int(base * 0.25) for e in engines)
        ladder.set_level(3)
        assert all(not e.rerank for e in engines)
        prediction = router.predict(_example(tiny_dataset), k=5)
        assert prediction.mode in ("sparse_norerank", "dense_fallback")
        assert prediction.degradation == 3

        ladder.set_level(0)
        assert all(e.active_budget is None for e in engines)
        assert all(e.rerank for e in engines)
        prediction = router.predict(_example(tiny_dataset), k=5)
        assert prediction.degradation == 0
        levels = [
            (t["old"], t["new"])
            for t in router.metrics.transitions(kind="degradation")
        ]
        assert levels == [(0, 1), (1, 2), (2, 3), (3, 0)]


def test_degradation_shed_level_rejects_when_queues_deep(store, tiny_dataset):
    with _router(store) as router:
        router.degradation.set_level(router.degradation.max_level)
        for replica in router.replicas:
            replica.queue_depth = lambda: 50  # type: ignore[method-assign]
        with pytest.raises(RejectedError):
            router.predict(_example(tiny_dataset), k=5)
        assert router.metrics.outcomes.get("shed", 0) == 1


def test_degradation_step_hysteresis():
    ladder = DegradationController([])
    overloaded = True
    ladder.overloaded = lambda: overloaded  # type: ignore[method-assign]
    for level in (1, 2):
        for _ in range(DEGRADATION_UP_PATIENCE - 1):
            assert ladder.step() == level - 1  # not enough votes yet
        assert ladder.step() == level  # up-patience reached, votes reset
    overloaded = False
    for _ in range(DEGRADATION_DOWN_PATIENCE - 1):
        assert ladder.step() == 2
    assert ladder.step() == 1
    for _ in range(DEGRADATION_DOWN_PATIENCE):
        ladder.step()
    assert ladder.level == 0


# ----------------------------------------------------------------------
# Readiness: staleness and quarantine
# ----------------------------------------------------------------------
def test_readiness_fails_when_checkpoint_stale(store, tiny_dataset, tmp_path):
    runtime = OnlineRuntime(store, ServingConfig(num_workers=1)).start()
    try:
        assert runtime.readiness(max_staleness=0) == (True, "ok")
        # Publish versions the (unstarted-poll) watcher has not loaded.
        store.save(_make_network(tiny_dataset, seed=21))
        assert runtime.checkpoint_lag() >= 1
        ready, detail = runtime.readiness(max_staleness=0)
        assert not ready and "stale" in detail
        # Default readiness (no bound) tolerates lag.
        assert runtime.readiness()[0]
    finally:
        runtime.stop()


def test_readiness_fails_when_only_checkpoints_quarantined(
    store, tiny_dataset
):
    from repro.faults import tear_checkpoint

    runtime = OnlineRuntime(store, ServingConfig(num_workers=1)).start()
    try:
        bad = store.save(_make_network(tiny_dataset, seed=33))
        tear_checkpoint(bad)
        runtime.watcher.max_load_attempts = 1  # quarantine on first failure
        assert runtime.watcher.poll_once() is None
        assert bad.name in runtime.watcher.quarantined_versions
        assert runtime.readiness()[0]  # good v1 still in the store
        store.prune(keep_last=1)  # drops v1, keeps only the torn v2
        ready, detail = runtime.readiness()
        assert not ready
        assert "quarantined" in detail
    finally:
        runtime.stop()


def test_crashed_pool_is_unready_and_router_drains_it(
    store, tiny_dataset, monkeypatch
):
    """A replica whose every worker crashed still answers liveness checks
    from the process but reports "no alive workers"; the router stops
    sending it traffic and serves on the survivor."""

    def crashed_next_batch(timeout=None):
        raise RuntimeError("worker crashed")

    with _router(store) as router:
        r0 = router.replica("r0")
        monkeypatch.setattr(r0.runtime.queue, "next_batch", crashed_next_batch)
        deadline = time.monotonic() + 5.0
        while r0.runtime.alive_workers() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert r0.runtime.alive_workers() == 0
        assert r0.runtime.readiness() == (False, "no alive workers")
        while r0.health.ready and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not r0.health.ready
        for _ in range(10):
            assert router.predict(_example(tiny_dataset), k=3).replica == "r1"
        assert router.readiness() == (True, "ok")
        # Stopping the crashed replica surfaces the worker's exception.
        monkeypatch.undo()
        with pytest.raises(RuntimeError, match="worker crashed"):
            r0.runtime.stop()


# ----------------------------------------------------------------------
# Open-loop load through the router (loadgen attribution)
# ----------------------------------------------------------------------
def test_open_loop_attributes_replicas_and_causes(store, tiny_dataset):
    from repro.serving import run_open_loop

    with _router(store) as router:
        report = run_open_loop(
            router, list(tiny_dataset.test[:16]), qps=80.0, duration_s=0.5, k=3
        )
        assert report.completed > 0
        assert set(report.replicas) <= {"r0", "r1"}
        assert sum(report.replicas.values()) == report.completed
        assert sum(report.degradations.values()) == report.completed
        assert report.errors == 0
        data = report.to_dict()
        assert "failure_causes" in data and "replicas" in data


def test_open_loop_report_keys_are_pinned(store, tiny_dataset):
    """The fields a serving bench artifact stores from one open-loop run."""
    from repro.serving import run_open_loop

    with _router(store) as router:
        report = run_open_loop(
            router, list(tiny_dataset.test[:8]), qps=40.0, duration_s=0.25, k=1
        )
    data = report.to_dict()
    assert set(data) == {
        "offered_qps", "achieved_qps", "duration_s", "sent", "completed",
        "errors", "sheds", "shed_rate", "failure_causes", "generations",
        "replicas", "degradations", "latency_ms", "max_schedule_lag_s",
    }
    assert set(data["latency_ms"]) == {"p50", "p99", "p999", "mean", "max"}
    assert report.latency["count"] == float(report.completed) > 0
    assert 0.0 < data["latency_ms"]["p50"] <= data["latency_ms"]["max"]


def test_router_metrics_snapshot_keys_are_pinned():
    from repro.serving.metrics import RouterMetrics

    metrics = RouterMetrics()
    metrics.record_attempt("r0")
    metrics.record_outcome("ok", latency_s=0.004)
    snapshot = metrics.snapshot()
    assert set(snapshot) == {
        "requests", "outcomes", "retries", "failovers", "attempts",
        "attempt_failures", "latency_ms",
    }
    assert snapshot["latency_ms"] == {"p50": 4.0, "p99": 4.0, "mean": 4.0}


def test_classify_failure_taxonomy():
    from concurrent.futures import CancelledError as FutureCancelled

    from repro.serving.errors import DeadlineExceededError
    from repro.serving.loadgen import classify_failure

    assert classify_failure(RejectedError(0.1, 5)) == "rejected"
    assert classify_failure(DeadlineExceededError(0.2, 0.1)) == "deadline"
    assert classify_failure(ReplicaUnavailableError()) == "transport"
    assert classify_failure(RetriesExhaustedError(3, None)) == "transport"
    assert classify_failure(FutureCancelled()) == "transport"
    assert classify_failure(RuntimeError("stopped")) == "transport"
    assert classify_failure(ArithmeticError("nan")) == "other"
