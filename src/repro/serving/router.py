"""Resilient multi-replica serving: health checks, retries, breakers, degradation.

A single :class:`~repro.serving.runtime.OnlineRuntime` is one fault domain:
a hung worker pool, a poisoned hot swap, or a dead process takes every
in-flight and future request with it.  :class:`ReplicaRouter` removes that
single point of failure with ``N`` in-process replicas sharing one
:class:`~repro.state.CheckpointStore` (each replica's watcher
pulls the same published versions, so they converge on the same weights)
behind a stateless routing layer:

* **Health checking** — a control thread probes each replica every
  ``health_interval_s``.  *Liveness* is behavioural: a tiny probe predict
  must resolve within ``probe_timeout_s`` (a hung replica still has alive
  threads — only a timed probe notices it stopped answering).  *Readiness*
  additionally requires alive pool workers and a resident checkpoint no
  more than ``READINESS_MAX_STALENESS`` versions behind the store.  Every
  flip is recorded with a monotonic timestamp, which is how the failover
  bench measures detection latency.
* **Routing** — power-of-two-choices on queue depth among ready replicas
  (falling back to merely-live ones): two random candidates, pick the
  shallower queue.  Cheaper than scanning all queues per request, and
  provably avoids the thundering-herd of pure shortest-queue.
* **Retries** — predicts are idempotent, so a failed attempt is retried on
  a *different* replica (capped exponential backoff between error retries;
  immediate failover for sheds and hangs) under a per-request deadline
  budget.  Each attempt is bounded by ``attempt_timeout_s`` so a hang
  costs one timeout, not the whole budget.
* **Circuit breaking** — per-replica :class:`CircuitBreaker`
  (closed → open → half-open): ``breaker_failure_threshold`` consecutive
  failures open the circuit; after ``breaker_recovery_s``
  ``BREAKER_HALF_OPEN_PROBES`` probe requests decide between closing it
  and re-opening.
* **Graceful degradation** — under sustained queue pressure the
  :class:`DegradationController` walks a quality-for-availability ladder
  instead of failing requests: shrink every replica's LSH
  ``active_budget`` through ``DEGRADATION_BUDGET_STEPS``, then disable
  exact rerank (rank by raw collision counts), and only then shed at the
  router.  Every answer is stamped with the ladder level that produced it
  (``Prediction.degradation``) and the replica that served it.

The router duck-types the :class:`~repro.serving.pool.ServingRuntime`
surface the HTTP front-end and the load generator use (``submit`` /
``predict`` / ``stats`` / ``readiness`` / ``alive_workers`` /
``input_dim``), so ``build_server(router)`` just works.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro.config import RouterConfig, ServingConfig
from repro.faults import ServingFaultPlan
from repro.serving.engine import Prediction, SparseInferenceEngine
from repro.serving.errors import (
    DeadlineExceededError,
    NotServingError,
    RejectedError,
    ReplicaUnavailableError,
    RetriesExhaustedError,
)
from repro.serving.metrics import RouterMetrics
from repro.serving.runtime import OnlineRuntime
from repro.state import CheckpointStore
from repro.types import SparseExample, SparseVector
from repro.utils import sanitize

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "CircuitBreaker",
    "ReplicaHealth",
    "Replica",
    "DegradationController",
    "ReplicaRouter",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

# A replica whose resident checkpoint lags the store's latest by more than
# this many versions fails readiness (its watcher is stuck or quarantining
# everything new).
READINESS_MAX_STALENESS = 2
# Capped exponential backoff between retries after an engine error:
# ``min(base * 2**(attempt-1), max)``.
RETRY_BACKOFF_BASE_S = 0.01
RETRY_BACKOFF_MAX_S = 0.25
# Half-open probes that must all succeed to close a breaker.
BREAKER_HALF_OPEN_PROBES = 2
# Multiplicative ``active_budget`` steps for degradation levels
# ``1..len(steps)``, strictly decreasing inside (0, 1).
DEGRADATION_BUDGET_STEPS = (0.5, 0.25)
# Period of the degradation control tick, and the per-replica queue depth
# above which a tick votes to degrade.
DEGRADATION_INTERVAL_S = 0.5
DEGRADATION_QUEUE_HIGH = 8.0
# Consecutive overloaded / calm ticks before the ladder steps up / down
# (recovery is deliberately slower than degradation).
DEGRADATION_UP_PATIENCE = 2
DEGRADATION_DOWN_PATIENCE = 4
# At the deepest level, a request whose chosen replica's queue is at least
# this deep is shed at the router.
DEGRADATION_SHED_DEPTH = 32
# Seed of the power-of-two-choices sampler.
ROUTING_SEED = 0

# Router-side request threads: callers of submit() get a future backed by
# this pool, so a synchronous retry loop per request never blocks the
# client.  Normal attempts take milliseconds; the cap only binds when many
# requests are simultaneously waiting out attempt timeouts on a hung
# replica, which is exactly when admission should start queueing anyway.
_ROUTER_MAX_INFLIGHT = 32


class CircuitBreaker:
    """Per-replica closed → open → half-open failure gate.

    Closed passes everything and counts *consecutive* failures (any
    success resets the streak).  ``breaker_failure_threshold`` failures
    trip the breaker open.  Open rejects without touching the replica for
    ``breaker_recovery_s``, then promotes to half-open, which admits at
    most ``BREAKER_HALF_OPEN_PROBES`` requests: all succeeding closes the
    breaker, any failing re-opens it (restarting the recovery clock).  A
    probe can also end with no verdict (shed, or dropped in the replica's
    queue); once every probe slot is out and ``breaker_recovery_s`` passes
    with no verdict, half-open issues a fresh set of slots, so the
    breaker cannot wedge half-open.

    ``now`` is injectable so tests drive the clock instead of sleeping.
    All methods are thread-safe.
    """

    def __init__(
        self,
        config: RouterConfig,
        now: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str, str, float], None] | None = None,
    ) -> None:
        self.config = config
        self._now = now
        self._on_transition = on_transition
        self._lock = sanitize.lock("router.breaker")
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        # Start of the current wait: the trip while open, the last probe
        # slot issued while half-open.
        self._waiting_since = 0.0
        self._probes_issued = 0
        self._probe_successes = 0

    # ------------------------------------------------------------------
    # State machine internals (all called with the lock held)
    # ------------------------------------------------------------------
    def _transition_locked(self, new_state: str) -> None:
        old = self._state
        if old == new_state:
            return
        self._state = new_state
        if self._on_transition is not None:
            self._on_transition(old, new_state, self._now())

    def _trip_locked(self) -> None:
        self._waiting_since = self._now()
        self._consecutive_failures = 0
        self._probes_issued = 0
        self._probe_successes = 0
        self._transition_locked(BREAKER_OPEN)

    def _maybe_promote_locked(self) -> None:
        # Half-open with every slot out waits like open (see the docstring).
        waiting = self._state == BREAKER_OPEN or (
            self._state == BREAKER_HALF_OPEN
            and self._probes_issued >= BREAKER_HALF_OPEN_PROBES
        )
        if waiting and (
            self._now() - self._waiting_since >= self.config.breaker_recovery_s
        ):
            self._probes_issued = 0
            self._probe_successes = 0
            self._transition_locked(BREAKER_HALF_OPEN)

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_promote_locked()
            return self._state

    def allow(self) -> bool:
        """May one request pass?  In half-open this *consumes* a probe slot."""
        with self._lock:
            self._maybe_promote_locked()
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_OPEN:
                return False
            if self._probes_issued < BREAKER_HALF_OPEN_PROBES:
                self._probes_issued += 1
                self._waiting_since = self._now()
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state == BREAKER_HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= BREAKER_HALF_OPEN_PROBES:
                    self._consecutive_failures = 0
                    self._transition_locked(BREAKER_CLOSED)
                return
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_promote_locked()
            if self._state == BREAKER_HALF_OPEN:
                # A probe failed: straight back to open, recovery restarts.
                self._trip_locked()
                return
            self._consecutive_failures += 1
            if (
                self._state == BREAKER_CLOSED
                and self._consecutive_failures
                >= self.config.breaker_failure_threshold
            ):
                self._trip_locked()


@dataclass(frozen=True)
class ReplicaHealth:
    """Result of the most recent health check for one replica."""

    live: bool = False
    ready: bool = False
    detail: str = "unchecked"
    checked_at: float = 0.0


class Replica:
    """One named :class:`OnlineRuntime` plus its breaker and health state."""

    def __init__(
        self,
        name: str,
        runtime: OnlineRuntime,
        breaker: CircuitBreaker,
    ) -> None:
        self.name = name
        self.runtime = runtime
        self.breaker = breaker
        self.health = ReplicaHealth()
        self.killed = False

    def queue_depth(self) -> int:
        return self.runtime.queue.pending()

    def kill(self) -> None:
        """Hard-stop this replica (chaos hook: no drain, futures cancel)."""
        self.killed = True
        self.runtime.stop(drain=False)


class DegradationController:
    """Walks the shared quality ladder from sustained queue pressure.

    Levels for ``S = len(DEGRADATION_BUDGET_STEPS)`` budget steps:

    * ``0`` — full quality (configured budget, exact rerank);
    * ``1..S`` — every replica's ``active_budget`` scaled by
      ``DEGRADATION_BUDGET_STEPS[level-1]`` (monotonically shrinking);
    * ``S+1`` — exact rerank disabled on top of the smallest budget
      (answers ranked by raw collision counts);
    * ``S+2`` — router-side shedding: new requests are rejected while the
      chosen replica's queue is at least ``DEGRADATION_SHED_DEPTH`` deep.

    Escalation needs ``DEGRADATION_UP_PATIENCE`` consecutive overloaded
    samples (max replica queue depth above ``DEGRADATION_QUEUE_HIGH``);
    recovery needs ``DEGRADATION_DOWN_PATIENCE`` calm ones — asymmetric
    hysteresis, because degrading too late costs availability while
    recovering too eagerly causes flapping.

    The decision is a pure step (what the unit tests drive via
    :meth:`step`); the background control thread that calls it is owned
    by the router.
    """

    def __init__(
        self,
        replicas: list[Replica],
        metrics: RouterMetrics | None = None,
        now: Callable[[], float] = time.monotonic,
    ) -> None:
        self.replicas = replicas
        self.metrics = metrics
        self._now = now
        self._lock = sanitize.lock("router.degradation")
        self.level = 0
        self._up_votes = 0
        self._down_votes = 0
        # The configured budget (None = unbounded) is restored verbatim at
        # level 0; scaling needs a concrete base, so None maps to the full
        # output dimension.
        self._configured: dict[str, int | None] = {}
        self._base: dict[str, int] = {}
        for replica in replicas:
            engine = replica.runtime.engine
            if isinstance(engine, SparseInferenceEngine):
                self._configured[replica.name] = engine.active_budget
                self._base[replica.name] = (
                    engine.active_budget
                    if engine.active_budget is not None
                    else engine.output_dim
                )

    @property
    def max_level(self) -> int:
        """Deepest ladder level: budget steps, then no-rerank, then shed."""
        return len(DEGRADATION_BUDGET_STEPS) + 2

    def shed_active(self) -> bool:
        return self.level >= self.max_level

    # ------------------------------------------------------------------
    # Decision + actuation
    # ------------------------------------------------------------------
    def overloaded(self) -> bool:
        depths = [
            replica.queue_depth()
            for replica in self.replicas
            if not replica.killed and replica.health.live
        ]
        if not depths:
            return False
        return max(depths) > DEGRADATION_QUEUE_HIGH

    def step(self, now: float | None = None) -> int:
        """One control period: sample pressure, vote, maybe move one level."""
        with self._lock:
            if self.overloaded():
                self._up_votes += 1
                self._down_votes = 0
            else:
                self._down_votes += 1
                self._up_votes = 0
            target = self.level
            if self._up_votes >= DEGRADATION_UP_PATIENCE:
                self._up_votes = 0
                target = min(self.level + 1, self.max_level)
            elif self._down_votes >= DEGRADATION_DOWN_PATIENCE:
                self._down_votes = 0
                target = max(self.level - 1, 0)
            if target != self.level:
                self._set_level_locked(target, now)
            return self.level

    def set_level(self, level: int, now: float | None = None) -> None:
        """Force a ladder level (bench/tests); resets the vote counters."""
        if not 0 <= level <= self.max_level:
            raise ValueError(
                f"degradation level must be in [0, {self.max_level}], got {level}"
            )
        with self._lock:
            self._up_votes = 0
            self._down_votes = 0
            if level != self.level:
                self._set_level_locked(level, now)

    def _set_level_locked(self, level: int, now: float | None) -> None:
        old = self.level
        self.level = level
        self._apply(level)
        if self.metrics is not None:
            at = self._now() if now is None else now
            self.metrics.record_transition("degradation", "router", old, level, at)

    def _apply(self, level: int) -> None:
        steps = DEGRADATION_BUDGET_STEPS
        rerank = level <= len(steps)
        for replica in self.replicas:
            engine = replica.runtime.engine
            if not isinstance(engine, SparseInferenceEngine):
                continue
            if level == 0:
                engine.active_budget = self._configured[replica.name]
            else:
                step = steps[min(level, len(steps)) - 1]
                engine.active_budget = max(
                    1, int(self._base[replica.name] * step)
                )
            engine.rerank = rerank


class ReplicaRouter:
    """Stateless router over ``N`` :class:`OnlineRuntime` replicas.

    Construction builds (but does not start) the replicas from one shared
    checkpoint store; :meth:`start` boots them, runs an initial synchronous
    health check, and launches the control thread (health checks +
    degradation ladder).  ``fault_plan`` attaches deterministic
    :class:`~repro.faults.ServingFaultInjector` chaos to named replicas.
    """

    def __init__(
        self,
        store: CheckpointStore | str | Path,
        serving_config: ServingConfig | None = None,
        router_config: RouterConfig | None = None,
        fault_plan: ServingFaultPlan | None = None,
    ) -> None:
        if not isinstance(store, CheckpointStore):
            store = CheckpointStore(store)
        self.store = store
        self.serving_config = serving_config or ServingConfig()
        self.router_config = router_config or RouterConfig()
        self.metrics = RouterMetrics()
        self._rng = random.Random(ROUTING_SEED)
        self._rng_lock = sanitize.lock("router.rng")
        self.replicas: list[Replica] = []
        plan = fault_plan or ServingFaultPlan()
        for index in range(self.router_config.num_replicas):
            name = f"r{index}"
            runtime = OnlineRuntime(store, self.serving_config)
            breaker = CircuitBreaker(
                self.router_config,
                on_transition=self._breaker_recorder(name),
            )
            injector = plan.injector_for(name)
            if injector.specs:
                runtime.engine.fault_injector = injector
            self.replicas.append(Replica(name, runtime, breaker))
        self.degradation = DegradationController(self.replicas, metrics=self.metrics)
        # Minimal valid probe: one feature, answered with k=1.  Liveness
        # only needs "a predict comes back", not a meaningful answer.
        self._probe_example = SparseExample(
            features=SparseVector(
                indices=np.array([0], dtype=np.int64),
                values=np.array([1.0], dtype=np.float64),
                dimension=self.input_dim,
            ),
            labels=np.zeros(0, dtype=np.int64),
        )
        self._executor: ThreadPoolExecutor | None = None
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._started = False
        self._stopped = False

    def _breaker_recorder(self, name: str) -> Callable[[str, str, float], None]:
        def record(old: str, new: str, at: float) -> None:
            self.metrics.record_transition("breaker", name, old, new, at)

        return record

    # ------------------------------------------------------------------
    # ServingRuntime-compatible introspection surface
    # ------------------------------------------------------------------
    @property
    def config(self) -> ServingConfig:
        """The front-end-facing knobs (``top_k``, ``max_body_bytes``, ...)."""
        return self.serving_config

    @property
    def input_dim(self) -> int:
        return self.replicas[0].runtime.input_dim

    def alive_workers(self) -> int:
        return sum(replica.runtime.alive_workers() for replica in self.replicas)

    def readiness(self) -> tuple[bool, str]:
        """Ready iff at least one replica passed its last readiness check."""
        if self._stopped:
            return False, "stopped"
        if not self._started:
            return False, "not started"
        ready = [r.name for r in self.replicas if r.health.ready and not r.killed]
        if ready:
            return True, "ok"
        details = ", ".join(
            f"{r.name}: {r.health.detail}" for r in self.replicas
        )
        return False, f"no ready replica ({details})"

    def replica(self, name: str) -> Replica:
        for replica in self.replicas:
            if replica.name == name:
                return replica
        raise KeyError(f"no replica named {name!r}")

    def kill_replica(self, name: str) -> None:
        """Chaos hook: hard-stop one replica (health checks will notice)."""
        self.replica(name).kill()

    def stats(self) -> dict[str, object]:
        snapshot: dict[str, object] = self.metrics.snapshot()
        snapshot["degradation_level"] = float(self.degradation.level)
        snapshot["degradation_max_level"] = float(self.degradation.max_level)
        snapshot["alive_workers"] = float(self.alive_workers())
        replicas: dict[str, object] = {}
        for replica in self.replicas:
            replicas[replica.name] = {
                "live": replica.health.live,
                "ready": replica.health.ready,
                "detail": replica.health.detail,
                "breaker": replica.breaker.state,
                "killed": replica.killed,
                "queue_pending": float(replica.queue_depth()),
                "alive_workers": float(replica.runtime.alive_workers()),
                "checkpoint_version": replica.runtime.watcher.current_version,
            }
        snapshot["replicas"] = replicas
        return snapshot

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReplicaRouter":
        if self._stopped:
            # Lifecycle misuse by the embedding program, not a request-path
            # failure — a typed 5xx here would be misleading.
            # repro: allow[exc] lifecycle misuse, never reaches a client
            raise RuntimeError(
                "router cannot be restarted after stop(); build a new one"
            )
        if self._started:
            # repro: allow[exc] lifecycle misuse, never reaches a client
            raise RuntimeError("router already started")
        for replica in self.replicas:
            replica.runtime.start()
        self._started = True
        self.check_health_once()
        self._executor = ThreadPoolExecutor(
            max_workers=_ROUTER_MAX_INFLIGHT, thread_name_prefix="router"
        )
        self._thread = threading.Thread(
            target=self._control_loop, name="serving-router-control", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        if not self._started or self._stopped:
            self._stopped = True
            return
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._executor is not None:
            self._executor.shutdown(wait=drain, cancel_futures=not drain)
            self._executor = None
        for replica in self.replicas:
            if not replica.killed:
                replica.runtime.stop(drain=drain)
        self._started = False
        self._stopped = True

    def __enter__(self) -> "ReplicaRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _control_loop(self) -> None:
        health_interval_s = self.router_config.health_interval_s
        tick = max(min(health_interval_s, DEGRADATION_INTERVAL_S) / 4, 0.01)
        next_health = 0.0
        next_degradation = 0.0
        while not self._stop_event.wait(tick):
            now = time.monotonic()
            if now >= next_health:
                next_health = now + health_interval_s
                self.check_health_once()
            if now >= next_degradation:
                next_degradation = now + DEGRADATION_INTERVAL_S
                self.degradation.step()

    # ------------------------------------------------------------------
    # Health checking
    # ------------------------------------------------------------------
    def check_health_once(self) -> dict[str, ReplicaHealth]:
        """Synchronously probe every replica (what the control thread runs)."""
        results: dict[str, ReplicaHealth] = {}
        for replica in self.replicas:
            live, ready, detail = self._probe_replica(replica)
            self._update_health(replica, live, ready, detail)
            results[replica.name] = replica.health
        return results

    def _probe_replica(self, replica: Replica) -> tuple[bool, bool, str]:
        runtime = replica.runtime
        ready, detail = runtime.readiness(max_staleness=READINESS_MAX_STALENESS)
        if detail in ("stopped", "not started"):
            return False, False, detail
        # Liveness is behavioural: submit a probe and require an answer
        # within the timeout.  An *error* answer still proves the replica
        # responds (a crashing engine is the breaker's problem, not a
        # liveness failure); only silence is death.
        try:
            future = runtime.submit(self._probe_example, k=1)
        except RejectedError:
            # Queue full: overloaded but demonstrably answering.
            return True, ready, detail if not ready else "ok"
        except RuntimeError as exc:
            return False, False, f"probe submit failed: {exc}"
        try:
            future.result(timeout=self.router_config.probe_timeout_s)
        except FutureTimeoutError:
            future.cancel()
            return False, False, "probe timed out"
        except CancelledError:
            return False, False, "probe cancelled"
        # An error *response* still proves liveness; a crash-looping engine
        # is the circuit breaker's jurisdiction, not the health checker's.
        except Exception:  # repro: allow[exc] error response proves liveness
            pass
        return True, ready, detail if not ready else "ok"

    def _update_health(
        self, replica: Replica, live: bool, ready: bool, detail: str
    ) -> None:
        at = time.monotonic()
        old = replica.health
        if old.live != live:
            self.metrics.record_transition("live", replica.name, old.live, live, at)
        if old.ready != ready:
            self.metrics.record_transition(
                "ready", replica.name, old.ready, ready, at
            )
        replica.health = ReplicaHealth(
            live=live, ready=ready, detail=detail, checked_at=at
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _candidates(self) -> list[Replica]:
        ready = [r for r in self.replicas if not r.killed and r.health.ready]
        if ready:
            return ready
        # Degraded cluster: merely-live replicas (e.g. stale checkpoints
        # everywhere) still beat failing the request outright.
        return [r for r in self.replicas if not r.killed and r.health.live]

    def _choose(self, exclude: set[str]) -> Replica | None:
        pool = [r for r in self._candidates() if r.name not in exclude]
        if not pool:
            # Every candidate was already tried this request; allow repeats
            # rather than failing with attempts still in budget.
            pool = self._candidates()
        pool = [r for r in pool if r.breaker.state != BREAKER_OPEN]
        if not pool:
            return None
        if len(pool) == 1:
            pick = pool[0]
        else:
            with self._rng_lock:
                first, second = self._rng.sample(pool, 2)
            pick = first if first.queue_depth() <= second.queue_depth() else second
        if pick.breaker.allow():
            return pick
        # The pick was half-open and out of probe slots; any sibling whose
        # breaker admits traffic is better than rejecting.
        for replica in pool:
            if replica is not pick and replica.breaker.allow():
                return replica
        return None

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, example: SparseExample, k: int | None = None) -> Future:
        """Async surface for open-loop clients; resolves to a Prediction."""
        if not self._started or self._stopped or self._executor is None:
            raise NotServingError("router is not started")
        return self._executor.submit(self.predict, example, k)

    def predict_many(
        self,
        examples: list[SparseExample],
        k: int | None = None,
        timeout: float = 60.0,
    ) -> list[Prediction]:
        futures = [self.submit(example, k=k) for example in examples]
        return [future.result(timeout=timeout) for future in futures]

    def predict(
        self,
        example: SparseExample,
        k: int | None = None,
        timeout: float | None = None,
    ) -> Prediction:
        """Route one predict with retries under a total deadline budget.

        Raises :class:`ReplicaUnavailableError` when no replica can take
        the request at all, :class:`RejectedError` when the degradation
        ladder is shedding (or every attempt was shed), and
        :class:`RetriesExhaustedError` when the attempt/deadline budget ran
        out on real failures.
        """
        if not self._started or self._stopped:
            raise NotServingError("router is not started")
        config = self.router_config
        start = time.monotonic()
        deadline = start + (
            config.request_deadline_s if timeout is None else float(timeout)
        )
        attempts = 0
        last_error: BaseException | None = None
        non_shed_failure = False
        tried: set[str] = set()
        backoff = RETRY_BACKOFF_BASE_S
        last_replica: Replica | None = None
        while attempts < config.retry_max_attempts:
            now = time.monotonic()
            if now >= deadline:
                break
            replica = self._choose(tried)
            if replica is None:
                if attempts == 0:
                    self.metrics.record_outcome(ReplicaUnavailableError.cause)
                    raise ReplicaUnavailableError(
                        "all replicas down or circuit-open"
                    )
                break
            if self.degradation.shed_active():
                depth = replica.queue_depth()
                if depth >= DEGRADATION_SHED_DEPTH:
                    self.metrics.record_outcome("shed")
                    raise RejectedError(
                        retry_after_s=DEGRADATION_INTERVAL_S,
                        pending=depth,
                    )
            attempts += 1
            if attempts > 1:
                self.metrics.record_retry(failover=replica is not last_replica)
            last_replica = replica
            self.metrics.record_attempt(replica.name)
            attempt_timeout = min(config.attempt_timeout_s, deadline - now)
            try:
                future = replica.runtime.submit(example, k=k)
                prediction = future.result(timeout=attempt_timeout)
            except RejectedError as exc:
                # The replica shed at admission: overload, not a fault — no
                # breaker hit, no backoff, immediately try a sibling.
                self.metrics.record_attempt_failure(replica.name, exc.cause)
                last_error = exc
                tried.add(replica.name)
                continue
            except DeadlineExceededError as exc:
                # Dropped in the replica's queue: also overload-shaped.
                self.metrics.record_attempt_failure(replica.name, exc.cause)
                last_error = exc
                non_shed_failure = True
                tried.add(replica.name)
                continue
            except ValueError:
                # Invalid k / dimension mismatch: the caller's bug, never
                # retryable and never the replica's fault.
                raise
            except FutureTimeoutError:
                # Hang: the attempt timeout already spent our patience —
                # fail over immediately, no extra backoff.
                future.cancel()
                replica.breaker.record_failure()
                self.metrics.record_attempt_failure(replica.name, "timeout")
                last_error = TimeoutError(
                    f"attempt on {replica.name} exceeded "
                    f"{attempt_timeout * 1e3:.0f}ms"
                )
                non_shed_failure = True
                tried.add(replica.name)
                continue
            except CancelledError as exc:
                # Replica stopped mid-request (kill / shutdown).
                replica.breaker.record_failure()
                self.metrics.record_attempt_failure(replica.name, "cancelled")
                last_error = exc
                non_shed_failure = True
                tried.add(replica.name)
                continue
            except Exception as exc:  # noqa: BLE001 - every engine fault retries
                replica.breaker.record_failure()
                self.metrics.record_attempt_failure(
                    replica.name, type(exc).__name__
                )
                last_error = exc
                non_shed_failure = True
                tried.add(replica.name)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                time.sleep(min(backoff, remaining))
                backoff = min(backoff * 2, RETRY_BACKOFF_MAX_S)
                continue
            replica.breaker.record_success()
            self.metrics.record_outcome("ok", latency_s=time.monotonic() - start)
            return replace(
                prediction,
                replica=replica.name,
                degradation=self.degradation.level,
            )
        if not non_shed_failure and isinstance(last_error, RejectedError):
            # Every attempt was shed: propagate the overload signal (with
            # its retry hint) instead of dressing it up as a failure.
            self.metrics.record_outcome("shed")
            raise last_error
        self.metrics.record_outcome(RetriesExhaustedError.cause)
        raise RetriesExhaustedError(attempts, last_error)
