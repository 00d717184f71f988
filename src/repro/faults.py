"""Deterministic fault injection for the training runtime.

Chaos testing a multi-process trainer with ad-hoc ``kill`` calls produces
flaky tests; this module makes every injected failure *reproducible*: a
:class:`FaultPlan` is a picklable list of :class:`FaultSpec` entries that
travels to the worker processes inside their spawn payload, and each worker
drives a :class:`FaultInjector` that fires the planned fault at an exact
``(worker_id, batch)`` coordinate.  Supported fault kinds:

* ``kill``  — ``SIGKILL`` the worker's own process (no cleanup, no result
  message: the hard-death path the supervisor must detect via exitcode).
* ``crash`` — raise :class:`InjectedFault` (the soft-death path: the worker
  relays the error through the result queue before exiting).
* ``hang``  — stop making progress without dying: sleep in a loop for
  ``duration_s`` *without* stamping the heartbeat, so only stale-heartbeat
  detection can catch it.
* ``slow``  — sleep ``duration_s`` before the batch (heartbeats keep
  flowing; exercises the non-fault path of hang detection).

Faults fire on the *global* batch count of a worker slot across restarts;
``once=True`` (default) restricts a fault to incarnation 0 so a restarted
worker does not immediately re-trip the same fault — which is what lets a
test assert "kill worker 1 at batch 3, then the run still completes".

Two storage-level helpers round out the failure surface used by tests and
``benchmarks/bench_fault_recovery.py``:

* :func:`tear_checkpoint` simulates a crash mid-write by truncating a
  checkpoint's array payload (the SHA-256 check must refuse it);
* :func:`corrupt_shared_array` scribbles NaNs over a shared parameter
  block (the workers' non-finite loss guard must surface it).

The serving side gets the same determinism through
:class:`ServingFaultPlan` / :class:`ServingFaultInjector`: an injector is
attached to one replica's inference engine
(``engine.fault_injector = plan.injector_for(replica)``) and fires at exact
*request* coordinates — the engine advances the counter by the batch size on
every guarded batch, and a fault whose ``[at_request, at_request + count)``
window overlaps the batch triggers:

* ``predict_hang`` — the worker thread sleeps ``duration_s`` mid-request
  without failing, the replica stops answering (what the router's attempt
  timeout and health probe must catch);
* ``predict_slow`` — adds ``duration_s`` latency to each affected batch
  (degraded, not dead: must *not* trip liveness, may trip a p99 breaker);
* ``predict_crash`` — raises :class:`InjectedFault` from the engine, failing
  every request in the batch (the retry path's bread and butter);
* ``checkpoint_load_fail`` — the next ``count`` checkpoint loads on this
  replica raise (a bad publish: the watcher must count it, back off, and
  keep serving the resident weights).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from repro import config

__all__ = [
    "FAULT_KINDS",
    "SERVING_FAULT_KINDS",
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "ServingFaultSpec",
    "ServingFaultPlan",
    "ServingFaultInjector",
    "tear_checkpoint",
    "corrupt_shared_array",
]

FAULT_KINDS = ("kill", "crash", "hang", "slow")
SERVING_FAULT_KINDS = (
    "predict_hang",
    "predict_slow",
    "predict_crash",
    "checkpoint_load_fail",
)


class InjectedFault(RuntimeError):
    """Raised by ``crash`` faults (and surfaced through the result queue)."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: what happens, to which worker, at which batch.

    ``at_batch`` counts the batches a worker slot has *started* (0-based,
    across items and across restarts of the slot); the fault fires just
    before that batch trains.  ``duration_s`` applies to ``hang``/``slow``.
    ``once=True`` fires only in the slot's first incarnation.
    """

    kind: str
    worker_id: int
    at_batch: int
    duration_s: float = 0.0
    once: bool = True

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.worker_id < 0:
            raise ValueError("worker_id must be non-negative")
        if self.at_batch < 0:
            raise ValueError("at_batch must be non-negative")
        if self.duration_s < 0:
            raise ValueError("duration_s must be non-negative")

    def to_dict(self) -> dict[str, Any]:
        return config.to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        return config.from_dict(cls, data)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable collection of planned faults."""

    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultPlan":
        return cls(specs=tuple(specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    def for_worker(self, worker_id: int) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.worker_id == worker_id)

    def to_dict(self) -> dict[str, Any]:
        return config.to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return config.from_dict(cls, data)


@dataclass
class FaultInjector:
    """Worker-side trigger: fires this slot's faults at their batch index.

    Created inside the worker from the payload's plan; ``on_batch`` is
    called once per batch *before* training it.  ``incarnation`` is the
    restart count of the worker slot (0 for the original launch), used to
    suppress ``once`` faults after a restart; ``start_batch`` offsets the
    batch counter so a restarted worker that fast-forwards past already
    trained batches keeps the global coordinate system.
    """

    specs: tuple[FaultSpec, ...] = ()
    incarnation: int = 0
    start_batch: int = 0
    batches_seen: int = field(default=0, init=False)

    @classmethod
    def from_payload(
        cls, payload: Mapping[str, Any], worker_id: int, incarnation: int
    ) -> "FaultInjector":
        plan_data = payload.get("fault_plan")
        plan = FaultPlan.from_dict(plan_data) if plan_data else FaultPlan()
        return cls(
            specs=plan.for_worker(worker_id),
            incarnation=incarnation,
            start_batch=int(payload.get("start_batch", 0)),
        )

    def on_batch(self) -> None:
        """Fire any fault planned for the current batch, then advance."""
        batch = self.start_batch + self.batches_seen
        self.batches_seen += 1
        for spec in self.specs:
            if spec.at_batch != batch:
                continue
            if spec.once and self.incarnation != 0:
                continue
            self._fire(spec)

    def _fire(self, spec: FaultSpec) -> None:
        if spec.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60.0)  # pragma: no cover - never survives the signal
        elif spec.kind == "crash":
            raise InjectedFault(
                f"injected crash in worker {spec.worker_id} "
                f"at batch {spec.at_batch}"
            )
        elif spec.kind == "hang":
            # Busy-wait in small sleeps without touching the heartbeat: the
            # process stays alive, so only staleness detection can catch it.
            deadline = time.monotonic() + spec.duration_s
            while time.monotonic() < deadline:
                time.sleep(0.01)
        elif spec.kind == "slow":
            time.sleep(spec.duration_s)


# ----------------------------------------------------------------------
# Serving-side faults (replica chaos for the router bench/tests)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServingFaultSpec:
    """One planned serving fault on one replica.

    ``at_request`` is the 0-based index of the first affected request in
    the replica's guarded-predict stream (batches advance the counter by
    their size); ``count`` is how many consecutive requests the window
    covers.  For ``checkpoint_load_fail`` the coordinate counts checkpoint
    *load attempts* instead of requests.  ``duration_s`` applies to
    ``predict_hang`` / ``predict_slow``.
    """

    kind: str
    replica: str
    at_request: int = 0
    count: int = 1
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SERVING_FAULT_KINDS:
            raise ValueError(
                f"unknown serving fault kind {self.kind!r}; "
                f"expected one of {SERVING_FAULT_KINDS}"
            )
        if self.at_request < 0:
            raise ValueError("at_request must be non-negative")
        if self.count <= 0:
            raise ValueError("count must be positive")
        if self.duration_s < 0:
            raise ValueError("duration_s must be non-negative")


@dataclass(frozen=True)
class ServingFaultPlan:
    """An immutable collection of planned serving faults."""

    specs: tuple[ServingFaultSpec, ...] = ()

    @classmethod
    def of(cls, *specs: ServingFaultSpec) -> "ServingFaultPlan":
        return cls(specs=tuple(specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    def for_replica(self, replica: str) -> tuple[ServingFaultSpec, ...]:
        return tuple(s for s in self.specs if s.replica == replica)

    def injector_for(self, replica: str) -> "ServingFaultInjector":
        """The per-replica injector to attach as ``engine.fault_injector``."""
        return ServingFaultInjector(specs=self.for_replica(replica))


class ServingFaultInjector:
    """Replica-side trigger: fires planned faults at request coordinates.

    Attached to an inference engine as ``engine.fault_injector``; the
    engine calls :meth:`on_predict` once per guarded batch (advancing the
    request counter by the batch size) and the checkpoint watcher calls
    :meth:`on_checkpoint_load` once per load attempt.  Thread-safe — pool
    workers predict concurrently.
    """

    def __init__(self, specs: Iterable[ServingFaultSpec] = ()) -> None:
        self.specs = tuple(specs)
        self.requests_seen = 0
        self.loads_seen = 0
        self.fired: list[str] = []
        self._lock = threading.Lock()

    def _window_hits(self, kind: str, start: int, size: int) -> "ServingFaultSpec | None":
        for spec in self.specs:
            if spec.kind != kind:
                continue
            if start < spec.at_request + spec.count and spec.at_request < start + size:
                return spec
        return None

    def on_predict(self, batch_size: int) -> None:
        """Fire any predict fault overlapping the next ``batch_size`` requests."""
        with self._lock:
            start = self.requests_seen
            self.requests_seen += max(int(batch_size), 1)
        hit = self._window_hits("predict_slow", start, max(int(batch_size), 1))
        if hit is not None:
            self._note(hit, start)
            time.sleep(hit.duration_s)
        hit = self._window_hits("predict_hang", start, max(int(batch_size), 1))
        if hit is not None:
            self._note(hit, start)
            # Stay alive but unresponsive: the worker thread serving this
            # batch sleeps through the hang window; only attempt timeouts
            # or health probes can notice.
            deadline = time.monotonic() + hit.duration_s
            while time.monotonic() < deadline:
                time.sleep(0.01)
        hit = self._window_hits("predict_crash", start, max(int(batch_size), 1))
        if hit is not None:
            self._note(hit, start)
            raise InjectedFault(
                f"injected predict crash on replica {hit.replica} "
                f"at request {start}"
            )

    def on_checkpoint_load(self, version: str) -> None:
        """Fire any planned checkpoint-load failure for this attempt."""
        with self._lock:
            attempt = self.loads_seen
            self.loads_seen += 1
        hit = self._window_hits("checkpoint_load_fail", attempt, 1)
        if hit is not None:
            self._note(hit, attempt)
            raise InjectedFault(
                f"injected checkpoint load failure on replica {hit.replica} "
                f"for version {version} (attempt {attempt})"
            )

    def _note(self, spec: ServingFaultSpec, coordinate: int) -> None:
        with self._lock:
            self.fired.append(f"{spec.kind}@{coordinate}")


# ----------------------------------------------------------------------
# Storage-level fault helpers
# ----------------------------------------------------------------------
def tear_checkpoint(path: str | Path, keep_bytes: int = 128) -> Path:
    """Truncate a checkpoint's array payload, simulating a torn write.

    The manifest (and its recorded SHA-256) is left intact, so loading the
    checkpoint must fail the checksum — exactly what a crash between the
    payload write and the directory rename can leave behind on filesystems
    without atomic rename, or what bit rot produces later.
    """
    path = Path(path)
    arrays = path / "arrays.npz"
    if not arrays.is_file():
        raise FileNotFoundError(f"no arrays.npz under {path}")
    payload = arrays.read_bytes()
    arrays.write_bytes(payload[: min(keep_bytes, max(len(payload) - 1, 0))])
    return path


def corrupt_shared_array(array: np.ndarray, fraction: float = 0.25, seed: int = 0) -> int:
    """Overwrite a deterministic slice of ``array`` with NaNs.

    Models a corrupted shared-memory block (bad DIMM, stray writer).  Only
    meaningful for float arrays; returns the number of elements poisoned.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must lie in (0, 1]")
    flat = array.reshape(-1)
    count = max(1, int(flat.size * fraction))
    rng = np.random.default_rng(seed)
    index = rng.choice(flat.size, size=count, replace=False)
    flat[index] = np.nan
    return count
