"""The scheduling state machine of the process-HOGWILD trainer.

:class:`Supervisor` owns every scheduling decision of a multi-process run:
worker slots, pending items, completed records, attempts, restart budget and
backoff, give-up, hang verdicts, and the remaining-items snapshot a
checkpoint stores.  The trainer's I/O loop feeds it events (a message from
a slot, a slot's exit code, a heartbeat row, the time) and applies the
actions :meth:`Supervisor.tick` returns.  It starts no process, queue or
shared-memory block and imports neither :mod:`repro.core` nor
:mod:`repro.data`, so a test can drive a whole run with plain calls.

An item is done once its ``item_done`` message is recorded.  The batches of
an unfinished item already applied are what its slot's heartbeat row
reports, when the row names the item and the slot's current incarnation,
else the skip it was handed out with.  A worker leaves a finished item on
its row, so a completion still in the pipe reads as fully applied.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from repro.config import FaultToleranceConfig

__all__ = [
    "Heartbeat", "Launch", "Assign", "Kill", "Stop", "Checkpoint",
    "SlotState", "SupervisionEvent", "SupervisionReport", "Supervisor",
]


class Heartbeat(NamedTuple):
    """One worker slot's heartbeat row, decoded."""

    item: int  # id of the last item the incarnation claimed, -1 for none
    progress: int  # batches of that item applied so far
    incarnation: int
    stamp: float  # monotonic time of the last write


# The actions :meth:`Supervisor.tick` returns, for the I/O loop to apply.
class Launch(NamedTuple):
    """Start incarnation ``incarnation`` of worker slot ``worker_id``."""
    worker_id: int
    incarnation: int


class Assign(NamedTuple):
    """Hand ``item`` to the slot's running process."""
    worker_id: int
    item: dict


class Kill(NamedTuple):
    """SIGKILL the slot's (hung) process; its exit is a failure."""
    worker_id: int


class Stop(NamedTuple):
    """Send the slot's process the stop sentinel; a clean exit is due."""
    worker_id: int


class Checkpoint(NamedTuple):
    """Save a mid-run checkpoint whose sidecar lists ``items``."""
    items: list[dict]


class SlotState(enum.Enum):
    NEW = "new"  # never launched
    RUNNING = "running"  # launched, takes work
    STOPPING = "stopping"  # stop sent, a clean exit is due
    FAILING = "failing"  # error relayed or hang verdict given; exit pending
    BACKOFF = "backoff"  # failed; relaunch due at ``restart_at``
    EXITED = "exited"  # exited cleanly
    GAVE_UP = "gave_up"  # restart budget spent


_LAUNCHED = (SlotState.RUNNING, SlotState.STOPPING, SlotState.FAILING)


@dataclass
class SupervisionEvent:
    """One observation of the supervisor (death, restart, checkpoint…).

    ``kind`` is one of ``"death"`` (process exited uncleanly), ``"error"``
    (worker relayed an exception), ``"hang"`` (stale heartbeat, worker
    killed), ``"restart"`` (replacement incarnation launched),
    ``"reassign"`` (a work item moved to a different worker slot),
    ``"gave_up"`` (slot exhausted its restart budget), ``"checkpoint"``
    (mid-run training checkpoint saved).
    """

    kind: str
    worker_id: int
    time_s: float  # seconds since the supervised run started
    detail: str = ""


@dataclass
class SupervisionReport:
    """What the supervisor saw and did over one training run."""

    events: list[SupervisionEvent] = field(default_factory=list)
    restarts: int = 0
    reassigned_items: int = 0
    # Shared-counter batches minus batches whose item_done reached the
    # parent: updates a killed worker applied but never reported (the
    # restarted item skips them, by the heartbeat).
    lost_batches: int = 0
    checkpoints_saved: int = 0
    # Per restart: seconds from detecting the death/hang to the relaunch
    # decision (the scheduled backoff, plus however late the loop woke).
    recovery_latency_s: list[float] = field(default_factory=list)

    @property
    def failures(self) -> list[SupervisionEvent]:
        return [e for e in self.events if e.kind in ("death", "error", "hang")]


@dataclass
class _Slot:
    worker_id: int
    state: SlotState = SlotState.NEW
    incarnation: int = 0
    restarts: int = 0
    in_flight: dict | None = None
    assigned_at: float = 0.0
    heartbeat: Heartbeat = Heartbeat(-1, 0, -1, 0.0)
    # FAILING only: the (kind, detail) the exit will be reported as.
    failure: tuple[str, str] = ("", "")
    # BACKOFF only: when the failure was seen and when the relaunch is due.
    failed_at: float = 0.0
    restart_at: float = 0.0


class Supervisor:
    """Scheduling state of one supervised run over ``num_slots`` worker slots.

    Every slot may run any item, one at a time.  A failed slot is relaunched
    after ``fault_tolerance.restart_backoff_s`` up to ``max_restarts``
    times, its unfinished item going back to the front of the queue with
    the batches its heartbeat reports as applied; a slot out of budget
    leaves its work to the survivors, and only when every slot is out of
    budget with work left does :meth:`tick` raise.  With
    ``checkpoint_every_s > 0`` a :class:`Checkpoint` is due that often
    while work remains.
    """

    def __init__(
        self,
        items: Iterable[Mapping],
        num_slots: int,
        fault_tolerance: FaultToleranceConfig,
        now: float,
        checkpoint_every_s: float = 0.0,
    ) -> None:
        self.fault_tolerance = fault_tolerance
        self.pending: deque[dict] = deque(dict(item) for item in items)
        self.records: dict[int, dict] = {}
        self.attempts: dict[int, set[int]] = {int(i["id"]): set() for i in self.pending}
        self.slots = [_Slot(worker_id) for worker_id in range(num_slots)]
        self.report = SupervisionReport()
        self._start = now
        self._checkpoint_every_s = checkpoint_every_s
        self._last_checkpoint = now

    def on_heartbeat(self, worker_id: int, heartbeat: Heartbeat) -> None:
        self.slots[worker_id].heartbeat = heartbeat

    def on_message(self, message: Mapping) -> None:
        """An ``item_done`` or ``error`` message posted by a slot's process."""
        slot = self.slots[int(message["worker_id"])]
        incarnation = int(message["incarnation"])
        if message["status"] == "item_done":
            self._record(slot, incarnation, message)
        elif incarnation == slot.incarnation and (
            slot.state in (SlotState.RUNNING, SlotState.STOPPING)
        ):
            detail = f"worker {slot.worker_id}: {message['error']}\n{message['traceback']}"
            slot.state, slot.failure = SlotState.FAILING, ("error", detail)

    def on_exit(
        self,
        worker_id: int,
        exitcode: int | None,
        now: float,
        heartbeat: Heartbeat,
        messages: Iterable[Mapping] = (),
    ) -> None:
        """The slot's process exited: ``heartbeat`` is its last row and
        ``messages`` whatever it posted that was not read yet.

        The messages are read first, so an item the process finished is
        recorded, never requeued.
        """
        slot = self.slots[worker_id]
        slot.heartbeat = heartbeat
        for message in messages:
            self.on_message(message)
        if slot.state is SlotState.STOPPING and exitcode == 0:
            slot.state = SlotState.EXITED
            return
        if slot.state is SlotState.FAILING:
            kind, detail = slot.failure
        else:
            # Any other exit — SIGKILL, OOM, even exit code 0 without a stop
            # — names the worker and the exit code.
            kind, detail = "death", (
                f"worker {worker_id} died with exit code {exitcode} "
                "before reporting a result"
            )
        self._fail(slot, kind, detail, now)

    @property
    def done(self) -> bool:
        """No work left and no process left to wait for."""
        return not self._work_left() and not any(
            slot.state in _LAUNCHED for slot in self.slots
        )

    def tick(self, now: float) -> list:
        """The actions due at ``now``, in the order to apply them."""
        actions: list = []
        self._check_hangs(now, actions)
        if not self._work_left():
            for slot in self.slots:
                if slot.state is SlotState.RUNNING:
                    slot.state = SlotState.STOPPING
                    actions.append(Stop(slot.worker_id))
            return actions
        if all(slot.state is SlotState.GAVE_UP for slot in self.slots):
            raise RuntimeError(
                "process HOGWILD worker failure(s):\n"
                + "\n".join(event.detail for event in self.report.failures)
            )
        for slot in self.slots:
            if slot.state is SlotState.NEW or (
                slot.state is SlotState.BACKOFF and now >= slot.restart_at
            ):
                self._launch(slot, now, actions)
        self._assign(now, actions)
        every = self._checkpoint_every_s
        if every > 0 and now - self._last_checkpoint >= every:
            self._last_checkpoint = now
            self.report.checkpoints_saved += 1
            done = f"{len(self.records)}/{len(self.attempts)} items done"
            self._event("checkpoint", -1, now, done)
            actions.append(Checkpoint(self.remaining()))
        return actions

    def next_wake(self, now: float) -> float:
        """Seconds the I/O loop may wait for events before the next tick."""
        timeout = self.fault_tolerance.poll_interval_s
        if self._work_left():
            for slot in self.slots:
                if slot.state is SlotState.BACKOFF:
                    timeout = min(timeout, max(slot.restart_at - now, 0.0))
        return timeout

    def remaining(self) -> list[dict]:
        """Unfinished work, by item id: queued items, and in-flight items with
        ``skip`` set to the batches their slot's heartbeat reports applied.

        An item already recorded is left out even while another slot still
        runs it (a completion that arrived after its slot's death was
        requeued and handed out again).
        """
        items = [dict(item) for item in self.pending]
        items += [
            self._resumable(slot)
            for slot in self.slots
            if slot.in_flight is not None and int(slot.in_flight["id"]) not in self.records
        ]
        return sorted(items, key=lambda item: int(item["id"]))

    def _work_left(self) -> bool:
        return bool(self.pending) or any(s.in_flight is not None for s in self.slots)

    def _event(self, kind: str, worker_id: int, now: float, detail: str = "") -> None:
        self.report.events.append(
            SupervisionEvent(kind, worker_id, now - self._start, detail)
        )

    def _resumable(self, slot: _Slot) -> dict:
        """``slot``'s in-flight item, skipping the batches its heartbeat
        reports applied."""
        item, beat = slot.in_flight, slot.heartbeat
        skip = int(item.get("skip", 0))
        if (beat.item, beat.incarnation) == (int(item["id"]), slot.incarnation):
            skip = max(skip, beat.progress)
        return dict(item, skip=skip)

    def _record(self, slot: _Slot, incarnation: int, message: Mapping) -> None:
        item_id = int(message["item_id"])
        if (
            slot.in_flight is not None
            and int(slot.in_flight["id"]) == item_id
            and incarnation == slot.incarnation
        ):
            slot.in_flight = None
        if item_id in self.records:
            return
        self.records[item_id] = dict(message)
        # A completion that arrives after its slot's death requeued the
        # item: the queued copy must not run again.
        self.pending = deque(i for i in self.pending if int(i["id"]) != item_id)

    def _fail(self, slot: _Slot, kind: str, detail: str, now: float) -> None:
        self._event(kind, slot.worker_id, now, detail)
        if slot.in_flight is not None:
            self.pending.appendleft(self._resumable(slot))
            slot.in_flight = None
        ft = self.fault_tolerance
        if slot.restarts < ft.max_restarts:
            slot.restarts += 1
            slot.state = SlotState.BACKOFF
            slot.failed_at = now
            slot.restart_at = now + ft.restart_backoff_s(slot.restarts)
        else:
            slot.state = SlotState.GAVE_UP
            detail = f"restart budget ({ft.max_restarts}) exhausted"
            self._event("gave_up", slot.worker_id, now, detail)

    def _launch(self, slot: _Slot, now: float, actions: list) -> None:
        restart = slot.state is SlotState.BACKOFF
        slot.state = SlotState.RUNNING
        slot.incarnation = slot.restarts
        slot.assigned_at = now
        actions.append(Launch(slot.worker_id, slot.incarnation))
        if restart:
            self.report.restarts += 1
            self.report.recovery_latency_s.append(now - slot.failed_at)
            self._event("restart", slot.worker_id, now, f"incarnation {slot.incarnation}")

    def _assign(self, now: float, actions: list) -> None:
        for slot in self.slots:
            if not self.pending:
                return
            if slot.state is not SlotState.RUNNING or slot.in_flight is not None:
                continue
            item = self.pending.popleft()
            tried = self.attempts[int(item["id"])]
            others = tried - {slot.worker_id}
            if others:
                self.report.reassigned_items += 1
                detail = f"item {item['id']} previously attempted by worker(s) {sorted(others)}"
                self._event("reassign", slot.worker_id, now, detail)
            tried.add(slot.worker_id)
            slot.in_flight = item
            slot.assigned_at = now
            actions.append(Assign(slot.worker_id, dict(item)))

    def _check_hangs(self, now: float, actions: list) -> None:
        timeout = self.fault_tolerance.heartbeat_timeout_s
        if timeout <= 0:
            return
        for slot in self.slots:
            if slot.state is not SlotState.RUNNING or slot.in_flight is None:
                continue
            stale = now - max(slot.heartbeat.stamp, slot.assigned_at)
            if stale <= timeout:
                continue
            detail = (
                f"worker {slot.worker_id} heartbeat stale for {stale:.1f}s "
                f"(timeout {timeout}s); killed"
            )
            slot.state, slot.failure = SlotState.FAILING, ("hang", detail)
            actions.append(Kill(slot.worker_id))
