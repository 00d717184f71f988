"""The process-HOGWILD scheduling state machine, driven without processes.

:class:`~repro.parallel.supervisor.Supervisor` takes events and returns
actions, so these tests play both the I/O loop and the workers in memory
(:class:`FakeFleet`): whole runs with a hang kill, a restart and a
reassignment; the orderings of a completion and a death; and every order
of "item_done delivered", "slot death observed", "restart due" and
"checkpoint snapshot" on a 2-slot, 4-item run.  The worker half of the
heartbeat contract (a finished item stays on its row) is checked against
the real worker loop, run in this process.
"""

from __future__ import annotations

import ast
import itertools
import queue
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from repro.config import FaultToleranceConfig, to_dict
from repro.core.network import SlideNetwork
from repro.data.ingest import ingest_examples
from repro.data.shards import ShardedDataset
from repro.parallel import supervisor as supervisor_module
from repro.parallel.store import SharedParamStore
from repro.parallel.supervisor import (
    Assign,
    Checkpoint,
    Heartbeat,
    Kill,
    Launch,
    SlotState,
    Stop,
    Supervisor,
)
from repro.parallel.worker import (
    HEARTBEAT,
    WORKER_UPDATES,
    WRITER_MASK,
    _run_worker,
    heartbeat_slab,
    read_heartbeat,
)
from repro.state import model_arrays

ITEM_BATCHES = 3
FT = FaultToleranceConfig(
    heartbeat_timeout_s=0.0,
    max_restarts=1,
    backoff_base_s=0.5,
    backoff_max_s=0.5,
)


def _items(count: int) -> list[dict]:
    return [{"id": i, "epoch": 0, "group": i, "skip": 0} for i in range(count)]


@dataclass
class _Process:
    incarnation: int
    tasks: deque = field(default_factory=deque)
    pipe: list = field(default_factory=list)
    exitcode: int | None = None  # set once the process has exited


class FakeFleet:
    """The I/O loop and the worker processes of one run, in memory.

    A fake worker applies batches exactly as the real one does: it writes
    its heartbeat row per batch and leaves it on a finished item.
    ``applied`` counts every batch applied to each item over all attempts,
    so a retrained or dropped batch shows up at the end.
    """

    def __init__(self, supervisor: Supervisor) -> None:
        self.supervisor = supervisor
        self.now = 0.0
        self.processes: dict[int, _Process] = {}
        self.rows = {
            slot.worker_id: Heartbeat(-1, 0, 0, 0.0) for slot in supervisor.slots
        }
        self.applied: Counter = Counter()
        self.snapshots = 0
        # Messages of a slot whose exit was observed without its pipe.
        self.late: list = []

    # The I/O loop's half -------------------------------------------------
    def read_heartbeats(self) -> None:
        for worker_id, row in self.rows.items():
            self.supervisor.on_heartbeat(worker_id, row)

    def tick(self) -> None:
        self.read_heartbeats()
        for action in self.supervisor.tick(self.now):
            match action:
                case Launch(worker_id, incarnation):
                    assert worker_id not in self.processes
                    self.processes[worker_id] = _Process(incarnation)
                    self.rows[worker_id] = Heartbeat(-1, 0, incarnation, self.now)
                case Assign(worker_id, item):
                    assert item["id"] not in self.supervisor.records, (
                        f"item {item['id']} assigned after it was recorded"
                    )
                    self.processes[worker_id].tasks.append(item)
                case Stop(worker_id):
                    self.processes[worker_id].tasks.append(None)
                case Kill(worker_id):
                    self.processes[worker_id].exitcode = -9
                case Checkpoint(items):
                    self.check_snapshot(items)

    def deliver(self, worker_id: int) -> None:
        """The loop drains a slot's result pipe."""
        process = self.processes.get(worker_id)
        if process is not None:
            for message in process.pipe:
                self.supervisor.on_message(message)
            process.pipe.clear()

    def observe_exit(self, worker_id: int, drain: bool = True) -> None:
        """The loop sees the slot's sentinel; ``drain`` hands over its pipe."""
        process = self.processes.pop(worker_id)
        self.supervisor.on_exit(
            worker_id,
            process.exitcode,
            self.now,
            self.rows[worker_id],
            process.pipe if drain else (),
        )
        if not drain:
            self.late = process.pipe

    # The workers' half ---------------------------------------------------
    def work(self, worker_id: int, batches: int | None = None) -> None:
        """The worker takes its next task and applies ``batches`` of it, or
        all of it and posts ``item_done`` when ``batches`` is None."""
        process = self.processes[worker_id]
        item = process.tasks.popleft()
        if item is None:
            process.exitcode = 0
            return
        start = int(item["skip"])
        end = ITEM_BATCHES if batches is None else min(start + batches, ITEM_BATCHES)
        self.applied[item["id"]] += end - start
        self.rows[worker_id] = Heartbeat(item["id"], end, process.incarnation, self.now)
        if batches is None:
            process.pipe.append(
                {
                    "status": "item_done",
                    "worker_id": worker_id,
                    "incarnation": process.incarnation,
                    "item_id": item["id"],
                    "batches": end - start,
                }
            )
        else:
            process.tasks.appendleft(dict(item, skip=end))

    def kill(self, worker_id: int) -> None:
        self.processes[worker_id].exitcode = -9

    # Checks -----------------------------------------------------------------
    def check_snapshot(self, items: list[dict]) -> None:
        ids = [item["id"] for item in items]
        recorded = set(self.supervisor.records)
        assert len(ids) == len(set(ids))
        assert not recorded & set(ids), "a recorded item is in the snapshot"
        assert recorded | set(ids) == set(self.supervisor.attempts)
        for item in items:
            assert item["skip"] == self.applied[item["id"]], item
        self.snapshots += 1

    def finish(self, max_passes: int = 50) -> None:
        """Run every live process to completion, one pass per tick."""
        for _ in range(max_passes):
            self.tick()
            if self.supervisor.done:
                return
            for worker_id in list(self.processes):
                process = self.processes[worker_id]
                if process.exitcode is None and process.tasks:
                    self.work(worker_id)
                self.deliver(worker_id)
                if process.exitcode is not None:
                    self.observe_exit(worker_id)
            self.now += 1.0
        raise AssertionError("the run did not finish")

    def check_finished(self, num_items: int) -> None:
        assert self.supervisor.done
        assert sorted(self.supervisor.records) == list(range(num_items))
        assert self.supervisor.remaining() == []
        # No batch was trained twice and none was dropped.
        assert self.applied == {i: ITEM_BATCHES for i in range(num_items)}


def _imported_modules(path: Path) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def test_the_supervisor_imports_no_core_data_or_multiprocessing():
    modules = _imported_modules(Path(supervisor_module.__file__))
    forbidden = [
        module
        for module in modules
        if module.split(".")[:2] in (["repro", "core"], ["repro", "data"])
        or module.split(".")[0] in ("multiprocessing", "subprocess", "os")
    ]
    assert forbidden == []
    assert "repro.config" in modules  # the scan sees the imports it should


class TestWholeRun:
    def test_hang_kill_restart_reassign_finish(self):
        ft = FaultToleranceConfig(
            heartbeat_timeout_s=5.0,
            max_restarts=1,
            backoff_base_s=0.5,
            backoff_max_s=0.5,
        )
        supervisor = Supervisor(_items(4), 2, ft, now=0.0)
        fleet = FakeFleet(supervisor)
        fleet.tick()
        assert set(fleet.processes) == {0, 1}
        # Slot 1 applies two batches of item 1, then stops heartbeating.
        fleet.work(1, batches=2)
        fleet.work(0)
        fleet.deliver(0)
        fleet.now = 6.0
        fleet.tick()  # slot 0 takes item 2; slot 1's heartbeat is stale
        assert supervisor.slots[1].state is SlotState.FAILING
        assert fleet.processes[1].exitcode == -9
        fleet.observe_exit(1)
        # Its item went back to the queue skipping the two applied batches.
        assert supervisor.pending[0] == dict(_items(4)[1], skip=2)
        fleet.work(0)
        fleet.deliver(0)
        fleet.tick()  # slot 0 is free first: item 1 is reassigned
        assert supervisor.slots[0].in_flight["id"] == 1
        fleet.now = 7.0
        fleet.tick()  # slot 1's backoff is over: it is relaunched
        assert fleet.processes[1].incarnation == 1
        fleet.finish()

        fleet.check_finished(4)
        report = supervisor.report
        kinds = [event.kind for event in report.events]
        assert kinds.count("hang") == 1 and kinds.count("restart") == 1
        assert report.restarts == 1 and report.reassigned_items == 1
        assert report.recovery_latency_s == [1.0]
        assert supervisor.records[1]["batches"] == 1
        assert all(slot.state is SlotState.EXITED for slot in supervisor.slots)

    def test_an_error_message_then_exit_is_an_error_failure(self):
        supervisor = Supervisor(_items(2), 2, FT, now=0.0)
        fleet = FakeFleet(supervisor)
        fleet.tick()
        fleet.processes[1].pipe.append(
            {
                "status": "error",
                "worker_id": 1,
                "incarnation": 0,
                "error": "InjectedFault: boom",
                "traceback": "...",
            }
        )
        fleet.deliver(1)
        assert supervisor.slots[1].state is SlotState.FAILING
        fleet.processes[1].exitcode = 0
        fleet.observe_exit(1)
        assert [e.kind for e in supervisor.report.failures] == ["error"]
        assert "InjectedFault: boom" in supervisor.report.failures[0].detail
        fleet.finish()
        fleet.check_finished(2)

    def test_every_slot_out_of_budget_fails_the_run_naming_exit_codes(self):
        ft = FaultToleranceConfig(heartbeat_timeout_s=0.0, max_restarts=0)
        supervisor = Supervisor(_items(2), 2, ft, now=0.0)
        fleet = FakeFleet(supervisor)
        fleet.tick()
        for worker_id in (0, 1):
            fleet.kill(worker_id)
            fleet.observe_exit(worker_id)
        assert [e.kind for e in supervisor.report.events].count("gave_up") == 2
        with pytest.raises(RuntimeError, match="worker 1 died with exit code -9"):
            fleet.tick()

    def test_a_clean_exit_without_a_stop_is_a_death(self):
        supervisor = Supervisor(_items(1), 1, FT, now=0.0)
        fleet = FakeFleet(supervisor)
        fleet.tick()
        fleet.processes[0].exitcode = 0
        fleet.observe_exit(0)
        assert "died with exit code 0" in supervisor.report.failures[0].detail

    def test_checkpoints_are_due_at_their_cadence_while_work_remains(self):
        supervisor = Supervisor(_items(3), 2, FT, now=0.0, checkpoint_every_s=2.0)
        fleet = FakeFleet(supervisor)
        fleet.tick()
        fleet.work(0, batches=1)
        fleet.now = 1.0
        fleet.tick()
        assert fleet.snapshots == 0
        fleet.now = 2.0
        fleet.tick()
        assert fleet.snapshots == 1
        fleet.finish()
        fleet.check_finished(3)
        assert supervisor.report.checkpoints_saved == fleet.snapshots

    def test_no_items_launches_nothing(self):
        supervisor = Supervisor([], 2, FT, now=0.0)
        assert supervisor.done
        assert supervisor.tick(0.0) == []


class TestCompletionVersusDeath:
    """The orderings behind an item trained twice: a finished item read as
    unstarted, and a dead slot's item requeued before its pipe was read."""

    def _running(self, items: int = 4):
        supervisor = Supervisor(_items(items), 2, FT, now=0.0)
        fleet = FakeFleet(supervisor)
        fleet.tick()
        return supervisor, fleet

    def test_a_finished_item_whose_message_is_unread_snapshots_as_fully_applied(self):
        supervisor, fleet = self._running()
        fleet.work(1)  # item 1 done; item_done still in the pipe
        fleet.tick()
        assert supervisor.slots[1].in_flight["id"] == 1
        snapshot = {item["id"]: item["skip"] for item in supervisor.remaining()}
        assert snapshot == {0: 0, 1: ITEM_BATCHES, 2: 0, 3: 0}

    def test_a_dead_slots_delivered_completion_is_recorded_not_requeued(self):
        supervisor, fleet = self._running()
        fleet.work(1)
        fleet.kill(1)  # dies right after posting item_done
        fleet.observe_exit(1)
        assert 1 in supervisor.records
        assert [item["id"] for item in supervisor.pending] == [2, 3]
        fleet.finish()
        fleet.check_finished(4)

    def test_a_completion_read_after_the_death_is_recorded_once(self):
        supervisor, fleet = self._running()
        fleet.work(1)
        fleet.kill(1)
        fleet.observe_exit(1, drain=False)
        # Requeued, skipping every batch the heartbeat saw applied.
        assert supervisor.pending[0] == dict(_items(4)[1], skip=ITEM_BATCHES)
        for message in fleet.late:
            supervisor.on_message(message)
        assert 1 in supervisor.records
        assert [item["id"] for item in supervisor.pending] == [2, 3]
        fleet.finish()
        fleet.check_finished(4)


EVENTS = ("item_done", "death", "restart", "snapshot")


def _schedule(order, victim_batches, drain_at_death) -> FakeFleet:
    """One schedule: slot 0 has finished item 0 (message unread); slot 1
    holds item 1 unclaimed (``victim_batches`` 0), part-applied, or
    finished with its message unread; then ``order`` plays out and the
    run is finished."""
    supervisor = Supervisor(_items(4), 2, FT, now=0.0)
    fleet = FakeFleet(supervisor)
    fleet.tick()
    fleet.work(0)
    if victim_batches == ITEM_BATCHES:
        fleet.work(1)
    elif victim_batches:
        fleet.work(1, batches=victim_batches)
    for event in order:
        if event == "item_done":
            fleet.deliver(0)
            fleet.deliver(1)
            for message in fleet.late:
                supervisor.on_message(message)
            fleet.late = []
        elif event == "death":
            fleet.kill(1)
            fleet.observe_exit(1, drain=drain_at_death)
        elif event == "restart":
            fleet.now = 1.0  # past the 0.5 s backoff
        else:
            fleet.read_heartbeats()
            fleet.check_snapshot(supervisor.remaining())
        fleet.tick()
    for message in fleet.late:
        supervisor.on_message(message)
    fleet.finish()
    fleet.check_finished(4)
    return fleet


@pytest.mark.parametrize("drain_at_death", [True, False])
@pytest.mark.parametrize("victim_batches", [0, 2, ITEM_BATCHES])
def test_every_order_of_completion_death_restart_and_snapshot(
    victim_batches, drain_at_death
):
    for order in itertools.permutations(EVENTS):
        fleet = _schedule(order, victim_batches, drain_at_death)
        assert fleet.snapshots >= 1, order
        kinds = [event.kind for event in fleet.supervisor.report.events]
        assert kinds.count("death") == 1, order


# ----------------------------------------------------------------------
# The worker's half of the heartbeat contract, on the real worker loop
# ----------------------------------------------------------------------
def test_the_worker_leaves_a_finished_item_on_its_heartbeat_row(
    tiny_dataset, tiny_network_config, tiny_training_config, tmp_path
):
    ingest_examples(
        tiny_dataset.train,
        feature_dim=tiny_dataset.config.feature_dim,
        label_dim=tiny_dataset.config.label_dim,
        cache_dir=tmp_path / "shards",
        shard_size=24,
    )
    dataset = ShardedDataset(tmp_path / "shards")
    network = SlideNetwork(tiny_network_config)
    optimizer = network.build_optimizer(tiny_training_config)
    arrays = model_arrays(network, optimizer)
    arrays[WRITER_MASK] = np.zeros(network.output_dim, dtype=np.uint64)
    arrays[WORKER_UPDATES] = np.zeros(1, dtype=np.int64)
    arrays[HEARTBEAT] = heartbeat_slab(1)
    item = {"id": 3, "epoch": 0, "group": 0, "skip": 0}
    batch_size = tiny_training_config.batch_size
    tasks, results = queue.Queue(), queue.Queue()
    tasks.put(item)
    tasks.put(None)
    with SharedParamStore.create(arrays, prefix="test-worker") as store:
        payload = {
            "worker_id": 0,
            "manifest": store.manifest(),
            "network_config": to_dict(network.config),
            "optimizer_config": to_dict(optimizer.to_config()),
            "training": {"batch_size": batch_size, "epochs": 1, "shuffle": True},
            "data": {
                "cache_dir": str(dataset.cache_dir),
                "groups": dataset.assign_shards(1),
                "seed": 0,
            },
            "fault_plan": None,
        }
        _run_worker(payload, tasks, results)
        row = read_heartbeat(store[HEARTBEAT][0])
        applied = int(store[WORKER_UPDATES][0])
    message = results.get_nowait()
    assert message["status"] == "item_done"
    assert applied == message["batches"] == -(-len(dataset) // batch_size)
    assert (row.item, row.progress, row.incarnation) == (3, applied, 0)

    # Read by the supervisor before the item_done arrives, the row says
    # every batch is applied: a checkpoint or requeue skips them all.
    supervisor = Supervisor([item], 1, FT, now=0.0)
    supervisor.tick(0.0)
    supervisor.on_heartbeat(0, row)
    assert supervisor.remaining() == [dict(item, skip=applied)]
