"""True multi-process HOGWILD training over shared-memory parameters.

Threads execute under the GIL, so they cannot demonstrate the paper's core
scaling claim (Figure 9, Table 2).  :class:`ProcessHogwildTrainer` places the
model's weights, biases and optimiser moments, under the
:func:`~repro.state.model_arrays` names a checkpoint uses, in a
:class:`~repro.parallel.store.SharedParamStore`, and trains a
:class:`~repro.data.shards.ShardedDataset` in ``N`` worker processes
(:mod:`repro.parallel.worker`) that update them lock-free (HOGWILD, Recht
et al., 2011), each with a *private* LSH index.  One work item is one epoch
of one of ``N`` balanced shard groups; any worker may run any item, so a
dead worker's items move to the survivors.  A
:class:`~repro.parallel.supervisor.Supervisor` makes every scheduling
decision; this module's one I/O loop launches the processes, reads their
queues, waits on their sentinels and applies the supervisor's actions.

Gradient conflicts are measured by a shared per-neuron writer bitmask (itself
lock-free, so a floor under contention).  ``num_processes=1`` runs inline
through ``SlideTrainer(hogwild=False)``, bit for bit the fused synchronous
path; multi-process runs are not bit-reproducible (update interleaving is
scheduler-dependent) and evaluate once, in the parent, at the end.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
import resource
import time
from dataclasses import dataclass, replace
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.config import FaultToleranceConfig, TrainingConfig, to_dict
from repro.core.inference import evaluate_precision_at_1
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.data.shards import ShardedDataset
from repro.optim.base import Optimizer
from repro.parallel.store import SharedParamStore
from repro.parallel.supervisor import (
    Assign,
    Checkpoint,
    Kill,
    Launch,
    Stop,
    SupervisionReport,
    Supervisor,
)
from repro.parallel.worker import (
    HEARTBEAT,
    WORKER_UPDATES,
    WRITER_MASK,
    _worker_entry,
    heartbeat_slab,
    read_heartbeat,
)
from repro.state import (
    CheckpointError,
    CheckpointStore,
    bind_model_arrays,
    model_arrays,
    restore_train_state,
)

__all__ = [
    "WorkerStats", "ProcessConflictStats", "ProcessTrainingReport", "ProcessHogwildTrainer"
]

# Shared-memory block and worker-process names start with this.
_NAME_PREFIX = "slide-hogwild"

# A uint64 writer bitmask caps the worker count.
MAX_PROCESSES = 64

# Workers share the Adam moment buffers lock-free, so a racing block
# gather/scatter can pair a large first moment with a second moment whose
# accumulation was just overwritten — and Adam's m_hat/sqrt(v_hat) step is
# unbounded in that state (measured: hidden-layer weights exploding within a
# few batches).  Workers therefore run with a bounded-update Adam: each
# element moves at most DEFAULT_UPDATE_CLIP * learning_rate per step, which
# turns a torn moment pair into ordinary bounded HOGWILD noise.  Single
# process paths never clip, so the deterministic fallback stays bit-exact.
DEFAULT_UPDATE_CLIP = 10.0


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return float(usage.ru_utime + usage.ru_stime)


@dataclass
class WorkerStats:
    """Totals of the work items one worker slot completed."""

    worker_id: int
    batches: int
    samples: int
    loss_sum: float
    rebuilds: int


@dataclass
class ProcessConflictStats:
    """Cross-worker gradient conflicts, from the shared writer bitmask."""

    # Output neurons updated by >= 1 worker.
    neurons_updated: int
    # Output neurons updated by >= 2 distinct workers over the whole run.
    neurons_contested: int

    @property
    def contested_fraction(self) -> float:
        """Fraction of updated neurons touched by two or more workers."""
        return self.neurons_contested / max(self.neurons_updated, 1)


@dataclass
class ProcessTrainingReport:
    """Outcome of one :class:`ProcessHogwildTrainer` run."""

    num_processes: int
    start_method: str
    wall_time_s: float
    samples: int
    worker_stats: list[WorkerStats]
    conflict: ProcessConflictStats | None
    # The parent's end-of-run precision@1, when an eval set was given.
    accuracy: float | None = None
    # CPU seconds consumed by the measured training phase only (the parent
    # for inline runs, the reaped workers for multi-process runs) — the
    # same window ``wall_time_s`` covers, so utilisation ratios are honest.
    cpu_time_s: float = 0.0
    # Fault-tolerance telemetry (multi-process runs only).
    supervision: SupervisionReport | None = None

    @property
    def samples_per_sec(self) -> float:
        return self.samples / max(self.wall_time_s, 1e-9)

    def mean_loss(self) -> float:
        batches = sum(stats.batches for stats in self.worker_stats)
        loss_sum = sum(stats.loss_sum for stats in self.worker_stats)
        return loss_sum / batches if batches else 0.0

    def final_accuracy(self) -> float | None:
        return self.accuracy


@dataclass
class _Incarnation:
    """One launched worker process and its two private queues."""

    process: Any
    tasks: Any
    results: Any


def _drain(results) -> list[dict]:
    """Every message readable from a result queue right now."""
    messages = []
    while True:
        try:
            messages.append(results.get_nowait())
        except (queue_module.Empty, EOFError, OSError):  # empty, or a torn pipe
            return messages


def _run_fleet(
    supervisor: Supervisor,
    launch: Callable[[int, int], _Incarnation],
    heartbeat: np.ndarray,
    save_checkpoint: Callable[[list[dict]], None],
    processes: list,
) -> None:
    """Run the worker fleet until ``supervisor`` is done.

    Each pass reads every event — result messages, exits, heartbeat rows —
    into the supervisor, then applies what :meth:`Supervisor.tick` decides.
    Result queues are private to one incarnation: a ``multiprocessing.Queue``
    write holds a cross-process lock, and a worker SIGKILL-ed mid-write
    (fault injection, a hang kill, a real OOM kill) would strand a shared
    lock and deadlock every surviving worker's result path.  With
    per-incarnation queues a death can only strand its own pipe.  The wait
    wakes the instant a worker dies (its sentinel) or a result lands (its
    pipe); the timeout only paces hang detection, restarts and checkpoints.
    """
    fleet: dict[int, _Incarnation] = {}
    while True:
        now = time.monotonic()
        for worker_id, incarnation in list(fleet.items()):
            if incarnation.process.is_alive():
                for message in _drain(incarnation.results):
                    supervisor.on_message(message)
                continue
            incarnation.process.join()
            # Closing our copy of the write end makes a message truncated by
            # the kill read as EOF instead of blocking forever.
            incarnation.results._writer.close()
            supervisor.on_exit(
                worker_id,
                incarnation.process.exitcode,
                now,
                read_heartbeat(heartbeat[worker_id]),
                _drain(incarnation.results),
            )
            del fleet[worker_id]
        for worker_id, row in enumerate(heartbeat):
            supervisor.on_heartbeat(worker_id, read_heartbeat(row))
        if supervisor.done:
            return
        for action in supervisor.tick(now):
            match action:
                case Launch(worker_id, number):
                    fleet[worker_id] = launch(worker_id, number)
                    processes.append(fleet[worker_id].process)
                case Assign(worker_id, item):
                    fleet[worker_id].tasks.put(item)
                case Stop(worker_id):
                    fleet[worker_id].tasks.put(None)
                case Kill(worker_id):
                    fleet[worker_id].process.kill()
                case Checkpoint(items):
                    save_checkpoint(items)
        timeout = supervisor.next_wake(time.monotonic())
        handles = [i.process.sentinel for i in fleet.values()]
        handles += [i.results._reader for i in fleet.values()]
        if handles:
            mp_connection.wait(handles, timeout=timeout)
        else:
            time.sleep(max(min(timeout, 0.05), 0.001))


class ProcessHogwildTrainer:
    """Asynchronous multi-process SLIDE training over shared parameters.

    Each of ``num_processes`` workers builds its own :class:`SlideNetwork`
    (private LSH tables, private rebuild schedule, private RNG streams),
    binds the network's weights/biases and the optimiser's moment buffers to
    the parent's shared-memory blocks, and trains shard-group work items of
    a :class:`~repro.data.shards.ShardedDataset`: the shards are split into
    ``num_processes`` LPT-balanced groups and each item is one epoch of one
    group.  Updates land lock-free (HOGWILD); the run reports measured
    cross-worker gradient conflicts.

    ``num_processes=1`` runs inline through ``SlideTrainer(hogwild=False)``
    on the same dataset and therefore stays bit-for-bit identical to the
    fused synchronous path.  Multi-process workers are forked where the
    platform can fork, otherwise spawned.
    """

    def __init__(
        self,
        network: SlideNetwork,
        training: TrainingConfig,
        num_processes: int = 1,
        fault_tolerance: FaultToleranceConfig | None = None,
        checkpoint_dir: str | Path | None = None,
        fault_plan=None,
    ) -> None:
        if not 1 <= num_processes <= MAX_PROCESSES:
            raise ValueError(f"num_processes must lie in [1, {MAX_PROCESSES}]")
        self.network = network
        self.training = training
        self.num_processes = int(num_processes)
        self.start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self.fault_tolerance = fault_tolerance or FaultToleranceConfig()
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        # Deterministic chaos plan (tests/benchmarks only): shipped to the
        # workers inside their spawn payload.
        self.fault_plan = fault_plan
        self.optimizer: Optimizer | None = None

    def train(
        self,
        train_examples: ShardedDataset,
        eval_examples=None,
        resume: str | Path | None = None,
    ) -> ProcessTrainingReport:
        """Train for ``training.epochs`` epochs; returns the run report.

        ``train_examples`` is a :class:`ShardedDataset` with at least one
        shard per process (``repro.data.ingest_examples`` writes one from an
        example list).  ``resume`` names a checkpoint version directory (or
        a :class:`~repro.state.CheckpointStore` root, in which
        case the newest *intact* version is used) written by a previous run
        with the same configuration; training continues from the work items
        that run had not yet finished.
        """
        if not isinstance(train_examples, ShardedDataset):
            raise TypeError(
                "ProcessHogwildTrainer trains a ShardedDataset, not "
                f"{type(train_examples).__name__}; write one with "
                "repro.data.ingest_examples"
            )
        if train_examples.num_shards < self.num_processes:
            raise ValueError(
                f"the dataset has {train_examples.num_shards} shard(s) for "
                f"{self.num_processes} processes; each process needs at least "
                "one shard (ingest with a smaller shard_size)"
            )
        if self.num_processes == 1:
            return self._train_inline(train_examples, eval_examples, resume)
        return self._train_processes(train_examples, eval_examples, resume)

    def _evaluate(self, eval_examples) -> float | None:
        if eval_examples is None or not len(eval_examples):
            return None
        return evaluate_precision_at_1(self.network, eval_examples)

    def _train_inline(
        self, train_examples, eval_examples, resume=None
    ) -> ProcessTrainingReport:
        trainer = SlideTrainer(
            self.network,
            self.training,
            hogwild=False,
            checkpoint_dir=self.checkpoint_dir,
            fault_tolerance=self.fault_tolerance,
        )
        # Evaluation stays outside the timed region on every path: the
        # multi-process run evaluates once in the parent after the wall
        # clock stops, so the 1-process baseline must not pay per-epoch
        # eval time inside its measurement either (it would inflate every
        # speedup_vs_1 downstream).  CPU accounting covers the same window.
        cpu_before = _cpu_seconds(resource.RUSAGE_SELF)
        start = time.perf_counter()
        records = trainer.train(train_examples, None, resume=resume).records
        wall = time.perf_counter() - start
        cpu_time = _cpu_seconds(resource.RUSAGE_SELF) - cpu_before
        self.optimizer = trainer.optimizer
        stats = WorkerStats(
            worker_id=0,
            batches=len(records),
            samples=sum(r.batch_size for r in records),
            loss_sum=sum(r.loss for r in records),
            rebuilds=sum(layer.num_rebuilds for layer in self.network.layers),
        )
        return ProcessTrainingReport(
            num_processes=1,
            start_method="inline",
            wall_time_s=wall,
            samples=stats.samples,
            worker_stats=[stats],
            conflict=None,
            accuracy=self._evaluate(eval_examples),
            cpu_time_s=cpu_time,
        )

    def _worker_network_config(self, worker_id: int):
        """Per-worker network config: distinct seed, rescaled rebuild cadence.

        The seed offset decorrelates the workers' hash functions and random
        padding.  The rebuild schedule is expressed in *local* iterations but
        each worker only sees ``1/N`` of the global update stream, so its
        periods are divided by ``N`` — keeping the hash tables as fresh,
        relative to parameter movement, as a single-process run's.
        """
        config = self.network.config
        layers = []
        for layer in config.layers:
            rebuild = layer.rebuild
            scaled = replace(
                rebuild,
                initial_period=max(1, rebuild.initial_period // self.num_processes),
                max_period=max(1, rebuild.max_period // self.num_processes),
            )
            layers.append(replace(layer, rebuild=scaled))
        return replace(
            config,
            layers=tuple(layers),
            seed=int(config.seed) + 7919 * (worker_id + 1),
        )

    def _build_items(self, groups: list[list[int]]) -> list[dict]:
        """The run's full work-item list: one item per (epoch, shard group)."""
        return [
            {"id": epoch * len(groups) + group, "epoch": epoch, "group": group, "skip": 0}
            for epoch in range(int(self.training.epochs))
            for group in range(len(groups))
        ]

    def _restore_process_state(self, resume, optimizer):
        """Restore a mid-run checkpoint into the bound shared arrays.

        Called *after* :func:`bind_model_arrays` has pointed the model at the
        store, so the in-place restore writes straight through into shared
        memory and every worker attaches to the checkpointed parameters.
        Returns ``(items, groups, base_step)``; the checkpoint's items index
        into *its* group list, so the groups come from the checkpoint too
        (which lets any worker count pick the run back up).
        """
        state = restore_train_state(
            resume,
            self.network,
            optimizer,
            mode="process",
            seed=int(self.training.seed),
        )
        for key, current in (
            ("epochs", int(self.training.epochs)),
            ("batch_size", int(self.training.batch_size)),
            ("kind", "shards"),
        ):
            if state.get(key) != current:
                raise CheckpointError(
                    f"checkpoint {resume} was written with {key}={state.get(key)!r}; "
                    f"this run uses {key}={current!r}"
                )
        if state.get("groups") is None:
            raise CheckpointError(
                f"checkpoint {resume} records no shard groups; it cannot "
                "seed a shard-group resume"
            )
        items = [dict(item) for item in state["items"]]
        groups = [[int(s) for s in group] for group in state["groups"]]
        return items, groups, int(optimizer.step_count)

    def _save_process_checkpoint(
        self, ckpt_store, optimizer, base_step, groups, items, worker_updates
    ) -> None:
        """Write one atomic mid-run checkpoint from the parent.

        The parent's network is bound to the shared arrays, so the snapshot
        sees the workers' latest (racy, HOGWILD-consistent) parameters; the
        sidecar records which work items are still outstanding, each with
        the number of batches its current owner had already applied.
        """
        optimizer.step_count = base_step + int(np.sum(worker_updates))
        # Workers rebuild their own private tables; the parent's index is
        # stale until rehashed, and the checkpoint stores table contents.
        self.network.rebuild_all_tables()
        train_state = {
            "mode": "process",
            "kind": "shards",
            "seed": int(self.training.seed),
            "epochs": int(self.training.epochs),
            "batch_size": int(self.training.batch_size),
            "num_processes": self.num_processes,
            "items": items,
            "groups": groups,
        }
        ckpt_store.save(
            self.network,
            optimizer,
            metadata={"train_state": train_state},
            keep_last=self.fault_tolerance.checkpoint_keep_last,
        )

    def _slot_stats(self, records: dict[int, dict]) -> list[WorkerStats]:
        """Fold per-item ``item_done`` messages into per-worker-slot totals."""
        stats = [WorkerStats(w, 0, 0, 0.0, 0) for w in range(self.num_processes)]
        for item_id in sorted(records):
            message = records[item_id]
            slot = stats[int(message["worker_id"])]
            slot.batches += int(message["batches"])
            slot.samples += int(message["samples"])
            slot.loss_sum += float(message["loss_sum"])
            slot.rebuilds += int(message["rebuilds"])
        return stats

    def _train_processes(
        self, train_examples, eval_examples, resume=None
    ) -> ProcessTrainingReport:
        optimizer = self.network.build_optimizer(self.training)
        self.optimizer = optimizer
        arrays = model_arrays(self.network, optimizer)
        arrays[WRITER_MASK] = np.zeros(self.network.output_dim, dtype=np.uint64)
        arrays[WORKER_UPDATES] = np.zeros(self.num_processes, dtype=np.int64)
        arrays[HEARTBEAT] = heartbeat_slab(self.num_processes)
        store = SharedParamStore.create(arrays, prefix=_NAME_PREFIX)
        context = mp.get_context(self.start_method)
        processes: list = []
        try:
            bind_model_arrays(self.network, optimizer, store)
            if resume is not None:
                items, groups, base_step = self._restore_process_state(
                    resume, optimizer
                )
            else:
                groups = train_examples.assign_shards(self.num_processes)
                items, base_step = self._build_items(groups), 0
            worker_optimizer = optimizer.to_config()
            if worker_optimizer.name == "adam" and worker_optimizer.update_clip is None:
                worker_optimizer = replace(
                    worker_optimizer, update_clip=DEFAULT_UPDATE_CLIP
                )
            payload = {
                "manifest": store.manifest(),
                "optimizer_config": to_dict(worker_optimizer),
                "training": {
                    "batch_size": int(self.training.batch_size),
                    "epochs": int(self.training.epochs),
                    "shuffle": bool(self.training.shuffle),
                },
                # Every worker carries the whole group list: any worker may
                # run any item, which is what makes items reassignable after
                # a death.
                "data": {
                    "cache_dir": str(train_examples.cache_dir),
                    "groups": groups,
                    "seed": int(self.training.seed),
                },
                "step_stride": self.num_processes,
                "fault_plan": self.fault_plan.to_dict() if self.fault_plan else None,
            }
            worker_updates = store[WORKER_UPDATES]

            def launch(worker_id: int, incarnation: int) -> _Incarnation:
                worker_payload = dict(
                    payload,
                    worker_id=worker_id,
                    incarnation=incarnation,
                    network_config=to_dict(self._worker_network_config(worker_id)),
                    # A restarted incarnation keeps the slot's global batch
                    # coordinate, so fault specs addressed by batch index do
                    # not re-fire after a restart.
                    start_batch=int(worker_updates[worker_id]),
                )
                tasks, results = context.Queue(), context.Queue()
                process = context.Process(
                    target=_worker_entry,
                    args=(worker_payload, tasks, results),
                    name=f"{_NAME_PREFIX}-{worker_id}-i{incarnation}",
                    daemon=True,
                )
                process.start()
                return _Incarnation(process, tasks, results)

            checkpoints = None
            if self.checkpoint_dir is not None and self.fault_tolerance.checkpoint_every_s > 0:
                checkpoints = CheckpointStore(self.checkpoint_dir)

            def save_checkpoint(remaining: list[dict]) -> None:
                self._save_process_checkpoint(
                    checkpoints, optimizer, base_step, groups, remaining, worker_updates
                )

            # RUSAGE_CHILDREN accounts reaped children only; the loop joins
            # every worker (and every failed incarnation) before returning,
            # so the delta below covers exactly their lifetimes.
            cpu_before = _cpu_seconds(resource.RUSAGE_CHILDREN)
            start = time.perf_counter()
            supervisor = Supervisor(
                items,
                self.num_processes,
                self.fault_tolerance,
                time.monotonic(),
                checkpoint_every_s=(
                    self.fault_tolerance.checkpoint_every_s if checkpoints else 0.0
                ),
            )
            _run_fleet(
                supervisor, launch, store[HEARTBEAT], save_checkpoint, processes
            )
            wall = time.perf_counter() - start
            cpu_time = _cpu_seconds(resource.RUSAGE_CHILDREN) - cpu_before
            worker_stats = self._slot_stats(supervisor.records)
            supervision = supervisor.report
            updates = int(np.sum(worker_updates))
            supervision.lost_batches = updates - sum(s.batches for s in worker_stats)
            writers = np.bitwise_count(store[WRITER_MASK])
            conflict = ProcessConflictStats(
                neurons_updated=int(np.count_nonzero(writers)),
                neurons_contested=int(np.count_nonzero(writers >= 2)),
            )
            # The shared moments experienced one decay/accumulate cycle per
            # worker batch (the shared counter is the authoritative census,
            # including updates whose item_done died with a worker); stamp
            # that global count onto the adopted optimiser so bias
            # correction (and any checkpoint/resume) sees mature moments
            # with a mature step count, not t=0.
            optimizer.step_count = base_step + updates
        finally:
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join(5.0)
            # Back onto private copies, so the store can be unlinked.
            names = model_arrays(self.network, optimizer)
            bind_model_arrays(
                self.network,
                optimizer,
                {name: store.copy_out(name) for name in names},
            )
            store.close()
            store.unlink()

        # Workers trained against their own tables; re-hash the parent's
        # index over the final shared weights before any further use.
        self.network.rebuild_all_tables()
        return ProcessTrainingReport(
            num_processes=self.num_processes,
            start_method=self.start_method,
            wall_time_s=wall,
            samples=sum(stats.samples for stats in worker_stats),
            worker_stats=worker_stats,
            conflict=conflict,
            accuracy=self._evaluate(eval_examples),
            cpu_time_s=cpu_time,
            supervision=supervision,
        )
