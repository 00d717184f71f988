"""True multi-process HOGWILD training over shared-memory parameters.

Threads execute under the GIL, so they cannot demonstrate the paper's
central systems claim — near-linear scaling with CPU cores (Figure 9,
Table 2).  This module provides the real thing:

* :class:`SharedParamStore` places named arrays in
  ``multiprocessing.shared_memory`` blocks: the model's weights, biases and
  optimiser moments under the names of
  :func:`~repro.state.model_arrays` (the same names a checkpoint's
  ``arrays.npz`` uses), plus three ``_diag::`` arrays (writer mask, update
  counters, heartbeats).  The store serialises its layout into a JSON-safe
  *manifest*; worker processes — forked or spawned — reattach the blocks
  zero-copy from the manifest and point their own ``SlideNetwork`` /
  optimiser at the shared arrays with
  :func:`~repro.state.bind_model_arrays`.
* :class:`ProcessHogwildTrainer` trains a
  :class:`~repro.data.shards.ShardedDataset` in ``N`` worker processes that
  perform lock-free asynchronous updates directly into the shared parameters
  (HOGWILD at micro-batch granularity, Recht et al., 2011).  The shards are
  split into ``N`` balanced groups, and one work item is one epoch of one
  group; any worker may run any item, so a dead worker's items move to the
  survivors.  Per the paper's design each worker owns a *private* LSH index
  over the shared weights, rebuilt on the worker's own schedule; nothing but
  the parameter arrays (and small diagnostic counters) is shared, and no
  locks are taken anywhere on the training path.

Gradient conflicts are *measured*, not assumed away: every worker stamps its
per-batch update footprint into a shared per-neuron writer bitmask, and the
parent reports how many neurons were touched by two or more workers (plus a
cross-worker :class:`~repro.parallel.conflicts.ConflictReport` over the
worker footprints).  The bitmask update is itself lock-free and therefore
slightly approximate under contention — exactly the trade-off HOGWILD makes
for the gradients themselves.

With ``num_processes=1`` the trainer runs inline through
``SlideTrainer(hogwild=False)`` on the same dataset — bit-for-bit identical
weights to the fused synchronous path on the same data and seed, which is
what the parity tests pin and what the scaling benches measure speedups
against.

Multi-process runs are *not* bit-reproducible: update interleaving across
workers is scheduler-dependent, which is inherent to HOGWILD.  Periodic
mid-training evaluation (``TrainingConfig.eval_every``) is skipped in
multi-process mode; end-of-training evaluation still runs in the parent.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_module
import resource
import secrets
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.config import (
    FaultToleranceConfig,
    OptimizerConfig,
    SlideNetworkConfig,
    TrainingConfig,
    from_dict,
    to_dict,
)
from repro.core.inference import evaluate_precision_at_1
from repro.core.network import SlideNetwork
from repro.core.trainer import IterationRecord, SlideTrainer, TrainingHistory
from repro.data.shards import ShardedDataset
from repro.faults import FaultInjector
from repro.optim.base import Optimizer
from repro.optim.factory import make_optimizer
from repro.parallel.conflicts import ConflictReport, analyze_update_conflicts
from repro.state import (
    CheckpointError,
    CheckpointStore,
    bind_model_arrays,
    model_arrays,
    restore_train_state,
)

__all__ = [
    "SharedParamStore",
    "WorkerStats",
    "ProcessConflictStats",
    "SupervisionEvent",
    "SupervisionReport",
    "ProcessTrainingReport",
    "ProcessHogwildTrainer",
]

# Reserved name prefix for non-parameter arrays the trainer places in the
# store (conflict counters, heartbeats); no model array name starts with it.
_DIAG_PREFIX = "_diag::"
_WRITER_MASK = _DIAG_PREFIX + "writer_mask"
_WORKER_UPDATES = _DIAG_PREFIX + "worker_updates"
_HEARTBEAT = _DIAG_PREFIX + "heartbeat"

# Heartbeat slab columns, one row per worker slot (float64 so a single
# store covers progress counters and CLOCK_MONOTONIC stamps alike; the
# monotonic clock is system-wide on Linux, so stamps written by workers are
# directly comparable with the supervisor's own reading of the clock).
_HB_PROGRESS = 0  # batches of the current work item applied so far
_HB_STAMP = 1  # time.monotonic() of the last progress update
_HB_ITEM = 2  # id of the work item being processed (-1 when idle)
_HB_INCARNATION = 3  # restart count of the worker slot
_HB_COLUMNS = 4

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


def _attach_segment(name: str):
    """Attach an existing shared-memory block, untracked where possible.

    Python 3.13+ exposes ``track=False`` so attaching registers nothing with
    the resource tracker.  On older interpreters the attach *does* register,
    which is harmless here: every attaching process in this module is a
    descendant of the creating one, so all of them share the creator's
    resource-tracker process, whose cache is a set — the re-registration is
    idempotent and exactly one unregister happens when the owner unlinks.
    (The classic premature-unlink hazard, bpo-38119, needs *independent*
    trackers, i.e. attaching from an unrelated process — not our topology.)
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter.
        return shared_memory.SharedMemory(name=name, create=False)


class SharedParamStore:
    """Named ndarrays backed by ``multiprocessing.shared_memory`` blocks.

    One block per array.  The creating process copies the source arrays in
    (:meth:`create`) and owns the blocks' lifetime (:meth:`unlink`); any
    process holding the :meth:`manifest` can :meth:`attach` zero-copy views
    of the same memory.  Views returned by ``store[name]`` stay valid until
    :meth:`close`; callers must drop every outstanding view (rebind the
    model to ``{name: store.copy_out(name)}`` with
    :func:`~repro.state.bind_model_arrays`) before closing, or the
    export check in ``mmap.close`` will refuse.
    """

    def __init__(
        self,
        segments: dict[str, object],
        arrays: dict[str, np.ndarray],
        specs: dict[str, dict[str, object]],
        owner: bool,
    ) -> None:
        self._segments = segments
        self._arrays = arrays
        self._specs = specs
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, arrays: Mapping[str, np.ndarray], prefix: str = "slide"
    ) -> "SharedParamStore":
        """Allocate shared blocks for ``arrays`` and copy their contents in."""
        from multiprocessing import shared_memory

        if not arrays:
            raise ValueError("arrays must not be empty")
        token = secrets.token_hex(4)
        segments: dict[str, object] = {}
        views: dict[str, np.ndarray] = {}
        specs: dict[str, dict[str, object]] = {}
        try:
            for index, (name, array) in enumerate(arrays.items()):
                if not name:
                    raise ValueError("array names must be non-empty")
                source = np.ascontiguousarray(array)
                shm_name = f"{prefix}-{os.getpid():x}-{token}-{index}"
                segment = shared_memory.SharedMemory(
                    name=shm_name, create=True, size=max(source.nbytes, 1)
                )
                view = np.ndarray(source.shape, dtype=source.dtype, buffer=segment.buf)
                view[...] = source
                segments[name] = segment
                views[name] = view
                specs[name] = {
                    "shm": shm_name,
                    "shape": [int(dim) for dim in source.shape],
                    "dtype": source.dtype.str,
                }
        except BaseException:
            for name, segment in segments.items():
                views.pop(name, None)
                segment.close()
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
            raise
        return cls(segments, views, specs, owner=True)

    @classmethod
    def attach(cls, manifest: Mapping[str, object]) -> "SharedParamStore":
        """Reattach every block described by ``manifest`` (zero-copy)."""
        entries = manifest.get("arrays")
        if not isinstance(entries, Mapping) or not entries:
            raise ValueError("manifest has no 'arrays' section")
        segments: dict[str, object] = {}
        views: dict[str, np.ndarray] = {}
        specs: dict[str, dict[str, object]] = {}
        try:
            for name, spec in entries.items():
                segment = _attach_segment(str(spec["shm"]))
                shape = tuple(int(dim) for dim in spec["shape"])
                dtype = np.dtype(str(spec["dtype"]))
                expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
                if segment.size < expected:
                    segment.close()
                    raise ValueError(
                        f"shared block {spec['shm']!r} holds {segment.size} bytes; "
                        f"manifest expects at least {expected}"
                    )
                segments[name] = segment
                views[name] = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
                specs[name] = {
                    "shm": str(spec["shm"]),
                    "shape": list(shape),
                    "dtype": dtype.str,
                }
        except BaseException:
            for name, segment in segments.items():
                views.pop(name, None)
                segment.close()
            raise
        return cls(segments, views, specs, owner=False)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def owner(self) -> bool:
        return self._owner

    @property
    def closed(self) -> bool:
        return self._closed

    def names(self) -> list[str]:
        return list(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __getitem__(self, name: str) -> np.ndarray:
        if self._closed:
            raise RuntimeError("store is closed; views are no longer valid")
        return self._arrays[name]

    def copy_out(self, name: str) -> np.ndarray:
        """A private (non-shared) copy of the named array's current contents."""
        return np.array(self[name])

    def manifest(self) -> dict[str, object]:
        """JSON-serialisable layout: pass to workers, :meth:`attach` there."""
        return {
            "format": 1,
            "arrays": {name: dict(spec) for name, spec in self._specs.items()},
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the blocks (views die; the memory itself survives)."""
        if self._closed:
            return
        self._arrays.clear()
        for segment in self._segments.values():
            segment.close()
        self._closed = True

    def unlink(self) -> None:
        """Free the blocks system-wide (owner's responsibility, idempotent)."""
        for segment in self._segments.values():
            try:
                segment.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedParamStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        if self._owner:
            self.unlink()


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return float(usage.ru_utime + usage.ru_stime)


def _popcount(values: np.ndarray) -> np.ndarray:
    """Per-element set-bit count of a uint64 array."""
    bitwise_count = getattr(np, "bitwise_count", None)
    if bitwise_count is not None:
        return bitwise_count(values).astype(np.int64)
    counts = np.zeros(values.shape, dtype=np.int64)  # pragma: no cover - numpy<2
    for bit in range(64):  # pragma: no cover - numpy<2
        counts += ((values >> np.uint64(bit)) & np.uint64(1)).astype(np.int64)
    return counts  # pragma: no cover - numpy<2


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class WorkerStats:
    """Per-worker training telemetry returned through the result queue."""

    worker_id: int
    batches: int
    samples: int
    wall_time_s: float
    mean_loss: float
    losses: list[float]
    active_neurons: list[int]
    active_weights: list[int]
    batch_sizes: list[int]
    rebuilds: int
    # Sorted unique output-neuron ids this worker updated at least once.
    footprint: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


@dataclass
class ProcessConflictStats:
    """Cross-worker gradient-conflict measurements for one training run."""

    output_dim: int
    # Output neurons updated by >= 1 worker (from the shared writer bitmask).
    neurons_updated: int
    # Output neurons updated by >= 2 distinct workers over the whole run.
    neurons_contested: int
    # Conflict analysis treating each worker's whole-run footprint as one
    # update set (the pairwise-overlap view of the same data).
    footprint_report: ConflictReport
    # Batch updates applied per worker, read back from the shared counter
    # array — the through-shared-memory cross-check of WorkerStats.batches.
    worker_update_counts: list[int] = field(default_factory=list)

    @property
    def contested_fraction(self) -> float:
        """Fraction of updated neurons touched by two or more workers."""
        return self.neurons_contested / max(self.neurons_updated, 1)


@dataclass
class SupervisionEvent:
    """One observation of the supervisor loop (death, restart, checkpoint…).

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
    # Shared-counter batches minus batches whose telemetry reached the
    # parent: updates a killed worker applied but never reported (retrained
    # after the restart — HOGWILD tolerates the duplication as noise).
    lost_batches: int = 0
    checkpoints_saved: int = 0
    # Per restart: seconds from detecting the death/hang to the replacement
    # process being launched (includes the scheduled backoff).
    recovery_latency_s: list[float] = field(default_factory=list)

    @property
    def failures(self) -> list[SupervisionEvent]:
        return [e for e in self.events if e.kind in ("death", "error", "hang")]


@dataclass
class ProcessTrainingReport:
    """Outcome of one :class:`ProcessHogwildTrainer` run."""

    num_processes: int
    start_method: str
    wall_time_s: float
    samples: int
    worker_stats: list[WorkerStats]
    conflict: ProcessConflictStats | None
    # Merged per-batch records (round-robin across workers in multi-process
    # runs); ``epoch_accuracy`` carries the parent's end-of-run evaluation.
    history: TrainingHistory
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
        losses = [loss for stats in self.worker_stats for loss in stats.losses]
        return float(np.mean(losses)) if losses else 0.0

    def final_accuracy(self) -> float | None:
        return self.history.final_accuracy()


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _group_seed(base_seed: int, group: int) -> int:
    """Shuffle seed for one shard group, independent of which worker runs it.

    Work items must produce the same batch stream no matter which worker
    slot executes them — that is what makes a shard-group item *reassignable*
    after a worker dies — so the seed is keyed on the group index, never on
    the worker id.
    """
    return (int(base_seed) * 1_000_003 + 7919 * (int(group) + 1)) & 0x7FFFFFFF


def _item_batches(payload: dict, item: Mapping[str, Any]):
    """Yield the batches of one work item, skipping ``item['skip']`` of them.

    An item streams one :class:`ShardedDataset` shard group for one epoch (a
    ``try``/``finally`` guarantees the resident shard's mmap is released
    even when the item is abandoned mid-stream by a fault).
    """
    data = payload["data"]
    training = payload["training"]
    group = int(item["group"])
    skip = int(item.get("skip", 0))
    dataset = ShardedDataset(
        data["cache_dir"],
        seed=_group_seed(int(data["seed"]), group),
        shard_subset=data["groups"][group],
    )
    try:
        for index, batch in enumerate(
            dataset.iter_batches(
                int(training["batch_size"]),
                epoch=int(item["epoch"]),
                shuffle=bool(training["shuffle"]),
                release=True,
            )
        ):
            # Already-trained batches are decompressed and discarded: skip
            # cost is proportional to progress lost, never to the whole run.
            if index < skip:
                continue
            yield batch
    finally:
        dataset.close()


def _run_worker(payload: dict, task_queue, result_queue) -> None:
    """Task loop of one worker incarnation.

    The worker owns no epoch logic: it blocks on ``task_queue``, trains each
    work item it receives, posts the item's full per-batch telemetry back
    through ``result_queue`` (so a later death cannot lose completed work),
    and exits on the ``None`` stop sentinel.  A heartbeat row in the shared
    store is stamped after every batch; the supervisor uses it both for
    hang detection and to compute how far a dead worker got into its item.
    """
    worker_id = int(payload["worker_id"])
    incarnation = int(payload.get("incarnation", 0))
    store = SharedParamStore.attach(payload["manifest"])
    network: SlideNetwork | None = None
    optimizer: Optimizer | None = None
    try:
        network = SlideNetwork(
            from_dict(SlideNetworkConfig, payload["network_config"])
        )
        optimizer = make_optimizer(
            from_dict(OptimizerConfig, payload["optimizer_config"])
        )
        for layer in network.layers:
            layer.register_parameters(optimizer)
        # Shared moments decay/accumulate at the *global* update rate (all
        # workers write them); pace this worker's Adam bias correction to
        # match rather than to its local step count.
        optimizer.step_stride = int(payload.get("step_stride", 1))
        bind_model_arrays(network, optimizer, store)
        # The constructor hashed the worker's *random* init; re-hash the
        # shared weights so this worker's private LSH index reflects the
        # actual model before the first batch.
        network.rebuild_all_tables()

        injector = FaultInjector.from_payload(payload, worker_id, incarnation)
        writer_mask = store[_WRITER_MASK]
        worker_updates = store[_WORKER_UPDATES]
        heartbeat = store[_HEARTBEAT][worker_id]
        worker_bit = np.uint64(1 << worker_id)
        heartbeat[_HB_INCARNATION] = float(incarnation)
        heartbeat[_HB_ITEM] = -1.0
        heartbeat[_HB_STAMP] = time.monotonic()

        rebuilds_seen = sum(layer.num_rebuilds for layer in network.layers)
        while True:
            item = task_queue.get()
            if item is None:
                break
            progress = int(item.get("skip", 0))
            heartbeat[_HB_PROGRESS] = float(progress)
            heartbeat[_HB_ITEM] = float(item["id"])
            heartbeat[_HB_STAMP] = time.monotonic()

            losses: list[float] = []
            active_neurons: list[int] = []
            active_weights: list[int] = []
            batch_sizes: list[int] = []
            footprint_chunks: list[np.ndarray] = []
            samples = 0
            start = time.perf_counter()
            batches = _item_batches(payload, item)
            try:
                for batch in batches:
                    injector.on_batch()
                    metrics = network.train_batch(batch, optimizer, hogwild=False)
                    loss = float(metrics["loss"])
                    if not np.isfinite(loss):
                        # A NaN/inf loss means the shared parameters are
                        # poisoned (corrupt block, runaway update); training
                        # on cannot recover and silently spreads the damage.
                        raise RuntimeError(
                            f"non-finite loss {loss!r} in worker {worker_id} "
                            f"(epoch {item['epoch']}, item {item['id']}): "
                            "shared parameters are corrupt"
                        )
                    losses.append(loss)
                    active_neurons.append(int(metrics["active_neurons"]))
                    active_weights.append(int(metrics["active_weights"]))
                    batch_sizes.append(int(metrics["batch_size"]))
                    samples += int(metrics["batch_size"])
                    rows = network.output_layer.last_update_rows
                    if rows is not None and rows.size:
                        # Lock-free conflict stamp: OR this worker's bit into
                        # the shared per-neuron writer mask.  The
                        # read-modify-write can race with other workers (same
                        # trade-off as the gradient updates themselves), so
                        # the mask is a floor, not a census.
                        writer_mask[rows] |= worker_bit
                        footprint_chunks.append(np.asarray(rows, dtype=np.int64))
                    worker_updates[worker_id] += 1
                    progress += 1
                    heartbeat[_HB_PROGRESS] = float(progress)
                    heartbeat[_HB_STAMP] = time.monotonic()
            finally:
                batches.close()
            wall = time.perf_counter() - start
            rebuilds_now = sum(layer.num_rebuilds for layer in network.layers)
            result_queue.put(
                {
                    "status": "item_done",
                    "worker_id": worker_id,
                    "incarnation": incarnation,
                    "item_id": int(item["id"]),
                    "batches": len(losses),
                    "samples": samples,
                    "wall_time_s": wall,
                    "losses": losses,
                    "active_neurons": active_neurons,
                    "active_weights": active_weights,
                    "batch_sizes": batch_sizes,
                    "rebuilds": rebuilds_now - rebuilds_seen,
                    "footprint": (
                        np.unique(np.concatenate(footprint_chunks))
                        if footprint_chunks
                        else np.zeros(0, dtype=np.int64)
                    ),
                }
            )
            rebuilds_seen = rebuilds_now
            heartbeat[_HB_ITEM] = -1.0
            heartbeat[_HB_STAMP] = time.monotonic()
    finally:
        try:
            if network is not None and optimizer is not None:
                # Drop every view into the store before closing it: ndarray
                # views keep the underlying mmap exported, and close() would
                # refuse while exports exist.
                names = model_arrays(network, optimizer)
                bind_model_arrays(
                    network, optimizer, {name: store.copy_out(name) for name in names}
                )
        finally:
            store.close()


def _worker_entry(payload: dict, task_queue, result_queue) -> None:
    """Top-level process target (importable, so ``spawn`` can pickle it)."""
    worker_id = int(payload["worker_id"])
    incarnation = int(payload.get("incarnation", 0))
    try:
        _run_worker(payload, task_queue, result_queue)
    except BaseException as exc:  # noqa: BLE001 - relayed to the parent
        result_queue.put(
            {
                "status": "error",
                "worker_id": worker_id,
                "incarnation": incarnation,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        )
        return
    result_queue.put(
        {"status": "ok", "worker_id": worker_id, "incarnation": incarnation}
    )


# ----------------------------------------------------------------------
# Trainer
# ----------------------------------------------------------------------
@dataclass
class _WorkerSlot:
    """Parent-side bookkeeping for one supervised worker slot."""

    worker_id: int
    process: Any = None
    task_queue: Any = None
    result_queue: Any = None
    incarnation: int = 0
    restarts: int = 0
    running: bool = False  # process launched and not yet known-dead
    alive: bool = True  # restart budget not exhausted
    stop_sent: bool = False
    got_final: bool = False
    in_flight: dict | None = None
    assigned_at: float = 0.0
    # Monotonic deadline of a scheduled (backed-off) restart, if any.
    restart_at: float | None = None
    # Monotonic time the death/hang that scheduled the restart was detected.
    died_at: float | None = None
    failures: list[str] = field(default_factory=list)


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
        self.last_report: ProcessTrainingReport | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
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
            report = self._train_inline(train_examples, eval_examples, resume)
        else:
            report = self._train_processes(train_examples, eval_examples, resume)
        self.last_report = report
        return report

    # ------------------------------------------------------------------
    # Single-process deterministic baseline
    # ------------------------------------------------------------------
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
        history = trainer.train(train_examples, None, resume=resume)
        wall = time.perf_counter() - start
        cpu_time = _cpu_seconds(resource.RUSAGE_SELF) - cpu_before
        if eval_examples is not None and len(eval_examples):
            history.epoch_accuracy.append(
                evaluate_precision_at_1(self.network, eval_examples)
            )
        self.optimizer = trainer.optimizer
        records = history.records
        stats = WorkerStats(
            worker_id=0,
            batches=len(records),
            samples=sum(r.batch_size for r in records),
            wall_time_s=wall,
            mean_loss=float(np.mean([r.loss for r in records])) if records else 0.0,
            losses=[r.loss for r in records],
            active_neurons=[r.active_neurons for r in records],
            active_weights=[r.active_weights for r in records],
            batch_sizes=[r.batch_size for r in records],
            rebuilds=sum(layer.num_rebuilds for layer in self.network.layers),
        )
        return ProcessTrainingReport(
            num_processes=1,
            start_method="inline",
            wall_time_s=wall,
            samples=stats.samples,
            worker_stats=[stats],
            conflict=None,
            history=history,
            cpu_time_s=cpu_time,
        )

    # ------------------------------------------------------------------
    # Multi-process path
    # ------------------------------------------------------------------
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

    def _remaining_items(self, pending, slots, heartbeat) -> list[dict]:
        """Snapshot of unfinished work: queued items + live in-flight skips."""
        out = [dict(item) for item in pending]
        for slot in slots:
            if slot.in_flight is None:
                continue
            item = dict(slot.in_flight)
            row = heartbeat[slot.worker_id]
            if (
                int(row[_HB_ITEM]) == int(item["id"])
                and int(row[_HB_INCARNATION]) == slot.incarnation
            ):
                item["skip"] = max(int(item.get("skip", 0)), int(row[_HB_PROGRESS]))
            out.append(item)
        out.sort(key=lambda item: int(item["id"]))
        return out

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

    def _supervise(
        self,
        context,
        payload_base: list[dict],
        items: list[dict],
        groups: list[list[int]],
        store: SharedParamStore,
        optimizer: Optimizer,
        base_step: int,
        processes: list,
    ) -> tuple[list[WorkerStats], SupervisionReport]:
        """Run the worker fleet to completion, restarting/reassigning on failure.

        The supervisor owns all scheduling: work items live in a parent-side
        queue, each worker slot gets one item at a time through its private
        task queue, and completed items come back — with their full
        per-batch telemetry — through a result queue private to that worker
        incarnation.  Result queues are deliberately *not* shared: a
        ``multiprocessing.Queue`` write holds a cross-process lock, and a
        worker SIGKILL-ed mid-write (fault injection, the supervisor's own
        hang-kill, a real OOM kill) would strand a shared lock and deadlock
        every surviving worker's result path — observed as cascading
        heartbeat-stale kills.  With per-incarnation queues a death can only
        strand its own pipe.  Worker death is detected promptly via
        ``multiprocessing.connection.wait`` on the
        process sentinels (not by polling a timeout window); hangs are
        detected from stale heartbeat rows in shared memory.  A failed slot
        is restarted with exponential backoff up to
        ``fault_tolerance.max_restarts`` times; any slot may run any item, so
        when a slot's budget is exhausted its outstanding items drain to the
        surviving workers.  Only when every slot is dead with work left does
        the run fail, with every underlying worker failure in the message.
        """
        ft = self.fault_tolerance
        run_start = time.monotonic()
        worker_updates = store[_WORKER_UPDATES]
        heartbeat = store[_HEARTBEAT]
        report = SupervisionReport()
        pending: deque = deque(items)
        records: dict[int, dict] = {}
        attempts: dict[int, set[int]] = {int(item["id"]): set() for item in items}
        slots = [_WorkerSlot(worker_id=w) for w in range(self.num_processes)]

        ckpt_store = None
        if self.checkpoint_dir is not None and ft.checkpoint_every_s > 0:
            ckpt_store = CheckpointStore(self.checkpoint_dir)
        last_checkpoint = run_start

        def now_s() -> float:
            return time.monotonic() - run_start

        def launch(slot: _WorkerSlot) -> None:
            # Salvage anything the previous incarnation managed to deliver
            # before its pipe is replaced (completed work must survive the
            # writer's death).  Closing our copy of the write end first makes
            # a message truncated by the kill surface as EOF instead of a
            # read that blocks forever.
            if slot.result_queue is not None:
                try:
                    slot.result_queue._writer.close()
                except OSError:  # pragma: no cover - already closed
                    pass
                drain_slot(slot)
            slot.incarnation = slot.restarts
            payload = dict(payload_base[slot.worker_id])
            payload["incarnation"] = slot.incarnation
            # Restarted incarnations keep the slot's global batch coordinate
            # (read from the shared counter) so fault specs addressed by
            # batch index do not re-fire after a restart.
            payload["start_batch"] = int(worker_updates[slot.worker_id])
            slot.task_queue = context.Queue()
            slot.result_queue = context.Queue()
            process = context.Process(
                target=_worker_entry,
                args=(payload, slot.task_queue, slot.result_queue),
                name=f"{_NAME_PREFIX}-{slot.worker_id}-i{slot.incarnation}",
                daemon=True,
            )
            process.start()
            processes.append(process)
            slot.process = process
            slot.running = True
            slot.got_final = False
            slot.stop_sent = False
            slot.in_flight = None
            slot.assigned_at = time.monotonic()
            slot.restart_at = None

        def requeue_in_flight(slot: _WorkerSlot) -> None:
            item = slot.in_flight
            if item is None:
                return
            slot.in_flight = None
            progress = int(item.get("skip", 0))
            row = heartbeat[slot.worker_id]
            if (
                int(row[_HB_ITEM]) == int(item["id"])
                and int(row[_HB_INCARNATION]) == slot.incarnation
            ):
                # Resume the item where the dead worker's heartbeat left it;
                # at most one applied-but-unstamped batch gets retrained.
                progress = max(progress, int(row[_HB_PROGRESS]))
            fresh = dict(item)
            fresh["skip"] = progress
            pending.appendleft(fresh)

        def handle_failure(slot: _WorkerSlot, event_kind: str, detail: str) -> None:
            report.events.append(
                SupervisionEvent(
                    kind=event_kind,
                    worker_id=slot.worker_id,
                    time_s=now_s(),
                    detail=detail,
                )
            )
            slot.failures.append(detail)
            slot.running = False
            slot.died_at = time.monotonic()
            requeue_in_flight(slot)
            if slot.restarts < ft.max_restarts:
                slot.restarts += 1
                slot.restart_at = time.monotonic() + ft.restart_backoff_s(slot.restarts)
            else:
                slot.alive = False
                slot.restart_at = None
                report.events.append(
                    SupervisionEvent(
                        kind="gave_up",
                        worker_id=slot.worker_id,
                        time_s=now_s(),
                        detail=f"restart budget ({ft.max_restarts}) exhausted",
                    )
                )

        def consume_message(message: dict) -> None:
            slot = slots[int(message["worker_id"])]
            status = message["status"]
            incarnation = int(message.get("incarnation", 0))
            if status == "item_done":
                item_id = int(message["item_id"])
                if (
                    slot.in_flight is not None
                    and int(slot.in_flight["id"]) == item_id
                    and incarnation == slot.incarnation
                ):
                    slot.in_flight = None
                if item_id not in records:
                    records[item_id] = message
                    # A completion racing its own death re-enqueue:
                    # drop the queued duplicate so the item is not
                    # trained twice.
                    for queued in pending:
                        if int(queued["id"]) == item_id:
                            pending.remove(queued)
                            break
            elif status == "ok":
                if incarnation == slot.incarnation:
                    slot.got_final = True
            else:  # "error"
                if incarnation != slot.incarnation or not slot.running:
                    return  # stale message from an already-replaced incarnation
                slot.process.join(5.0)
                if slot.process.is_alive():  # pragma: no cover - defensive
                    slot.process.terminate()
                    slot.process.join(5.0)
                handle_failure(
                    slot,
                    "error",
                    f"worker {slot.worker_id}: {message['error']}\n"
                    f"{message['traceback']}",
                )

        def drain_slot(slot: _WorkerSlot) -> None:
            queue = slot.result_queue
            if queue is None:
                return
            while True:
                try:
                    message = queue.get_nowait()
                except queue_module.Empty:
                    return
                except (EOFError, OSError):  # pragma: no cover - torn pipe
                    return
                consume_message(message)

        def drain_results() -> None:
            for slot in slots:
                drain_slot(slot)

        def check_deaths() -> None:
            for slot in slots:
                if not slot.running or slot.process.is_alive():
                    continue
                slot.process.join(0)
                exitcode = slot.process.exitcode
                if exitcode == 0 and (
                    slot.got_final or (slot.stop_sent and slot.in_flight is None)
                ):
                    # Clean exit (the final "ok" may still be in the pipe
                    # when the sentinel fires first).
                    slot.running = False
                    slot.got_final = True
                    continue
                # Any other silent exit — SIGKILL, OOM, even exit code 0
                # without posting a result — is surfaced immediately with
                # the worker id and exit code, not after a join timeout.
                handle_failure(
                    slot,
                    "death",
                    f"worker {slot.worker_id} died with exit code {exitcode} "
                    "before reporting a result",
                )

        def check_hangs() -> None:
            if ft.heartbeat_timeout_s <= 0:
                return
            now = time.monotonic()
            for slot in slots:
                if not slot.running or slot.in_flight is None:
                    continue
                last = max(float(heartbeat[slot.worker_id][_HB_STAMP]), slot.assigned_at)
                if now - last <= ft.heartbeat_timeout_s:
                    continue
                detail = (
                    f"worker {slot.worker_id} heartbeat stale for "
                    f"{now - last:.1f}s (timeout {ft.heartbeat_timeout_s}s); killed"
                )
                slot.process.kill()
                slot.process.join(5.0)
                handle_failure(slot, "hang", detail)

        def work_remaining() -> bool:
            return bool(pending) or any(s.in_flight is not None for s in slots)

        def do_restarts() -> None:
            now = time.monotonic()
            for slot in slots:
                if slot.restart_at is None or not slot.alive or now < slot.restart_at:
                    continue
                died_at = slot.died_at
                launch(slot)
                report.restarts += 1
                if died_at is not None:
                    report.recovery_latency_s.append(time.monotonic() - died_at)
                report.events.append(
                    SupervisionEvent(
                        kind="restart",
                        worker_id=slot.worker_id,
                        time_s=now_s(),
                        detail=f"incarnation {slot.incarnation}",
                    )
                )

        def assign_work() -> None:
            for slot in slots:
                if not slot.running or slot.stop_sent or slot.in_flight is not None:
                    continue
                if not pending:
                    return
                chosen = pending.popleft()
                others = attempts[int(chosen["id"])] - {slot.worker_id}
                if others:
                    report.reassigned_items += 1
                    report.events.append(
                        SupervisionEvent(
                            kind="reassign",
                            worker_id=slot.worker_id,
                            time_s=now_s(),
                            detail=(
                                f"item {chosen['id']} previously attempted by "
                                f"worker(s) {sorted(others)}"
                            ),
                        )
                    )
                attempts[int(chosen["id"])].add(slot.worker_id)
                slot.in_flight = chosen
                slot.assigned_at = time.monotonic()
                slot.task_queue.put(dict(chosen))

        def maybe_checkpoint() -> None:
            nonlocal last_checkpoint
            if ckpt_store is None:
                return
            now = time.monotonic()
            if now - last_checkpoint < ft.checkpoint_every_s:
                return
            self._save_process_checkpoint(
                ckpt_store,
                optimizer,
                base_step,
                groups,
                self._remaining_items(pending, slots, heartbeat),
                worker_updates,
            )
            last_checkpoint = time.monotonic()
            report.checkpoints_saved += 1
            report.events.append(
                SupervisionEvent(
                    kind="checkpoint",
                    worker_id=-1,
                    time_s=now_s(),
                    detail=f"{len(records)}/{len(items)} items done",
                )
            )

        for slot in slots:
            launch(slot)

        while True:
            drain_results()
            check_deaths()
            check_hangs()
            if not work_remaining():
                for slot in slots:
                    slot.restart_at = None
                    if slot.running and not slot.stop_sent:
                        slot.task_queue.put(None)
                        slot.stop_sent = True
                if not any(slot.running for slot in slots):
                    break
            else:
                if not any(slot.alive for slot in slots):
                    failures = [f for slot in slots for f in slot.failures]
                    raise RuntimeError(
                        "process HOGWILD worker failure(s):\n" + "\n".join(failures)
                    )
                do_restarts()
                assign_work()
                maybe_checkpoint()

            timeout = ft.poll_interval_s
            for slot in slots:
                if slot.restart_at is not None and slot.alive:
                    timeout = min(
                        timeout, max(slot.restart_at - time.monotonic(), 0.0)
                    )
            handles = [slot.process.sentinel for slot in slots if slot.running]
            for slot in slots:
                if slot.running:
                    reader = getattr(slot.result_queue, "_reader", None)
                    if reader is not None:
                        handles.append(reader)
            if handles:
                # Wakes the instant a worker dies (sentinel) or a result
                # lands (queue pipe) — the fallback timeout only paces hang
                # detection and scheduled restarts.
                mp_connection.wait(handles, timeout=timeout)
            else:
                time.sleep(max(min(timeout, 0.05), 0.001))

        report.lost_batches = int(np.sum(worker_updates)) - sum(
            int(message["batches"]) for message in records.values()
        )
        return self._slot_stats(records), report

    def _slot_stats(self, records: dict[int, dict]) -> list[WorkerStats]:
        """Fold per-item result messages into per-worker-slot WorkerStats."""
        stats: list[WorkerStats] = []
        for worker_id in range(self.num_processes):
            losses: list[float] = []
            active_neurons: list[int] = []
            active_weights: list[int] = []
            batch_sizes: list[int] = []
            footprints: list[np.ndarray] = []
            samples = 0
            wall = 0.0
            rebuilds = 0
            for item_id in sorted(records):
                message = records[item_id]
                if int(message["worker_id"]) != worker_id:
                    continue
                losses.extend(message["losses"])
                active_neurons.extend(message["active_neurons"])
                active_weights.extend(message["active_weights"])
                batch_sizes.extend(message["batch_sizes"])
                samples += int(message["samples"])
                wall += float(message["wall_time_s"])
                rebuilds += int(message["rebuilds"])
                footprint = np.asarray(message["footprint"], dtype=np.int64)
                if footprint.size:
                    footprints.append(footprint)
            stats.append(
                WorkerStats(
                    worker_id=worker_id,
                    batches=len(losses),
                    samples=samples,
                    wall_time_s=wall,
                    mean_loss=float(np.mean(losses)) if losses else 0.0,
                    losses=losses,
                    active_neurons=active_neurons,
                    active_weights=active_weights,
                    batch_sizes=batch_sizes,
                    rebuilds=rebuilds,
                    footprint=(
                        np.unique(np.concatenate(footprints))
                        if footprints
                        else np.zeros(0, dtype=np.int64)
                    ),
                )
            )
        return stats

    def _merge_history(self, worker_stats: list[WorkerStats]) -> TrainingHistory:
        """Round-robin the workers' per-batch records into one history.

        Iteration numbers reflect the merged order (an *approximation* of the
        true global interleaving, which is scheduler-dependent); per-record
        wall time is the worker's average seconds per batch.
        """
        history = TrainingHistory()
        per_batch_time = {
            stats.worker_id: stats.wall_time_s / max(stats.batches, 1)
            for stats in worker_stats
        }
        iteration = 0
        depth = max((stats.batches for stats in worker_stats), default=0)
        for batch_index in range(depth):
            for stats in worker_stats:
                if batch_index >= stats.batches:
                    continue
                iteration += 1
                history.records.append(
                    IterationRecord(
                        iteration=iteration,
                        loss=stats.losses[batch_index],
                        batch_size=stats.batch_sizes[batch_index],
                        active_neurons=stats.active_neurons[batch_index],
                        active_weights=stats.active_weights[batch_index],
                        wall_time_s=per_batch_time[stats.worker_id],
                    )
                )
        return history

    def _conflict_stats(
        self, store: SharedParamStore, worker_stats: list[WorkerStats]
    ) -> ProcessConflictStats:
        counts = _popcount(store[_WRITER_MASK])
        footprints = [np.asarray(stats.footprint, dtype=np.int64) for stats in worker_stats]
        return ProcessConflictStats(
            output_dim=self.network.output_dim,
            neurons_updated=int(np.count_nonzero(counts)),
            neurons_contested=int(np.count_nonzero(counts >= 2)),
            footprint_report=analyze_update_conflicts(
                footprints, self.network.output_dim
            ),
            worker_update_counts=[int(c) for c in store[_WORKER_UPDATES]],
        )

    def _train_processes(
        self, train_examples, eval_examples, resume=None
    ) -> ProcessTrainingReport:
        optimizer = self.network.build_optimizer(self.training)
        self.optimizer = optimizer
        arrays = model_arrays(self.network, optimizer)
        arrays[_WRITER_MASK] = np.zeros(self.network.output_dim, dtype=np.uint64)
        arrays[_WORKER_UPDATES] = np.zeros(self.num_processes, dtype=np.int64)
        arrays[_HEARTBEAT] = np.zeros(
            (self.num_processes, _HB_COLUMNS), dtype=np.float64
        )
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
            # Every worker carries the whole group list: any worker may run
            # any item, which is what makes items reassignable after a death.
            data = {
                "cache_dir": str(train_examples.cache_dir),
                "groups": groups,
                "seed": int(self.training.seed),
            }
            manifest = store.manifest()
            worker_optimizer = optimizer.to_config()
            if worker_optimizer.name == "adam" and worker_optimizer.update_clip is None:
                worker_optimizer = replace(
                    worker_optimizer, update_clip=DEFAULT_UPDATE_CLIP
                )
            optimizer_config = to_dict(worker_optimizer)
            training_spec = {
                "batch_size": int(self.training.batch_size),
                "epochs": int(self.training.epochs),
                "shuffle": bool(self.training.shuffle),
            }
            fault_plan = (
                self.fault_plan.to_dict()
                if self.fault_plan is not None and self.fault_plan
                else None
            )
            payload_base = [
                {
                    "worker_id": worker_id,
                    "manifest": manifest,
                    "network_config": to_dict(self._worker_network_config(worker_id)),
                    "optimizer_config": optimizer_config,
                    "training": training_spec,
                    "data": data,
                    "step_stride": self.num_processes,
                    "fault_plan": fault_plan,
                }
                for worker_id in range(self.num_processes)
            ]
            # RUSAGE_CHILDREN accounts reaped children only; the supervisor
            # joins every worker (and every failed incarnation) before
            # returning, so the delta below covers exactly their lifetimes.
            cpu_before = _cpu_seconds(resource.RUSAGE_CHILDREN)
            start = time.perf_counter()
            worker_stats, supervision = self._supervise(
                context,
                payload_base,
                items,
                groups,
                store,
                optimizer,
                base_step,
                processes,
            )
            wall = time.perf_counter() - start
            cpu_time = _cpu_seconds(resource.RUSAGE_CHILDREN) - cpu_before
            conflict = self._conflict_stats(store, worker_stats)
            # The shared moments experienced one decay/accumulate cycle per
            # worker batch (the shared counter is the authoritative census,
            # including updates whose telemetry died with a worker); stamp
            # that global count onto the adopted optimiser so bias
            # correction (and any checkpoint/resume) sees mature moments
            # with a mature step count, not t=0.
            optimizer.step_count = base_step + int(np.sum(store[_WORKER_UPDATES]))
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
        history = self._merge_history(worker_stats)
        if eval_examples is not None and len(eval_examples):
            history.epoch_accuracy.append(
                evaluate_precision_at_1(self.network, eval_examples)
            )
        return ProcessTrainingReport(
            num_processes=self.num_processes,
            start_method=self.start_method,
            wall_time_s=wall,
            samples=sum(stats.samples for stats in worker_stats),
            worker_stats=worker_stats,
            conflict=conflict,
            history=history,
            cpu_time_s=cpu_time,
            supervision=supervision,
        )
