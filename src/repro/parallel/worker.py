"""The worker process of the process-HOGWILD trainer.

A worker attaches the parent's :class:`~repro.parallel.store.SharedParamStore`,
points its own :class:`~repro.core.network.SlideNetwork` and optimiser at the
shared arrays, and trains the work items its private task queue hands it:
one item is one epoch of one shard group of a
:class:`~repro.data.shards.ShardedDataset`.  Besides the model the store
holds three ``_diag::`` arrays, laid out here:

* ``WRITER_MASK`` — one uint64 per output neuron, bit ``w`` set once worker
  slot ``w`` has updated that neuron (the conflict measurement);
* ``WORKER_UPDATES`` — batches applied per worker slot, over all its
  incarnations;
* ``HEARTBEAT`` — one float64 row per worker slot, read by the supervisor
  (:func:`read_heartbeat`).
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Mapping

import numpy as np

from repro.config import OptimizerConfig, SlideNetworkConfig, from_dict
from repro.core.network import SlideNetwork
from repro.data.shards import ShardedDataset
from repro.faults import FaultInjector
from repro.optim.base import Optimizer
from repro.optim.factory import make_optimizer
from repro.parallel.store import SharedParamStore
from repro.parallel.supervisor import Heartbeat
from repro.state import bind_model_arrays, model_arrays

# Reserved name prefix for non-parameter arrays the trainer places in the
# store; no model array name starts with it.
_DIAG_PREFIX = "_diag::"
WRITER_MASK = _DIAG_PREFIX + "writer_mask"
WORKER_UPDATES = _DIAG_PREFIX + "worker_updates"
HEARTBEAT = _DIAG_PREFIX + "heartbeat"

# Heartbeat row columns (float64, so one slab holds counters and
# CLOCK_MONOTONIC stamps alike; the monotonic clock is system-wide on Linux,
# so worker stamps compare directly with the supervisor's clock).  The row
# names the last item the incarnation *claimed* and the batches of it
# applied so far; it is not reset when the item finishes, so a finished
# item reads as fully applied and an item not yet claimed does not match.
_HB_PROGRESS = 0
_HB_STAMP = 1
_HB_ITEM = 2  # -1 until the incarnation claims its first item
_HB_INCARNATION = 3
_HB_COLUMNS = 4


def heartbeat_slab(num_slots: int) -> np.ndarray:
    """A fresh heartbeat array: one row per worker slot, no item claimed."""
    slab = np.zeros((num_slots, _HB_COLUMNS), dtype=np.float64)
    slab[:, _HB_ITEM] = -1.0
    return slab


def read_heartbeat(row: np.ndarray) -> Heartbeat:
    """Decode one slot's heartbeat row."""
    return Heartbeat(
        item=int(row[_HB_ITEM]),
        progress=int(row[_HB_PROGRESS]),
        incarnation=int(row[_HB_INCARNATION]),
        stamp=float(row[_HB_STAMP]),
    )


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
    work item it receives, posts the item's totals back through
    ``result_queue`` (so a later death cannot lose completed work), and
    exits on the ``None`` stop sentinel.  Its heartbeat row is stamped after
    every batch; the supervisor uses it both for hang detection and to
    compute how far a dead worker got into its item.
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
        writer_mask = store[WRITER_MASK]
        worker_updates = store[WORKER_UPDATES]
        heartbeat = store[HEARTBEAT][worker_id]
        worker_bit = np.uint64(1 << worker_id)
        # The previous incarnation's item goes first, so the row never
        # pairs that item with this incarnation.
        heartbeat[_HB_ITEM] = -1.0
        heartbeat[_HB_INCARNATION] = float(incarnation)
        heartbeat[_HB_STAMP] = time.monotonic()

        rebuilds_seen = sum(layer.num_rebuilds for layer in network.layers)
        while True:
            item = task_queue.get()
            if item is None:
                break
            # Progress before the item id: a reader that sees the new id
            # also sees its starting progress.
            progress = int(item.get("skip", 0))
            heartbeat[_HB_PROGRESS] = float(progress)
            heartbeat[_HB_ITEM] = float(item["id"])
            heartbeat[_HB_STAMP] = time.monotonic()

            batches = 0
            samples = 0
            loss_sum = 0.0
            stream = _item_batches(payload, item)
            try:
                for batch in stream:
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
                    batches += 1
                    samples += int(metrics["batch_size"])
                    loss_sum += loss
                    rows = network.output_layer.last_update_rows
                    if rows is not None and rows.size:
                        # Lock-free conflict stamp: OR this worker's bit into
                        # the shared per-neuron writer mask.  The
                        # read-modify-write can race with other workers (same
                        # trade-off as the gradient updates themselves), so
                        # the mask is a floor, not a census.
                        writer_mask[rows] |= worker_bit
                    worker_updates[worker_id] += 1
                    progress += 1
                    heartbeat[_HB_PROGRESS] = float(progress)
                    heartbeat[_HB_STAMP] = time.monotonic()
            finally:
                stream.close()
            rebuilds_now = sum(layer.num_rebuilds for layer in network.layers)
            result_queue.put(
                {
                    "status": "item_done",
                    "worker_id": worker_id,
                    "incarnation": incarnation,
                    "item_id": int(item["id"]),
                    "batches": batches,
                    "samples": samples,
                    "loss_sum": loss_sum,
                    "rebuilds": rebuilds_now - rebuilds_seen,
                }
            )
            rebuilds_seen = rebuilds_now
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
    """Top-level process target (importable, so ``spawn`` can pickle it).

    An exception is relayed to the parent as an ``error`` message; a clean
    exit posts nothing (the supervisor reads the exit code).
    """
    try:
        _run_worker(payload, task_queue, result_queue)
    except BaseException as exc:  # noqa: BLE001 - relayed to the parent
        result_queue.put(
            {
                "status": "error",
                "worker_id": int(payload["worker_id"]),
                "incarnation": int(payload.get("incarnation", 0)),
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        )
