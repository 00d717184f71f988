"""In-process training driver for SLIDE networks.

The trainer owns the epoch/batch loop, the optimiser, periodic evaluation and
per-iteration records of the *work* performed (active neurons, active
weights) and of its measured wall-clock time.  Training in several worker
processes is :class:`repro.parallel.trainer.ProcessHogwildTrainer`'s job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from repro.config import FaultToleranceConfig, TrainingConfig
from repro.core.inference import evaluate_precision_at_1
from repro.core.network import SlideNetwork
from repro.state import CheckpointStore, restore_train_state
from repro.types import SparseBatch, SparseExample
from repro.utils.rng import derive_rng

__all__ = [
    "IterationRecord",
    "TrainingHistory",
    "SlideTrainer",
    "capture_network_runtime_state",
    "restore_network_runtime_state",
]

# Any random-access example source works for training: a plain list, or the
# mmap-backed ``repro.data.ShardedDataset`` (same ``len``/``__getitem__``
# contract, so the global shuffle — and therefore every batch and loss —
# is bit-for-bit identical across the two).
ExampleSource = Sequence[SparseExample]


@dataclass
class IterationRecord:
    """Work and quality metrics for one training iteration (mini-batch)."""

    iteration: int
    loss: float
    batch_size: int
    active_neurons: int
    active_weights: int
    wall_time_s: float
    accuracy: float | None = None


@dataclass
class TrainingHistory:
    """Accumulated per-iteration records plus end-of-epoch evaluations."""

    records: list[IterationRecord] = field(default_factory=list)
    epoch_accuracy: list[float] = field(default_factory=list)

    def iterations(self) -> np.ndarray:
        return np.array([r.iteration for r in self.records], dtype=np.int64)

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records], dtype=np.float64)

    def accuracies(self) -> list[tuple[int, float]]:
        """(iteration, accuracy) pairs for iterations that were evaluated."""
        return [(r.iteration, r.accuracy) for r in self.records if r.accuracy is not None]

    def total_active_neurons(self) -> int:
        return int(sum(r.active_neurons for r in self.records))

    def total_active_weights(self) -> int:
        return int(sum(r.active_weights for r in self.records))

    def total_wall_time(self) -> float:
        return float(sum(r.wall_time_s for r in self.records))

    def final_accuracy(self) -> float | None:
        evaluated = self.accuracies()
        if evaluated:
            return evaluated[-1][1]
        if self.epoch_accuracy:
            return self.epoch_accuracy[-1]
        return None


def capture_network_runtime_state(network: SlideNetwork) -> dict[str, Any]:
    """JSON-safe mutable runtime state of a network's layers.

    The checkpoint arrays carry weights, biases, optimiser moments and LSH
    codes — everything *positional*.  Bitwise resume additionally needs the
    *procedural* state that decides what the next batch does: each layer's
    private RNG (active-set padding, sampling tie-breaks) and its rebuild
    schedule position.  Both are tiny, so they ride in the checkpoint
    metadata rather than the array payload.
    """
    layers = []
    for layer in network.layers:
        entry: dict[str, Any] = {
            "rng_state": layer._rng.bit_generator.state,
            "num_rebuilds": int(layer.num_rebuilds),
        }
        if layer.rebuild_schedule is not None:
            entry["schedule"] = layer.rebuild_schedule.state_dict()
        layers.append(entry)
    return {"layers": layers}


def restore_network_runtime_state(
    network: SlideNetwork, state: dict[str, Any]
) -> None:
    """Restore state captured by :func:`capture_network_runtime_state`."""
    layers = state.get("layers", [])
    if len(layers) != len(network.layers):
        raise ValueError(
            f"runtime state covers {len(layers)} layers; "
            f"network has {len(network.layers)}"
        )
    for layer, entry in zip(network.layers, layers):
        layer._rng.bit_generator.state = entry["rng_state"]
        layer.num_rebuilds = int(entry["num_rebuilds"])
        schedule = entry.get("schedule")
        if schedule is not None and layer.rebuild_schedule is not None:
            layer.rebuild_schedule.load_state_dict(schedule)


class SlideTrainer:
    """Runs the SLIDE training loop over a list of sparse examples.

    Both modes run the one training kernel (:mod:`repro.kernels`).
    ``hogwild=True`` (default) runs it per sample — each sample's update
    lands before the next sample is selected, the paper's execution model on
    one thread.  ``hogwild=False`` runs it on the whole batch, with one
    accumulated optimiser step per layer.

    ``train_examples`` may be any random-access sequence — an eager list or
    a :class:`repro.data.ShardedDataset` — and ``prefetch_depth > 0`` moves
    batch assembly onto a background :class:`repro.data.BatchPrefetcher`
    thread.  Neither choice changes the training trajectory: the same
    ``TrainingConfig.seed`` produces the same batches and losses bit-for-bit.

    Everything runs in the calling process; multi-process HOGWILD over
    shared memory is :class:`repro.parallel.trainer.ProcessHogwildTrainer`.
    """

    def __init__(
        self,
        network: SlideNetwork,
        training: TrainingConfig,
        hogwild: bool = True,
        prefetch_depth: int = 0,
        checkpoint_dir: str | Path | None = None,
        fault_tolerance: FaultToleranceConfig | None = None,
    ) -> None:
        if prefetch_depth < 0:
            raise ValueError("prefetch_depth must be non-negative")
        self.network = network
        self.training = training
        self.hogwild = hogwild
        self.prefetch_depth = int(prefetch_depth)
        self.optimizer = network.build_optimizer(training)
        self._rng = derive_rng(training.seed, stream=31)
        self.history = TrainingHistory()
        # Mid-run checkpointing: when checkpoint_dir is set, resumable
        # versions land in a CheckpointStore there — every
        # fault_tolerance.checkpoint_every_batches batches plus at every
        # epoch boundary.  ``train(resume=...)`` picks a run back up.
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.fault_tolerance = fault_tolerance or FaultToleranceConfig()
        self._checkpoint_store = None
        self._last_saved_iteration = -1

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------
    def _iter_batches(
        self, examples: ExampleSource, skip_batches: int = 0
    ) -> Iterator[SparseBatch]:
        """One epoch of shuffled batches, assembled lazily.

        Only ``len(examples)`` and per-index access are required, so a
        mmap-backed dataset streams through without ever materialising the
        full example list.  ``skip_batches`` drops the first N batches of
        the epoch *after* the shuffle (the resume fast-forward: the RNG
        consumes exactly what it would have, but no assembly or training
        happens for batches a previous incarnation already applied).
        """
        order = np.arange(len(examples))
        if self.training.shuffle:
            self._rng.shuffle(order)
        gather = getattr(examples, "gather", None)
        start_offset = int(skip_batches) * self.training.batch_size
        for start in range(start_offset, len(examples), self.training.batch_size):
            chunk_ids = order[start : start + self.training.batch_size]
            if chunk_ids.size == 0:
                continue
            chunk = (
                gather(chunk_ids)
                if gather is not None
                else [examples[int(i)] for i in chunk_ids]
            )
            yield SparseBatch.from_examples(
                chunk,
                feature_dim=self.network.input_dim,
                label_dim=self.network.output_dim,
            )

    def _epoch_batches(self, examples: ExampleSource, skip_batches: int = 0):
        """The epoch's batch stream, prefetched when configured."""
        batches = self._iter_batches(examples, skip_batches=skip_batches)
        if self.prefetch_depth > 0:
            from repro.data.prefetch import BatchPrefetcher

            return BatchPrefetcher(batches, depth=self.prefetch_depth)
        return batches

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(
        self,
        train_examples: ExampleSource,
        eval_examples: ExampleSource | None = None,
        resume: str | Path | None = None,
    ) -> TrainingHistory:
        """Run ``training.epochs`` epochs and return the full history.

        ``resume`` continues a killed run from a checkpoint written by a
        trainer with ``checkpoint_dir`` set: pass either a specific
        checkpoint directory or a store root (the newest *intact* version
        is used, so a torn final write falls back to the previous one).
        The restored run replays the interrupted epoch's shuffle from the
        captured RNG state, fast-forwards past the batches already applied,
        and then produces the same batches, losses and rebuilds the
        uninterrupted run would have — pinned by the fault-tolerance tests.
        """
        if len(train_examples) == 0:
            raise ValueError("train_examples must not be empty")
        start_epoch, skip_batches = 0, 0
        if resume is not None:
            start_epoch, skip_batches = self._restore(resume)
        eval_pool = eval_examples if eval_examples is not None else []
        for epoch in range(start_epoch, self.training.epochs):
            # Captured *before* the shuffle draws from the stream, so a
            # checkpoint taken anywhere inside this epoch can regenerate
            # the epoch's exact batch order.
            self._epoch_rng_state = self._rng.bit_generator.state
            self._epoch = epoch
            self._epoch_batches_done = skip_batches
            batches = self._epoch_batches(train_examples, skip_batches=skip_batches)
            skip_batches = 0
            try:
                for batch in batches:
                    self._train_one_batch(batch, eval_pool)
                    self._epoch_batches_done += 1
                    self._maybe_checkpoint()
            finally:
                # Generator or BatchPrefetcher alike: stop assembly promptly
                # if an exception aborts the epoch mid-stream.
                batches.close()
            if len(eval_pool):
                self.history.epoch_accuracy.append(
                    evaluate_precision_at_1(self.network, eval_pool)
                )
            self._checkpoint_epoch_end(epoch)
        return self.history

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def _store(self):
        if self._checkpoint_store is None and self.checkpoint_dir is not None:
            self._checkpoint_store = CheckpointStore(self.checkpoint_dir)
        return self._checkpoint_store

    def _train_state(self, epoch: int, batches_done: int, rng_state) -> dict:
        return {
            "mode": "inline",
            "epoch": int(epoch),
            "batches_done": int(batches_done),
            "rng_state": rng_state,
            "seed": int(self.training.seed),
            "epochs": int(self.training.epochs),
            "batch_size": int(self.training.batch_size),
            "runtime": capture_network_runtime_state(self.network),
        }

    def _save_checkpoint(self, epoch: int, batches_done: int, rng_state) -> None:
        store = self._store()
        if store is None or self.network.iteration == self._last_saved_iteration:
            return
        # save_checkpoint canonicalises dirty layers itself, but that would
        # happen *after* the metadata below captured num_rebuilds; rebuild
        # first so the runtime state and the arrays describe the same model.
        for layer in self.network.layers:
            if layer.lsh_index is not None and layer.dirty_neuron_count:
                layer.rebuild()
        store.save(
            self.network,
            self.optimizer,
            metadata={
                "train_state": self._train_state(epoch, batches_done, rng_state)
            },
            keep_last=self.fault_tolerance.checkpoint_keep_last,
        )
        self._last_saved_iteration = self.network.iteration

    def _maybe_checkpoint(self) -> None:
        cadence = self.fault_tolerance.checkpoint_every_batches
        if cadence <= 0 or self.checkpoint_dir is None:
            return
        if self.network.iteration % cadence == 0:
            self._save_checkpoint(
                self._epoch, self._epoch_batches_done, self._epoch_rng_state
            )

    def _checkpoint_epoch_end(self, epoch: int) -> None:
        if self.checkpoint_dir is None:
            return
        # The epoch is complete: the resume point is the *next* epoch's
        # start, and the current RNG state is exactly that start state.
        self._save_checkpoint(epoch + 1, 0, self._rng.bit_generator.state)

    def _restore(self, resume: str | Path) -> tuple[int, int]:
        """Restore network/optimiser/RNG state; return (epoch, skip)."""
        state = restore_train_state(
            resume,
            self.network,
            self.optimizer,
            mode="inline",
            seed=int(self.training.seed),
        )
        self._rng.bit_generator.state = state["rng_state"]
        restore_network_runtime_state(self.network, state["runtime"])
        self._last_saved_iteration = self.network.iteration
        return int(state["epoch"]), int(state["batches_done"])

    def train_batches(
        self,
        batches,
        eval_examples: ExampleSource | None = None,
    ) -> TrainingHistory:
        """Train on an externally produced batch stream (one pass).

        The streaming counterpart of :meth:`train`: accepts any iterable of
        :class:`~repro.types.SparseBatch` — e.g.
        ``ShardedDataset.iter_batches`` wrapped in a ``BatchPrefetcher`` —
        and leaves epoch/shuffle discipline to the producer.
        """
        eval_pool = eval_examples if eval_examples is not None else []
        for batch in batches:
            self._train_one_batch(batch, eval_pool)
        if len(eval_pool):
            self.history.epoch_accuracy.append(
                evaluate_precision_at_1(self.network, eval_pool)
            )
        return self.history

    def _train_one_batch(
        self, batch: SparseBatch, eval_pool: ExampleSource
    ) -> IterationRecord:
        start = time.perf_counter()
        metrics = self.network.train_batch(batch, self.optimizer, hogwild=self.hogwild)
        elapsed = time.perf_counter() - start

        accuracy = None
        if (
            self.training.eval_every
            and eval_pool
            and self.network.iteration % self.training.eval_every == 0
        ):
            subset = eval_pool[: self.training.eval_samples]
            accuracy = evaluate_precision_at_1(self.network, subset)

        record = IterationRecord(
            iteration=self.network.iteration,
            loss=metrics["loss"],
            batch_size=int(metrics["batch_size"]),
            active_neurons=int(metrics["active_neurons"]),
            active_weights=int(metrics["active_weights"]),
            wall_time_s=elapsed,
            accuracy=accuracy,
        )
        self.history.records.append(record)
        return record

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def evaluate(self, examples: ExampleSource) -> float:
        """Precision@1 of the current model on ``examples``."""
        return evaluate_precision_at_1(self.network, examples)
