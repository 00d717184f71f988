"""Measured process-scaling driver (Figure 9 / Table 2, for real).

This module trains the same synthetic XC workload at several worker-process
counts through :class:`repro.parallel.trainer.ProcessHogwildTrainer` and
reports measured wall-clock speedups, CPU utilisation and gradient-conflict
counts.  The Fig 9 and Table 2 benchmark scripts are thin views over
:func:`measure_process_scaling`; ``examples/scalability_study.py`` drives it
interactively.

The training data is ingested once into a temporary mmap CSR shard cache
(:mod:`repro.data`), so worker processes stream *disjoint shards* instead of
pickling example lists — the same zero-copy discipline a real deployment
would use.

Measured speedup is bounded by the machine: with ``C`` usable cores, ``N >
C`` processes time-share and cannot beat ``N = C``.  Every result therefore
records :func:`available_cores`, and downstream assertions gate on it.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import asdict, dataclass

from repro.config import (
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    RebuildScheduleConfig,
    SamplingConfig,
    SlideNetworkConfig,
    TrainingConfig,
)
from repro.core.network import SlideNetwork
from repro.data.ingest import ingest_examples
from repro.data.shards import ShardedDataset
from repro.datasets.synthetic import delicious_like_config, generate_synthetic_xc
from repro.parallel.trainer import ProcessHogwildTrainer

__all__ = [
    "available_cores",
    "ScalingRun",
    "build_scaling_network_config",
    "measure_process_scaling",
]


def available_cores() -> int:
    """CPU cores this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class ScalingRun:
    """One measured training run at a fixed worker-process count."""

    processes: int
    wall_time_s: float
    samples: int
    samples_per_sec: float
    speedup_vs_1: float
    # speedup / processes — 1.0 would be perfect linear scaling.
    parallel_efficiency: float
    precision_at_1: float
    # Total worker CPU seconds / (wall seconds x processes): the measured
    # analogue of Table 2's core-utilisation column.
    cpu_utilization: float
    mean_loss: float
    # Gradient-conflict counters (zeros for the single-process run).
    neurons_updated: int
    neurons_contested: int
    contested_fraction: float
    lsh_rebuilds: int

    def as_row(self) -> dict[str, float | int]:
        row = asdict(self)
        row["wall_time_s"] = round(self.wall_time_s, 3)
        row["samples_per_sec"] = round(self.samples_per_sec, 1)
        row["speedup_vs_1"] = round(self.speedup_vs_1, 3)
        row["parallel_efficiency"] = round(self.parallel_efficiency, 3)
        row["precision_at_1"] = round(self.precision_at_1, 4)
        row["cpu_utilization"] = round(self.cpu_utilization, 3)
        row["mean_loss"] = round(self.mean_loss, 4)
        row["contested_fraction"] = round(self.contested_fraction, 4)
        return row


def build_scaling_network_config(
    feature_dim: int, label_dim: int, seed: int, hidden_dim: int = 64, bucket_size: int = 96
) -> SlideNetworkConfig:
    """The SLIDE architecture every scaling and serving run trains (LSH output layer)."""
    layers = (
        LayerConfig(size=hidden_dim, activation="relu", lsh=None),
        LayerConfig(
            size=label_dim,
            activation="softmax",
            lsh=LSHConfig(hash_family="simhash", k=4, l=24, bucket_size=bucket_size),
            sampling=SamplingConfig(
                strategy="vanilla",
                target_active=max(16, label_dim // 12),
                min_active=16,
            ),
            rebuild=RebuildScheduleConfig(initial_period=20, decay=0.3),
        ),
    )
    return SlideNetworkConfig(input_dim=feature_dim, layers=layers, seed=seed)


def measure_process_scaling(
    process_counts: tuple[int, ...] = (1, 2, 4),
    scale: float = 1.0 / 512.0,
    epochs: int = 3,
    batch_size: int = 32,
    seed: int = 0,
    cache_dir: str | None = None,
) -> dict[str, object]:
    """Train the synthetic XC workload at each process count and measure.

    Every run starts from an identically initialised network (same config
    seed) and consumes the same shard cache for the same number of epochs;
    only the worker-process count changes.  ``processes=1`` is the fused
    single-process baseline (bit-for-bit today's ``hogwild=False`` path) that
    both the speedup and the precision-parity comparisons are anchored to.

    Returns a JSON-ready dict: per-count rows, the workload description, the
    machine's usable core count, and summary speedups.
    """
    if not process_counts or sorted(process_counts)[0] < 1:
        raise ValueError("process_counts must name at least one positive count")
    if 1 not in process_counts:
        process_counts = (1, *process_counts)
    dataset = generate_synthetic_xc(delicious_like_config(scale=scale, seed=seed))
    feature_dim = dataset.config.feature_dim
    label_dim = dataset.config.label_dim
    training = TrainingConfig(
        batch_size=batch_size,
        epochs=epochs,
        optimizer=OptimizerConfig(name="adam", learning_rate=1e-3),
        seed=seed,
    )

    owns_cache = cache_dir is None
    cache_path = cache_dir or tempfile.mkdtemp(prefix="fig9-shards-")
    try:
        # Shard small enough that every worker gets several disjoint shards.
        max_processes = max(process_counts)
        shard_size = max(batch_size, len(dataset.train) // (4 * max_processes) or 1)
        ingest_examples(
            dataset.train,
            feature_dim=feature_dim,
            label_dim=label_dim,
            cache_dir=cache_path,
            shard_size=shard_size,
            source=dataset.config.name,
        )
        sharded_train = ShardedDataset(cache_path, seed=seed)

        runs: list[ScalingRun] = []
        baseline_wall: float | None = None
        for processes in sorted(set(int(p) for p in process_counts)):
            network = SlideNetwork(
                build_scaling_network_config(feature_dim, label_dim, seed)
            )
            trainer = ProcessHogwildTrainer(network, training, num_processes=processes)
            report = trainer.train(sharded_train, dataset.test)
            # cpu_time_s covers exactly the wall_time_s window (training
            # only, evaluation excluded on every path), so the utilisation
            # ratio compares like with like across process counts.
            used_cpu = report.cpu_time_s
            wall = report.wall_time_s
            if baseline_wall is None:
                baseline_wall = wall
            speedup = baseline_wall / max(wall, 1e-9)
            conflict = report.conflict
            runs.append(
                ScalingRun(
                    processes=processes,
                    wall_time_s=wall,
                    samples=report.samples,
                    samples_per_sec=report.samples_per_sec,
                    speedup_vs_1=speedup,
                    parallel_efficiency=speedup / processes,
                    precision_at_1=report.final_accuracy() or 0.0,
                    cpu_utilization=used_cpu / max(wall * processes, 1e-9),
                    mean_loss=report.mean_loss(),
                    neurons_updated=conflict.neurons_updated if conflict else 0,
                    neurons_contested=conflict.neurons_contested if conflict else 0,
                    contested_fraction=(
                        conflict.contested_fraction if conflict else 0.0
                    ),
                    lsh_rebuilds=sum(
                        stats.rebuilds for stats in report.worker_stats
                    ),
                )
            )
    finally:
        if owns_cache:
            shutil.rmtree(cache_path, ignore_errors=True)

    by_count = {run.processes: run for run in runs}
    cores = available_cores()
    return {
        "workload": {
            "dataset": dataset.config.name,
            "feature_dim": feature_dim,
            "label_dim": label_dim,
            "num_train": len(dataset.train),
            "num_test": len(dataset.test),
            "num_shards": sharded_train.num_shards,
            "batch_size": batch_size,
            "epochs": epochs,
            "seed": seed,
        },
        "available_cores": cores,
        # How the largest (last) run started its workers: "fork", "spawn",
        # or "inline" when every run was single-process.
        "start_method": report.start_method,
        "rows": [run.as_row() for run in runs],
        "baseline_precision_at_1": round(by_count[1].precision_at_1, 4),
        "max_measured_speedup": round(
            max(run.speedup_vs_1 for run in runs), 3
        ),
        # Speedup is hardware-bound: with fewer usable cores than worker
        # processes, added workers time-share a core instead of adding one.
        "cores_limit_speedup": cores < max(by_count),
    }
