"""Data pipeline: XC-text ingest and eager vs streamed/prefetched epochs.

Not a paper figure — the data-movement anchor for this repo.  The paper's
headline runs train on Delicious-200K / Amazon-670K from the Extreme
Classification Repository; getting those through the kernels is gated on the
input pipeline, not the math.  This bench measures, on a synthetic dataset
written out in the real XC text format:

* ``ingest``  — one-time streaming parse into mmap CSR shards
  (:mod:`repro.data.ingest`), examples/s and MB/s;
* ``eager``   — the legacy path: re-parse the text file with
  ``load_xc_file`` and assemble one epoch of shuffled batches from the
  object list;
* ``sharded`` — open the shard cache and stream one epoch through
  ``ShardedDataset.iter_batches`` + ``BatchPrefetcher``.

Each epoch row is the median of ``TIMED_EPOCHS`` (5) interleaved epochs.

The streamed path must beat the eager path (it replaces text parsing with
mmap reads), and shard-cache training must match eager-loader training loss
bit-for-bit under the same seed.
``python -m repro.reports --run data_pipeline`` writes
``BENCH_data_pipeline.json`` at the repository root.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

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
from repro.core.trainer import SlideTrainer
from repro.data import BatchPrefetcher, ShardedDataset, ingest_xc_file
from repro.datasets.loaders import load_xc_file, write_xc_file
from repro.datasets.synthetic import delicious_like_config, generate_synthetic_xc
from repro.harness.report import format_table
from repro.reports.schema import BOOL, CONFIG, NAT, POS, STR, rows
from repro.reports.spec import BenchSpec, MetricGate
from repro.types import SparseBatch
from repro.utils.rng import derive_rng

SPEC = BenchSpec(
    bench_id="data_pipeline",
    title="Streaming shard pipeline vs eager re-parse",
    paper_anchor="beyond-paper (data pipeline)",
    schema={
        "type": "object",
        "required": [
            "config",
            "rows",
            "speedup_sharded_vs_eager",
            "max_open_shards_during_stream",
            "training_loss_parity_bitwise",
        ],
        "properties": {
            "config": CONFIG,
            "rows": rows(
                {"stage": STR, "wall_time_s": POS, "examples_per_sec": POS},
                min_items=3,
            ),
            "speedup_sharded_vs_eager": POS,
            "max_open_shards_during_stream": NAT,
            "training_loss_parity_bitwise": BOOL,
        },
    },
    smoke_params={"scale": 1 / 2048},
    full_params={"scale": 1 / 512},
    measured=True,
    gates=(
        MetricGate("speedup_sharded_vs_eager", "higher", rel_tol=0.6),
        MetricGate("rows[stage=sharded_epoch].examples_per_sec", "higher", rel_tol=0.6),
    ),
)

# Epochs timed per side; the rows and the speedup gate read their medians.
TIMED_EPOCHS = 5


def _slide_network(feature_dim: int, label_dim: int, seed: int) -> SlideNetwork:
    layers = (
        LayerConfig(size=32, activation="relu", lsh=None),
        LayerConfig(
            size=label_dim,
            activation="softmax",
            lsh=LSHConfig(hash_family="simhash", k=4, l=12, bucket_size=64),
            sampling=SamplingConfig(
                strategy="vanilla",
                target_active=max(16, label_dim // 12),
                min_active=16,
            ),
            rebuild=RebuildScheduleConfig(initial_period=20, decay=0.3),
        ),
    )
    return SlideNetwork(
        SlideNetworkConfig(input_dim=feature_dim, layers=layers, seed=seed)
    )


def _eager_epoch(
    xc_path: Path, batch_size: int, seed: int
) -> tuple[float, int, int]:
    """Parse the text file and assemble one shuffled epoch of batches."""
    started = time.perf_counter()
    examples, feature_dim, label_dim = load_xc_file(xc_path)
    rng = derive_rng(seed, stream=47)
    order = rng.permutation(len(examples))
    batches = 0
    for start in range(0, len(examples), batch_size):
        chunk = [examples[i] for i in order[start : start + batch_size]]
        batch = SparseBatch.from_examples(
            chunk, feature_dim=feature_dim, label_dim=label_dim
        )
        batch.to_dense_features()
        batches += 1
    return time.perf_counter() - started, len(examples), batches


def _sharded_epoch(
    cache_dir: Path, batch_size: int, seed: int, depth: int
) -> tuple[float, int, int, int]:
    """Stream one shard-shuffled epoch through the prefetcher."""
    started = time.perf_counter()
    dataset = ShardedDataset(cache_dir, seed=seed)
    examples = 0
    batches = 0
    max_open = 0
    with BatchPrefetcher(dataset.iter_batches(batch_size, epoch=0), depth=depth) as queue:
        for batch in queue:
            batch.to_dense_features()
            examples += len(batch)
            batches += 1
            max_open = max(max_open, dataset.open_shard_count())
    return time.perf_counter() - started, examples, batches, max_open


def _training_losses(
    source, feature_dim: int, label_dim: int, training: TrainingConfig, depth: int
) -> np.ndarray:
    network = _slide_network(feature_dim, label_dim, seed=training.seed)
    trainer = SlideTrainer(network, training, hogwild=False, prefetch_depth=depth)
    return trainer.train(source).losses()


def run(params: dict | None = None) -> dict:
    """Ingest + epoch-throughput rows plus the bit-for-bit training parity."""
    p = dict(params or {})
    scale = float(p.get("scale", 1.0 / 512.0))
    batch_size = int(p.get("batch_size", 64))
    shard_size = int(p.get("shard_size", 128 if scale <= 1.0 / 1024.0 else 256))
    prefetch_depth = int(p.get("prefetch_depth", 4))
    seed = int(p.get("seed", 0))
    dataset = generate_synthetic_xc(delicious_like_config(scale=scale, seed=seed))
    feature_dim = dataset.config.feature_dim
    label_dim = dataset.config.label_dim

    workdir = Path(tempfile.mkdtemp(prefix="bench-data-pipeline-"))
    try:
        xc_path = write_xc_file(
            workdir / "train.txt", dataset.train, feature_dim, label_dim
        )
        file_mb = xc_path.stat().st_size / 1e6

        started = time.perf_counter()
        manifest = ingest_xc_file(xc_path, workdir / "shards", shard_size=shard_size)
        ingest_s = time.perf_counter() - started

        # A smoke epoch is 4 batches, 7-20 ms, so one timing of each side
        # left the gate to a few ms of scheduling noise: each side is timed
        # ``TIMED_EPOCHS`` times, interleaved, and their medians compared.
        eager_times, sharded_times, max_open = [], [], 0
        for _ in range(TIMED_EPOCHS):
            eager_s, num_examples, eager_batches = _eager_epoch(
                xc_path, batch_size, seed
            )
            sharded_s, streamed, sharded_batches, open_shards = _sharded_epoch(
                workdir / "shards", batch_size, seed, prefetch_depth
            )
            if streamed != num_examples:
                raise RuntimeError(
                    f"streamed epoch covered {streamed} of {num_examples} examples"
                )
            eager_times.append(eager_s)
            sharded_times.append(sharded_s)
            max_open = max(max_open, open_shards)
        eager_s = statistics.median(eager_times)
        sharded_s = statistics.median(sharded_times)

        training = TrainingConfig(
            batch_size=batch_size,
            epochs=1,
            optimizer=OptimizerConfig(name="adam", learning_rate=1e-3),
            seed=seed,
        )
        eager_losses = _training_losses(
            dataset.train, feature_dim, label_dim, training, depth=0
        )
        sharded_losses = _training_losses(
            ShardedDataset(workdir / "shards", seed=seed),
            feature_dim,
            label_dim,
            training,
            depth=prefetch_depth,
        )
        parity = bool(np.array_equal(eager_losses, sharded_losses))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rows = [
        {
            "stage": "ingest",
            "wall_time_s": round(ingest_s, 3),
            "examples_per_sec": round(num_examples / max(ingest_s, 1e-9), 1),
            "mb_per_sec": round(file_mb / max(ingest_s, 1e-9), 2),
            "chunks": manifest.num_shards,  # shards written
        },
        {
            "stage": "eager_epoch",
            "wall_time_s": round(eager_s, 3),
            "examples_per_sec": round(num_examples / max(eager_s, 1e-9), 1),
            "mb_per_sec": round(file_mb / max(eager_s, 1e-9), 2),
            "chunks": eager_batches,  # batches assembled
        },
        {
            "stage": "sharded_epoch",
            "wall_time_s": round(sharded_s, 3),
            "examples_per_sec": round(streamed / max(sharded_s, 1e-9), 1),
            "mb_per_sec": round(file_mb / max(sharded_s, 1e-9), 2),
            "chunks": sharded_batches,  # batches assembled
        },
    ]
    return {
        "config": {
            "dataset": dataset.config.name,
            "feature_dim": feature_dim,
            "label_dim": label_dim,
            "num_examples": num_examples,
            "xc_file_mb": round(file_mb, 2),
            "batch_size": batch_size,
            "shard_size": shard_size,
            "num_shards": manifest.num_shards,
            "prefetch_depth": prefetch_depth,
            "seed": seed,
        },
        "rows": rows,
        "speedup_sharded_vs_eager": round(eager_s / max(sharded_s, 1e-9), 2),
        "max_open_shards_during_stream": max_open,
        "training_loss_parity_bitwise": parity,
    }


def check(payload: dict, smoke: bool) -> list[str]:
    """Streaming must beat re-parsing and must not change training at all."""
    problems = []
    if not payload["training_loss_parity_bitwise"]:
        problems.append("shard-cache training diverged from the eager loader")
    if payload["speedup_sharded_vs_eager"] < 1.0:
        problems.append(
            "sharded+prefetched epoch is slower than the eager loader "
            f"({payload['speedup_sharded_vs_eager']}x)"
        )
    if payload["max_open_shards_during_stream"] > 2:
        problems.append(
            f"{payload['max_open_shards_during_stream']} shards were resident at "
            "once; streaming should hold at most 2"
        )
    return problems


def print_report(payload: dict) -> None:
    print(
        format_table(
            payload["rows"],
            title="Data pipeline: ingest, eager epoch, sharded+prefetched epoch",
        )
    )
    print(f"sharded / eager epoch speedup: {payload['speedup_sharded_vs_eager']}x")
    print(f"training loss parity (bitwise): {payload['training_loss_parity_bitwise']}")
