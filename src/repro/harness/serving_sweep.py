"""Serving-side measurement machinery: the accuracy-vs-latency sweep over the
sparse engine's active budget, and the trained network the serving benches
publish.

The serving-side counterpart of the paper's ``beta`` ablation: for a trained
network, sweep the :class:`~repro.serving.engine.SparseInferenceEngine`
active budget and record, per setting, precision@1 against the ground truth,
the gap to the exact dense engine, real per-request latency quantiles
(:class:`~repro.perf.latency.LatencyHistogram`) and throughput.  The dense
engine is included as the exact reference row, so the table reads as "how
much accuracy does each latency budget buy".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import OptimizerConfig, TrainingConfig
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.datasets.synthetic import (
    SyntheticXCDataset,
    delicious_like_config,
    generate_synthetic_xc,
)
from repro.harness.scaling import build_scaling_network_config
from repro.perf.latency import LatencyHistogram
from repro.serving.engine import (
    DenseInferenceEngine,
    InferenceEngine,
    SparseInferenceEngine,
)
from repro.types import SparseExample

__all__ = [
    "ServingSweepResult",
    "measure_engine",
    "serving_accuracy_latency_sweep",
    "train_serving_network",
]


@dataclass(frozen=True)
class ServingSweepResult:
    """One row of the sweep: engine setting plus measured quality and speed."""

    engine: str
    active_budget: int | None
    precision_at_1: float
    precision_gap: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    throughput_rps: float
    mean_candidates: float
    fallback_rate: float

    def as_row(self) -> dict[str, object]:
        """A flat dict for :func:`repro.harness.report.format_table`."""
        return {
            "engine": self.engine,
            "budget": "full" if self.active_budget is None else self.active_budget,
            "precision@1": round(self.precision_at_1, 4),
            "gap_vs_dense": round(self.precision_gap, 4),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "throughput_rps": round(self.throughput_rps, 1),
            "mean_candidates": round(self.mean_candidates, 1),
            "fallback_rate": round(self.fallback_rate, 3),
        }


def measure_engine(
    engine: InferenceEngine,
    examples: Sequence[SparseExample],
    k: int = 1,
    batch_size: int = 32,
) -> tuple[float, LatencyHistogram, float, float]:
    """Drive ``examples`` through ``engine`` in ``batch_size`` chunks.

    Returns ``(precision@1, latency_histogram, throughput_rps,
    mean_candidates_scored)`` — the shared measurement loop behind the
    sweep and ``benchmarks/bench_serving_latency.py``.  ``examples`` may be
    any sequence, including a mmap-backed
    :class:`repro.data.ShardedDataset`, so sweeps run over real XC test
    splits without loading them eagerly.
    """
    histogram = LatencyHistogram()
    hits = 0
    judged = 0
    candidates = 0
    started = time.perf_counter()
    for start in range(0, len(examples), batch_size):
        chunk = examples[start : start + batch_size]
        chunk_started = time.perf_counter()
        predictions = engine.predict_batch(chunk, k=k)
        elapsed = time.perf_counter() - chunk_started
        # Attribute the batch cost evenly across its requests.
        per_request = elapsed / max(len(chunk), 1)
        for example, prediction in zip(chunk, predictions):
            histogram.record(per_request)
            candidates += prediction.candidates_scored
            if example.labels.size:
                judged += 1
                if np.isin(prediction.class_ids[:1], example.labels).any():
                    hits += 1
    total = time.perf_counter() - started
    precision = hits / judged if judged else 0.0
    throughput = len(examples) / total if total > 0 else 0.0
    mean_candidates = candidates / max(len(examples), 1)
    return precision, histogram, throughput, mean_candidates


def serving_accuracy_latency_sweep(
    network: SlideNetwork,
    examples: Sequence[SparseExample],
    budgets: tuple[int | None, ...] = (None, 256, 128, 64, 32),
    k: int = 1,
    batch_size: int = 32,
) -> list[ServingSweepResult]:
    """Sweep sparse-engine budgets against the dense reference.

    Returns one :class:`ServingSweepResult` per setting — the dense engine
    first, then one row per entry of ``budgets`` (``None`` = unbudgeted).
    """
    if not examples:
        raise ValueError("examples must be non-empty")

    results: list[ServingSweepResult] = []
    dense = DenseInferenceEngine(network)
    dense_precision, histogram, throughput, mean_candidates = measure_engine(
        dense, examples, k, batch_size
    )
    summary = histogram.summary()
    results.append(
        ServingSweepResult(
            engine="dense",
            active_budget=None,
            precision_at_1=dense_precision,
            precision_gap=0.0,
            p50_ms=summary["p50_s"] * 1e3,
            p95_ms=summary["p95_s"] * 1e3,
            p99_ms=summary["p99_s"] * 1e3,
            throughput_rps=throughput,
            mean_candidates=mean_candidates,
            fallback_rate=0.0,
        )
    )

    for budget in budgets:
        engine = SparseInferenceEngine(network, active_budget=budget)
        precision, histogram, throughput, mean_candidates = measure_engine(
            engine, examples, k, batch_size
        )
        summary = histogram.summary()
        results.append(
            ServingSweepResult(
                engine="sparse",
                active_budget=budget,
                precision_at_1=precision,
                precision_gap=dense_precision - precision,
                p50_ms=summary["p50_s"] * 1e3,
                p95_ms=summary["p95_s"] * 1e3,
                p99_ms=summary["p99_s"] * 1e3,
                throughput_rps=throughput,
                mean_candidates=mean_candidates,
                fallback_rate=engine.fallback_rate(),
            )
        )
    return results


def train_serving_network(
    scale: float, seed: int = 0
) -> tuple[SlideNetwork, SyntheticXCDataset, SlideTrainer, float]:
    """One-epoch SLIDE network for the serving benches to publish and serve.

    Returns ``(network, dataset, trainer, train_seconds)``; the trainer is
    kept so a bench can train further epochs and publish new versions.
    """
    dataset = generate_synthetic_xc(delicious_like_config(scale=scale, seed=seed))
    label_dim = dataset.config.label_dim
    # bucket_size >= label_dim: no FIFO bucket can ever overflow, which is
    # the precondition for bitwise hot-swap parity (overflow eviction order
    # is the one piece of table state an incremental patch does not carry).
    network = SlideNetwork(
        build_scaling_network_config(
            dataset.config.feature_dim, label_dim, seed, bucket_size=max(96, label_dim)
        )
    )
    trainer = SlideTrainer(
        network,
        TrainingConfig(
            batch_size=64,
            epochs=1,
            optimizer=OptimizerConfig(name="adam", learning_rate=1e-3),
            seed=seed,
        ),
    )
    t0 = time.monotonic()
    trainer.train(dataset.train, dataset.test)
    train_s = time.monotonic() - t0
    return network, dataset, trainer, train_s
