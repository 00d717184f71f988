"""The fixed problem shape every workload runs at, and the code that builds it.

The shape is never scaled to fit a time cap: a shorter ``--seconds`` buys
fewer batches or requests of the same size.  ``TINY`` exists only so that
``test_perfbench.py`` can drive the same code in seconds; it is not
selectable from the command line and its numbers are never reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

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
from repro.datasets.synthetic import (
    SyntheticXCConfig,
    SyntheticXCDataset,
    generate_synthetic_xc,
)
from repro.types import SparseBatch, SparseExample

# A served answer later than this counts against ``ok_frac``.
LIMIT_MS = 100.0
TOP_K = 5
# Batches per timed ``train_batches`` call; held-out evaluation sits between.
CHUNK = 16


@dataclass(frozen=True)
class Shape:
    feature_dim: int = 8192
    label_dim: int = 32768
    avg_features: int = 64
    prototype_nnz: int = 24
    hidden: int = 128
    lsh_k: int = 9
    lsh_l: int = 32
    bucket_size: int = 128
    target_active: int = 163
    min_active: int = 16
    batch_size: int = 64
    heldout: int = 512
    active_budget: int = 512
    # Training in set-up, before ``serve_direct`` starts serving.
    pretrain_batches: int = 32
    # A little under what the sizing host trains (6.9-8.0 batches a second).
    # It turns ``--seconds`` into a fixed sample budget, so that two commits
    # are compared after the same number of samples and a faster one simply
    # finishes sooner.
    train_batches_per_s: float = 6.5
    # Held-out p@1 that ``train_batched`` must reach within its budget (ten
    # seeds reached it after 48-80 batches; 15 s buy 96).
    target_p_at_1: float = 0.85


FULL = Shape()
TINY = Shape(
    feature_dim=512,
    label_dim=256,
    avg_features=16,
    prototype_nnz=8,
    hidden=32,
    lsh_k=4,
    lsh_l=8,
    bucket_size=64,
    target_active=32,
    min_active=8,
    batch_size=16,
    heldout=64,
    active_budget=64,
    pretrain_batches=8,
    train_batches_per_s=16.0,
    target_p_at_1=0.02,
)


def make_dataset(shape: Shape, seed: int, num_train: int) -> SyntheticXCDataset:
    """``num_train`` training examples plus the held-out set, from ``seed``."""
    return generate_synthetic_xc(
        SyntheticXCConfig(
            feature_dim=shape.feature_dim,
            label_dim=shape.label_dim,
            num_train=num_train,
            num_test=shape.heldout,
            avg_features_per_example=shape.avg_features,
            avg_labels_per_example=3.0,
            prototype_nnz=shape.prototype_nnz,
            seed=seed,
        )
    )


def optimizer_config() -> OptimizerConfig:
    return OptimizerConfig(name="adam", learning_rate=1e-3)


def training_config(shape: Shape, seed: int, epochs: int = 1) -> TrainingConfig:
    return TrainingConfig(
        batch_size=shape.batch_size,
        epochs=epochs,
        optimizer=optimizer_config(),
        seed=seed,
    )


def make_network(shape: Shape, seed: int) -> SlideNetwork:
    """``hidden relu (no LSH) -> label_dim softmax (SimHash LSH)``."""
    output = LayerConfig(
        size=shape.label_dim,
        activation="softmax",
        lsh=LSHConfig(
            hash_family="simhash",
            k=shape.lsh_k,
            l=shape.lsh_l,
            bucket_size=shape.bucket_size,
        ),
        sampling=SamplingConfig(
            strategy="vanilla",
            target_active=shape.target_active,
            min_active=shape.min_active,
        ),
        rebuild=RebuildScheduleConfig(initial_period=50, decay=0.3),
    )
    hidden = LayerConfig(size=shape.hidden, activation="relu")
    return SlideNetwork(
        SlideNetworkConfig(
            input_dim=shape.feature_dim, layers=(hidden, output), seed=seed
        )
    )


def assemble(shape: Shape, examples: Sequence[SparseExample]) -> SparseBatch:
    return SparseBatch.from_examples(
        examples, feature_dim=shape.feature_dim, label_dim=shape.label_dim
    )


def iter_batches(
    shape: Shape, examples: Sequence[SparseExample], start: int, count: int
) -> Iterator[SparseBatch]:
    """Batches ``start .. start+count`` of ``examples``, assembled lazily.

    Lazy, so that ``SparseBatch.from_examples`` runs inside whatever the
    caller is timing, as it does in ``SlideTrainer.train``.
    """
    size = shape.batch_size
    for index in range(start, start + count):
        yield assemble(shape, examples[index * size : (index + 1) * size])


def top1_hits(top1: Sequence[int], examples: Sequence[SparseExample]) -> int:
    """How many of ``examples`` have their ``top1`` id among their true labels."""
    return sum(int(label) in example.labels for label, example in zip(top1, examples))


def heldout_p_at_1(network: SlideNetwork, examples: list[SparseExample]) -> float:
    """Held-out precision@1 by exact dense scoring."""
    scores = network.predict_dense_batch(examples)
    return top1_hits(np.argmax(scores, axis=1), examples) / len(examples)
