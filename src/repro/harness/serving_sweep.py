"""The trained network the serving benches publish and serve."""

from __future__ import annotations

import time

from repro.config import OptimizerConfig, TrainingConfig
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.datasets.synthetic import (
    SyntheticXCDataset,
    delicious_like_config,
    generate_synthetic_xc,
)
from repro.harness.scaling import build_scaling_network_config

__all__ = ["train_serving_network"]


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
