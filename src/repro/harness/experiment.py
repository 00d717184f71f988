"""Shared head-to-head experiment machinery.

A :class:`HeadToHeadExperiment` trains SLIDE, the dense full-softmax baseline
and (optionally) the sampled-softmax baseline on the *same* synthetic
extreme-classification dataset with the same optimiser, and records each
run's per-iteration accuracy and loss as a :class:`MeasuredRun`.  The
accuracy comparisons (Fig 7, the ablations) are views over those runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.dense import DenseNetwork, DenseNetworkConfig
from repro.baselines.sampled_softmax import SampledSoftmaxConfig, SampledSoftmaxNetwork
from repro.config import (
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    RebuildScheduleConfig,
    SamplingConfig,
    SlideNetworkConfig,
    TrainingConfig,
)
from repro.core.inference import evaluate_precision_at_1
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.datasets.synthetic import SyntheticXCConfig, SyntheticXCDataset, generate_synthetic_xc
from repro.types import SparseBatch
from repro.utils.rng import derive_rng

__all__ = [
    "ExperimentConfig",
    "MeasuredRun",
    "HeadToHeadExperiment",
    "small_experiment_config",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale and hyper-parameters of one head-to-head experiment."""

    dataset: SyntheticXCConfig
    hidden_dim: int = 128
    batch_size: int = 64
    epochs: int = 2
    eval_every: int = 5
    eval_samples: int = 200
    learning_rate: float = 1e-3
    # LSH settings for the SLIDE output layer.
    hash_family: str = "simhash"
    k: int = 6
    l: int = 25
    bucket_size: int = 64
    target_active_fraction: float = 0.05
    rebuild_initial_period: int = 20
    sampled_softmax_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden_dim <= 0 or self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("hidden_dim, batch_size and epochs must be positive")
        if not 0 < self.target_active_fraction <= 1:
            raise ValueError("target_active_fraction must lie in (0, 1]")

    @property
    def target_active(self) -> int:
        return max(8, int(round(self.target_active_fraction * self.dataset.label_dim)))


@dataclass
class MeasuredRun:
    """Everything recorded while training one framework on one dataset."""

    framework: str
    iterations: np.ndarray
    accuracies: np.ndarray
    losses: np.ndarray
    avg_active_output: float
    final_accuracy: float


class HeadToHeadExperiment:
    """Train SLIDE and the baselines on one synthetic dataset."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self.dataset: SyntheticXCDataset = generate_synthetic_xc(config.dataset)
        self._rng = derive_rng(config.seed, stream=91)

    # ------------------------------------------------------------------
    # Model builders
    # ------------------------------------------------------------------
    def build_slide_network(
        self,
        sampling_strategy: str = "vanilla",
        hash_family: str | None = None,
        insertion_policy: str = "fifo",
        rebuild_decay: float = 0.3,
    ) -> SlideNetwork:
        cfg = self.config
        lsh = LSHConfig(
            hash_family=hash_family or cfg.hash_family,  # type: ignore[arg-type]
            k=cfg.k,
            l=cfg.l,
            bucket_size=cfg.bucket_size,
            insertion_policy=insertion_policy,  # type: ignore[arg-type]
        )
        layers = (
            LayerConfig(size=cfg.hidden_dim, activation="relu", lsh=None),
            LayerConfig(
                size=cfg.dataset.label_dim,
                activation="softmax",
                lsh=lsh,
                sampling=SamplingConfig(
                    strategy=sampling_strategy,  # type: ignore[arg-type]
                    target_active=cfg.target_active,
                    include_labels=True,
                ),
                rebuild=RebuildScheduleConfig(
                    initial_period=cfg.rebuild_initial_period, decay=rebuild_decay
                ),
            ),
        )
        network_cfg = SlideNetworkConfig(
            input_dim=cfg.dataset.feature_dim, layers=layers, seed=cfg.seed
        )
        return SlideNetwork(network_cfg)

    def training_config(self, batch_size: int | None = None) -> TrainingConfig:
        cfg = self.config
        return TrainingConfig(
            batch_size=batch_size or cfg.batch_size,
            epochs=cfg.epochs,
            optimizer=OptimizerConfig(name="adam", learning_rate=cfg.learning_rate),
            eval_every=cfg.eval_every,
            eval_samples=cfg.eval_samples,
            seed=cfg.seed,
        )

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def run_slide(
        self,
        batch_size: int | None = None,
        sampling_strategy: str = "vanilla",
        hash_family: str | None = None,
        insertion_policy: str = "fifo",
    ) -> MeasuredRun:
        """Train SLIDE and record its accuracy curve and output-layer sparsity."""
        cfg = self.config
        network = self.build_slide_network(
            sampling_strategy=sampling_strategy,
            hash_family=hash_family,
            insertion_policy=insertion_policy,
        )
        trainer = SlideTrainer(network, self.training_config(batch_size))
        history = trainer.train(self.dataset.train, self.dataset.test)

        # Active output neurons per sample: the record counts every layer's
        # active neurons, and the hidden layer is dense.
        active_per_sample = [
            max(record.active_neurons / max(record.batch_size, 1) - cfg.hidden_dim, 1.0)
            for record in history.records
        ]
        return MeasuredRun(
            framework="SLIDE-CPU",
            iterations=np.arange(1, len(history.records) + 1),
            accuracies=self._carry_forward_accuracies(history),
            losses=history.losses(),
            avg_active_output=float(np.mean(active_per_sample)) if active_per_sample else 0.0,
            final_accuracy=history.final_accuracy() or 0.0,
        )

    def run_dense(self, batch_size: int | None = None) -> MeasuredRun:
        """Train the full-softmax dense baseline ("TF")."""
        cfg = self.config
        network = DenseNetwork(
            DenseNetworkConfig(
                input_dim=cfg.dataset.feature_dim,
                hidden_dim=cfg.hidden_dim,
                output_dim=cfg.dataset.label_dim,
                optimizer=OptimizerConfig(name="adam", learning_rate=cfg.learning_rate),
                seed=cfg.seed,
            )
        )
        return self._run_baseline(network, "TF-dense", batch_size)

    def run_sampled_softmax(
        self, batch_size: int | None = None, sample_fraction: float | None = None
    ) -> MeasuredRun:
        """Train the static sampled-softmax baseline ("TF-GPU SSM")."""
        cfg = self.config
        network = SampledSoftmaxNetwork(
            SampledSoftmaxConfig(
                input_dim=cfg.dataset.feature_dim,
                hidden_dim=cfg.hidden_dim,
                output_dim=cfg.dataset.label_dim,
                sample_fraction=sample_fraction or cfg.sampled_softmax_fraction,
                optimizer=OptimizerConfig(name="adam", learning_rate=cfg.learning_rate),
                seed=cfg.seed,
            )
        )
        return self._run_baseline(network, "Sampled Softmax", batch_size)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _run_baseline(self, network, framework: str, batch_size: int | None) -> MeasuredRun:
        cfg = self.config
        training = self.training_config(batch_size)
        rng = derive_rng(cfg.seed, stream=92)
        examples = list(self.dataset.train)
        eval_pool = self.dataset.test[: cfg.eval_samples]

        iterations = []
        accuracies: list[float] = []
        losses = []
        last_accuracy = 0.0
        iteration = 0
        for _epoch in range(training.epochs):
            order = np.arange(len(examples))
            if training.shuffle:
                rng.shuffle(order)
            for start in range(0, len(examples), training.batch_size):
                chunk = [examples[i] for i in order[start : start + training.batch_size]]
                if not chunk:
                    continue
                batch = SparseBatch.from_examples(
                    chunk,
                    feature_dim=cfg.dataset.feature_dim,
                    label_dim=cfg.dataset.label_dim,
                )
                metrics = network.train_batch(batch)
                iteration += 1
                if training.eval_every and iteration % training.eval_every == 0:
                    last_accuracy = evaluate_precision_at_1(network, eval_pool)
                iterations.append(iteration)
                accuracies.append(last_accuracy)
                losses.append(metrics["loss"])
        final_accuracy = evaluate_precision_at_1(network, eval_pool)
        if accuracies:
            accuracies[-1] = max(accuracies[-1], final_accuracy)
        return MeasuredRun(
            framework=framework,
            iterations=np.asarray(iterations),
            accuracies=np.asarray(accuracies, dtype=np.float64),
            losses=np.asarray(losses, dtype=np.float64),
            avg_active_output=float(cfg.dataset.label_dim),
            final_accuracy=final_accuracy,
        )

    @staticmethod
    def _carry_forward_accuracies(history) -> np.ndarray:
        accuracies = []
        last = 0.0
        for record in history.records:
            if record.accuracy is not None:
                last = record.accuracy
            accuracies.append(last)
        if history.epoch_accuracy and accuracies:
            accuracies[-1] = max(accuracies[-1], history.epoch_accuracy[-1])
        return np.asarray(accuracies, dtype=np.float64)


def small_experiment_config(
    dataset: str = "delicious",
    scale: float = 1.0 / 2048.0,
    epochs: int = 2,
    seed: int = 0,
) -> ExperimentConfig:
    """A laptop-scale experiment config for tests and quick benches.

    ``dataset`` selects the Delicious-like or Amazon-like synthetic profile;
    ``scale`` shrinks the dataset dimensions (see
    :func:`repro.datasets.synthetic.delicious_like_config`).
    """
    from repro.datasets.synthetic import amazon_like_config, delicious_like_config

    if dataset == "delicious":
        ds = delicious_like_config(scale=scale, seed=seed)
        hash_family, k = "simhash", 6
    elif dataset == "amazon":
        ds = amazon_like_config(scale=scale, seed=seed)
        hash_family, k = "dwta", 5
    else:
        raise ValueError("dataset must be 'delicious' or 'amazon'")
    return ExperimentConfig(
        dataset=ds,
        hidden_dim=64,
        batch_size=32,
        epochs=epochs,
        eval_every=4,
        eval_samples=128,
        hash_family=hash_family,
        k=k,
        l=20,
        bucket_size=64,
        target_active_fraction=0.08,
        seed=seed,
    )
