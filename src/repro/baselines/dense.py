"""Dense full-softmax baseline ("TensorFlow" in the paper's comparison).

A standard one-hidden-layer fully connected network trained with dense matrix
multiplication and a full softmax over every output class.  Per iteration it
performs exactly the computation TF-CPU / TF-GPU would perform, so it serves
two roles:

1. the *convergence* reference — Figure 5's iteration-wise curves show SLIDE
   matching this baseline per iteration;
2. the *work* reference — its per-iteration operation counts feed the device
   profiles that attribute wall-clock time to TF-CPU and TF-GPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import OptimizerConfig
from repro.kernels.activations import relu, relu_grad, softmax_rows
from repro.optim.factory import make_optimizer
from repro.types import (
    FLOAT,
    FloatArray,
    SparseBatch,
    SparseExample,
    dense_features,
)
from repro.utils.rng import derive_rng

__all__ = ["DenseNetworkConfig", "DenseNetwork"]


@dataclass(frozen=True)
class DenseNetworkConfig:
    """Architecture/optimiser settings for the dense baseline."""

    input_dim: int
    hidden_dim: int
    output_dim: int
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.input_dim, self.hidden_dim, self.output_dim) <= 0:
            raise ValueError("all dimensions must be positive")


class DenseNetwork:
    """One-hidden-layer ReLU network with a full softmax output."""

    def __init__(self, config: DenseNetworkConfig) -> None:
        self.config = config
        rng = derive_rng(config.seed, stream=41)
        self.w1: FloatArray = rng.normal(
            scale=np.sqrt(2.0 / config.input_dim),
            size=(config.hidden_dim, config.input_dim),
        ).astype(FLOAT)
        self.b1: FloatArray = np.zeros(config.hidden_dim, dtype=FLOAT)
        self.w2: FloatArray = rng.normal(
            scale=np.sqrt(2.0 / config.hidden_dim),
            size=(config.output_dim, config.hidden_dim),
        ).astype(FLOAT)
        self.b2: FloatArray = np.zeros(config.output_dim, dtype=FLOAT)

        self.optimizer = make_optimizer(config.optimizer)
        self.optimizer.register("w1", self.w1.shape)
        self.optimizer.register("b1", self.b1.shape)
        self.optimizer.register("w2", self.w2.shape)
        self.optimizer.register("b2", self.b2.shape)
        self.iteration = 0

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, features: FloatArray) -> tuple[FloatArray, FloatArray, FloatArray]:
        """Dense batch forward pass; returns (hidden_pre, hidden, probabilities)."""
        hidden_pre = features @ self.w1.T + self.b1
        hidden = relu(hidden_pre)
        logits = hidden @ self.w2.T + self.b2
        return hidden_pre, hidden, softmax_rows(logits)

    def predict_dense_batch(self, examples: list[SparseExample]) -> FloatArray:
        """Class scores for many examples (API-compatible with SlideNetwork)."""
        if not examples:
            return np.zeros((0, self.config.output_dim), dtype=FLOAT)
        features = dense_features(examples, self.config.input_dim)
        _, _, probabilities = self.forward(features)
        return probabilities

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_batch(self, batch: SparseBatch) -> dict[str, float]:
        """One full-softmax gradient step on a mini-batch."""
        features = batch.to_dense_features()
        targets = batch.to_dense_labels()
        # Normalise multi-label targets to a distribution per example, as the
        # softmax cross-entropy loss expects.
        label_counts = targets.sum(axis=1, keepdims=True)
        safe_counts = np.maximum(label_counts, 1.0)
        targets = targets / safe_counts

        hidden_pre, hidden, probabilities = self.forward(features)
        batch_size = features.shape[0]

        eps = 1e-12
        loss = float(
            -np.sum(targets * np.log(probabilities + eps), dtype=np.float64)
            / max(batch_size, 1)
        )

        # Backward pass (softmax + cross entropy).
        delta_out = (probabilities - targets) / max(batch_size, 1)
        grad_w2 = delta_out.T @ hidden
        grad_b2 = delta_out.sum(axis=0)
        delta_hidden = (delta_out @ self.w2) * relu_grad(hidden_pre)
        grad_w1 = delta_hidden.T @ features
        grad_b1 = delta_hidden.sum(axis=0)

        self.optimizer.begin_step()
        self.optimizer.step("w2", self.w2, grad_w2)
        self.optimizer.step("b2", self.b2, grad_b2)
        self.optimizer.step("w1", self.w1, grad_w1)
        self.optimizer.step("b1", self.b1, grad_b1)
        self.iteration += 1

        return {
            "loss": loss,
            "batch_size": float(batch_size),
            # Dense networks touch every neuron and weight on every sample.
            "active_neurons": float(
                batch_size * (self.config.hidden_dim + self.config.output_dim)
            ),
            "active_weights": float(
                batch_size
                * (
                    self.config.hidden_dim * self.config.input_dim
                    + self.config.output_dim * self.config.hidden_dim
                )
            ),
        }

    # ------------------------------------------------------------------
    # Work accounting for the performance model
    # ------------------------------------------------------------------
    def flops_per_sample(self, avg_input_nnz: float | None = None) -> float:
        """Multiply-accumulate count for one sample's forward+backward pass.

        ``avg_input_nnz`` lets callers account for sparse-aware input layers
        (TF exploits input sparsity in embedding-style lookups); ``None``
        charges the full dense input dimension.
        """
        input_cost = self.config.input_dim if avg_input_nnz is None else avg_input_nnz
        forward = (
            input_cost * self.config.hidden_dim
            + self.config.hidden_dim * self.config.output_dim
        )
        # Backward touches each weight twice (gradient + delta propagation).
        return float(3 * forward)

    def num_parameters(self) -> int:
        return int(self.w1.size + self.b1.size + self.w2.size + self.b2.size)
