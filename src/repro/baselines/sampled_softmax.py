"""Sampled Softmax baseline (Jean et al., 2015) with *static* sampling.

This is the heuristic the paper contrasts with SLIDE in Figure 7: for every
mini-batch the output layer is evaluated only on a candidate set made of the
batch's true labels plus a static (input-independent) random sample of
negative classes.  The sampling distribution never adapts to the input, which
is precisely why the paper finds it converging to a lower accuracy than
SLIDE's LSH-driven adaptive sampling even when it samples 20 % of all classes
versus SLIDE's ~0.5 %.

Both uniform and log-uniform (Zipfian) negative sampling are supported; TF's
``sampled_softmax_loss`` defaults to log-uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.config import OptimizerConfig
from repro.kernels.activations import relu, relu_grad, softmax_rows
from repro.optim.factory import make_optimizer
from repro.types import (
    FLOAT,
    FloatArray,
    IntArray,
    SparseBatch,
    SparseExample,
    dense_features,
)
from repro.utils.rng import derive_rng

__all__ = ["SampledSoftmaxConfig", "SampledSoftmaxNetwork"]


@dataclass(frozen=True)
class SampledSoftmaxConfig:
    """Architecture plus sampling settings for the sampled-softmax baseline."""

    input_dim: int
    hidden_dim: int
    output_dim: int
    # Fraction of output classes sampled as negatives per batch.  The paper
    # reports needing ~20 % for "any decent accuracy".
    sample_fraction: float = 0.2
    distribution: Literal["uniform", "log_uniform"] = "log_uniform"
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.input_dim, self.hidden_dim, self.output_dim) <= 0:
            raise ValueError("all dimensions must be positive")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError("sample_fraction must lie in (0, 1]")

    @property
    def num_sampled(self) -> int:
        """Number of negative classes drawn per batch."""
        return max(1, int(round(self.sample_fraction * self.output_dim)))


class SampledSoftmaxNetwork:
    """One-hidden-layer network trained with static sampled softmax."""

    def __init__(self, config: SampledSoftmaxConfig) -> None:
        self.config = config
        rng = derive_rng(config.seed, stream=43)
        self._rng = derive_rng(config.seed, stream=44)
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

        # Pre-compute the static log-uniform sampling probabilities once; this
        # mirrors TF's ``log_uniform_candidate_sampler`` which assumes classes
        # are sorted by decreasing frequency.
        ranks = np.arange(1, config.output_dim + 1, dtype=np.float64)
        log_uniform = np.log((ranks + 1.0) / ranks)
        self._log_uniform_probs = log_uniform / log_uniform.sum()

    # ------------------------------------------------------------------
    # Candidate sampling
    # ------------------------------------------------------------------
    def sample_candidates(self, batch_labels: IntArray) -> IntArray:
        """Candidate class set for one batch: true labels plus static negatives."""
        num_sampled = self.config.num_sampled
        if self.config.distribution == "uniform":
            negatives = self._rng.choice(
                self.config.output_dim, size=num_sampled, replace=False
            )
        else:
            negatives = self._rng.choice(
                self.config.output_dim,
                size=num_sampled,
                replace=False,
                p=self._log_uniform_probs,
            )
        return np.union1d(np.asarray(batch_labels, dtype=np.int64), negatives)

    # ------------------------------------------------------------------
    # Forward / prediction
    # ------------------------------------------------------------------
    def _hidden(self, features: FloatArray) -> tuple[FloatArray, FloatArray]:
        hidden_pre = features @ self.w1.T + self.b1
        return hidden_pre, relu(hidden_pre)

    def predict_dense_batch(self, examples: list[SparseExample]) -> FloatArray:
        """Full-softmax class scores for evaluation (API-compatible with SlideNetwork)."""
        if not examples:
            return np.zeros((0, self.config.output_dim), dtype=FLOAT)
        _, hidden = self._hidden(dense_features(examples, self.config.input_dim))
        return softmax_rows(hidden @ self.w2.T + self.b2)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_batch(self, batch: SparseBatch) -> dict[str, float]:
        """One sampled-softmax gradient step on a mini-batch."""
        features = batch.to_dense_features()
        batch_size = features.shape[0]
        all_labels = (
            np.concatenate([ex.labels for ex in batch if ex.labels.size])
            if len(batch)
            else np.zeros(0, dtype=np.int64)
        )
        candidates = self.sample_candidates(all_labels)

        hidden_pre, hidden = self._hidden(features)
        # Softmax restricted to the candidate classes only.
        logits = hidden @ self.w2[candidates].T + self.b2[candidates]
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probabilities = exp / exp.sum(axis=1, keepdims=True)

        # Targets restricted to the candidate set.
        targets = np.zeros_like(probabilities)
        for row, example in enumerate(batch):
            if example.labels.size == 0:
                continue
            positions = np.searchsorted(candidates, example.labels)
            in_range = positions < candidates.size
            positions = positions[in_range]
            matched = candidates[positions] == example.labels[in_range]
            positions = positions[matched]
            if positions.size:
                targets[row, positions] = 1.0 / example.labels.size

        eps = 1e-12
        loss = float(
            -np.sum(targets * np.log(probabilities + eps), dtype=np.float64)
            / max(batch_size, 1)
        )

        delta_out = (probabilities - targets) / max(batch_size, 1)
        grad_w2_block = delta_out.T @ hidden
        grad_b2_block = delta_out.sum(axis=0)
        delta_hidden = (delta_out @ self.w2[candidates]) * relu_grad(hidden_pre)
        grad_w1 = delta_hidden.T @ features
        grad_b1 = delta_hidden.sum(axis=0)

        self.optimizer.begin_step()
        self.optimizer.sparse_step(
            "w2", self.w2, candidates, np.arange(self.config.hidden_dim), grad_w2_block
        )
        self.optimizer.sparse_step("b2", self.b2, candidates, None, grad_b2_block)
        self.optimizer.step("w1", self.w1, grad_w1)
        self.optimizer.step("b1", self.b1, grad_b1)
        self.iteration += 1

        return {
            "loss": loss,
            "batch_size": float(batch_size),
            "num_candidates": float(candidates.size),
            "active_neurons": float(
                batch_size * (self.config.hidden_dim + candidates.size)
            ),
            "active_weights": float(
                batch_size
                * (
                    self.config.hidden_dim * self.config.input_dim
                    + candidates.size * self.config.hidden_dim
                )
            ),
        }

    # ------------------------------------------------------------------
    # Work accounting
    # ------------------------------------------------------------------
    def flops_per_sample(self, avg_input_nnz: float | None = None) -> float:
        """Multiply-accumulate count for one sample (forward + backward)."""
        input_cost = self.config.input_dim if avg_input_nnz is None else avg_input_nnz
        forward = (
            input_cost * self.config.hidden_dim
            + self.config.hidden_dim * self.config.num_sampled
        )
        return float(3 * forward)

    def num_parameters(self) -> int:
        return int(self.w1.size + self.b1.size + self.w2.size + self.b2.size)
