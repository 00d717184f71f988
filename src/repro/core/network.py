"""The SLIDE network: a stack of :class:`~repro.core.layer.SlideLayer`.

Implements Algorithm 1 of the paper: sparse forward pass through every layer,
sparse softmax over the sampled output neurons, backpropagation touching only
active neurons and weights, and per-sample (HOGWILD-style) gradient
application across the samples of a batch.

Both execution models run the one training kernel in :mod:`repro.kernels`.
HOGWILD (``train_batch(hogwild=True)``) runs it on one-row blocks, so each
sample's update lands before the next sample is selected; the synchronous
mode (``hogwild=False``) runs it on the whole micro-batch, with one
accumulated optimiser step per layer.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.config import SlideNetworkConfig, TrainingConfig
from repro.core.layer import SlideLayer
from repro.kernels.fused import Workspace, fused_forward_batch, fused_train_step
from repro.optim.base import Optimizer
from repro.optim.factory import make_optimizer
from repro.perf.phases import PhaseTimer
from repro.state import read_manifest, restore_checkpoint_into
from repro.types import FLOAT, FloatArray, SparseBatch, SparseExample, dense_features
from repro.utils.rng import derive_rng

__all__ = ["SlideNetwork"]


class SlideNetwork:
    """Fully connected network trained with LSH-driven adaptive sparsity."""

    def __init__(self, config: SlideNetworkConfig) -> None:
        self.config = config
        self.layers: list[SlideLayer] = []
        fan_in = config.input_dim
        for idx, layer_cfg in enumerate(config.layers):
            layer = SlideLayer(
                fan_in=fan_in,
                config=layer_cfg,
                seed=config.seed + idx,
                name=f"layer{idx}",
            )
            self.layers.append(layer)
            fan_in = layer_cfg.size
        self._rng = derive_rng(config.seed, stream=23)
        self.iteration = 0
        # Reusable gradient-block buffers for the training kernel.
        self._workspace = Workspace()
        # Per-phase wall-clock accounting (hash / select / gather-GEMM /
        # optimiser in the training kernel, table rebuilds after each step);
        # read by the throughput benchmarks to track where training time goes.
        self.phase_timer = PhaseTimer()

    @classmethod
    def from_checkpoint(cls, path: str | Path) -> SlideNetwork:
        """A network built from the config stored at checkpoint ``path``.

        Its weights, iteration and LSH tables are restored from the
        checkpoint (:func:`repro.state.restore_checkpoint_into`); any
        optimiser state the checkpoint holds is left on disk.
        """
        network = cls(read_manifest(path).network_config)
        restore_checkpoint_into(path, network)
        return network

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def input_dim(self) -> int:
        return self.config.input_dim

    @property
    def output_dim(self) -> int:
        return self.config.output_dim

    @property
    def output_layer(self) -> SlideLayer:
        return self.layers[-1]

    def num_parameters(self) -> int:
        """Total number of trainable parameters (weights + biases)."""
        return sum(layer.weights.size + layer.biases.size for layer in self.layers)

    # ------------------------------------------------------------------
    # Optimiser wiring
    # ------------------------------------------------------------------
    def build_optimizer(self, training: TrainingConfig) -> Optimizer:
        """Create an optimiser with state registered for every layer."""
        optimizer = make_optimizer(training.optimizer)
        for layer in self.layers:
            layer.register_parameters(optimizer)
        return optimizer

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict_dense(self, example: SparseExample) -> FloatArray:
        """Full dense forward pass (used for evaluation / parity tests)."""
        dense = example.features.to_dense()
        for layer in self.layers:
            dense = layer.dense_forward(dense)
        return dense

    def predict_dense_batch(self, examples: list[SparseExample]) -> FloatArray:
        """Full dense forward pass for many examples at once.

        Returns a ``(len(examples), output_dim)`` probability matrix.  One
        matrix multiply per layer replaces the per-example loop, which is
        what the serving path's batched dense scorer relies on.
        """
        if not examples:
            return np.zeros((0, self.output_dim), dtype=FLOAT)
        features = dense_features(examples, self.input_dim)
        for layer in self.layers:
            features = layer.dense_forward_batch(features)
        return features

    # ------------------------------------------------------------------
    # Training steps
    # ------------------------------------------------------------------
    def train_batch(
        self,
        batch: SparseBatch,
        optimizer: Optimizer,
        hogwild: bool = True,
    ) -> dict[str, float]:
        """One mini-batch step (Algorithm 1, lines 7-16).

        With ``hogwild=True`` (the paper's execution model) every sample is
        its own block: its update is applied before the next sample is
        selected, all under one optimiser ``begin_step``.  With
        ``hogwild=False`` the micro-batch is one block: one LSH hash sweep,
        one gather + GEMM per layer and one accumulated optimiser step per
        layer.
        """
        if hogwild:
            blocks = [
                SparseBatch([example], batch.feature_dim, batch.label_dim)
                for example in batch
            ]
        else:
            blocks = [batch]
        metrics = fused_train_step(self, blocks, optimizer, self._workspace)

        self.iteration += 1
        with self.phase_timer.phase("rebuild"):
            for layer in self.layers:
                layer.maybe_rebuild(self.iteration)
        return metrics

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def rebuild_all_tables(self) -> None:
        """Force a full re-hash of every LSH-enabled layer."""
        for layer in self.layers:
            if layer.lsh_index is not None:
                layer.lsh_index.build(layer.weights)
                layer._dirty[:] = False
                layer.num_rebuilds += 1

    def average_output_active(self, examples: list[SparseExample]) -> float:
        """Mean number of active output neurons over ``examples`` (diagnostic).

        The paper reports ~1000/205K for Delicious and ~3000/670K for Amazon —
        i.e. < 0.5 % of the output layer.
        """
        if not examples:
            return 0.0
        batch = SparseBatch(list(examples), self.input_dim, self.output_dim)
        output = fused_forward_batch(self, batch).output_state
        return output.active_count(len(batch)) / len(batch)

