"""The SLIDE network: a stack of :class:`~repro.core.layer.SlideLayer`.

Implements Algorithm 1 of the paper: per-sample sparse forward pass through
every layer, sparse softmax over the sampled output neurons, message-passing
backpropagation touching only active neurons and weights, and asynchronous
(HOGWILD-style) gradient application across the samples of a batch.

Synchronous training additionally has a *batched* execution mode backed by
:mod:`repro.kernels`: per-sample LSH hashing, gathers, GEMVs and optimiser
steps are fused into whole-micro-batch operations over the union active set.
It is the default for ``train_batch(hogwild=False)``; the HOGWILD per-sample
path is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SlideNetworkConfig, TrainingConfig
from repro.core.activations import hidden_activation_grad
from repro.core.layer import LayerForwardState, SlideLayer
from repro.kernels.fused import Workspace, fused_train_step
from repro.optim.base import Optimizer
from repro.optim.factory import make_optimizer
from repro.perf.phases import PhaseTimer
from repro.types import FloatArray, IntArray, SparseBatch, SparseExample, dense_features
from repro.utils.rng import derive_rng

__all__ = ["SlideNetwork", "ForwardResult", "SampleGradient"]


@dataclass
class ForwardResult:
    """Forward-pass record for one sample: per-layer states plus the output."""

    layer_states: list[LayerForwardState]

    @property
    def output_state(self) -> LayerForwardState:
        return self.layer_states[-1]

    @property
    def active_output_ids(self) -> IntArray:
        return self.output_state.active_out

    @property
    def output_probabilities(self) -> FloatArray:
        return self.output_state.activation

    def total_active_neurons(self) -> int:
        """Sum of active-neuron counts across layers (cost-model input)."""
        return sum(state.num_active for state in self.layer_states)

    def total_active_weights(self) -> int:
        """Sum of active-weight counts across layers (cost-model input)."""
        return sum(state.num_active_weights for state in self.layer_states)


@dataclass
class SampleGradient:
    """The sparse gradient footprint of one training sample."""

    layer_states: list[LayerForwardState]
    weight_grads: list[FloatArray]
    bias_grads: list[FloatArray]
    loss: float


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
        # Reusable gradient-block buffers for the fused synchronous path.
        self._workspace = Workspace()
        # Per-phase wall-clock accounting (hash / gather-GEMM / optimiser on
        # the fused path, table rebuilds on every path); read by the
        # throughput benchmarks to track where training time goes.
        self.phase_timer = PhaseTimer()

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
    # Forward
    # ------------------------------------------------------------------
    def forward_sample(
        self,
        example: SparseExample,
        include_labels: bool = False,
    ) -> ForwardResult:
        """Sparse forward pass for one example (Algorithm 1, lines 9-13)."""
        indices = example.features.indices
        values = example.features.values
        states: list[LayerForwardState] = []
        for layer_idx, layer in enumerate(self.layers):
            is_output = layer_idx == len(self.layers) - 1
            forced = None
            if (
                is_output
                and include_labels
                and layer.config.sampling.include_labels
                and example.labels.size
            ):
                forced = example.labels
            state = layer.forward(indices, values, forced_active=forced)
            states.append(state)
            # The sparse activation of this layer feeds the next one; prune
            # exact zeros (e.g. ReLU kills them) so downstream work shrinks.
            nonzero = state.activation != 0.0
            indices = state.active_out[nonzero]
            values = state.activation[nonzero]
        return ForwardResult(layer_states=states)

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
            return np.zeros((0, self.output_dim), dtype=np.float64)
        features = dense_features(examples, self.input_dim)
        for layer in self.layers:
            features = layer.dense_forward_batch(features)
        return features

    # ------------------------------------------------------------------
    # Loss and gradients
    # ------------------------------------------------------------------
    def compute_sample_gradient(self, example: SparseExample) -> SampleGradient:
        """Forward + backward for one sample; returns its sparse gradients."""
        result = self.forward_sample(example, include_labels=True)
        states = result.layer_states

        output_state = states[-1]
        probabilities = output_state.activation
        active_out = output_state.active_out

        # Cross-entropy target restricted to the active set: probability mass
        # 1/|labels| on each ground-truth label present in the active set.
        # ``searchsorted`` silently misattributes labels on an unsorted active
        # set, so the sorted invariant is enforced rather than assumed.
        if active_out.size > 1 and np.any(np.diff(active_out) <= 0):
            raise ValueError(
                "active_out must be sorted and unique for label matching; "
                "got an unsorted active set from the output layer"
            )
        target = np.zeros_like(probabilities)
        loss = 0.0
        if example.labels.size:
            positions = np.searchsorted(active_out, example.labels)
            in_range = positions < active_out.size
            positions = positions[in_range]
            matched = active_out[positions] == example.labels[in_range]
            label_positions = positions[matched]
            if label_positions.size:
                target[label_positions] = 1.0 / example.labels.size
                loss = float(
                    -np.sum(target[label_positions] * np.log(probabilities[label_positions] + 1e-12))
                )

        # Softmax + cross-entropy: dL/dz = p - y on the active set.
        delta = probabilities - target

        weight_grads: list[FloatArray] = [np.zeros(0)] * len(self.layers)
        bias_grads: list[FloatArray] = [np.zeros(0)] * len(self.layers)

        downstream_delta = delta
        for layer_idx in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[layer_idx]
            state = states[layer_idx]
            prev_delta = layer.backward(state, downstream_delta)
            weight_grad, bias_grad = layer.gradient_blocks(state)
            weight_grads[layer_idx] = weight_grad
            bias_grads[layer_idx] = bias_grad
            if layer_idx > 0:
                below = states[layer_idx - 1]
                # ``state.active_in`` lists which of the *below* layer's active
                # neurons fed this layer; map the propagated delta back onto
                # the below layer's active set and apply its ReLU mask.
                mapped = np.zeros(below.active_out.shape[0], dtype=np.float64)
                positions = np.searchsorted(below.active_out, state.active_in)
                valid = (positions < below.active_out.size) & (
                    below.active_out[np.minimum(positions, below.active_out.size - 1)]
                    == state.active_in
                )
                mapped[positions[valid]] = prev_delta[valid]
                downstream_delta = mapped * hidden_activation_grad(
                    self.layers[layer_idx - 1].activation_name, below.pre_activation
                )
        return SampleGradient(
            layer_states=states,
            weight_grads=weight_grads,
            bias_grads=bias_grads,
            loss=loss,
        )

    # ------------------------------------------------------------------
    # Training steps
    # ------------------------------------------------------------------
    def apply_sample_gradient(
        self,
        gradient: SampleGradient,
        optimizer: Optimizer,
        scale: float = 1.0,
    ) -> None:
        """Apply one sample's sparse gradient blocks to every layer.

        The per-sample update primitive shared by HOGWILD-style training
        (``scale=1``) and the legacy averaged synchronous loop
        (``scale=1/batch``).
        """
        for layer, state, w_grad, b_grad in zip(
            self.layers,
            gradient.layer_states,
            gradient.weight_grads,
            gradient.bias_grads,
        ):
            if scale == 1.0:
                layer.apply_gradients(optimizer, state, w_grad, b_grad)
            else:
                layer.apply_gradients(optimizer, state, w_grad * scale, b_grad * scale)

    def train_batch(
        self,
        batch: SparseBatch,
        optimizer: Optimizer,
        hogwild: bool = True,
        batched: bool | None = None,
    ) -> dict[str, float]:
        """One mini-batch step (Algorithm 1, lines 7-16).

        With ``hogwild=True`` each sample's gradient is applied immediately
        and independently (asynchronous accumulation) — the paper's execution
        model, bit-compatible across releases.  With ``hogwild=False`` the
        step is synchronous; ``batched`` selects its implementation:

        * ``None``/``True`` (default) — the fused batched kernels
          (:mod:`repro.kernels`): one LSH hash sweep, one gather + GEMM per
          layer, and one accumulated optimiser step per layer for the whole
          micro-batch.
        * ``False`` — the legacy per-sample loop that averages gradients but
          applies them one ``sparse_step`` per sample (kept for ablations and
          the kernel parity tests).
        """
        if hogwild:
            metrics = self._train_batch_per_sample(batch, optimizer, interleaved=True)
        elif batched or batched is None:
            metrics = fused_train_step(self, batch, optimizer, self._workspace)
        else:
            metrics = self._train_batch_per_sample(batch, optimizer, interleaved=False)

        self.iteration += 1
        with self.phase_timer.phase("rebuild"):
            for layer in self.layers:
                layer.maybe_rebuild(self.iteration)
        return metrics

    def _train_batch_per_sample(
        self,
        batch: SparseBatch,
        optimizer: Optimizer,
        interleaved: bool,
    ) -> dict[str, float]:
        """Per-sample step shared by HOGWILD and the legacy synchronous loop.

        ``interleaved=True`` applies each gradient immediately at full scale
        (asynchronous accumulation); ``interleaved=False`` defers every
        update until all gradients are computed, then applies them averaged.
        """
        optimizer.begin_step()
        losses = []
        active_neurons = 0
        active_weights = 0
        deferred: list[SampleGradient] = []
        for example in batch:
            gradient = self.compute_sample_gradient(example)
            losses.append(gradient.loss)
            active_neurons += sum(s.num_active for s in gradient.layer_states)
            active_weights += sum(s.num_active_weights for s in gradient.layer_states)
            if interleaved:
                self.apply_sample_gradient(gradient, optimizer)
            else:
                deferred.append(gradient)
        scale = 1.0 / max(len(batch), 1)
        for gradient in deferred:
            self.apply_sample_gradient(gradient, optimizer, scale=scale)
        return {
            "loss": float(np.mean(losses)) if losses else 0.0,
            "active_neurons": float(active_neurons),
            "active_weights": float(active_weights),
            "batch_size": float(len(batch)),
        }

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def rebuild_all_tables(self) -> None:
        """Force a full re-hash of every LSH-enabled layer."""
        for layer in self.layers:
            if layer.lsh_index is not None:
                layer.lsh_index.build(layer.weights)
                layer._clear_dirty()
                layer.num_rebuilds += 1

    def average_output_active(self, examples: list[SparseExample]) -> float:
        """Mean number of active output neurons over ``examples`` (diagnostic).

        The paper reports ~1000/205K for Delicious and ~3000/670K for Amazon —
        i.e. < 0.5 % of the output layer.
        """
        if not examples:
            return 0.0
        counts = []
        for example in examples:
            result = self.forward_sample(example, include_labels=False)
            counts.append(result.output_state.num_active)
        return float(np.mean(counts))
