"""Tests for :class:`repro.core.network.SlideNetwork`."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.config import (
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    SamplingConfig,
    SlideNetworkConfig,
    TrainingConfig,
)
from repro.core.network import SlideNetwork
from repro.kernels.fused import FusedBatchResult, fused_forward_batch
from repro.types import SparseBatch, SparseExample, SparseVector


def small_dense_network(input_dim=24, hidden=8, classes=10, seed=0) -> SlideNetwork:
    """A SLIDE network with LSH disabled everywhere (pure sparse-dense math)."""
    config = SlideNetworkConfig(
        input_dim=input_dim,
        layers=(
            LayerConfig(size=hidden, activation="relu"),
            LayerConfig(size=classes, activation="softmax"),
        ),
        seed=seed,
    )
    return SlideNetwork(config)


def small_lsh_network(input_dim=24, hidden=8, classes=40, seed=0) -> SlideNetwork:
    config = SlideNetworkConfig(
        input_dim=input_dim,
        layers=(
            LayerConfig(size=hidden, activation="relu"),
            LayerConfig(
                size=classes,
                activation="softmax",
                lsh=LSHConfig(hash_family="simhash", k=3, l=10, bucket_size=16),
                sampling=SamplingConfig(strategy="vanilla", target_active=10, min_active=6),
            ),
        ),
        seed=seed,
    )
    return SlideNetwork(config)


def make_example(rng, input_dim=24, classes=10, nnz=5, num_labels=2) -> SparseExample:
    indices = np.sort(rng.choice(input_dim, size=nnz, replace=False))
    return SparseExample(
        features=SparseVector(indices=indices, values=rng.normal(size=nnz), dimension=input_dim),
        labels=rng.choice(classes, size=num_labels, replace=False),
    )


def forward_one(network, example, include_labels=False) -> FusedBatchResult:
    """The training kernel's forward pass on a block of one example."""
    batch = SparseBatch([example], network.input_dim, network.output_dim)
    return fused_forward_batch(network, batch, include_labels=include_labels)


class TestForward:
    def test_forward_shapes_and_probabilities(self, rng):
        network = small_dense_network()
        example = make_example(rng)
        result = forward_one(network, example)
        assert len(result.layer_states) == 2
        assert result.output_state.act.sum() == pytest.approx(1.0)
        assert result.output_state.active_count(1) == 10

    def test_forward_sparse_matches_dense_when_lsh_disabled(self, rng):
        network = small_dense_network()
        example = make_example(rng)
        result = forward_one(network, example)
        np.testing.assert_array_equal(result.output_state.rows, np.arange(10))
        (dense_scores,) = network.predict_dense_batch([example])
        # float32 probabilities summed in two orders: measured 1.5e-7
        # relative (about 1 eps), bounded here at 4 eps.
        np.testing.assert_allclose(
            result.output_state.act[0], dense_scores, rtol=4 * np.finfo(np.float32).eps
        )

    def test_include_labels_forces_label_neurons_active(self, rng):
        network = small_lsh_network()
        example = make_example(rng, classes=40)
        result = forward_one(network, example, include_labels=True)
        (active,) = result.output_state.active_sets
        assert set(example.labels.tolist()).issubset(set(active.tolist()))

    def test_lsh_network_output_is_sparse(self, rng):
        network = small_lsh_network(classes=60)
        example = make_example(rng, classes=60)
        result = forward_one(network, example, include_labels=False)
        assert result.output_state.active_count(1) < 60

    def test_work_counters(self, rng):
        network = small_dense_network()
        example = make_example(rng)
        result = forward_one(network, example)
        assert result.total_active_neurons(1) == 8 + 10
        # The output layer only consumes the *non-zero* hidden activations
        # (ReLU prunes the rest), so the active-weight count reflects that.
        hidden_nonzero = int(np.count_nonzero(result.layer_states[0].act))
        assert result.total_active_weights(1) == (
            8 * example.features.nnz + 10 * hidden_nonzero
        )
        assert result.output_state.cols.size == hidden_nonzero

    def test_num_parameters(self):
        network = small_dense_network(input_dim=24, hidden=8, classes=10)
        assert network.num_parameters() == 24 * 8 + 8 + 8 * 10 + 10


class TestGradients:
    def test_loss_is_non_negative(self, rng):
        network = small_dense_network()
        batch = SparseBatch([make_example(rng)], network.input_dim, network.output_dim)
        optimizer = network.build_optimizer(TrainingConfig())
        assert network.train_batch(batch, optimizer)["loss"] >= 0.0

    def test_gradient_footprint_limited_to_active_sets(self, rng):
        network = small_lsh_network(classes=50)
        example = make_example(rng, classes=50)
        # The same selection on an identical copy gives the step's active sets.
        result = forward_one(copy.deepcopy(network), example, include_labels=True)
        out = result.output_state
        before = network.output_layer.weights.copy()
        batch = SparseBatch([example], network.input_dim, network.output_dim)
        network.train_batch(batch, network.build_optimizer(TrainingConfig()))
        changed = np.argwhere(network.output_layer.weights != before)
        assert changed.size
        assert set(changed[:, 0].tolist()) <= set(out.active_sets[0].tolist())
        assert set(changed[:, 1].tolist()) <= set(out.cols.tolist())


class TestTraining:
    def _training_setup(self, rng, network, classes, batch_size=8):
        examples = [make_example(rng, classes=classes) for _ in range(batch_size)]
        batch = SparseBatch.from_examples(
            examples, feature_dim=network.input_dim, label_dim=network.output_dim
        )
        optimizer = network.build_optimizer(
            TrainingConfig(optimizer=OptimizerConfig(learning_rate=5e-3))
        )
        return batch, optimizer

    def test_train_batch_reduces_loss(self, rng):
        network = small_dense_network(classes=10, seed=2)
        batch, optimizer = self._training_setup(rng, network, classes=10)
        losses = [network.train_batch(batch, optimizer)["loss"] for _ in range(25)]
        assert losses[-1] < losses[0]

    def test_hogwild_and_batch_modes_both_learn(self, rng):
        for hogwild in (True, False):
            network = small_dense_network(classes=10, seed=3)
            batch, optimizer = self._training_setup(rng, network, classes=10)
            first = network.train_batch(batch, optimizer, hogwild=hogwild)["loss"]
            for _ in range(20):
                last = network.train_batch(batch, optimizer, hogwild=hogwild)["loss"]
            assert last < first

    def test_train_batch_metrics_keys(self, rng):
        network = small_dense_network()
        batch, optimizer = self._training_setup(rng, network, classes=10)
        metrics = network.train_batch(batch, optimizer)
        assert {"loss", "active_neurons", "active_weights", "batch_size"} <= set(metrics)
        assert metrics["batch_size"] == len(batch)

    def test_iteration_counter_and_rebuilds(self, rng):
        network = small_lsh_network(classes=40, seed=4)
        batch, optimizer = self._training_setup(rng, network, classes=40)
        for _ in range(3):
            network.train_batch(batch, optimizer)
        assert network.iteration == 3

    def test_rebuild_all_tables(self, rng):
        network = small_lsh_network(classes=40, seed=5)
        before = network.output_layer.num_rebuilds
        network.rebuild_all_tables()
        assert network.output_layer.num_rebuilds == before + 1

    def test_average_output_active(self, rng):
        network = small_lsh_network(classes=60, seed=6)
        examples = [make_example(rng, classes=60) for _ in range(5)]
        avg = network.average_output_active(examples)
        assert 0 < avg < 60
        assert network.average_output_active([]) == 0.0
