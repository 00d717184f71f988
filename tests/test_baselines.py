"""Tests for the dense full-softmax and sampled-softmax baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.dense import DenseNetwork, DenseNetworkConfig
from repro.baselines.sampled_softmax import SampledSoftmaxConfig, SampledSoftmaxNetwork
from repro.config import OptimizerConfig
from repro.core.inference import evaluate_precision_at_1, predict_top_k
from repro.types import SparseBatch


def make_batch(dataset, size=16):
    return SparseBatch.from_examples(
        dataset.train[:size],
        feature_dim=dataset.config.feature_dim,
        label_dim=dataset.config.label_dim,
    )


class TestDenseNetwork:
    def _network(self, dataset, lr=2e-3, seed=0) -> DenseNetwork:
        return DenseNetwork(
            DenseNetworkConfig(
                input_dim=dataset.config.feature_dim,
                hidden_dim=24,
                output_dim=dataset.config.label_dim,
                optimizer=OptimizerConfig(learning_rate=lr),
                seed=seed,
            )
        )

    def test_forward_probabilities_normalised(self, tiny_dataset):
        network = self._network(tiny_dataset)
        batch = make_batch(tiny_dataset, size=4)
        _, _, probs = network.forward(batch.to_dense_features())
        # float32 softmax: a row sums to 1 within a few eps (measured 1 eps).
        np.testing.assert_allclose(
            probs.sum(axis=1), 1.0, atol=4 * np.finfo(np.float32).eps
        )

    def test_training_reduces_loss(self, tiny_dataset):
        network = self._network(tiny_dataset)
        batch = make_batch(tiny_dataset)
        losses = [network.train_batch(batch)["loss"] for _ in range(30)]
        assert losses[-1] < losses[0]

    def test_learns_tiny_task(self, tiny_dataset):
        network = self._network(tiny_dataset, lr=5e-3)
        for _ in range(3):
            for start in range(0, 128, 16):
                batch = SparseBatch.from_examples(
                    tiny_dataset.train[start : start + 16],
                    feature_dim=tiny_dataset.config.feature_dim,
                    label_dim=tiny_dataset.config.label_dim,
                )
                network.train_batch(batch)
        accuracy = evaluate_precision_at_1(network, tiny_dataset.test[:48])
        assert accuracy > 0.2  # far above the ~2 % random baseline

    def test_predict_top_k(self, tiny_dataset):
        network = self._network(tiny_dataset)
        top2 = predict_top_k(network, tiny_dataset.test[0], k=2)
        assert top2.shape == (2,)

    def test_flops_per_sample_accounting(self, tiny_dataset):
        network = self._network(tiny_dataset)
        cfg = network.config
        full = network.flops_per_sample()
        sparse_aware = network.flops_per_sample(avg_input_nnz=10)
        assert full == pytest.approx(
            3 * (cfg.input_dim * cfg.hidden_dim + cfg.hidden_dim * cfg.output_dim)
        )
        assert sparse_aware < full

    def test_metrics_report_dense_work(self, tiny_dataset):
        network = self._network(tiny_dataset)
        batch = make_batch(tiny_dataset, size=8)
        metrics = network.train_batch(batch)
        assert metrics["active_neurons"] == 8 * (24 + tiny_dataset.config.label_dim)

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            DenseNetworkConfig(input_dim=0, hidden_dim=4, output_dim=4)


class TestSampledSoftmaxNetwork:
    def _network(self, dataset, fraction=0.25, seed=0) -> SampledSoftmaxNetwork:
        return SampledSoftmaxNetwork(
            SampledSoftmaxConfig(
                input_dim=dataset.config.feature_dim,
                hidden_dim=24,
                output_dim=dataset.config.label_dim,
                sample_fraction=fraction,
                optimizer=OptimizerConfig(learning_rate=2e-3),
                seed=seed,
            )
        )

    def test_candidates_include_batch_labels(self, tiny_dataset):
        network = self._network(tiny_dataset)
        labels = np.array([1, 5, 9])
        candidates = network.sample_candidates(labels)
        assert set(labels.tolist()).issubset(set(candidates.tolist()))

    def test_candidate_count_tracks_fraction(self, tiny_dataset):
        network = self._network(tiny_dataset, fraction=0.5)
        candidates = network.sample_candidates(np.array([], dtype=np.int64))
        assert candidates.size == network.config.num_sampled

    def test_uniform_distribution_supported(self, tiny_dataset):
        config = SampledSoftmaxConfig(
            input_dim=tiny_dataset.config.feature_dim,
            hidden_dim=8,
            output_dim=tiny_dataset.config.label_dim,
            sample_fraction=0.3,
            distribution="uniform",
        )
        network = SampledSoftmaxNetwork(config)
        candidates = network.sample_candidates(np.array([0]))
        assert candidates.size >= network.config.num_sampled

    def test_training_reduces_loss(self, tiny_dataset):
        network = self._network(tiny_dataset)
        batch = make_batch(tiny_dataset)
        losses = [network.train_batch(batch)["loss"] for _ in range(30)]
        assert losses[-1] < losses[0]

    def test_metrics_report_candidate_count(self, tiny_dataset):
        network = self._network(tiny_dataset)
        batch = make_batch(tiny_dataset, size=8)
        metrics = network.train_batch(batch)
        assert metrics["num_candidates"] > 0
        assert metrics["num_candidates"] <= tiny_dataset.config.label_dim

    def test_full_softmax_prediction_normalised(self, tiny_dataset):
        network = self._network(tiny_dataset)
        scores = network.predict_dense_batch(tiny_dataset.test[:4])
        assert scores.sum(axis=1) == pytest.approx(np.ones(4))

    def test_flops_scale_with_sample_fraction(self, tiny_dataset):
        small = self._network(tiny_dataset, fraction=0.1)
        large = self._network(tiny_dataset, fraction=0.9)
        assert small.flops_per_sample(10) < large.flops_per_sample(10)

    def test_invalid_fraction_raises(self):
        with pytest.raises(ValueError):
            SampledSoftmaxConfig(input_dim=4, hidden_dim=4, output_dim=4, sample_fraction=0.0)
