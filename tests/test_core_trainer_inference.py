"""Tests for the training driver and inference helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import OptimizerConfig, TrainingConfig
from repro.core.inference import (
    evaluate_precision_at_1,
    evaluate_precision_at_k,
    predict_top_k,
)
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer


class TestSlideTrainer:
    def _trainer(self, tiny_network_config, **overrides) -> SlideTrainer:
        defaults = dict(
            batch_size=16,
            epochs=1,
            optimizer=OptimizerConfig(learning_rate=2e-3),
            eval_every=3,
            eval_samples=32,
            seed=1,
        )
        defaults.update(overrides)
        network = SlideNetwork(tiny_network_config)
        return SlideTrainer(network, TrainingConfig(**defaults))

    def test_training_produces_history(self, tiny_dataset, tiny_network_config):
        trainer = self._trainer(tiny_network_config)
        history = trainer.train(tiny_dataset.train, tiny_dataset.test)
        expected_iterations = int(np.ceil(len(tiny_dataset.train) / 16))
        assert len(history.records) == expected_iterations
        assert all(r.batch_size > 0 for r in history.records)
        assert all(r.active_neurons > 0 for r in history.records)
        assert history.total_wall_time() > 0

    def test_eval_every_records_accuracy(self, tiny_dataset, tiny_network_config):
        trainer = self._trainer(tiny_network_config, eval_every=2)
        history = trainer.train(tiny_dataset.train, tiny_dataset.test)
        evaluated = history.accuracies()
        assert evaluated
        assert all(0.0 <= acc <= 1.0 for _, acc in evaluated)
        assert all(it % 2 == 0 for it, _ in evaluated)

    def test_epoch_accuracy_recorded(self, tiny_dataset, tiny_network_config):
        trainer = self._trainer(tiny_network_config, epochs=1)
        history = trainer.train(tiny_dataset.train, tiny_dataset.test)
        assert len(history.epoch_accuracy) == 1
        assert history.final_accuracy() is not None

    def test_training_improves_over_untrained(self, tiny_dataset, tiny_network_config):
        trainer = self._trainer(tiny_network_config, epochs=2, eval_every=0)
        untrained_accuracy = trainer.evaluate(tiny_dataset.test[:48])
        trainer.train(tiny_dataset.train, tiny_dataset.test)
        trained_accuracy = trainer.evaluate(tiny_dataset.test[:48])
        assert trained_accuracy > untrained_accuracy

    def test_empty_training_set_raises(self, tiny_network_config):
        trainer = self._trainer(tiny_network_config)
        with pytest.raises(ValueError):
            trainer.train([])

    def test_history_helpers(self, tiny_dataset, tiny_network_config):
        trainer = self._trainer(tiny_network_config)
        history = trainer.train(tiny_dataset.train, tiny_dataset.test)
        assert history.iterations().shape[0] == len(history.records)
        assert history.losses().shape[0] == len(history.records)
        assert history.total_active_neurons() > 0
        assert history.total_active_weights() > 0

    def test_no_shuffle_is_deterministic(self, tiny_dataset, tiny_network_config):
        histories = []
        for _ in range(2):
            trainer = self._trainer(tiny_network_config, shuffle=False, eval_every=0)
            history = trainer.train(tiny_dataset.train[:64])
            histories.append(history.losses())
        np.testing.assert_allclose(histories[0], histories[1])


class TestInference:
    def test_predict_top_k(self, tiny_dataset, tiny_network_config):
        network = SlideNetwork(tiny_network_config)
        example = tiny_dataset.test[0]
        top3 = predict_top_k(network, example, k=3)
        assert top3.shape == (3,)
        assert len(set(top3.tolist())) == 3
        (scores,) = network.predict_dense_batch([example])
        assert scores[top3[0]] >= scores[top3[1]] >= scores[top3[2]]

    def test_precision_at_1_bounds(self, tiny_dataset, tiny_network_config):
        network = SlideNetwork(tiny_network_config)
        accuracy = evaluate_precision_at_1(network, tiny_dataset.test[:32])
        assert 0.0 <= accuracy <= 1.0

    def test_precision_at_k_invalid_k(self, tiny_dataset, tiny_network_config):
        network = SlideNetwork(tiny_network_config)
        with pytest.raises(ValueError):
            evaluate_precision_at_k(network, tiny_dataset.test[:4], k=0)

    def test_precision_on_empty_examples_is_zero(self, tiny_network_config):
        network = SlideNetwork(tiny_network_config)
        assert evaluate_precision_at_1(network, []) == 0.0
