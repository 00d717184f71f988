"""Batched prediction APIs and the strict evaluation flag."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.dense import DenseNetwork, DenseNetworkConfig
from repro.core.inference import (
    evaluate_precision_at_1,
    evaluate_precision_at_k,
    predict_top_k,
    predict_top_k_batch,
)
from repro.core.network import SlideNetwork
from repro.types import SparseExample, SparseVector, dense_features

# A row scored in a batch against the same row scored alone: the layers
# after the first are GEMMs, whose sums for a row change order with the
# batch's size; in float32 the scores differ by up to 2.1e-7 relative
# (measured), under 4 eps.
BATCH_RTOL = 4 * np.finfo(np.float32).eps


@pytest.fixture
def network(tiny_network_config):
    return SlideNetwork(tiny_network_config)


def test_predict_dense_batch_matches_per_example(network, tiny_dataset):
    examples = tiny_dataset.test[:12]
    batched = network.predict_dense_batch(examples)
    assert batched.shape == (12, network.output_dim)
    for row, example in enumerate(examples):
        np.testing.assert_allclose(
            batched[row], network.predict_dense_batch([example])[0], rtol=BATCH_RTOL
        )
    # The dense oracle: every layer one GEMM on the densified input.
    oracle = dense_features(examples, network.input_dim)
    for layer in network.layers:
        oracle = layer.dense_forward_batch(oracle)
    np.testing.assert_allclose(batched, oracle, rtol=BATCH_RTOL, atol=1e-7)


def test_predict_dense_batch_empty(network):
    assert network.predict_dense_batch([]).shape == (0, network.output_dim)


def test_dense_baseline_batch_matches_per_example(tiny_dataset):
    config = DenseNetworkConfig(
        input_dim=tiny_dataset.config.feature_dim,
        hidden_dim=16,
        output_dim=tiny_dataset.config.label_dim,
        seed=5,
    )
    baseline = DenseNetwork(config)
    examples = tiny_dataset.test[:8]
    batched = baseline.predict_dense_batch(examples)
    for row, example in enumerate(examples):
        np.testing.assert_allclose(
            batched[row], baseline.predict_dense_batch([example])[0], rtol=BATCH_RTOL
        )


def test_predict_top_k_batch_matches_scalar(network, tiny_dataset):
    examples = tiny_dataset.test[:10]
    batched = predict_top_k_batch(network, examples, k=3)
    assert batched.shape == (10, 3)
    for row, example in enumerate(examples):
        np.testing.assert_array_equal(batched[row], predict_top_k(network, example, k=3))


def test_predict_top_k_batch_validates_and_clamps(network, tiny_dataset):
    with pytest.raises(ValueError, match="positive"):
        predict_top_k_batch(network, tiny_dataset.test[:2], k=0)
    assert predict_top_k_batch(network, [], k=2).shape == (0, 2)
    # k beyond the class count clamps, matching the scalar helper.
    clamped = predict_top_k_batch(network, tiny_dataset.test[:2], k=network.output_dim + 5)
    assert clamped.shape == (2, network.output_dim)
    np.testing.assert_array_equal(
        clamped[0], predict_top_k(network, tiny_dataset.test[0], k=network.output_dim + 5)
    )


def test_precision_at_k_batch_equals_legacy_loop(network, tiny_dataset):
    examples = tiny_dataset.test[:32]
    batched = evaluate_precision_at_k(network, examples, k=2)
    scores = []
    for example in examples:
        if example.labels.size == 0:
            continue
        predictions = predict_top_k(network, example, k=2)
        scores.append(np.isin(predictions, example.labels).sum() / 2)
    assert batched == pytest.approx(float(np.mean(scores)))


def _unlabeled(dimension: int) -> SparseExample:
    return SparseExample(
        features=SparseVector(
            indices=np.array([0, 1]), values=np.array([1.0, -1.0]), dimension=dimension
        ),
        labels=np.zeros(0, dtype=np.int64),
    )


def test_strict_flag_reports_unlabeled_examples(network, tiny_dataset):
    examples = tiny_dataset.test[:8] + [_unlabeled(network.input_dim)] * 2
    # Default: silently skipped, same value as without the strays.
    relaxed = evaluate_precision_at_k(network, examples, k=1)
    assert relaxed == evaluate_precision_at_k(network, tiny_dataset.test[:8], k=1)
    with pytest.raises(ValueError, match="2 of 10 examples have no labels"):
        evaluate_precision_at_k(network, examples, k=1, strict=True)
    with pytest.raises(ValueError, match="no labels"):
        evaluate_precision_at_1(network, examples, strict=True)


def test_precision_all_unlabeled_returns_zero(network):
    assert evaluate_precision_at_k(network, [_unlabeled(network.input_dim)], k=1) == 0.0


class _FeatureScores:
    """A model whose class scores are its input features, so each test
    example states its own ranking."""

    def predict_dense_batch(self, examples: list[SparseExample]) -> np.ndarray:
        return np.stack([example.features.to_dense() for example in examples])


def _scored(scores: list[float], labels: list[int]) -> SparseExample:
    return SparseExample(
        features=SparseVector(
            indices=np.arange(len(scores)),
            values=np.array(scores),
            dimension=len(scores),
        ),
        labels=np.array(labels, dtype=np.int64),
    )


def test_precision_of_perfect_predictions_is_one():
    examples = [_scored([0.1, 0.9], [1]), _scored([0.8, 0.2], [0])]
    assert evaluate_precision_at_1(_FeatureScores(), examples) == 1.0


def test_precision_of_wrong_predictions_is_zero():
    examples = [_scored([0.9, 0.1], [1]), _scored([0.9, 0.1], [1])]
    assert evaluate_precision_at_1(_FeatureScores(), examples) == 0.0


def test_precision_at_k_gives_partial_credit():
    # top-2 = {0, 1}; only 0 is a label -> 1/2.
    examples = [_scored([0.5, 0.4, 0.3, 0.0], [0, 3])]
    assert evaluate_precision_at_k(_FeatureScores(), examples, k=2) == 0.5


def test_strict_flag_accepts_fully_labelled_examples():
    examples = [_scored([0.9, 0.1], [0]), _scored([0.1, 0.9], [0])]
    assert evaluate_precision_at_1(_FeatureScores(), examples, strict=True) == 0.5
    assert evaluate_precision_at_1(_FeatureScores(), examples) == 0.5


@pytest.mark.parametrize("eval_batch_size", [1, 5, 7])
def test_chunked_evaluation_matches_one_chunk(network, tiny_dataset, eval_batch_size):
    examples = tiny_dataset.test[:23]
    whole = evaluate_precision_at_k(network, examples, k=2)
    chunked = evaluate_precision_at_k(
        network, examples, k=2, eval_batch_size=eval_batch_size
    )
    assert chunked == pytest.approx(whole)


def test_eval_batch_size_must_be_positive(network, tiny_dataset):
    with pytest.raises(ValueError, match="eval_batch_size"):
        evaluate_precision_at_k(network, tiny_dataset.test[:4], eval_batch_size=0)
