"""Sparse/dense inference engines: correctness, budget knob, fallback."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.inference import evaluate_precision_at_1, predict_top_k
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.serving.engine import DenseInferenceEngine, SparseInferenceEngine


@pytest.fixture(scope="module")
def trained(tiny_dataset):
    """One briefly trained network shared by the engine tests (read-only)."""
    from repro.config import (
        LayerConfig,
        LSHConfig,
        OptimizerConfig,
        SamplingConfig,
        SlideNetworkConfig,
        TrainingConfig,
    )

    lsh = LSHConfig(hash_family="simhash", k=3, l=16, bucket_size=64)
    layers = (
        LayerConfig(size=32, activation="relu", lsh=None),
        LayerConfig(
            size=tiny_dataset.config.label_dim,
            activation="softmax",
            lsh=lsh,
            sampling=SamplingConfig(strategy="vanilla", target_active=12, min_active=8),
        ),
    )
    network = SlideNetwork(
        SlideNetworkConfig(
            input_dim=tiny_dataset.config.feature_dim, layers=layers, seed=3
        )
    )
    trainer = SlideTrainer(
        network,
        TrainingConfig(
            batch_size=16,
            epochs=2,
            optimizer=OptimizerConfig(name="adam", learning_rate=1e-3),
            seed=11,
        ),
    )
    trainer.train(tiny_dataset.train, tiny_dataset.test)
    return network


def test_dense_engine_matches_reference_top_k(trained, tiny_dataset):
    engine = DenseInferenceEngine(trained)
    for example in tiny_dataset.test[:16]:
        prediction = engine.predict(example, k=3)
        np.testing.assert_array_equal(
            prediction.class_ids, predict_top_k(trained, example, k=3)
        )
        assert prediction.mode == "dense"
        assert prediction.candidates_scored == trained.output_dim
        # Scores sorted descending.
        assert np.all(np.diff(prediction.scores) <= 0)


def test_sparse_engine_precision_close_to_dense(trained, tiny_dataset):
    dense_precision = evaluate_precision_at_1(trained, tiny_dataset.test)
    engine = SparseInferenceEngine(trained, active_budget=32)
    hits = judged = 0
    for example, prediction in zip(
        tiny_dataset.test, engine.predict_batch(tiny_dataset.test, k=1)
    ):
        if example.labels.size == 0:
            continue
        judged += 1
        hits += int(np.isin(prediction.class_ids[:1], example.labels).any())
    sparse_precision = hits / judged
    assert dense_precision - sparse_precision <= 0.02


def test_sparse_engine_budget_bounds_candidates(trained, tiny_dataset):
    budget = 16
    engine = SparseInferenceEngine(trained, active_budget=budget)
    for prediction in engine.predict_batch(tiny_dataset.test[:32], k=1):
        if prediction.mode == "sparse":
            assert prediction.candidates_scored <= budget
        else:
            assert prediction.mode == "dense_fallback"


def test_sparse_engine_is_deterministic(trained, tiny_dataset):
    engine = SparseInferenceEngine(trained, active_budget=24)
    examples = tiny_dataset.test[:16]
    first = engine.predict_batch(examples, k=5)
    second = engine.predict_batch(examples, k=5)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.class_ids, b.class_ids)
        np.testing.assert_allclose(a.scores, b.scores)


def test_sparse_engine_batch_matches_single(trained, tiny_dataset):
    engine = SparseInferenceEngine(trained, active_budget=24)
    examples = tiny_dataset.test[:8]
    batched = engine.predict_batch(examples, k=2)
    for example, from_batch in zip(examples, batched):
        alone = engine.predict(example, k=2)
        np.testing.assert_array_equal(alone.class_ids, from_batch.class_ids)


def test_sparse_engine_falls_back_when_starved(trained, tiny_dataset):
    # A huge k forces min_candidates above what the tables can return, so
    # every request must take the exact dense path.
    k = trained.output_dim
    engine = SparseInferenceEngine(trained, active_budget=8)
    prediction = engine.predict(tiny_dataset.test[0], k=k)
    assert prediction.mode == "dense_fallback"
    assert prediction.class_ids.shape == (k,)
    assert engine.fallback_rate() == 1.0


def test_sparse_engine_requires_lsh_output_layer(tiny_dataset):
    from repro.config import LayerConfig, SlideNetworkConfig

    dense_net = SlideNetwork(
        SlideNetworkConfig(
            input_dim=tiny_dataset.config.feature_dim,
            layers=(
                LayerConfig(size=16, activation="relu"),
                LayerConfig(size=tiny_dataset.config.label_dim, activation="softmax"),
            ),
            seed=0,
        )
    )
    with pytest.raises(ValueError, match="LSH-enabled output layer"):
        SparseInferenceEngine(dense_net)


def test_engine_rejects_bad_k(trained, tiny_dataset):
    engine = DenseInferenceEngine(trained)
    with pytest.raises(ValueError, match="positive"):
        engine.predict(tiny_dataset.test[0], k=0)
    with pytest.raises(ValueError, match="exceeds"):
        engine.predict(tiny_dataset.test[0], k=trained.output_dim + 1)


def test_refresh_index_rehashes_dirty_neurons(trained):
    layer = trained.output_layer
    layer.mark_dirty(np.arange(4))
    SparseInferenceEngine(trained)
    assert layer.dirty_neuron_count == 0
