"""Failure-injection and degenerate-input tests.

SLIDE's data path has several places where real extreme-classification data
gets ugly: examples with no features, examples with no labels, all-zero
activations, hash tables whose buckets overflow, queries against empty
tables.  None of these may crash training or corrupt state.
"""

from __future__ import annotations

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
from repro.core.trainer import SlideTrainer
from repro.hashing import DOPH, DWTAHash, MinHash, SimHash, WTAHash
from repro.kernels.fused import fused_forward_batch
from repro.lsh.index import LSHIndex
from repro.types import SparseBatch, SparseExample, SparseVector


def lsh_network(input_dim=64, classes=32, seed=0) -> SlideNetwork:
    return SlideNetwork(
        SlideNetworkConfig(
            input_dim=input_dim,
            layers=(
                LayerConfig(size=16, activation="relu"),
                LayerConfig(
                    size=classes,
                    activation="softmax",
                    lsh=LSHConfig(hash_family="simhash", k=3, l=8, bucket_size=8),
                    sampling=SamplingConfig(strategy="vanilla", target_active=8, min_active=4),
                ),
            ),
            seed=seed,
        )
    )


class TestDegenerateExamples:
    def test_example_with_no_features(self):
        network = lsh_network()
        example = SparseExample(
            features=SparseVector(indices=[], values=[], dimension=64),
            labels=np.array([3]),
        )
        batch = SparseBatch([example], feature_dim=64, label_dim=32)
        result = fused_forward_batch(network, batch, include_labels=True)
        assert np.all(np.isfinite(result.output_state.act))
        metrics = network.train_batch(batch, network.build_optimizer(TrainingConfig()))
        assert np.isfinite(metrics["loss"])

    def test_example_with_no_labels(self):
        network = lsh_network()
        example = SparseExample(
            features=SparseVector(indices=[1, 5], values=[1.0, -2.0], dimension=64),
            labels=np.array([], dtype=np.int64),
        )
        batch = SparseBatch([example], feature_dim=64, label_dim=32)
        metrics = network.train_batch(batch, network.build_optimizer(TrainingConfig()))
        # No labels -> no cross-entropy target -> zero loss contribution, but
        # the update must still be finite and the step must not crash.
        assert metrics["loss"] == 0.0
        assert all(np.all(np.isfinite(layer.weights)) for layer in network.layers)

    def test_training_with_mixed_degenerate_batch(self):
        network = lsh_network()
        optimizer = network.build_optimizer(
            TrainingConfig(optimizer=OptimizerConfig(learning_rate=1e-3))
        )
        examples = [
            SparseExample(
                features=SparseVector(indices=[], values=[], dimension=64),
                labels=np.array([1]),
            ),
            SparseExample(
                features=SparseVector(indices=[2], values=[1.0], dimension=64),
                labels=np.array([], dtype=np.int64),
            ),
            SparseExample(
                features=SparseVector(indices=[4, 8], values=[1.0, 1.0], dimension=64),
                labels=np.array([5, 9]),
            ),
        ]
        batch = SparseBatch.from_examples(examples, feature_dim=64, label_dim=32)
        metrics = network.train_batch(batch, optimizer)
        assert np.isfinite(metrics["loss"])
        for layer in network.layers:
            assert np.all(np.isfinite(layer.weights))
            assert np.all(np.isfinite(layer.biases))

    def test_single_example_batch(self):
        network = lsh_network()
        optimizer = network.build_optimizer(TrainingConfig())
        example = SparseExample(
            features=SparseVector(indices=[0], values=[1.0], dimension=64),
            labels=np.array([0]),
        )
        batch = SparseBatch.from_examples([example], feature_dim=64, label_dim=32)
        metrics = network.train_batch(batch, optimizer)
        assert metrics["batch_size"] == 1


class TestHashFamiliesOnDegenerateInputs:
    @pytest.mark.parametrize(
        "family",
        [
            SimHash(32, 3, 4, seed=1),
            WTAHash(32, 3, 4, bin_size=4, seed=1),
            DWTAHash(32, 3, 4, bin_size=4, seed=1),
            DOPH(32, 3, 4, top_k=4, seed=1),
            MinHash(32, 3, 4, seed=1),
        ],
        ids=["simhash", "wta", "dwta", "doph", "minhash"],
    )
    def test_all_zero_vector_hashes_without_error(self, family):
        codes = family.hash_vector(np.zeros(32))
        assert codes.shape == (4, 3)
        assert codes.min() >= 0
        assert codes.max() < family.code_cardinality

    @pytest.mark.parametrize(
        "family",
        [
            SimHash(32, 3, 4, seed=1),
            DWTAHash(32, 3, 4, bin_size=4, seed=1),
            DOPH(32, 3, 4, top_k=4, seed=1),
            MinHash(32, 3, 4, seed=1),
        ],
        ids=["simhash", "dwta", "doph", "minhash"],
    )
    def test_single_nonzero_vector(self, family):
        vector = np.zeros(32)
        vector[7] = 3.5
        codes = family.hash_vector(vector)
        assert codes.shape == (4, 3)


class TestLSHIndexEdgeCases:
    def test_query_on_empty_index_returns_nothing(self, rng):
        index = LSHIndex(16, LSHConfig(hash_family="simhash", k=3, l=4), seed=0)
        flat = index.query_batch_flat(rng.normal(size=(2, 16)))
        assert flat.sizes.sum() == 0 and np.all(flat.candidates == -1)

    def test_bucket_overflow_keeps_index_consistent(self, rng):
        """Index far more items than one bucket can hold: every table keeps at
        most bucket_size ids per bucket and queries still return valid ids."""
        config = LSHConfig(hash_family="simhash", k=1, l=2, bucket_size=4)
        index = LSHIndex(8, config, seed=0)
        weights = rng.normal(size=(100, 8))
        index.build(weights)
        flat = index.query_batch_flat(weights)
        assert flat.sizes.max() <= 4
        union = flat.frequencies(0)[0]
        assert union.size <= 2 * 4
        assert np.all((union >= 0) & (union < 100))

    def test_rebuilding_after_every_item_changes_is_stable(self, rng):
        config = LSHConfig(hash_family="simhash", k=2, l=4, bucket_size=16)
        index = LSHIndex(8, config, seed=0)
        weights = rng.normal(size=(20, 8))
        index.build(weights)
        for _ in range(5):
            weights = weights + rng.normal(scale=0.1, size=weights.shape)
            index.update(np.arange(20), weights)
        assert index.num_items == 20
        assert index.stats()["mean_items_per_table"] == 20
        flat = index.query_batch_flat(weights)
        for item in range(20):
            np.testing.assert_array_equal((flat.candidates[item] == item).sum(axis=1), 1)


class TestTrainerRobustness:
    def test_training_set_smaller_than_batch(self, tiny_dataset, tiny_network_config):
        network = SlideNetwork(tiny_network_config)
        trainer = SlideTrainer(
            network, TrainingConfig(batch_size=64, epochs=1, eval_every=0)
        )
        history = trainer.train(tiny_dataset.train[:10])
        assert len(history.records) == 1
        assert history.records[0].batch_size == 10

    def test_eval_pool_smaller_than_eval_samples(self, tiny_dataset, tiny_network_config):
        network = SlideNetwork(tiny_network_config)
        trainer = SlideTrainer(
            network,
            TrainingConfig(batch_size=16, epochs=1, eval_every=1, eval_samples=10_000),
        )
        history = trainer.train(tiny_dataset.train[:32], tiny_dataset.test[:8])
        assert all(
            acc is None or 0 <= acc <= 1
            for acc in (r.accuracy for r in history.records)
        )
