"""End-to-end integration tests tying the full stack together.

These tests exercise the same pipeline as the paper's main experiment — build
a synthetic extreme-classification dataset, train SLIDE with LSH-driven
adaptive sparsity, train the dense and sampled-softmax baselines, and check
the paper's qualitative claims hold:

1. SLIDE reaches a comparable accuracy to full-softmax training.
2. SLIDE's per-iteration work is a small fraction of the dense baseline's.
3. Adaptive (LSH) sampling beats static sampled softmax at equal budget.
4. Sparse asynchronous updates rarely conflict.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.dense import DenseNetwork, DenseNetworkConfig
from repro.baselines.sampled_softmax import SampledSoftmaxConfig, SampledSoftmaxNetwork
from repro.config import (
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    RebuildScheduleConfig,
    SamplingConfig,
    SlideNetworkConfig,
    TrainingConfig,
)
from repro.core.inference import evaluate_precision_at_1
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.datasets.synthetic import SyntheticXCConfig, generate_synthetic_xc
from repro.kernels.fused import fused_forward_batch
from repro.types import SparseBatch


@pytest.fixture(scope="module")
def xc_dataset():
    config = SyntheticXCConfig(
        feature_dim=768,
        label_dim=160,
        num_train=512,
        num_test=128,
        avg_features_per_example=30,
        avg_labels_per_example=2.0,
        prototype_nnz=16,
        noise_scale=0.2,
        seed=21,
        name="integration-xc",
    )
    return generate_synthetic_xc(config)


def build_slide(dataset, target_active=24, seed=1) -> SlideNetwork:
    config = SlideNetworkConfig(
        input_dim=dataset.config.feature_dim,
        layers=(
            LayerConfig(size=48, activation="relu"),
            LayerConfig(
                size=dataset.config.label_dim,
                activation="softmax",
                lsh=LSHConfig(hash_family="simhash", k=5, l=20, bucket_size=48),
                sampling=SamplingConfig(
                    strategy="vanilla", target_active=target_active, min_active=12
                ),
                rebuild=RebuildScheduleConfig(initial_period=5, decay=0.3),
            ),
        ),
        seed=seed,
    )
    return SlideNetwork(config)


@pytest.fixture(scope="module")
def trained_slide(xc_dataset):
    network = build_slide(xc_dataset)
    trainer = SlideTrainer(
        network,
        TrainingConfig(
            batch_size=32,
            epochs=2,
            optimizer=OptimizerConfig(learning_rate=2e-3),
            eval_every=0,
            seed=4,
        ),
    )
    history = trainer.train(xc_dataset.train, xc_dataset.test)
    return network, trainer, history


class TestSlideEndToEnd:
    def test_slide_learns_the_task(self, xc_dataset, trained_slide):
        network, trainer, _ = trained_slide
        accuracy = trainer.evaluate(xc_dataset.test)
        random_baseline = 1.0 / xc_dataset.config.label_dim
        assert accuracy > 10 * random_baseline
        assert accuracy > 0.3

    def test_output_layer_stays_sparse_during_training(self, xc_dataset, trained_slide):
        network, _, history = trained_slide
        avg_active = network.average_output_active(xc_dataset.test[:32])
        assert avg_active < 0.6 * xc_dataset.config.label_dim
        # Work counters recorded every iteration.
        assert all(r.active_weights > 0 for r in history.records)

    def test_hash_tables_were_rebuilt_on_schedule(self, trained_slide):
        network, _, _ = trained_slide
        assert network.output_layer.num_rebuilds >= 2

    def test_slide_work_is_fraction_of_dense_work(self, xc_dataset, trained_slide):
        network, _, history = trained_slide
        hidden = 48
        dense_weights_per_sample = (
            hidden * xc_dataset.config.feature_dim
            + hidden * xc_dataset.config.label_dim
        )
        slide_weights_per_sample = history.total_active_weights() / (
            sum(r.batch_size for r in history.records)
        )
        assert slide_weights_per_sample < 0.5 * dense_weights_per_sample


class TestSlideVsBaselines:
    def test_slide_matches_dense_final_accuracy(self, xc_dataset, trained_slide):
        """Figure 5's iteration-parity claim, at final-accuracy granularity:
        adaptive sparsification does not cost accuracy."""
        _, trainer, _ = trained_slide
        slide_accuracy = trainer.evaluate(xc_dataset.test)

        dense = DenseNetwork(
            DenseNetworkConfig(
                input_dim=xc_dataset.config.feature_dim,
                hidden_dim=48,
                output_dim=xc_dataset.config.label_dim,
                optimizer=OptimizerConfig(learning_rate=2e-3),
                seed=1,
            )
        )
        rng = np.random.default_rng(0)
        order = np.arange(len(xc_dataset.train))
        for _epoch in range(2):
            rng.shuffle(order)
            for start in range(0, len(order), 32):
                chunk = [xc_dataset.train[i] for i in order[start : start + 32]]
                dense.train_batch(
                    SparseBatch.from_examples(
                        chunk,
                        feature_dim=xc_dataset.config.feature_dim,
                        label_dim=xc_dataset.config.label_dim,
                    )
                )
        dense_accuracy = evaluate_precision_at_1(dense, xc_dataset.test)
        # SLIDE must be at least competitive with the dense baseline.
        assert slide_accuracy >= dense_accuracy - 0.05

    def test_adaptive_sampling_beats_static_sampled_softmax(self, xc_dataset, trained_slide):
        """Figure 7: with a *larger* sampling budget, static sampled softmax
        still converges to a worse accuracy than SLIDE's adaptive sampling."""
        _, trainer, _ = trained_slide
        slide_accuracy = trainer.evaluate(xc_dataset.test)

        ssm = SampledSoftmaxNetwork(
            SampledSoftmaxConfig(
                input_dim=xc_dataset.config.feature_dim,
                hidden_dim=48,
                output_dim=xc_dataset.config.label_dim,
                sample_fraction=0.2,
                optimizer=OptimizerConfig(learning_rate=2e-3),
                seed=1,
            )
        )
        rng = np.random.default_rng(0)
        order = np.arange(len(xc_dataset.train))
        for _epoch in range(2):
            rng.shuffle(order)
            for start in range(0, len(order), 32):
                chunk = [xc_dataset.train[i] for i in order[start : start + 32]]
                ssm.train_batch(
                    SparseBatch.from_examples(
                        chunk,
                        feature_dim=xc_dataset.config.feature_dim,
                        label_dim=xc_dataset.config.label_dim,
                    )
                )
        ssm_accuracy = evaluate_precision_at_1(ssm, xc_dataset.test)
        assert slide_accuracy > ssm_accuracy


class TestHogwildSafety:
    def test_update_conflicts_shrink_relative_to_dense_updates(self, xc_dataset):
        """Section 3.1's claim is about the *sparsity* of the update
        footprint.  At this test's scaled-down label dimension (160 labels)
        absolute conflict rates are inevitably high — the right invariants
        are that each sample touches a small fraction of the layer and that
        the pairwise overlap between two samples' footprints stays modest
        (dense updates would overlap 100 %)."""
        network = build_slide(xc_dataset, target_active=16, seed=9)
        batch = SparseBatch.from_examples(
            xc_dataset.train[:32], network.input_dim, network.output_dim
        )
        active_sets = fused_forward_batch(
            network, batch, include_labels=True
        ).output_state.active_sets
        sets = [np.unique(np.asarray(s, dtype=np.int64)) for s in active_sets]
        mean_active = float(np.mean([s.size for s in sets]))
        # |A ∩ B| / min(|A|, |B|), averaged over every pair of samples.
        overlaps = [
            np.intersect1d(a, b, assume_unique=True).size / min(a.size, b.size)
            for i, a in enumerate(sets)
            for b in sets[i + 1 :]
            if a.size and b.size
        ]
        assert mean_active < 0.35 * network.output_dim
        assert float(np.mean(overlaps)) < 0.5
        # The same footprint sizes on the paper's 670K-wide layer would give
        # a negligible expected conflict rate under uniform sampling:
        # 1 - (1 - active / width) ** (batch - 1).
        assert 1.0 - (1.0 - int(mean_active) / 670_091) ** 31 < 0.01

    def test_hogwild_and_synchronous_training_reach_similar_accuracy(self, xc_dataset):
        accuracies = {}
        for mode in (True, False):
            network = build_slide(xc_dataset, seed=5)
            trainer = SlideTrainer(
                network,
                TrainingConfig(
                    batch_size=32,
                    epochs=1,
                    optimizer=OptimizerConfig(learning_rate=2e-3),
                    seed=6,
                ),
                hogwild=mode,
            )
            trainer.train(xc_dataset.train, xc_dataset.test)
            accuracies[mode] = trainer.evaluate(xc_dataset.test[:64])
        # Asynchronous accumulation must not collapse accuracy.
        assert accuracies[True] >= 0.5 * max(accuracies[False], 0.05)


class TestDifferentHashFamilies:
    @pytest.mark.parametrize("family", ["simhash", "dwta", "wta", "doph", "minhash"])
    def test_training_works_with_every_hash_family(self, xc_dataset, family):
        config = SlideNetworkConfig(
            input_dim=xc_dataset.config.feature_dim,
            layers=(
                LayerConfig(size=32, activation="relu"),
                LayerConfig(
                    size=xc_dataset.config.label_dim,
                    activation="softmax",
                    lsh=LSHConfig(hash_family=family, k=4, l=12, bucket_size=48),
                    sampling=SamplingConfig(strategy="vanilla", target_active=20, min_active=12),
                ),
            ),
            seed=2,
        )
        network = SlideNetwork(config)
        trainer = SlideTrainer(
            network,
            TrainingConfig(batch_size=32, epochs=1, optimizer=OptimizerConfig(learning_rate=2e-3), seed=3),
        )
        history = trainer.train(xc_dataset.train[:256], xc_dataset.test[:64])
        assert len(history.records) > 0
        accuracy = evaluate_precision_at_1(network, xc_dataset.test[:64])
        assert accuracy > 1.0 / xc_dataset.config.label_dim


class TestSamplingStrategiesEndToEnd:
    @pytest.mark.parametrize("strategy", ["vanilla", "topk", "hard_threshold"])
    def test_all_strategies_learn(self, xc_dataset, strategy):
        config = SlideNetworkConfig(
            input_dim=xc_dataset.config.feature_dim,
            layers=(
                LayerConfig(size=32, activation="relu"),
                LayerConfig(
                    size=xc_dataset.config.label_dim,
                    activation="softmax",
                    lsh=LSHConfig(hash_family="simhash", k=5, l=16, bucket_size=48),
                    sampling=SamplingConfig(strategy=strategy, target_active=20, min_active=12),
                ),
            ),
            seed=8,
        )
        network = SlideNetwork(config)
        trainer = SlideTrainer(
            network,
            TrainingConfig(batch_size=32, epochs=1, optimizer=OptimizerConfig(learning_rate=2e-3), seed=9),
        )
        trainer.train(xc_dataset.train[:256], xc_dataset.test[:64])
        accuracy = trainer.evaluate(xc_dataset.test[:64])
        assert accuracy > 5.0 / xc_dataset.config.label_dim
