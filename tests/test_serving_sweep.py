"""The serving accuracy-vs-latency sweep."""

from __future__ import annotations

import pytest

from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.harness.report import format_table
from repro.harness.serving_sweep import serving_accuracy_latency_sweep


@pytest.fixture(scope="module")
def trained(tiny_dataset):
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
    SlideTrainer(
        network,
        TrainingConfig(batch_size=16, epochs=1, optimizer=OptimizerConfig(), seed=11),
    ).train(tiny_dataset.train[:128], tiny_dataset.test[:32])
    return network


def test_sweep_produces_dense_reference_plus_budget_rows(trained, tiny_dataset):
    results = serving_accuracy_latency_sweep(
        trained, tiny_dataset.test[:48], budgets=(None, 16), k=1
    )
    assert [r.engine for r in results] == ["dense", "sparse", "sparse"]
    dense = results[0]
    assert dense.precision_gap == 0.0
    for result in results:
        assert 0.0 <= result.precision_at_1 <= 1.0
        assert result.p50_ms > 0.0
        assert result.p95_ms >= result.p50_ms
        assert result.throughput_rps > 0.0
    # The gap column is measured against the dense reference row.
    for sparse in results[1:]:
        assert sparse.precision_gap == pytest.approx(
            dense.precision_at_1 - sparse.precision_at_1
        )
    # Budgeted row scores at most its budget's worth of candidates.
    assert results[2].mean_candidates <= 16.0


def test_sweep_rows_render_as_table(trained, tiny_dataset):
    results = serving_accuracy_latency_sweep(
        trained, tiny_dataset.test[:16], budgets=(8,), k=1
    )
    rendered = format_table([r.as_row() for r in results], title="sweep")
    assert "precision@1" in rendered
    assert "p95_ms" in rendered


def test_sweep_requires_examples(trained):
    with pytest.raises(ValueError, match="non-empty"):
        serving_accuracy_latency_sweep(trained, [])
