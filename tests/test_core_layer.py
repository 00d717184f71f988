"""Tests for :class:`repro.core.layer.SlideLayer`."""

from __future__ import annotations

import numpy as np
import pytest

from types import SimpleNamespace

from repro.config import LayerConfig, LSHConfig, RebuildScheduleConfig, SamplingConfig
from repro.core.layer import SlideLayer
from repro.kernels.fused import FusedLayerState, fused_forward_batch
from repro.optim.adam import AdamOptimizer
from repro.types import FLOAT, SparseBatch, SparseExample, SparseVector

# Three-term float32 sums of O(1) products in two orders; the worst measured
# gap was 5.1e-8 (under half an eps), the bound here is 4 eps.
FORWARD_ATOL = 4 * np.finfo(np.float32).eps


def dense_layer_config(size=12, activation="relu") -> LayerConfig:
    return LayerConfig(size=size, activation=activation)


def lsh_layer_config(size=40, target_active=8, initial_period=2) -> LayerConfig:
    return LayerConfig(
        size=size,
        activation="softmax",
        lsh=LSHConfig(hash_family="simhash", k=3, l=10, bucket_size=16),
        sampling=SamplingConfig(strategy="vanilla", target_active=target_active, min_active=4),
        rebuild=RebuildScheduleConfig(initial_period=initial_period, decay=0.0),
    )


def forward(layer, indices, values, forced_active=None) -> FusedLayerState:
    """The layer's forward for one example: the kernel on a one-layer block
    of one row (``forced_active`` goes in as the example's labels)."""
    labels = [] if forced_active is None else forced_active
    example = SparseExample(SparseVector(indices, values, layer.fan_in), labels)
    return fused_forward_batch(
        SimpleNamespace(layers=[layer]),
        SparseBatch([example], layer.fan_in, layer.size),
        include_labels=forced_active is not None,
    ).layer_states[0]


class TestDenseLayerForward:
    def test_all_neurons_active_without_lsh(self, rng):
        layer = SlideLayer(fan_in=20, config=dense_layer_config(), seed=0)
        state = forward(layer, np.array([1, 5, 7]), rng.normal(size=3))
        assert state.active_sets is None
        np.testing.assert_array_equal(state.rows, np.arange(12))

    def test_sparse_forward_matches_dense_forward(self, rng):
        layer = SlideLayer(fan_in=20, config=dense_layer_config(activation="relu"), seed=1)
        dense_input = np.zeros(20, dtype=FLOAT)
        indices = np.array([0, 4, 19])
        values = rng.normal(size=3).astype(FLOAT)
        dense_input[indices] = values
        state = forward(layer, indices, values)
        np.testing.assert_allclose(
            state.act[0],
            layer.dense_forward_batch(dense_input[None, :])[0],
            rtol=0,
            atol=FORWARD_ATOL,
        )

    def test_empty_input_gives_bias_only(self):
        layer = SlideLayer(fan_in=10, config=dense_layer_config(), seed=2)
        layer.biases[:] = 0.5
        state = forward(layer, np.array([], dtype=np.int64), np.array([]))
        np.testing.assert_allclose(state.pre, 0.5)

    def test_softmax_activation_normalises_over_active(self, rng):
        layer = SlideLayer(fan_in=8, config=dense_layer_config(activation="softmax"), seed=3)
        state = forward(layer, np.array([0, 1]), rng.normal(size=2))
        assert state.act.sum() == pytest.approx(1.0)


class TestLSHLayerForward:
    def test_active_set_is_subset_of_layer(self, rng):
        layer = SlideLayer(fan_in=16, config=lsh_layer_config(), seed=4)
        (active,) = forward(layer, np.arange(5), rng.normal(size=5)).active_sets
        assert active.size < layer.size
        assert active.min() >= 0
        assert active.max() < layer.size
        assert np.all(np.diff(active) > 0)  # sorted unique

    def test_forced_active_always_included(self, rng):
        layer = SlideLayer(fan_in=16, config=lsh_layer_config(), seed=5)
        forced = np.array([0, 39])
        state = forward(layer, np.arange(4), rng.normal(size=4), forced_active=forced)
        assert set(forced.tolist()).issubset(set(state.active_sets[0].tolist()))

    def test_min_active_fallback_pads_result(self, rng):
        config = LayerConfig(
            size=64,
            activation="softmax",
            lsh=LSHConfig(hash_family="simhash", k=8, l=2, bucket_size=4),
            sampling=SamplingConfig(strategy="vanilla", target_active=4, min_active=16),
        )
        layer = SlideLayer(fan_in=16, config=config, seed=6)
        state = forward(layer, np.arange(3), rng.normal(size=3))
        assert state.active_sets[0].size >= 16

    def test_fallback_counts_only_the_ids_padding_added(self):
        """The random padding draws from every neuron, sampled ones included;
        a drawn id the tables already returned is not counted twice."""
        config = LayerConfig(
            size=6,
            activation="softmax",
            lsh=LSHConfig(hash_family="simhash", k=2, l=2, bucket_size=4),
            sampling=SamplingConfig(strategy="vanilla", target_active=3, min_active=5),
        )
        layer = SlideLayer(fan_in=4, config=config, seed=6)
        overlapped = 0
        for _ in range(200):
            ids, from_tables, fallback = layer.finalize_active(np.array([0, 1, 2]))
            assert from_tables == 3
            assert ids.size == from_tables + fallback
            overlapped += fallback < 2
        assert overlapped > 0

    def test_activation_matches_dense_on_active_set(self, rng):
        layer = SlideLayer(fan_in=16, config=lsh_layer_config(), seed=7)
        dense_input = np.zeros(16, dtype=FLOAT)
        indices = np.array([2, 3, 9])
        values = rng.normal(size=3).astype(FLOAT)
        dense_input[indices] = values
        state = forward(layer, indices, values)
        # Pre-activations of active neurons must equal the dense computation.
        expected = layer.weights[state.rows] @ dense_input + layer.biases[state.rows]
        np.testing.assert_allclose(state.pre[0], expected, rtol=0, atol=FORWARD_ATOL)


class TestLayerUpdatesAndRebuild:
    def test_apply_gradient_block_changes_only_its_block(self, rng):
        layer = SlideLayer(fan_in=12, config=lsh_layer_config(size=30), seed=13)
        optimizer = AdamOptimizer(learning_rate=0.05)
        layer.register_parameters(optimizer)
        before = layer.weights.copy()
        rows, cols = np.array([1, 4, 22]), np.array([0, 5])
        optimizer.begin_step()
        layer.apply_gradient_block(
            optimizer, rows, cols, rng.normal(size=(3, 2)), rng.normal(size=3)
        )
        changed = np.argwhere(layer.weights != before)
        assert changed.size > 0
        assert set(np.unique(changed[:, 0]).tolist()).issubset(set(rows.tolist()))
        assert set(np.unique(changed[:, 1]).tolist()).issubset(set(cols.tolist()))
        np.testing.assert_array_equal(layer.last_update_rows, rows)

    def test_dirty_neurons_tracked_and_cleared_on_rebuild(self, rng):
        layer = SlideLayer(fan_in=12, config=lsh_layer_config(size=30, initial_period=1), seed=14)
        optimizer = AdamOptimizer()
        layer.register_parameters(optimizer)
        optimizer.begin_step()
        layer.apply_gradient_block(
            optimizer, np.array([3, 7]), np.array([0, 1]), rng.normal(size=(2, 2)),
            rng.normal(size=2),
        )
        assert layer.dirty_neuron_count == 2
        rebuilt = layer.maybe_rebuild(iteration=1)
        assert rebuilt
        assert layer.dirty_neuron_count == 0
        assert layer.num_rebuilds == 1

    def test_rebuild_noop_without_lsh(self):
        layer = SlideLayer(fan_in=6, config=dense_layer_config(), seed=15)
        assert not layer.maybe_rebuild(100)

    def test_invalid_fan_in_raises(self):
        with pytest.raises(ValueError):
            SlideLayer(fan_in=0, config=dense_layer_config())
