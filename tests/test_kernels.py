"""Parity tests for the batched sparse kernels (:mod:`repro.kernels`).

Three contracts are pinned down:

1. the batched building blocks (matrix hashing, table probes, active-set
   selection) answer every row as they answer it alone, which is what
   HOGWILD's one-row blocks ask of them;
2. the synchronous training step produces the same losses and work metrics
   as the averaged per-sample loop of ``per_sample_reference.py`` on a fixed
   seed, and — with a linear optimiser, where accumulated and sequential
   block updates commute — the same weights;
3. HOGWILD (the kernel on one-row blocks) equals that reference applying
   each sample's gradient as soon as it is computed.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import per_sample_reference
import pytest

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
from repro.core.layer import SlideLayer
from repro.core.network import SlideNetwork
from repro.hashing.base import LSHFamily
from repro.hashing.doph import DOPH
from repro.hashing.dwta import DWTAHash
from repro.hashing.simhash import SimHash
from repro.hashing.wta import WTAHash
from repro.kernels import Workspace, fused_forward_batch, select_active_batch
from repro.kernels.activations import sparse_softmax
from repro.kernels.fused import _segment_softmax
from repro.lsh.index import LSHIndex
from repro.optim.adam import AdamOptimizer
from repro.optim.base import Optimizer
from repro.optim.sgd import SGDOptimizer
from repro.types import SparseBatch, SparseExample, SparseVector

EPS32 = np.finfo(np.float32).eps
# The kernel's GEMMs and the per-sample reference's GEMVs sum float32 values
# in different orders.  Worst measured: losses 3.3e-8 relative (0.3 eps);
# parameters, updates and activations 8.9e-8 absolute (0.75 eps).
LOSS_RTOL = 4 * EPS32
PARAM_ATOL = 8 * EPS32


def make_batch(rng, n=16, dim=64, classes=48, nnz=8) -> SparseBatch:
    examples = []
    for _ in range(n):
        indices = np.sort(rng.choice(dim, size=nnz, replace=False))
        examples.append(
            SparseExample(
                features=SparseVector(
                    indices=indices, values=rng.normal(size=nnz), dimension=dim
                ),
                labels=rng.choice(classes, size=2, replace=False),
            )
        )
    return SparseBatch.from_examples(examples, feature_dim=dim, label_dim=classes)


def lsh_network(
    seed=0, strategy="vanilla", dim=64, classes=48, hidden_lsh=False
) -> SlideNetwork:
    output_lsh = LSHConfig(hash_family="simhash", k=4, l=12, bucket_size=32)
    hidden = LayerConfig(size=32, activation="relu")
    if hidden_lsh:
        hidden = LayerConfig(
            size=32,
            activation="relu",
            lsh=LSHConfig(hash_family="dwta", k=3, l=8, bucket_size=16),
            sampling=SamplingConfig(strategy="topk", target_active=16, min_active=8),
        )
    layers = (
        hidden,
        LayerConfig(
            size=classes,
            activation="softmax",
            lsh=output_lsh,
            sampling=SamplingConfig(strategy=strategy, target_active=12, min_active=8),
            rebuild=RebuildScheduleConfig(initial_period=3, decay=0.0),
        ),
    )
    return SlideNetwork(SlideNetworkConfig(input_dim=dim, layers=layers, seed=seed))


# ----------------------------------------------------------------------
# Building blocks
# ----------------------------------------------------------------------
class TestBatchedHashing:
    @pytest.mark.parametrize("values", ["gaussian", "rounded", "tied"])
    @pytest.mark.parametrize(
        "family_cls, kwargs",
        [
            (SimHash, {}),
            (WTAHash, {"bin_size": 8}),
            (DWTAHash, {"bin_size": 8}),
            (DOPH, {"top_k": 16}),
        ],
    )
    def test_hash_matrix_matches_per_vector(self, rng, family_cls, kwargs, values):
        """A row's codes do not depend on the rows hashed beside it.  Values
        rounded to 0.1 make SimHash projections cancel to (nearly) zero,
        where summation order could flip the sign; tied values exercise the
        (D)WTA / DOPH tie-breaks."""
        dim = 120
        family = family_cls(input_dim=dim, k=4, l=6, seed=9, **kwargs)
        rows = 500 if values == "rounded" else 24
        matrix = np.zeros((rows, dim))
        for row in range(rows - 1):
            idx = rng.choice(dim, size=int(rng.integers(1, 60)), replace=False)
            if values == "gaussian":
                matrix[row, idx] = rng.normal(size=idx.size)
            elif values == "rounded":
                matrix[row, idx] = np.round(rng.normal(size=idx.size), 1)
            else:
                matrix[row, idx] = rng.integers(1, 3, size=idx.size)
        # The last row stays all-zero: the degenerate densification case.
        batched = family.hash_matrix(matrix)
        looped = LSHFamily.hash_matrix(family, matrix)
        np.testing.assert_array_equal(batched, looped)
        for row in range(0, rows, 25):
            np.testing.assert_array_equal(
                family.hash_vector(matrix[row]), family.hash_matrix(matrix[row : row + 1])[0]
            )

    def test_simhash_codes_are_the_signs_of_its_projections(self, rng):
        family = SimHash(input_dim=40, k=3, l=5, seed=2)
        for _ in range(50):
            x = np.round(rng.normal(size=40) * (rng.random(40) < 0.4), 1)
            np.testing.assert_array_equal(
                family.codes_from_projections(family.project(x)), family.hash_vector(x)
            )

    def test_query_batch_matches_per_query(self, rng):
        """A batch probe answers every row as the one-row probe of the
        per-sample path does."""
        index = LSHIndex(input_dim=32, config=LSHConfig(k=3, l=8), seed=2)
        index.build(rng.normal(size=(60, 32)))
        queries = np.round(rng.normal(size=(10, 32)), 1)
        flat = index.query_batch_flat(queries)
        for row in range(queries.shape[0]):
            single = index.query_batch_flat(queries[row : row + 1])
            np.testing.assert_array_equal(single.codes[0], flat.codes[row])
            np.testing.assert_array_equal(single.sizes[0], flat.sizes[row])
            np.testing.assert_array_equal(single.candidates[0], flat.candidates[row])


class TestBatchedSelection:
    def _layer(self, seed=5, strategy="vanilla") -> SlideLayer:
        config = LayerConfig(
            size=40,
            activation="softmax",
            lsh=LSHConfig(hash_family="simhash", k=3, l=10, bucket_size=16),
            sampling=SamplingConfig(strategy=strategy, target_active=10, min_active=6),
        )
        return SlideLayer(fan_in=24, config=config, seed=seed)

    @pytest.mark.parametrize("rounded", [False, True])
    @pytest.mark.parametrize("strategy", ["vanilla", "topk", "hard_threshold"])
    def test_rng_compatible_with_per_sample_selection(self, rng, strategy, rounded):
        """HOGWILD's one-row blocks must select what the batched call
        selects and consume the layer RNG exactly like it, sample for sample
        — also on inputs rounded to 0.1, whose projections cancel to zero."""
        layer_a = self._layer(strategy=strategy)
        layer_b = self._layer(strategy=strategy)
        queries = rng.normal(size=(12, 24))
        if rounded:
            queries = np.round(queries * (rng.random(size=queries.shape) < 0.3), 1)
        queries[5] = 0.0  # all-zero query exercises the fallback padding
        per_sample = [
            select_active_batch(layer_a, queries[row : row + 1])[0]
            for row in range(queries.shape[0])
        ]
        batched = select_active_batch(layer_b, queries)
        for (a_ids, a_tables, a_fallback), (b_ids, b_tables, b_fallback) in zip(
            per_sample, batched
        ):
            np.testing.assert_array_equal(a_ids, b_ids)
            assert a_tables == b_tables
            assert a_fallback == b_fallback
        assert layer_a._rng.integers(1 << 30) == layer_b._rng.integers(1 << 30)

    def test_forced_ids_always_included(self, rng):
        layer = self._layer()
        queries = rng.normal(size=(4, 24))
        forced = [np.array([0, 39]), None, np.array([7]), None]
        selections = select_active_batch(layer, queries, forced)
        assert {0, 39} <= set(selections[0][0].tolist())
        assert 7 in selections[2][0].tolist()

    def test_dense_layer_selects_everything(self, rng):
        layer = SlideLayer(fan_in=16, config=LayerConfig(size=12), seed=0)
        selections = select_active_batch(layer, rng.normal(size=(3, 16)))
        for active, from_tables, fallback in selections:
            np.testing.assert_array_equal(active, np.arange(12))
            assert from_tables == 0 and fallback == 0


class TestMaskedSoftmax:
    def test_matches_a_plain_softmax_per_segment(self, rng):
        """``exp(x - max) / sum`` written out for each segment on its own:
        empty segments (first, inner, last), a one-entry segment, and
        logits near +-700, where an unshifted ``exp`` would overflow."""
        counts = np.array([0, 1, 3, 0, 4, 2, 9, 0])
        segments = [
            np.zeros(0),
            np.array([700.0]),
            np.array([700.0, 699.5, -700.0]),
            np.zeros(0),
            np.array([-700.0, -699.0, -701.0, -700.5]),
            np.array([0.25, 0.25]),
            rng.normal(size=9) * 5,
            np.zeros(0),
        ]
        got = _segment_softmax(np.concatenate(segments), counts)
        expected = []
        for logits in segments:
            if logits.size:
                shifted = np.exp(logits - logits.max())
                expected.append(shifted / shifted.sum())
        np.testing.assert_allclose(got, np.concatenate(expected), rtol=1e-13, atol=0.0)
        assert np.all(np.isfinite(got))
        assert got[0] == 1.0  # the one-entry segment

    def test_matches_sparse_softmax_per_row(self, rng):
        pre = rng.normal(size=(6, 10))
        mask = (rng.random(size=(6, 10)) < 0.5).astype(np.float64)
        mask[0] = 1.0  # fully active row
        mask[1] = 0.0  # empty row
        mask[4] = 0.0  # a second empty row, not next to the first
        sample, position = np.nonzero(mask)
        counts = mask.sum(axis=1).astype(np.int64)
        out = np.zeros_like(pre)
        out[sample, position] = _segment_softmax(pre[sample, position], counts)
        for row in range(pre.shape[0]):
            members = np.flatnonzero(mask[row])
            expected = np.zeros(pre.shape[1])
            if members.size:
                expected[members] = sparse_softmax(pre[row, members])
            np.testing.assert_allclose(out[row], expected, atol=1e-12)
        # Nothing active at all, and a trailing empty segment.
        assert _segment_softmax(np.zeros(0), np.zeros(3, dtype=np.int64)).size == 0
        np.testing.assert_allclose(
            _segment_softmax(np.array([0.0, 0.0]), np.array([2, 0])), [0.5, 0.5]
        )


class TestWorkspace:
    def test_buffers_are_reused_and_grow(self):
        workspace = Workspace()
        a = np.ones((3, 4))
        b = np.ones((4, 5))
        first = workspace.matmul(a, b, "grad")
        np.testing.assert_allclose(first, 4.0)
        base_before = workspace._buffers["grad"]
        second = workspace.matmul(a * 2, b, "grad")
        np.testing.assert_allclose(second, 8.0)
        assert workspace._buffers["grad"] is base_before  # reused, not reallocated
        bigger = workspace.matmul(np.ones((6, 4)), b, "grad")
        assert bigger.shape == (6, 5)


class TestDirtyNeuronTracking:
    @staticmethod
    def _layer(size: int = 30) -> SlideLayer:
        return SlideLayer(
            fan_in=16,
            config=LayerConfig(
                size=size,
                activation="softmax",
                lsh=LSHConfig(hash_family="simhash", k=3, l=4, bucket_size=8),
            ),
            seed=0,
        )

    @staticmethod
    def _record_updates(layer: SlideLayer, during=None) -> list[np.ndarray]:
        """Wrap ``layer.lsh_index.update`` to record the ids it is given and
        run ``during`` (if any) while it runs."""
        seen: list[np.ndarray] = []
        update = layer.lsh_index.update

        def recording(ids, weights):
            seen.append(np.array(ids))
            if during is not None:
                during()
            return update(ids, weights)

        layer.lsh_index.update = recording
        return seen

    def test_mark_dirty_accumulates_sorted_unique(self):
        layer = self._layer()
        seen = self._record_updates(layer)
        layer.mark_dirty(np.array([5, 2, 9]))
        layer.mark_dirty(np.array([2, 11]))
        assert layer.dirty_neuron_count == 4
        layer.rebuild()
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], [2, 5, 9, 11])
        assert seen[0].dtype == np.int64
        assert layer.dirty_neuron_count == 0
        assert layer.last_rebuild_dirty == 4

    def test_mark_dirty_stays_cheap_per_call(self):
        """Re-marking the same rows many times holds no more state than
        marking them once, and a rebuild re-hashes each of them once."""
        layer = self._layer(size=100)
        seen = self._record_updates(layer)
        state_bytes = layer._dirty.nbytes
        for _ in range(500):
            layer.mark_dirty(np.arange(0, 100, 2))
        assert layer._dirty.nbytes == state_bytes
        assert layer.dirty_neuron_count == 50
        layer.rebuild()
        np.testing.assert_array_equal(seen[0], np.arange(0, 100, 2))

    def test_rows_marked_during_update_stay_dirty(self):
        """A row marked while the rebuild's ``update`` runs, whether or not
        the rebuild is re-hashing it, waits for the next rebuild."""
        layer = self._layer()
        seen = self._record_updates(
            layer, during=lambda: layer.mark_dirty(np.array([3, 20]))
        )
        layer.mark_dirty(np.array([3, 7]))
        layer.rebuild()
        np.testing.assert_array_equal(seen[0], [3, 7])
        assert layer.dirty_neuron_count == 2
        layer.rebuild()
        np.testing.assert_array_equal(seen[1], [3, 20])

    def test_threads_marking_disjoint_rows_lose_none(self):
        """Four threads mark disjoint rows, each chunk followed by a long run
        of one repeated row; every row is still dirty afterwards."""
        layer = self._layer(size=4000)
        workers = 4
        barrier = threading.Barrier(workers, timeout=30)

        def mark(ids):
            barrier.wait()
            for chunk in np.array_split(ids, 200):
                layer.mark_dirty(chunk)
                layer.mark_dirty(np.repeat(ids[:1], 200))

        ids = np.arange(4000)
        threads = [
            threading.Thread(target=mark, args=(ids[part::workers],))
            for part in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert layer.dirty_neuron_count == 4000
        seen = self._record_updates(layer)
        layer.rebuild()
        np.testing.assert_array_equal(seen[0], ids)

    def test_rebuild_all_tables_clears_the_dirty_rows(self):
        network = SlideNetwork(
            SlideNetworkConfig(
                input_dim=16, layers=(self._layer().config,), seed=0
            )
        )
        layer = network.output_layer
        layer.mark_dirty(np.array([1, 4]))
        network.rebuild_all_tables()
        assert layer.dirty_neuron_count == 0
        assert layer.num_rebuilds == 1

    def test_mark_dirty_noop_without_lsh(self):
        layer = SlideLayer(fan_in=8, config=LayerConfig(size=6), seed=0)
        layer.mark_dirty(np.array([1, 2]))
        assert layer.dirty_neuron_count == 0


# ----------------------------------------------------------------------
# Fused training-step parity
# ----------------------------------------------------------------------
class TestFusedTrainingParity:
    @pytest.mark.parametrize("strategy", ["vanilla", "topk", "hard_threshold"])
    def test_losses_and_work_match_per_sample_sync(self, rng, strategy):
        """One fused Adam step from identical weights matches the legacy
        per-sample synchronous step's loss and work accounting.  (Multi-step
        weight trajectories legitimately differ under Adam — one accumulated
        moment update per batch vs one per sample — so trajectory parity is
        asserted separately with SGD, where the two commute.)"""
        for seed in (0, 1, 2):
            net_a = lsh_network(seed=seed, strategy=strategy)
            net_b = lsh_network(seed=seed, strategy=strategy)
            opt_a = net_a.build_optimizer(TrainingConfig())
            opt_b = net_b.build_optimizer(TrainingConfig())
            batch = make_batch(rng)
            legacy = per_sample_reference.train_step(net_a, batch, opt_a, interleaved=False)
            fused = net_b.train_batch(batch, opt_b, hogwild=False)
            assert fused["loss"] == pytest.approx(legacy["loss"], rel=LOSS_RTOL)
            assert fused["active_neurons"] == legacy["active_neurons"]
            assert fused["active_weights"] == legacy["active_weights"]
            assert fused["batch_size"] == legacy["batch_size"]

    def test_sgd_weights_match_per_sample_sync(self, rng):
        """With a linear optimiser the accumulated block step equals the
        averaged per-sample steps, so weights must agree to epsilon — even
        across LSH rebuilds and an LSH-sampled hidden layer."""
        config = TrainingConfig(
            optimizer=OptimizerConfig(name="sgd", learning_rate=1e-2, momentum=0.0)
        )
        net_a = lsh_network(hidden_lsh=True)
        net_b = lsh_network(hidden_lsh=True)
        opt_a = net_a.build_optimizer(config)
        opt_b = net_b.build_optimizer(config)
        for _ in range(5):
            batch = make_batch(rng)
            per_sample_reference.train_step(net_a, batch, opt_a, interleaved=False)
            net_b.train_batch(batch, opt_b, hogwild=False)
        for layer_a, layer_b in zip(net_a.layers, net_b.layers):
            np.testing.assert_allclose(
                layer_a.weights, layer_b.weights, rtol=0, atol=PARAM_ATOL
            )
            np.testing.assert_allclose(
                layer_a.biases, layer_b.biases, rtol=0, atol=PARAM_ATOL
            )

    def test_fused_gradient_is_mean_of_sample_gradients(self, rng):
        """On a dense (no-LSH) network the fused weight update must equal the
        mean of the per-sample gradient blocks exactly."""
        config = SlideNetworkConfig(
            input_dim=24,
            layers=(
                LayerConfig(size=10, activation="relu"),
                LayerConfig(size=12, activation="softmax"),
            ),
            seed=4,
        )
        net = SlideNetwork(config)
        batch = make_batch(rng, n=6, dim=24, classes=12, nnz=5)
        expected = [np.zeros_like(layer.weights) for layer in net.layers]
        for example in batch:
            _, grads, _, _ = per_sample_reference.sample_gradient(net, example)
            for layer_idx, (rows, cols, weight_grad, _) in enumerate(grads):
                expected[layer_idx][np.ix_(rows, cols)] += weight_grad / len(batch)

        learning_rate = 0.5
        optimizer = net.build_optimizer(
            TrainingConfig(
                optimizer=OptimizerConfig(name="sgd", learning_rate=learning_rate)
            )
        )
        before = [layer.weights.copy() for layer in net.layers]
        net.train_batch(batch, optimizer, hogwild=False)
        for layer_idx, layer in enumerate(net.layers):
            update = (before[layer_idx] - layer.weights) / learning_rate
            np.testing.assert_allclose(update, expected[layer_idx], rtol=0, atol=PARAM_ATOL)

    def test_fused_forward_matches_one_row_blocks(self, rng):
        """Activations of a batch forward equal each sample's forward as a
        block of one, on the sample's own active set."""
        net_a = lsh_network(seed=8)
        net_b = lsh_network(seed=8)
        batch = make_batch(rng)
        result = fused_forward_batch(net_a, batch, include_labels=True)
        out = result.output_state
        for sample_idx, example in enumerate(batch):
            block = SparseBatch([example], batch.feature_dim, batch.label_dim)
            alone = fused_forward_batch(net_b, block, include_labels=True).output_state
            np.testing.assert_array_equal(out.active_sets[sample_idx], alone.rows)
            positions = np.searchsorted(out.rows, alone.rows)
            np.testing.assert_allclose(
                out.act[sample_idx, positions], alone.act[0], rtol=0, atol=PARAM_ATOL
            )
            # Union neurons outside this sample's active set carry nothing.
            off = out.mask[sample_idx] == 0.0
            assert np.all(out.act[sample_idx, off] == 0.0)

    def test_full_width_cols_gather_matches_ix_gather(self, rng, monkeypatch):
        """A hidden layer without LSH hands the output layer ``cols =
        arange(fan_in)``: the whole-row gather must be bit-equal to the
        element-wise ``np.ix_`` one it replaces."""
        batch = make_batch(rng)
        fast = fused_forward_batch(lsh_network(seed=8), batch, include_labels=True)
        monkeypatch.setattr(
            "repro.kernels.fused.spans_all", lambda cols, width: cols is None
        )
        net = lsh_network(seed=8)
        slow = fused_forward_batch(net, batch, include_labels=True)

        out = fast.output_state
        np.testing.assert_array_equal(out.cols, np.arange(net.layers[-1].fan_in))
        np.testing.assert_array_equal(
            out.block, net.layers[-1].weights[np.ix_(out.rows, out.cols)]
        )
        for state_fast, state_slow in zip(fast.layer_states, slow.layer_states):
            np.testing.assert_array_equal(state_fast.rows, state_slow.rows)
            np.testing.assert_array_equal(state_fast.block, state_slow.block)
            np.testing.assert_array_equal(state_fast.pre, state_slow.pre)
            np.testing.assert_array_equal(state_fast.act, state_slow.act)

    def test_fused_training_learns(self, rng):
        net = lsh_network(seed=11)
        optimizer = net.build_optimizer(
            TrainingConfig(optimizer=OptimizerConfig(learning_rate=5e-3))
        )
        batch = make_batch(rng)
        first = net.train_batch(batch, optimizer, hogwild=False)["loss"]
        for _ in range(25):
            last = net.train_batch(batch, optimizer, hogwild=False)["loss"]
        assert last < first


# ----------------------------------------------------------------------
# HOGWILD: the kernel on one-row blocks
# ----------------------------------------------------------------------
class TestHogwild:
    @pytest.mark.parametrize("hidden_lsh", [False, True])
    def test_hogwild_matches_interleaved_per_sample_reference(self, rng, hidden_lsh):
        """``train_batch(hogwild=True)`` equals computing and immediately
        applying each sample's gradient in order, under Adam: the same
        active sets and work, and parameters to rounding."""
        net_a = lsh_network(seed=21, hidden_lsh=hidden_lsh)
        net_b = lsh_network(seed=21, hidden_lsh=hidden_lsh)
        opt_a = net_a.build_optimizer(TrainingConfig())
        opt_b = net_b.build_optimizer(TrainingConfig())
        for _ in range(3):
            batch = make_batch(rng)
            got = net_a.train_batch(batch, opt_a, hogwild=True)
            expected = per_sample_reference.train_step(net_b, batch, opt_b, interleaved=True)
            assert got["loss"] == pytest.approx(expected["loss"], rel=LOSS_RTOL)
            assert got["active_neurons"] == expected["active_neurons"]
            assert got["active_weights"] == expected["active_weights"]

        for layer_a, layer_b in zip(net_a.layers, net_b.layers):
            np.testing.assert_allclose(
                layer_a.weights, layer_b.weights, rtol=0, atol=PARAM_ATOL
            )
            np.testing.assert_allclose(
                layer_a.biases, layer_b.biases, rtol=0, atol=PARAM_ATOL
            )

    def test_hogwild_is_deterministic_across_runs(self, rng):
        batches = [make_batch(rng) for _ in range(3)]
        results = []
        for _run in range(2):
            net = lsh_network(seed=33)
            optimizer = net.build_optimizer(TrainingConfig())
            for batch in batches:
                net.train_batch(batch, optimizer, hogwild=True)
            results.append([layer.weights.copy() for layer in net.layers])
        for weights_a, weights_b in zip(*results):
            np.testing.assert_array_equal(weights_a, weights_b)


class TestSparseStepRowsUnique:
    """``Optimizer.sparse_step`` chunks along ``rows`` and so requires them
    duplicate-free; every in-repo caller must hand it sorted-unique ids."""

    @pytest.fixture
    def seen_rows(self, monkeypatch):
        seen: list[np.ndarray] = []
        original = Optimizer.sparse_step

        def recording(self, name, param, rows, cols, grad_block):
            seen.append(np.array(rows))
            original(self, name, param, rows, cols, grad_block)

        # On the concrete classes: perfbench's tracer patches and restores
        # ``AdamOptimizer.sparse_step``, which leaves a class-level copy that
        # would shadow a patch on the base class.
        for cls in (AdamOptimizer, SGDOptimizer):
            monkeypatch.setattr(cls, "sparse_step", recording)
        return seen

    @staticmethod
    def assert_sorted_unique(seen):
        assert seen
        for rows in seen:
            assert np.all(np.diff(rows) > 0)

    @pytest.mark.parametrize("hogwild", [False, True])
    def test_slide_training_paths(self, rng, seen_rows, hogwild):
        net = lsh_network(seed=4, hidden_lsh=True)
        optimizer = net.build_optimizer(TrainingConfig())
        for _ in range(4):
            net.train_batch(make_batch(rng), optimizer, hogwild=hogwild)
        self.assert_sorted_unique(seen_rows)

    def test_finalize_active_repairs_unsorted_duplicates(self):
        layer = lsh_network(seed=4).layers[-1]
        active, _, _ = layer.finalize_active(
            np.array([9, 3, 3, 40, 9]), forced_active=np.array([40, 1])
        )
        assert {1, 3, 9, 40} <= set(active.tolist())
        assert np.all(np.diff(active) > 0)

    def test_sampled_softmax_candidates(self, rng, seen_rows):
        network = SampledSoftmaxNetwork(
            SampledSoftmaxConfig(
                input_dim=64, hidden_dim=16, output_dim=48, sample_fraction=0.25
            )
        )
        for _ in range(3):
            network.train_batch(make_batch(rng))
        self.assert_sorted_unique(seen_rows)
