"""The pair-compact fused training step against its parent and its oracles.

Four contracts:

1. **Parent steps** — ``tests/data/fused_parent_steps.json`` holds what the
   commit before the pair-compact output layer did over 60 fused Adam steps
   (``mid_size_run`` below, two seeds, one table rebuild inside).  Active
   sets and work metrics are reproduced exactly; the fixture is float64 and
   the run float32, so losses and the final weights are pinned to small
   multiples of float32 eps.
2. **Per-sample oracle** — edge batches (empty active sets, missing or
   duplicated labels, empty examples, a batch of one, stacked LSH layers, a
   linear LSH layer) give the averaged per-sample loop's losses
   (``per_sample_reference.py``) and, with SGD, its weights.
3. **All-rows optimiser walk** — ``sparse_step`` on ``rows = 0..n-1`` with a
   column subset of a column-major parameter (a layer without LSH) is
   bitwise equal to the ``np.ix_`` walk it stands in for, which is kept
   here as the reference.
4. **Finite differences** — the SGD update of ``fused_backward_batch`` is
   the central-difference gradient of the batch loss, written out here
   sample by sample with the forward's active sets held fixed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import per_sample_reference
import pytest

from repro.config import (
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    RebuildScheduleConfig,
    SamplingConfig,
    SlideNetworkConfig,
    TrainingConfig,
)
from repro.core.network import SlideNetwork
from repro.datasets.synthetic import SyntheticXCConfig, generate_synthetic_xc
from repro.kernels import fused
from repro.optim import base as optim_base
from repro.optim.adam import AdamOptimizer
from repro.optim.sgd import SGDOptimizer
from repro.types import SparseBatch, SparseExample, SparseVector

PARENT_STEPS = Path(__file__).parent / "data" / "fused_parent_steps.json"
SEEDS = (3, 4)
STEPS = 60
BATCH = 32
# The fixture keeps every ``WEIGHT_STRIDE``-th weight and ``BIAS_STRIDE``-th
# bias of the final parameters (flat order), not all 84 K of them.
WEIGHT_STRIDE = 29
BIAS_STRIDE = 5
EPS32 = np.finfo(np.float32).eps
# The fixture is float64; the run is float32 end to end.  Worst measured:
# losses 7.9e-8 relative (0.7 eps), strided parameters 4.6e-7 absolute
# (3.8 eps) after 60 Adam steps.
LOSS_RTOL = 4 * EPS32
PARAM_ATOL = 32 * EPS32


def mid_size_run(seed: int, monkeypatch) -> dict:
    """60 fused Adam steps of ``512 -> 32 relu -> 2048 softmax (SimHash)``.

    The rebuild schedule fires once, at step 40.  Active sets are read off
    the forward result where ``fused_train_step`` looks the function up.
    """
    data = generate_synthetic_xc(
        SyntheticXCConfig(
            feature_dim=512,
            label_dim=2048,
            num_train=STEPS * BATCH,
            num_test=1,
            avg_features_per_example=24,
            prototype_nnz=12,
            seed=seed,
        )
    )
    output = LayerConfig(
        size=2048,
        activation="softmax",
        lsh=LSHConfig(hash_family="simhash", k=6, l=16, bucket_size=64),
        sampling=SamplingConfig(strategy="vanilla", target_active=48, min_active=16),
        rebuild=RebuildScheduleConfig(initial_period=40, decay=0.3),
    )
    network = SlideNetwork(
        SlideNetworkConfig(
            input_dim=512,
            layers=(LayerConfig(size=32, activation="relu"), output),
            seed=seed,
        )
    )
    optimizer = network.build_optimizer(
        TrainingConfig(optimizer=OptimizerConfig(name="adam", learning_rate=1e-3))
    )

    digests: list[str] = []
    forward = fused.fused_forward_batch

    def recording_forward(*args, **kwargs):
        result = forward(*args, **kwargs)
        flat = np.concatenate(result.output_state.active_sets).astype(np.int64)
        digests.append(hashlib.sha256(flat.tobytes()).hexdigest())
        return result

    monkeypatch.setattr(fused, "fused_forward_batch", recording_forward)
    steps = []
    for step in range(STEPS):
        batch = SparseBatch.from_examples(
            data.train[step * BATCH : (step + 1) * BATCH],
            feature_dim=512,
            label_dim=2048,
        )
        metrics = network.train_batch(batch, optimizer, hogwild=False)
        steps.append(
            [metrics["loss"], metrics["active_neurons"], metrics["active_weights"]]
        )
    assert network.layers[-1].num_rebuilds == 1
    return {
        "steps": steps,
        "active_sha256": digests,
        "weights": [
            layer.weights.ravel()[::WEIGHT_STRIDE].tolist() for layer in network.layers
        ],
        "biases": [layer.biases[::BIAS_STRIDE].tolist() for layer in network.layers],
    }


def dump_parent_steps() -> None:
    """How the fixture was written (run once, at the parent commit)."""
    dumped = {}
    for seed in SEEDS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            dumped[str(seed)] = mid_size_run(seed, monkeypatch)
    PARENT_STEPS.write_text(json.dumps(dumped, separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# 1. Parent steps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_parent_steps_reproduced(seed, monkeypatch):
    parent = json.loads(PARENT_STEPS.read_text())[str(seed)]
    run = mid_size_run(seed, monkeypatch)
    assert run["active_sha256"] == parent["active_sha256"]
    got, expected = np.array(run["steps"]), np.array(parent["steps"])
    np.testing.assert_array_equal(got[:, 1:], expected[:, 1:])
    np.testing.assert_allclose(got[:, 0], expected[:, 0], rtol=LOSS_RTOL, atol=0.0)
    for key in ("weights", "biases"):
        for got_layer, expected_layer in zip(run[key], parent[key]):
            np.testing.assert_allclose(got_layer, expected_layer, rtol=0.0, atol=PARAM_ATOL)


# ----------------------------------------------------------------------
# 2. Edge batches against the per-sample synchronous loop
# ----------------------------------------------------------------------
DIM, CLASSES = 48, 40
SGD = OptimizerConfig(name="sgd", learning_rate=1e-2, momentum=0.0)
# Both implementations run in float32 and sum in different orders; worst
# measured: losses 4.6e-8 relative (0.4 eps), parameters 6.0e-8 (0.5 eps).
EDGE_LOSS_RTOL = 4 * EPS32
EDGE_PARAM_ATOL = 8 * EPS32


def edge_network(
    hidden: LayerConfig | None = None,
    min_active: int = 6,
    include_labels: bool = True,
    clear_index: bool = False,
) -> SlideNetwork:
    """``48 -> 16 -> 40 softmax``, SimHash LSH on the output layer."""
    output = LayerConfig(
        size=CLASSES,
        activation="softmax",
        lsh=LSHConfig(hash_family="simhash", k=3, l=10, bucket_size=16),
        sampling=SamplingConfig(
            strategy="vanilla",
            target_active=10,
            min_active=min_active,
            include_labels=include_labels,
        ),
    )
    network = SlideNetwork(
        SlideNetworkConfig(
            input_dim=DIM,
            layers=(hidden or LayerConfig(size=16, activation="relu"), output),
            seed=2,
        )
    )
    if clear_index:
        network.layers[-1].lsh_index.clear()
    return network


def lsh_hidden(activation: str) -> LayerConfig:
    return LayerConfig(
        size=16,
        activation=activation,
        lsh=LSHConfig(hash_family="dwta", k=3, l=8, bucket_size=16),
        sampling=SamplingConfig(strategy="topk", target_active=8, min_active=4),
    )


def example(rng, nnz: int = 6, labels=(3, 17)) -> SparseExample:
    indices = np.sort(rng.choice(DIM, size=nnz, replace=False))
    return SparseExample(
        features=SparseVector(indices, rng.normal(size=nnz), dimension=DIM),
        labels=np.array(labels, dtype=np.int64),
    )


def assert_fused_matches_per_sample(network_kwargs: dict, examples: list) -> list:
    """One step of each synchronous implementation from identical weights:
    equal losses and work under Adam, equal weights under SGD.  Returns the
    fused forward's layer states for the caller's own assertions."""
    batch = SparseBatch.from_examples(examples, feature_dim=DIM, label_dim=CLASSES)
    for optimizer in (OptimizerConfig(name="adam"), SGD):
        legacy_net, fused_net = edge_network(**network_kwargs), edge_network(**network_kwargs)
        config = TrainingConfig(optimizer=optimizer)
        legacy = per_sample_reference.train_step(
            legacy_net, batch, legacy_net.build_optimizer(config), interleaved=False
        )
        got = fused_net.train_batch(batch, fused_net.build_optimizer(config), hogwild=False)
        assert got["loss"] == pytest.approx(legacy["loss"], rel=EDGE_LOSS_RTOL, abs=1e-15)
        assert got["active_neurons"] == legacy["active_neurons"]
        assert got["active_weights"] == legacy["active_weights"]
    for legacy_layer, fused_layer in zip(legacy_net.layers, fused_net.layers):
        np.testing.assert_allclose(
            legacy_layer.weights, fused_layer.weights, rtol=0, atol=EDGE_PARAM_ATOL
        )
        np.testing.assert_allclose(
            legacy_layer.biases, fused_layer.biases, rtol=0, atol=EDGE_PARAM_ATOL
        )
    return fused.fused_forward_batch(
        edge_network(**network_kwargs), batch, include_labels=True
    ).layer_states


class TestEdgeBatches:
    def test_sample_with_an_empty_active_set(self, rng):
        # Nothing retrieved, no padding, no labels to force in: the second
        # sample's segment is empty and sits between two non-empty ones.
        states = assert_fused_matches_per_sample(
            {"min_active": 0, "clear_index": True},
            [example(rng), example(rng, labels=()), example(rng, labels=(5,))],
        )
        assert [a.size for a in states[-1].active_sets] == [2, 0, 1]
        np.testing.assert_array_equal(states[-1].rows, [3, 5, 17])
        assert not states[-1].act[1].any()

    def test_every_active_set_empty(self, rng):
        states = assert_fused_matches_per_sample(
            {"min_active": 0, "clear_index": True},
            [example(rng, labels=()), example(rng, labels=())],
        )
        assert states[-1].rows.size == 0 and states[-1].act.shape == (2, 0)

    def test_sample_without_labels(self, rng):
        assert_fused_matches_per_sample(
            {}, [example(rng), example(rng, labels=()), example(rng)]
        )

    def test_labels_outside_the_active_set(self, rng):
        examples = [example(rng, labels=(l, l + 1)) for l in range(0, 32, 4)]
        states = assert_fused_matches_per_sample({"include_labels": False}, examples)
        out = states[-1]
        missed = [
            not np.isin(ex.labels, active).all()
            for ex, active in zip(examples, out.active_sets)
        ]
        assert any(missed)  # some label really was left out

    def test_duplicated_label_id(self, rng):
        assert_fused_matches_per_sample(
            {}, [example(rng, labels=(9, 9, 21)), example(rng, labels=(4, 4))]
        )

    def test_example_without_features(self, rng):
        states = assert_fused_matches_per_sample(
            {}, [example(rng), example(rng, nnz=0), example(rng)]
        )
        assert not states[0].x_block[1].any()

    def test_batch_without_any_feature(self, rng):
        states = assert_fused_matches_per_sample({}, [example(rng, nnz=0)])
        assert states[0].x_block.shape == (1, 0)

    def test_batch_of_one(self, rng):
        assert_fused_matches_per_sample({}, [example(rng)])

    def test_lsh_hidden_layer_under_lsh_output_layer(self, rng):
        examples = [example(rng, labels=(l,)) for l in range(6)]
        kwargs = {"hidden": lsh_hidden("relu")}
        states = assert_fused_matches_per_sample(kwargs, examples)
        # Neither all rows nor all columns: the general element gather.
        out, layer = states[-1], edge_network(**kwargs).layers[-1]
        assert out.rows.size < layer.size and out.cols.size < layer.fan_in
        np.testing.assert_array_equal(
            out.block, layer.weights[np.ix_(out.rows, out.cols)]
        )

    def test_linear_lsh_layer(self, rng):
        examples = [example(rng, labels=(l, 30)) for l in range(6)]
        states = assert_fused_matches_per_sample(
            {"hidden": lsh_hidden("linear")}, examples
        )
        hidden = states[0]
        assert (hidden.pre[hidden.mask > 0] < 0).any()  # kept, not rectified
        np.testing.assert_array_equal(hidden.act, hidden.pre * hidden.mask)

    def test_repeated_feature_index_keeps_its_last_value(self, rng):
        """What ``dense_features`` does with a body the HTTP boundary now
        rejects; the input block must not sum the two values."""
        repeated = SparseExample(
            features=SparseVector([7, 2, 7], [1.0, 2.0, 3.0], dimension=DIM),
            labels=np.array([1]),
        )
        batch = SparseBatch.from_examples([repeated], feature_dim=DIM, label_dim=CLASSES)
        state = fused.fused_forward_batch(edge_network(), batch).layer_states[0]
        np.testing.assert_array_equal(state.cols, [2, 7])
        np.testing.assert_array_equal(state.x_block, batch.to_dense_features()[:, [2, 7]])


# ----------------------------------------------------------------------
# 3. The all-rows walk of ``sparse_step``
# ----------------------------------------------------------------------
def ix_walk(optimizer, name, param, rows, cols, grad_block) -> None:
    """The element-wise ``np.ix_`` walk, in the production chunking."""
    state = optimizer.state_of(name)
    stride = max(1, optim_base._CHUNK_ELEMENTS // max(cols.size, 1))
    for start in range(0, rows.size, stride):
        index = np.ix_(rows[start : start + stride], cols)
        param_chunk = param[index]
        state_chunk = {key: array[index] for key, array in state.items()}
        optimizer._update_chunk(param_chunk, state_chunk, grad_block[start : start + stride])
        for key, array in state.items():
            array[index] = state_chunk[key]
        param[index] = param_chunk


OPTIMIZERS = {
    "adam": lambda: AdamOptimizer(learning_rate=1e-2),
    "adam-clipped": lambda: AdamOptimizer(learning_rate=1e-2, update_clip=0.5),
    "sgd": lambda: SGDOptimizer(learning_rate=1e-2),
    "sgd-momentum": lambda: SGDOptimizer(learning_rate=1e-2, momentum=0.9),
}


@pytest.fixture
def ix_calls(monkeypatch) -> list:
    """Every ``np.ix_`` call made while the test runs."""
    calls = []
    original = np.ix_

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(np, "ix_", counting)
    return calls


class TestAllRowsWalk:
    @pytest.mark.parametrize("make", OPTIMIZERS.values(), ids=OPTIMIZERS.keys())
    @pytest.mark.parametrize("num_rows, width, num_cols", [
        (1, 40, 7), (5, 64, 64 - 1), (33, 700, 300), (300, 96, 1), (128, 2048, 1500),
    ])
    def test_bitwise_equal_to_the_ix_walk(self, rng, make, num_rows, width, num_cols):
        """A column-major parameter, walked as its transpose, against the
        ``np.ix_`` walk of a row-major copy."""
        walked, reference = make(), make()
        param = np.asfortranarray(rng.normal(size=(num_rows, width)))
        expected = np.ascontiguousarray(param)
        walked.register("w", param.shape, order="F")
        reference.register("w", param.shape)
        rows = np.arange(num_rows)
        for _ in range(3):  # moments carry over from step to step
            cols = np.sort(rng.choice(width, size=num_cols, replace=False))
            grad = rng.normal(size=(num_rows, num_cols))
            for optimizer in (walked, reference):
                optimizer.begin_step()
            walked.sparse_step("w", param, rows, cols, grad)
            ix_walk(reference, "w", expected, rows, cols, grad)
            np.testing.assert_array_equal(param, expected)
            for key, array in reference.state_of("w").items():
                np.testing.assert_array_equal(walked.state_of("w")[key], array)

    def test_taken_for_all_rows_in_order_only(self, rng, ix_calls):
        """A column-major parameter walks whole columns only when every row,
        in order, is updated."""
        param = np.asfortranarray(rng.normal(size=(12, 30)))
        cols = np.array([2, 3, 11])
        optimizer = AdamOptimizer()
        optimizer.register("w", param.shape, order="F")

        def ix_calls_for(rows) -> int:
            del ix_calls[:]
            optimizer.sparse_step("w", param, rows, cols, np.ones((rows.size, 3)))
            return len(ix_calls)

        assert ix_calls_for(np.arange(12)) == 0
        assert ix_calls_for(np.arange(12)[::-1].copy()) > 0  # all rows, reversed
        assert ix_calls_for(np.delete(np.arange(12), 5)) > 0  # a gap
        assert ix_calls_for(np.arange(11)) > 0  # a prefix

    def test_reversed_rows_update_the_rows_they_name(self, rng):
        param = rng.normal(size=(6, 10))
        before = param.copy()
        optimizer = SGDOptimizer(learning_rate=1.0)
        optimizer.register("w", param.shape)
        grad = np.arange(6.0)[:, None] * np.ones((6, 2))
        optimizer.begin_step()
        optimizer.sparse_step("w", param, np.arange(6)[::-1].copy(), np.array([1, 4]), grad)
        np.testing.assert_array_equal(
            (before - param)[:, 1], np.arange(6.0)[::-1]
        )


# ----------------------------------------------------------------------
# 4. Finite differences
# ----------------------------------------------------------------------
def batch_loss(network, batch, active, params) -> float:
    """Mean cross-entropy of ``batch``, one sample and one layer at a time.

    ``active[l][s]`` is sample ``s``'s active set at layer ``l``; every other
    neuron outputs zero.  Each label in the output active set carries
    ``1 / |labels|`` of the target.  ``params`` holds float64 copies of each
    layer's ``(weights, biases)``: a float32 central difference would be off
    by 9-56 %, so the loss is evaluated in float64.
    """
    total = 0.0
    for sample, example in enumerate(batch):
        h = example.features.to_dense().astype(np.float64)
        for layer, (weights, biases), ids in zip(
            network.layers, params, (sets[sample] for sets in active)
        ):
            z = weights[ids] @ h + biases[ids]
            h = np.zeros(layer.size)
            if layer.activation_name == "softmax" and ids.size:
                shifted = np.exp(z - z.max())
                h[ids] = shifted / shifted.sum()
            elif layer.activation_name == "relu":
                h[ids] = np.maximum(z, 0.0)
            elif layer.activation_name == "linear":
                h[ids] = z
        for label in example.labels:
            if label in ids:
                total -= np.log(h[label] + 1e-12) / example.labels.size
    return total / len(batch)


def central_differences(network, batch, active, params, param, entries, eps=1e-6):
    """The gradient of :func:`batch_loss` at ``entries`` of ``param``, one of
    the float64 arrays in ``params``."""
    grad = np.zeros_like(param)
    for index in entries:
        original = param[index]
        param[index] = original + eps
        plus = batch_loss(network, batch, active, params)
        param[index] = original - eps
        minus = batch_loss(network, batch, active, params)
        param[index] = original
        grad[index] = (plus - minus) / (2 * eps)
    return grad


# The float32 update against the float64 central difference: worst measured
# 1.2e-7 absolute (1 eps) on gradients of O(0.1).
FD_ATOL = 8 * EPS32

FD_CASES = {
    "b1-relu": ({}, 1, ()),
    "b4-relu": ({}, 4, ()),
    "b4-linear": ({"hidden": LayerConfig(size=16, activation="linear")}, 4, ()),
    "b4-lsh-relu": ({"hidden": lsh_hidden("relu")}, 4, ()),
    "empty-active-set": ({"min_active": 0, "clear_index": True}, 3, (1,)),
    "dead-hidden-column": ({}, 4, ()),
}


@pytest.mark.parametrize("case", FD_CASES)
def test_sgd_update_is_the_finite_difference_gradient(rng, case):
    network_kwargs, batch_size, unlabelled = FD_CASES[case]
    network = edge_network(**network_kwargs)
    if case == "dead-hidden-column":
        network.layers[0].biases[5] = -100.0  # unit 5 is zero in every row
    examples = [
        example(rng, labels=() if s in unlabelled else (3 + s, 17))
        for s in range(batch_size)
    ]
    batch = SparseBatch.from_examples(examples, feature_dim=DIM, label_dim=CLASSES)
    result = fused.fused_forward_batch(network, batch, include_labels=True)
    active = [
        state.active_sets or [state.rows] * batch_size for state in result.layer_states
    ]
    if case == "empty-active-set":
        assert [a.size for a in active[-1]] == [2, 0, 2]
    if case == "dead-hidden-column":
        assert 5 not in result.layer_states[-1].cols

    features = np.unique(np.concatenate([ex.features.indices for ex in examples]))
    params = [
        (layer.weights.astype(np.float64), layer.biases.astype(np.float64))
        for layer in network.layers
    ]
    expected = []
    for layer_idx, (layer, (weights, biases)) in enumerate(zip(network.layers, params)):
        width = features if layer_idx == 0 else np.arange(layer.fan_in)
        weight_entries = [(row, col) for row in range(layer.size) for col in width]
        bias_entries = [(row,) for row in range(layer.size)]
        expected.append(
            (
                central_differences(network, batch, active, params, weights, weight_entries),
                central_differences(network, batch, active, params, biases, bias_entries),
            )
        )

    optimizer = network.build_optimizer(
        TrainingConfig(optimizer=OptimizerConfig(name="sgd", learning_rate=1.0))
    )
    optimizer.begin_step()
    fused.fused_backward_batch(network, batch, result, optimizer, fused.Workspace())
    for layer, (weights, biases), (weight_grad, bias_grad) in zip(
        network.layers, params, expected
    ):
        # The float32 kernel's update against the float64 gradient; columns
        # no example touches get an exactly-zero update.
        np.testing.assert_allclose(weights - layer.weights, weight_grad, rtol=0, atol=FD_ATOL)
        np.testing.assert_allclose(biases - layer.biases, bias_grad, rtol=0, atol=FD_ATOL)
