"""The per-sample training loop the training kernel is checked against.

One example and one layer at a time, with no union, mask or segment: select
the layer's active set (through ``repro.kernels.fused.select_active_batch``
on a one-row query, where a test can record it), one GEMV over the active
block, exact zeros pruned before the next layer, a softmax over the active
set, ``p - y`` on the sample's own labels and an ``np.outer`` gradient per
layer.  :func:`train_step` applies each sample's gradient as soon as it is
computed (``interleaved=True``, HOGWILD's order) or, after all of them, each
scaled by ``1/batch`` (the averaged synchronous loop).  It computes in the
network's float dtype, as the kernel does.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import fused
from repro.kernels.activations import hidden_activation_grad, sparse_softmax
from repro.types import FLOAT


def sample_gradient(network, example):
    """``(loss, [(rows, cols, weight_grad, bias_grad)] per layer, neurons, weights)``."""
    cols, values = example.features.indices, example.features.values
    states = []
    for idx, layer in enumerate(network.layers):
        if layer.lsh_index is None:
            rows = np.arange(layer.size)
        else:
            forced = None
            if (
                idx == len(network.layers) - 1
                and layer.config.sampling.include_labels
                and example.labels.size
            ):
                forced = [example.labels]
            query = np.zeros((1, layer.fan_in), dtype=FLOAT)
            query[0, cols] = values
            ((rows, _, _),) = fused.select_active_batch(layer, query, forced)
        pre = layer.weights[np.ix_(rows, cols)] @ values + layer.biases[rows]
        if layer.activation_name == "relu":
            act = np.maximum(pre, 0.0)
        elif layer.activation_name == "softmax":
            act = sparse_softmax(pre)
        else:
            act = pre.copy()
        states.append((rows, cols, values, pre))
        cols, values = rows[act != 0.0], act[act != 0.0]

    rows, probabilities = states[-1][0], act
    delta = probabilities.copy()
    loss = 0.0
    positions = np.searchsorted(rows, example.labels)
    in_range = positions < rows.size
    hit = positions[in_range][rows[positions[in_range]] == example.labels[in_range]]
    if hit.size:
        mass = 1.0 / example.labels.size
        delta[hit] -= mass
        loss = float(-np.sum(mass * np.log(probabilities[hit] + 1e-12)))

    grads = [None] * len(states)
    for idx in range(len(states) - 1, -1, -1):
        rows, cols, values, _ = states[idx]
        grads[idx] = (rows, cols, np.outer(delta, values), delta.copy())
        if idx:
            below_rows, _, _, below_pre = states[idx - 1]
            mapped = np.zeros(below_rows.size, dtype=FLOAT)
            mapped[np.searchsorted(below_rows, cols)] = (
                network.layers[idx].weights[np.ix_(rows, cols)].T @ delta
            )
            delta = mapped * hidden_activation_grad(
                network.layers[idx - 1].activation_name, below_pre
            )
    neurons = sum(rows.size for rows, _, _, _ in states)
    weights = sum(rows.size * cols.size for rows, cols, _, _ in states)
    return loss, grads, neurons, weights


def train_step(network, batch, optimizer, interleaved: bool) -> dict[str, float]:
    """One per-sample ``train_batch``, iteration counter and rebuilds included."""
    optimizer.begin_step()
    losses, deferred, neurons, weights = [], [], 0, 0
    for example in batch:
        loss, grads, sample_neurons, sample_weights = sample_gradient(network, example)
        losses.append(loss)
        neurons += sample_neurons
        weights += sample_weights
        if interleaved:
            apply(network, optimizer, grads, 1.0)
        else:
            deferred.append(grads)
    for grads in deferred:
        apply(network, optimizer, grads, 1.0 / len(batch))
    network.iteration += 1
    for layer in network.layers:
        layer.maybe_rebuild(network.iteration)
    return {
        "loss": float(np.mean(losses)) if losses else 0.0,
        "active_neurons": float(neurons),
        "active_weights": float(weights),
        "batch_size": float(len(batch)),
    }


def apply(network, optimizer, grads, scale: float) -> None:
    for layer, (rows, cols, weight_grad, bias_grad) in zip(network.layers, grads):
        layer.apply_gradient_block(
            optimizer, rows, cols, weight_grad * scale, bias_grad * scale
        )
