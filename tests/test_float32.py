"""float32 end to end: no training or serving step upcasts to float64.

A float32 array times a float64 array is silently float64, and a parameter
or moment stored that way moves twice the bytes on every later step.  One
fused step, one HOGWILD step and one ``predict_batch`` run at a tiny shape;
every array they leave behind or hand back must still be float32.
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
from repro.kernels import fused
from repro.parallel.store import SharedParamStore
from repro.serving.engine import SparseInferenceEngine
from repro.state import bind_model_arrays, model_arrays
from repro.types import FLOAT, SparseBatch


def test_the_one_float_dtype_is_float32():
    assert np.dtype(FLOAT) == np.float32


def network_with_lsh_hidden(tiny_dataset) -> SlideNetwork:
    """``256 -> 32 relu (DWTA) -> 48 softmax (SimHash)``."""
    hidden = LayerConfig(
        size=32,
        activation="relu",
        lsh=LSHConfig(hash_family="dwta", k=3, l=6, bucket_size=16),
        sampling=SamplingConfig(strategy="topk", target_active=16, min_active=8),
    )
    output = LayerConfig(
        size=tiny_dataset.config.label_dim,
        activation="softmax",
        lsh=LSHConfig(hash_family="simhash", k=4, l=12, bucket_size=32),
        sampling=SamplingConfig(strategy="vanilla", target_active=12, min_active=8),
    )
    return SlideNetwork(
        SlideNetworkConfig(
            input_dim=tiny_dataset.config.feature_dim, layers=(hidden, output), seed=3
        )
    )


def assert_float32(name: str, array) -> None:
    assert array.dtype == np.float32, f"{name} is {array.dtype}"


def parameter_dtypes(network, optimizer) -> dict:
    """Name -> dtype of every parameter, moment and SimHash projection."""
    dtypes = {}
    for layer in network.layers:
        dtypes[f"{layer.name}.weights"] = layer.weights.dtype
        dtypes[f"{layer.name}.biases"] = layer.biases.dtype
        family = layer.lsh_index.hash_family if layer.lsh_index is not None else None
        if hasattr(family, "_dense_projection"):
            dtypes[f"{layer.name} SimHash projection"] = family._dense_projection.dtype
    for param, key, array in optimizer.state_items():
        dtypes[f"optimiser {param}/{key}"] = array.dtype
    return dtypes


def assert_all_float32(dtypes: dict) -> None:
    wrong = {name: str(dtype) for name, dtype in dtypes.items() if dtype != np.float32}
    assert not wrong, wrong


def assert_parameters_float32(network, optimizer) -> None:
    assert_all_float32(parameter_dtypes(network, optimizer))


@pytest.fixture
def recorded_states(monkeypatch) -> list:
    """Every ``FusedLayerState`` the training kernel builds while a test runs."""
    states = []
    forward = fused.fused_forward_batch

    def recording(*args, **kwargs):
        result = forward(*args, **kwargs)
        states.extend(result.layer_states)
        return result

    monkeypatch.setattr(fused, "fused_forward_batch", recording)
    return states


@pytest.mark.parametrize("hogwild", [False, True], ids=["fused", "hogwild"])
@pytest.mark.parametrize("lsh_hidden", [False, True], ids=["dense-hidden", "lsh-hidden"])
def test_a_training_step_stays_float32(
    tiny_dataset, tiny_network_config, recorded_states, hogwild, lsh_hidden
):
    network = (
        network_with_lsh_hidden(tiny_dataset)
        if lsh_hidden
        else SlideNetwork(tiny_network_config)
    )
    for optimizer_config in (
        OptimizerConfig(name="adam"),
        OptimizerConfig(name="sgd", momentum=0.9),
    ):
        optimizer = network.build_optimizer(TrainingConfig(optimizer=optimizer_config))
        batch = SparseBatch.from_examples(
            tiny_dataset.train[:8],
            feature_dim=tiny_dataset.config.feature_dim,
            label_dim=tiny_dataset.config.label_dim,
        )
        metrics = network.train_batch(batch, optimizer, hogwild=hogwild)
        assert np.isfinite(metrics["loss"])
        assert_parameters_float32(network, optimizer)

    assert recorded_states
    for state in recorded_states:
        for field in ("block", "x_block", "pre", "act"):
            assert_float32(f"FusedLayerState.{field}", getattr(state, field))
    buffers = network._workspace._buffers
    assert buffers
    for name, buffer in buffers.items():
        assert_float32(f"Workspace[{name!r}]", buffer)


@pytest.mark.parametrize("rerank", [True, False])
def test_predictions_are_float32(tiny_dataset, tiny_network_config, rerank):
    network = SlideNetwork(tiny_network_config)
    engine = SparseInferenceEngine(network, active_budget=16)
    engine.rerank = rerank
    predictions = engine.predict_batch(tiny_dataset.test[:6], k=3)
    # An empty index starves every request into the dense fallback.
    network.output_layer.lsh_index.clear()
    predictions += engine.predict_batch(tiny_dataset.test[:2], k=3)
    assert {p.mode for p in predictions} >= {"dense_fallback"}
    for prediction in predictions:
        assert_float32(f"{prediction.mode} scores", prediction.scores)


def test_shared_arrays_follow_the_parameter_dtype(tiny_network_config):
    """``ProcessHogwildTrainer`` places exactly these arrays in shared
    memory; a worker attaches them from the manifest."""
    network = SlideNetwork(tiny_network_config)
    optimizer = network.build_optimizer(TrainingConfig())
    arrays = model_arrays(network, optimizer)
    # Only dtypes leave the ``try``: no view into a segment outlives it.
    store = SharedParamStore.create(arrays)
    try:
        twin = SharedParamStore.attach(store.manifest())
        try:
            attached = {f"attached {name}": twin[name].dtype for name in arrays}
        finally:
            twin.close()
        shared = {f"shared {name}": store[name].dtype for name in arrays}
        bind_model_arrays(network, optimizer, store)
        bound = parameter_dtypes(network, optimizer)
        bind_model_arrays(
            network, optimizer, {name: store.copy_out(name) for name in arrays}
        )
    finally:
        store.close()
        store.unlink()
    for dtypes in (shared, attached, bound, parameter_dtypes(network, optimizer)):
        assert_all_float32(dtypes)
