"""Memory order of the model's arrays: the layout pins.

A layer without LSH has every row active and is updated under a subset of
its input columns, so its weights and their optimiser moments are stored
column-major (Fortran order): ``sparse_step`` then walks whole input
columns and the fused kernel gathers them as contiguous rows of
``weights.T``.  LSH layers stay row-major.  A silent fall-back to row-major
would still compute the same numbers, only slower, so these tests pin the
order itself through every path that creates or replaces the arrays:
construction, training, checkpoint restore, resume, hot-swap and the
shared-memory store.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.parallel.store import SharedParamStore
from repro.serving.engine import SparseInferenceEngine
from repro.state import (
    CheckpointStore,
    bind_model_arrays,
    model_arrays,
    read_manifest,
    restore_checkpoint_into,
    restore_train_state,
)

PARENT_CHECKPOINT = Path(__file__).parent / "data" / "parent_checkpoint"


def assert_layouts(network: SlideNetwork, optimizer=None) -> None:
    """All-row layers column-major, LSH layers row-major: weights and moments."""
    for layer in network.layers:
        arrays = {"weights": layer.weights}
        if optimizer is not None:
            for key, array in optimizer.state_of(f"{layer.name}.weights").items():
                arrays[key] = array
        for key, array in arrays.items():
            where = f"{layer.name} {key}"
            if layer.lsh_index is None:
                assert array.flags.f_contiguous and not array.flags.c_contiguous, where
            else:
                assert array.flags.c_contiguous and not array.flags.f_contiguous, where
        assert layer.biases.flags.c_contiguous


def build(config):
    network = SlideNetwork(config)
    return network, network.build_optimizer(TrainingConfig())


def test_construction(tiny_network_config):
    network, optimizer = build(tiny_network_config)
    assert network.layers[0].lsh_index is None
    assert network.layers[1].lsh_index is not None
    assert_layouts(network, optimizer)


def test_training_keeps_the_layout(tiny_dataset, tiny_network_config, tiny_training_config):
    network = SlideNetwork(tiny_network_config)
    trainer = SlideTrainer(network, tiny_training_config)
    trainer.train(tiny_dataset.train[:64], tiny_dataset.test[:16])
    assert_layouts(network, trainer.optimizer)


def test_restore_of_the_parent_checkpoint():
    """The parent wrote every array row-major; the restore copies into the
    live arrays and leaves their order alone."""
    config = read_manifest(PARENT_CHECKPOINT).network_config
    assert config.layers[0].lsh is None
    network, optimizer = build(config)
    restore_checkpoint_into(PARENT_CHECKPOINT, network, optimizer)
    assert_layouts(network, optimizer)
    assert_layouts(SlideNetwork.from_checkpoint(PARENT_CHECKPOINT))


def test_resume(tmp_path, tiny_network_config):
    network, optimizer = build(tiny_network_config)
    store = CheckpointStore(tmp_path / "store")
    store.save(network, optimizer, metadata={"train_state": {"mode": "inline", "seed": 4}})
    target, target_optimizer = build(tiny_network_config)
    restore_train_state(store.root, target, target_optimizer, mode="inline", seed=4)
    assert_layouts(target, target_optimizer)
    for name, array in model_arrays(network, optimizer).items():
        np.testing.assert_array_equal(model_arrays(target, target_optimizer)[name], array)


def test_hot_swap(rng, tiny_network_config):
    resident, _ = build(tiny_network_config)
    incoming, _ = build(tiny_network_config)
    for layer in incoming.layers:
        layer.weights += rng.normal(scale=0.1, size=layer.weights.shape).astype(
            layer.weights.dtype
        )
    engine = SparseInferenceEngine(resident)
    report = engine.hot_swap(incoming)
    assert report.changed_rows == sum(layer.size for layer in resident.layers)
    assert_layouts(engine.network)
    for old, new in zip(engine.network.layers, incoming.layers):
        np.testing.assert_array_equal(old.weights, new.weights)


@pytest.mark.parametrize("order", ["C", "F"])
def test_shared_store_keeps_a_block_in_its_order(order):
    source = np.asarray(np.arange(12.0).reshape(3, 4), order=order)
    with SharedParamStore.create({"w": source}, prefix="test-order") as store:
        assert store.manifest()["arrays"]["w"]["order"] == order
        twin = SharedParamStore.attach(store.manifest())
        try:
            view = twin["w"]
            assert view.flags[f"{order}_CONTIGUOUS"]
            np.testing.assert_array_equal(view, source)
            del view
        finally:
            twin.close()


def test_shared_store_round_trip(tiny_network_config):
    """create -> attach -> bind -> copy_out: the process-HOGWILD lifecycle."""
    network, optimizer = build(tiny_network_config)
    expected = {name: array.copy() for name, array in model_arrays(network, optimizer).items()}
    with SharedParamStore.create(model_arrays(network, optimizer), prefix="test-layout") as store:
        worker = SharedParamStore.attach(store.manifest())
        try:
            bind_model_arrays(network, optimizer, worker)
            assert_layouts(network, optimizer)
            names = worker.names()
            bind_model_arrays(network, optimizer, {name: worker.copy_out(name) for name in names})
        finally:
            worker.close()
    assert_layouts(network, optimizer)
    for name, array in model_arrays(network, optimizer).items():
        np.testing.assert_array_equal(array, expected[name])
