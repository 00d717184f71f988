"""Model state: checkpoint round-trips of weights, optimiser state and LSH
index contents, the one validated restore, and the versioned store."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.serving.engine import SparseInferenceEngine
from repro.state import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    CheckpointStore,
    bind_model_arrays,
    model_arrays,
    read_manifest,
    restore_checkpoint_into,
    restore_train_state,
    save_checkpoint,
)
from repro.types import SparseBatch


@pytest.fixture
def trained(tiny_dataset, tiny_network_config, tiny_training_config):
    """A briefly trained network plus its optimiser."""
    network = SlideNetwork(tiny_network_config)
    trainer = SlideTrainer(network, tiny_training_config)
    trainer.train(tiny_dataset.train[:96], tiny_dataset.test[:32])
    return network, trainer.optimizer


def test_round_trip_identical_dense_predictions(tmp_path, trained, tiny_dataset):
    network, optimizer = trained
    save_checkpoint(tmp_path / "ckpt", network, optimizer)
    loaded = SlideNetwork.from_checkpoint(tmp_path / "ckpt")

    examples = tiny_dataset.test[:32]
    np.testing.assert_allclose(
        network.predict_dense_batch(examples),
        loaded.predict_dense_batch(examples),
    )
    assert loaded.iteration == network.iteration
    assert loaded.config == network.config


def test_round_trip_identical_sparse_engine_predictions(
    tmp_path, trained, tiny_dataset
):
    network, _ = trained
    save_checkpoint(tmp_path / "ckpt", network)
    loaded = SlideNetwork.from_checkpoint(tmp_path / "ckpt")

    live = SparseInferenceEngine(network, active_budget=16)
    reloaded = SparseInferenceEngine(loaded, active_budget=16)
    examples = tiny_dataset.test[:32]
    for a, b in zip(
        live.predict_batch(examples, k=3), reloaded.predict_batch(examples, k=3)
    ):
        np.testing.assert_array_equal(a.class_ids, b.class_ids)
        np.testing.assert_allclose(a.scores, b.scores)


def per_table_counts(index) -> tuple[list, list]:
    """Buckets and stored ids per table, read off the index's private
    directory (a key's high bits are its table id)."""
    tables = index._dir_keys >> index._fp_bits
    sizes = index._store.sizes[index._dir_rows]
    return (
        np.bincount(tables, minlength=index.l).tolist(),
        np.bincount(tables, weights=sizes, minlength=index.l).tolist(),
    )


def test_round_trip_lsh_index_contents(tmp_path, trained):
    network, _ = trained
    save_checkpoint(tmp_path / "ckpt", network)
    loaded = SlideNetwork.from_checkpoint(tmp_path / "ckpt")

    live_index = network.output_layer.lsh_index
    loaded_index = loaded.output_layer.lsh_index
    assert loaded_index.num_items == live_index.num_items
    assert per_table_counts(loaded_index) == per_table_counts(live_index)


def test_round_trip_optimizer_state_and_training_continues(
    tmp_path, trained, tiny_dataset, tiny_training_config
):
    network, optimizer = trained
    save_checkpoint(tmp_path / "ckpt", network, optimizer)
    loaded = SlideNetwork.from_checkpoint(tmp_path / "ckpt")
    loaded_optimizer = loaded.build_optimizer(tiny_training_config)
    restore_checkpoint_into(tmp_path / "ckpt", loaded, loaded_optimizer)

    assert loaded_optimizer.step_count == optimizer.step_count
    for layer in network.layers:
        for suffix in ("weights", "biases"):
            name = f"{layer.name}.{suffix}"
            live_state = optimizer.state_of(name)
            loaded_state = loaded_optimizer.state_of(name)
            assert set(loaded_state) == set(live_state)
            for slot in live_state:
                np.testing.assert_allclose(loaded_state[slot], live_state[slot])

    # The reloaded (network, optimiser) pair must accept further training.
    batch = SparseBatch.from_examples(
        tiny_dataset.train[:8],
        feature_dim=tiny_dataset.feature_dim,
        label_dim=tiny_dataset.label_dim,
    )
    metrics = loaded.train_batch(batch, loaded_optimizer)
    assert np.isfinite(metrics["loss"])


def test_metadata_round_trip(tmp_path, trained):
    network, _ = trained
    save_checkpoint(tmp_path / "ckpt", network, metadata={"epoch": 3, "tag": "best"})
    assert read_manifest(tmp_path / "ckpt").metadata == {"epoch": 3, "tag": "best"}


def test_corrupted_arrays_rejected(tmp_path, trained):
    network, _ = trained
    path = save_checkpoint(tmp_path / "ckpt", network)
    arrays = path / "arrays.npz"
    payload = bytearray(arrays.read_bytes())
    payload[len(payload) // 2] ^= 0xFF
    arrays.write_bytes(bytes(payload))
    with pytest.raises(CheckpointError, match="checksum"):
        SlideNetwork.from_checkpoint(path)


def test_truncated_arrays_rejected(tmp_path, trained):
    network, _ = trained
    path = save_checkpoint(tmp_path / "ckpt", network)
    arrays = path / "arrays.npz"
    arrays.write_bytes(arrays.read_bytes()[: 100])
    with pytest.raises(CheckpointError, match="checksum"):
        SlideNetwork.from_checkpoint(path)


def test_missing_payload_rejected(tmp_path, trained):
    network, _ = trained
    path = save_checkpoint(tmp_path / "ckpt", network)
    (path / "arrays.npz").unlink()
    with pytest.raises(CheckpointError, match="missing array payload"):
        SlideNetwork.from_checkpoint(path)


def test_missing_manifest_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="manifest"):
        SlideNetwork.from_checkpoint(tmp_path)


def test_unknown_format_version_rejected(tmp_path, trained):
    network, _ = trained
    path = save_checkpoint(tmp_path / "ckpt", network)
    manifest = json.loads((path / "manifest.json").read_text())
    assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION
    manifest["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="format version"):
        SlideNetwork.from_checkpoint(path)


def _drop_input_dim(manifest):
    del manifest["network_config"]["input_dim"]


def _string_k(manifest):
    manifest["network_config"]["layers"][1]["lsh"]["k"] = "6"


def _unknown_nested_key(manifest):
    manifest["network_config"]["layers"][0]["sampling"]["workerz"] = 3


def _string_learning_rate(manifest):
    manifest["optimizer"]["config"]["learning_rate"] = "0.1"


def _list_manifest(manifest):
    return [manifest]  # the one edit that replaces the manifest


def _list_metadata(manifest):
    manifest["metadata"] = [1]


def _no_step_count(manifest):
    del manifest["optimizer"]["step_count"]


def _string_step_count(manifest):
    manifest["optimizer"]["step_count"] = "3"


def _list_parameters(manifest):
    manifest["optimizer"]["parameters"] = ["layer0.weights"]


def _missing_checksum(manifest):
    del manifest["arrays_sha256"]


def _unknown_top_level_key(manifest):
    manifest["zz_unknown"] = 1


@pytest.mark.parametrize(
    "edit, field",
    [
        (_drop_input_dim, "'input_dim'"),
        (_string_k, r"'layers\[1\]\.lsh\.k'"),
        (_unknown_nested_key, r"'layers\[0\]\.sampling\.workerz'"),
        (_string_learning_rate, "'learning_rate'"),
        (_list_manifest, "JSON object"),
        (_list_metadata, "'metadata'"),
        (_no_step_count, r"'optimizer\.step_count'"),
        (_string_step_count, r"'optimizer\.step_count'"),
        (_list_parameters, r"'optimizer\.parameters'"),
        (_missing_checksum, "'arrays_sha256'"),
        (_unknown_top_level_key, "'zz_unknown'"),
    ],
)
def test_hand_edited_manifest_config_is_a_checkpoint_error(
    tmp_path, trained, edit, field
):
    """A malformed manifest names the path and the field — and is a
    CheckpointError on every read path, not the AttributeError / KeyError /
    TypeError the loaders used to leak."""
    from repro.state import verify_checkpoint

    network, optimizer = trained
    path = save_checkpoint(tmp_path / "ckpt", network, optimizer=optimizer)
    manifest = json.loads((path / "manifest.json").read_text())
    manifest = edit(manifest) or manifest
    (path / "manifest.json").write_text(json.dumps(manifest))
    for read in (
        lambda: verify_checkpoint(path),
        lambda: SlideNetwork.from_checkpoint(path),
        lambda: restore_checkpoint_into(path, network, optimizer),
    ):
        with pytest.raises(CheckpointError, match=field) as excinfo:
            read()
        assert str(path) in str(excinfo.value)


def test_lsh_snapshot_restore_round_trip(trained):
    network, _ = trained
    index = network.output_layer.lsh_index
    items, codes = index.snapshot_codes()
    np.testing.assert_array_equal(items, np.arange(network.output_layer.size))
    assert index.num_items == items.shape[0]
    assert codes.shape == (items.shape[0], index.l, index.k)
    # Stored narrow (uint8 for SimHash), handed out as the checkpoint dtype.
    assert codes.dtype == np.int64 and index._codes.dtype == np.uint8

    from repro.lsh.index import LSHIndex

    clone = LSHIndex(
        input_dim=index.input_dim, config=index.config, seed=index.seed
    )
    clone.restore_codes(items, codes)
    assert clone.num_items == index.num_items
    assert per_table_counts(clone)[1] == per_table_counts(index)[1]

    with pytest.raises(ValueError, match="shape"):
        clone.restore_codes(items[:1], codes)
    with pytest.raises(ValueError, match="rows 0..n-1"):
        clone.restore_codes(items[::-1], codes)


def test_optimizer_to_config_round_trip():
    from repro.config import OptimizerConfig
    from repro.optim.factory import make_optimizer

    for config in (
        OptimizerConfig(name="adam", learning_rate=3e-4, beta1=0.8, beta2=0.95),
        OptimizerConfig(name="sgd", learning_rate=1e-2, momentum=0.5),
    ):
        optimizer = make_optimizer(config)
        recovered = optimizer.to_config()
        assert recovered.name == config.name
        assert recovered.learning_rate == config.learning_rate
        assert make_optimizer(recovered).to_config() == recovered


def test_store_versions_monotonically(tmp_path, trained):
    network, _ = trained
    store = CheckpointStore(tmp_path / "store")
    first = store.save(network, metadata={"step": 1})
    second = store.save(network, metadata={"step": 2, "tag": "best"})
    assert first.name == "v0001"
    assert second.name == "v0002"
    assert store.latest() == second
    assert read_manifest(store.latest()).metadata == {"step": 2, "tag": "best"}


def test_store_empty_raises(tmp_path):
    store = CheckpointStore(tmp_path / "empty")
    with pytest.raises(CheckpointError, match="no checkpoint versions"):
        store.latest()


def test_save_no_overwrite_preserves_existing(tmp_path, trained):
    from repro.state import CheckpointExistsError

    network, _ = trained
    path = save_checkpoint(tmp_path / "ckpt", network, metadata={"first": True})
    with pytest.raises(CheckpointExistsError, match="already exists"):
        save_checkpoint(path, network, metadata={"second": True}, overwrite=False)
    # The original checkpoint survives untouched.
    assert read_manifest(path).metadata == {"first": True}


def test_save_leaves_no_temp_dirs(tmp_path, trained):
    network, _ = trained
    store = CheckpointStore(tmp_path / "store")
    store.save(network)
    leftovers = [p.name for p in (tmp_path / "store").iterdir() if p.name.startswith(".")]
    assert leftovers == []


def test_concurrent_store_saves_all_get_distinct_versions(tmp_path, trained):
    import threading

    network, _ = trained
    store = CheckpointStore(tmp_path / "store")
    paths: list = []
    lock = threading.Lock()

    def save() -> None:
        path = store.save(network)
        with lock:
            paths.append(path)

    threads = [threading.Thread(target=save) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len({p.name for p in paths}) == 4
    # Every claimed version loads cleanly.
    for path in paths:
        SlideNetwork.from_checkpoint(path)


def test_only_plain_vnnnn_directories_are_versions(tmp_path, trained):
    network, _ = trained
    store = CheckpointStore(tmp_path / "store")
    first = store.save(network)
    for name in ("v0007-best", "v12", "latest"):
        save_checkpoint(store.root / name, network)
    assert store.versions() == [first]
    assert store.save(network).name == "v0002"


def test_store_save_gives_up_after_a_bounded_number_of_claims(
    tmp_path, trained, monkeypatch
):
    import repro.state
    from repro.state import CheckpointExistsError

    network, _ = trained
    claims = []

    def always_taken(path, *args, **kwargs):
        claims.append(path)
        raise CheckpointExistsError(f"{path} already exists")

    monkeypatch.setattr(repro.state, "save_checkpoint", always_taken)
    store = CheckpointStore(tmp_path / "store")
    with pytest.raises(CheckpointError, match="could not claim a version") as excinfo:
        store.save(network)
    assert len(claims) == repro.state._SAVE_ATTEMPTS
    assert isinstance(excinfo.value.__cause__, CheckpointExistsError)


# ----------------------------------------------------------------------
# The checkpoint boundary: one manifest reader, one validated restore
# ----------------------------------------------------------------------
@pytest.fixture
def fresh(tiny_network_config):
    """An untrained network and optimiser; every moment is set to 0.5."""
    from repro.config import TrainingConfig

    network = SlideNetwork(tiny_network_config)
    optimizer = network.build_optimizer(TrainingConfig())
    for _, _, array in optimizer.state_items():
        array[...] = 0.5
    return network, optimizer


def _fresh_pair(network):
    from repro.config import TrainingConfig

    twin = SlideNetwork(network.config)
    return twin, twin.build_optimizer(TrainingConfig())


def _rewrite(path, arrays=None, edit=None):
    """Replace the payload (checksum recomputed) and/or edit the manifest."""
    import hashlib
    import io

    manifest = json.loads((path / "manifest.json").read_text())
    if arrays is not None:
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        payload = buffer.getvalue()
        (path / "arrays.npz").write_bytes(payload)
        manifest["arrays_sha256"] = hashlib.sha256(payload).hexdigest()
    if edit is not None:
        manifest = edit(manifest) or manifest
    (path / "manifest.json").write_text(json.dumps(manifest))


def _stored_arrays(path):
    with np.load(path / "arrays.npz") as data:
        return {key: np.array(data[key]) for key in data.files}


def test_a_broadcastable_mis_shaped_moment_is_rejected(tmp_path, fresh):
    network, optimizer = fresh
    path = save_checkpoint(tmp_path / "ckpt", network, optimizer)
    arrays = _stored_arrays(path)
    cols = optimizer.state_of("layer1.weights")["m"].shape[1]
    # (cols,) broadcasts over the (rows, cols) moment: a silent fill of
    # every element is what an unchecked in-place copy would do.
    arrays["optim.layer1.weights.m"] = np.full(cols, 7.0, dtype=np.float32)
    _rewrite(path, arrays)
    with pytest.raises(CheckpointError, match=r"optim\.layer1\.weights\.m.*shape"):
        restore_checkpoint_into(path, *_fresh_pair(network))


def test_a_mis_shaped_layer_array_is_rejected_before_anything_is_written(
    tmp_path, fresh
):
    network, optimizer = fresh
    path = save_checkpoint(tmp_path / "ckpt", network, optimizer)
    arrays = _stored_arrays(path)
    arrays["layer0.weights"] = arrays["layer0.weights"] + 1.0
    arrays["layer1.biases"] = arrays["layer1.biases"][:-1]
    _rewrite(path, arrays)
    target, target_optimizer = _fresh_pair(network)
    before = target.layers[0].weights.copy()
    with pytest.raises(CheckpointError, match=r"layer1\.biases.*shape"):
        restore_checkpoint_into(path, target, target_optimizer)
    np.testing.assert_array_equal(target.layers[0].weights, before)


def _foreign_id(arrays):
    arrays["layer1.lsh_items"][-1] = 10_000


def _cut_rows(arrays):
    for name in ("layer1.lsh_items", "layer1.lsh_codes"):
        arrays[name] = arrays[name][:-5]


@pytest.mark.parametrize("tamper", [_foreign_id, _cut_rows])
def test_lsh_contents_that_are_not_the_layer_rows_are_rejected(tmp_path, fresh, tamper):
    """An id past the layer's rows would be a candidate that indexes past
    ``W``; a short snapshot would leave rows in no table."""
    network, optimizer = fresh
    path = save_checkpoint(tmp_path / "ckpt", network, optimizer)
    arrays = _stored_arrays(path)
    arrays["layer0.weights"] = arrays["layer0.weights"] + 1.0
    tamper(arrays)
    _rewrite(path, arrays)
    target, target_optimizer = _fresh_pair(network)
    before = target.layers[0].weights.copy()
    rows = network.layers[1].size
    message = rf"LSH index contents for layer 1 in .* not the layer's {rows} rows"
    with pytest.raises(CheckpointError, match=message):
        restore_checkpoint_into(path, target, target_optimizer)
    np.testing.assert_array_equal(target.layers[0].weights, before)
    with pytest.raises(CheckpointError, match=message):
        SlideNetwork.from_checkpoint(path)


def test_a_missing_model_array_is_rejected(tmp_path, fresh):
    network, optimizer = fresh
    path = save_checkpoint(tmp_path / "ckpt", network, optimizer)
    arrays = _stored_arrays(path)
    del arrays["optim.layer0.biases.v"]
    _rewrite(path, arrays)
    with pytest.raises(CheckpointError, match=r"missing array optim\.layer0\.biases\.v"):
        restore_checkpoint_into(path, *_fresh_pair(network))
    # Without the optimiser the moments are not needed.
    loaded = SlideNetwork.from_checkpoint(path)
    np.testing.assert_array_equal(loaded.layers[0].weights, network.layers[0].weights)


def test_a_missing_optimizer_entry_is_rejected(tmp_path, fresh):
    network, optimizer = fresh
    path = save_checkpoint(tmp_path / "ckpt", network, optimizer)

    def drop(manifest):
        del manifest["optimizer"]["parameters"]["layer1.weights"]

    _rewrite(path, edit=drop)
    target, target_optimizer = _fresh_pair(network)
    with pytest.raises(CheckpointError, match="optimiser state"):
        restore_checkpoint_into(path, target, target_optimizer)
    # Nothing was half restored: every moment is still at its initial zero.
    assert all(not array.any() for _, _, array in target_optimizer.state_items())


def test_without_a_stored_optimizer_a_passed_one_is_left_untouched(tmp_path, fresh):
    network, optimizer = fresh
    path = save_checkpoint(tmp_path / "ckpt", network)
    optimizer.step_count = 5
    restore_checkpoint_into(path, network, optimizer)
    assert optimizer.step_count == 5
    assert all((array == 0.5).all() for _, _, array in optimizer.state_items())
    assert read_manifest(path).optimizer is None


def test_verify_returns_the_manifest_dict_with_metadata_unchanged(tmp_path, fresh):
    from repro.state import verify_checkpoint

    network, optimizer = fresh
    metadata = {"train_state": {"mode": "inline", "items": [[1, 2.5], None]}}
    path = save_checkpoint(tmp_path / "ckpt", network, optimizer, metadata=metadata)
    manifest = verify_checkpoint(path)
    assert manifest == json.loads((path / "manifest.json").read_text())
    assert manifest["metadata"] == metadata
    assert read_manifest(path).metadata == metadata


def test_an_unreadable_payload_with_a_matching_checksum_is_a_checkpoint_error(
    tmp_path, fresh
):
    import hashlib

    network, _ = fresh
    path = save_checkpoint(tmp_path / "ckpt", network)
    (path / "arrays.npz").write_bytes(b"not a zip archive")
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["arrays_sha256"] = hashlib.sha256(b"not a zip archive").hexdigest()
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="unreadable array payload"):
        SlideNetwork.from_checkpoint(path)


@pytest.mark.parametrize(
    "edit", [_list_manifest, _list_metadata, _no_step_count], ids=lambda e: e.__name__
)
def test_latest_valid_skips_a_malformed_manifest(tmp_path, fresh, edit):
    network, optimizer = fresh
    store = CheckpointStore(tmp_path / "store")
    good = store.save(network, optimizer)
    bad = store.save(network, optimizer)
    _rewrite(bad, edit=edit)
    assert store.latest() == bad
    assert store.latest_valid() == good


def test_restore_train_state_checks_mode_and_seed(tmp_path, fresh):
    network, optimizer = fresh
    store = CheckpointStore(tmp_path / "store")
    store.save(network, optimizer, metadata={"train_state": {"mode": "inline", "seed": 4}})
    target, target_optimizer = _fresh_pair(network)
    # A store root resolves to its newest intact version.
    state = restore_train_state(
        store.root, target, target_optimizer, mode="inline", seed=4
    )
    assert state == {"mode": "inline", "seed": 4}
    np.testing.assert_array_equal(target.layers[1].weights, network.layers[1].weights)
    with pytest.raises(CheckpointError, match="no process training state"):
        restore_train_state(store.root, target, target_optimizer, mode="process", seed=4)
    with pytest.raises(CheckpointError, match="seed"):
        restore_train_state(store.root, target, target_optimizer, mode="inline", seed=5)
    bare = save_checkpoint(tmp_path / "bare", network, optimizer)
    with pytest.raises(CheckpointError, match="no inline training state"):
        restore_train_state(bare, target, target_optimizer, mode="inline", seed=4)


def test_reading_a_missing_store_creates_nothing(tmp_path, fresh):
    network, optimizer = fresh
    root = tmp_path / "typo" / "deep"
    store = CheckpointStore(root)
    assert store.versions() == []
    with pytest.raises(CheckpointError, match="no checkpoint versions"):
        store.latest()
    with pytest.raises(CheckpointError, match="no checkpoint versions"):
        restore_train_state(root, network, optimizer, mode="inline", seed=0)
    assert not (tmp_path / "typo").exists()
    # The first save creates the root.
    assert store.save(network) == root / "v0001"


# ----------------------------------------------------------------------
# model_arrays / bind_model_arrays: one name per live array
# ----------------------------------------------------------------------
def test_model_arrays_are_the_live_arrays(fresh):
    network, optimizer = fresh
    arrays = model_arrays(network)
    assert list(arrays) == [
        f"{layer.name}.{part}" for layer in network.layers for part in ("weights", "biases")
    ]
    for layer in network.layers:
        assert arrays[f"{layer.name}.weights"] is layer.weights
        assert arrays[f"{layer.name}.biases"] is layer.biases
    with_optimizer = model_arrays(network, optimizer)
    assert with_optimizer["optim.layer0.weights.m"] is optimizer.state_of(
        "layer0.weights"
    )["m"]


def test_binding_without_a_named_array_rebinds_nothing(fresh):
    network, optimizer = fresh
    arrays = {name: array.copy() for name, array in model_arrays(network, optimizer).items()}
    del arrays["optim.layer1.biases.v"]
    before = model_arrays(network, optimizer)
    with pytest.raises(ValueError, match="'optim.layer1.biases.v'"):
        bind_model_arrays(network, optimizer, arrays)
    for name, array in model_arrays(network, optimizer).items():
        assert array is before[name]


def test_binding_a_mis_shaped_array_rebinds_nothing(fresh):
    network, optimizer = fresh
    arrays = {name: array.copy() for name, array in model_arrays(network, optimizer).items()}
    arrays["layer1.weights"] = arrays["layer1.weights"][:, :-1].copy()
    before = model_arrays(network, optimizer)
    with pytest.raises(ValueError, match="'layer1.weights' has shape"):
        bind_model_arrays(network, optimizer, arrays)
    for name, array in model_arrays(network, optimizer).items():
        assert array is before[name]
