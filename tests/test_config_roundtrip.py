"""Round-trip, strictness and wire-format tests of the one config codec.

The ``*Config`` classes are found by *introspection* of :mod:`repro.config`
and their fields by ``dataclasses.fields``, so a newly added class fails
here until it has an example, and a newly added field is round-tripped and
mutation-tested with no edit to this file.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
from pathlib import Path
from typing import Any, Iterator

import numpy as np
import pytest

import repro.config as config_module
from repro.config import (
    FaultToleranceConfig,
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    RebuildScheduleConfig,
    RouterConfig,
    SamplingConfig,
    ServingConfig,
    SlideNetworkConfig,
    TrainingConfig,
    from_dict,
    load_config,
    to_dict,
)
from repro.core.network import SlideNetwork
from repro.data.shards import ShardInfo, ShardManifest
from repro.faults import FaultPlan
from repro.state import (
    CheckpointManifest,
    OptimizerEntry,
    model_arrays,
    read_manifest,
    restore_checkpoint_into,
)

# Written by the parent commit's (PR 12) hand-written codecs; see test (iv).
DATA = Path(__file__).parent / "data"


def _all_config_classes() -> list[type]:
    return sorted(
        (
            obj
            for name, obj in vars(config_module).items()
            if isinstance(obj, type)
            and name.endswith("Config")
            and dataclasses.is_dataclass(obj)
        ),
        key=lambda cls: cls.__name__,
    )


CONFIG_CLASSES = _all_config_classes()
per_class = pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)


def config_examples() -> dict[type, Any]:
    """One representative instance per config class.

    Values deliberately differ from every field default — a codec that
    drops a field and lets the default leak back in would still pass a
    default-valued round-trip.
    """
    lsh = LSHConfig(
        hash_family="dwta",
        k=4,
        l=8,
        bucket_size=64,
        insertion_policy="reservoir",
        simhash_sparsity=0.5,
        wta_bin_size=4,
        doph_top_k=16,
    )
    rebuild = RebuildScheduleConfig(initial_period=10, decay=0.05, max_period=500)
    sampling = SamplingConfig(
        strategy="topk",
        target_active=32,
        hard_threshold=3,
        include_labels=False,
        min_active=8,
    )
    layer = LayerConfig(
        size=64, activation="softmax", lsh=lsh, sampling=sampling, rebuild=rebuild
    )
    optimizer = OptimizerConfig(
        name="sgd",
        learning_rate=5e-4,
        beta1=0.8,
        beta2=0.99,
        epsilon=1e-7,
        momentum=0.5,
        update_clip=2.0,
    )
    return {
        LSHConfig: lsh,
        RebuildScheduleConfig: rebuild,
        SamplingConfig: sampling,
        LayerConfig: layer,
        SlideNetworkConfig: SlideNetworkConfig(
            input_dim=16,
            layers=(LayerConfig(size=32, activation="relu"), layer),
            seed=7,
        ),
        OptimizerConfig: optimizer,
        TrainingConfig: TrainingConfig(
            batch_size=64,
            epochs=2,
            optimizer=optimizer,
            shuffle=False,
            seed=3,
            eval_every=10,
            eval_samples=128,
        ),
        ServingConfig: ServingConfig(
            engine="dense",
            active_budget=128,
            top_k=3,
            max_batch_size=16,
            max_wait_ms=1.0,
            num_workers=3,
            queue_capacity=256,
            deadline_ms=100.0,
            reload_poll_s=0.5,
            host="0.0.0.0",
            port=9090,
            max_body_bytes=65536,
        ),
        RouterConfig: RouterConfig(
            num_replicas=3,
            health_interval_s=0.5,
            probe_timeout_s=0.5,
            retry_max_attempts=2,
            request_deadline_s=1.0,
            attempt_timeout_s=0.5,
            breaker_failure_threshold=3,
            breaker_recovery_s=0.5,
        ),
        FaultToleranceConfig: FaultToleranceConfig(
            heartbeat_timeout_s=15.0,
            poll_interval_s=0.1,
            max_restarts=1,
            backoff_base_s=0.05,
            backoff_max_s=2.0,
            checkpoint_every_s=1.0,
            checkpoint_every_batches=5,
            checkpoint_keep_last=2,
        ),
    }


EXAMPLES = config_examples()

# The on-disk manifests decoded by the same codec; they join the mutation
# sweep below.
MANIFEST_EXAMPLES: dict[type, Any] = {
    ShardManifest: ShardManifest(
        feature_dim=64,
        label_dim=16,
        num_examples=5,
        shard_size=4,
        shards=(
            ShardInfo("shard-00000", 4, 30, 6, {"feat_indptr": 7, "feat_values": 9}),
            ShardInfo("shard-00001", 1, 8, 2, {"feat_indptr": 11}),
        ),
        source="memory",
    ),
    CheckpointManifest: CheckpointManifest(
        format_version=1,
        repro_version="1.0.0",
        saved_unix_time=12.5,
        network_config=EXAMPLES[SlideNetworkConfig],
        lsh_layers=(1,),
        optimizer=OptimizerEntry(
            config=EXAMPLES[OptimizerConfig],
            step_count=4,
            parameters={"layer0.weights": ("m", "v"), "layer0.biases": ("m", "v")},
        ),
        metadata={"tag": "best", "train_state": {"mode": "inline"}},
        arrays_sha256="ab" * 32,
    ),
}


def names_field(path: str) -> str:
    """Regex: an error message quoting ``path`` (or an element / key under it)."""
    return "'" + re.escape(path) + r"['\[.]"


def test_every_config_class_has_an_example():
    missing = [cls.__name__ for cls in CONFIG_CLASSES if cls not in EXAMPLES]
    assert not missing, f"example-less config classes: {missing}"


@per_class
def test_round_trip(cls):
    example = EXAMPLES[cls]
    data = to_dict(example)

    # Coverage: exactly the dataclass's fields, nothing more or less.
    assert set(data) == {f.name for f in dataclasses.fields(cls)}
    # The dict form is JSON as is: a tuple anywhere would come back a list.
    assert json.loads(json.dumps(data)) == data
    assert from_dict(cls, json.loads(json.dumps(data))) == example


@per_class
def test_unknown_key_is_rejected_by_name(cls):
    data = to_dict(EXAMPLES[cls])
    data["definitely_not_a_field"] = 1
    with pytest.raises(ValueError, match="definitely_not_a_field"):
        from_dict(cls, data)


def test_examples_differ_from_defaults():
    """A default-valued example could hide a codec that drops fields and
    lets defaults leak back in; keep the examples deliberately non-default."""
    for cls, example in EXAMPLES.items():
        if cls in (SlideNetworkConfig, LayerConfig):
            continue  # have required fields, no full-default instance exists
        assert example != cls(), f"{cls.__name__} example is all-defaults"


def test_nested_training_codec_rebuilds_optimizer():
    example = EXAMPLES[TrainingConfig]
    rebuilt = from_dict(TrainingConfig, to_dict(example))
    assert isinstance(rebuilt.optimizer, OptimizerConfig)
    assert rebuilt.optimizer == example.optimizer


def test_nested_layer_codec_rebuilds_lsh():
    example = EXAMPLES[LayerConfig]
    rebuilt = from_dict(LayerConfig, to_dict(example))
    assert isinstance(rebuilt.lsh, LSHConfig)
    assert rebuilt == example
    # lsh=None survives too, and defaulted fields may be left out.
    bare = LayerConfig(size=8)
    assert from_dict(LayerConfig, to_dict(bare)) == bare
    assert from_dict(LayerConfig, {"size": 8}) == bare


def test_network_codec_rejects_unknown_nested_layer_key():
    data = to_dict(EXAMPLES[SlideNetworkConfig])
    data["layers"][0]["workerz"] = 3
    with pytest.raises(ValueError, match=r"unknown .* field 'layers\[0\]\.workerz'"):
        from_dict(SlideNetworkConfig, data)


# ----------------------------------------------------------------------
# (i) Inputs the hand-written codecs mishandled: TypeError / KeyError leaks,
# silent acceptance, silent truncation.  All are ValueErrors naming the field.
# ----------------------------------------------------------------------
def _network_without_seed() -> dict[str, Any]:
    data = to_dict(EXAMPLES[SlideNetworkConfig])
    del data["seed"]
    return data


@pytest.mark.parametrize(
    "cls, data, field",
    [
        (LSHConfig, {"k": "6"}, "k"),
        (OptimizerConfig, {"learning_rate": "0.1"}, "learning_rate"),
        (LayerConfig, {}, "size"),
        (SlideNetworkConfig, _network_without_seed(), "seed"),
        (LSHConfig, {"hash_family": "nope"}, "hash_family"),
        (LSHConfig, {"k": True}, "k"),
        (TrainingConfig, {"shuffle": "no"}, "shuffle"),
        (SamplingConfig, {"target_active": 2.5}, "target_active"),
        (LayerConfig, {"size": 64.9}, "size"),
    ],
)
def test_drifted_inputs_raise_value_error_naming_the_field(cls, data, field):
    with pytest.raises(ValueError, match=names_field(field)):
        from_dict(cls, data)


def test_errors_name_nested_fields_by_path():
    data = to_dict(EXAMPLES[SlideNetworkConfig])
    data["layers"][1]["lsh"]["k"] = "6"
    expected = r"slide network config field 'layers\[1\]\.lsh\.k': invalid value '6'"
    with pytest.raises(ValueError, match=expected):
        from_dict(SlideNetworkConfig, data)
    # Range errors out of a nested __post_init__ say where they happened.
    data["layers"][1]["lsh"]["k"] = 0
    with pytest.raises(ValueError, match=r"'layers\[1\]\.lsh': k must be positive"):
        from_dict(SlideNetworkConfig, data)
    with pytest.raises(ValueError, match="JSON object"):
        from_dict(SlideNetworkConfig, [data])


def test_unsupported_annotation_raises_at_first_use():
    @dataclasses.dataclass
    class Odd:
        # JSON object keys are strings: only ``dict[str, X]`` is supported.
        table: dict[int, int] = dataclasses.field(default_factory=dict)

    with pytest.raises(TypeError, match="does not support"):
        from_dict(Odd, {"table": {"a": 1}})


def test_dict_fields_decode_every_value_and_name_the_key():
    @dataclasses.dataclass
    class Table:
        counts: dict[str, int] = dataclasses.field(default_factory=dict)
        spans: dict[str, tuple[float, ...]] = dataclasses.field(default_factory=dict)
        extra: dict[str, Any] = dataclasses.field(default_factory=dict)

    data = {
        "counts": {"a": 1, "b": 2},
        "spans": {"x": [1, 2.5]},
        "extra": {"k": [1, {"n": None}]},
    }
    table = from_dict(Table, data)
    assert table == Table({"a": 1, "b": 2}, {"x": (1.0, 2.5)}, {"k": [1, {"n": None}]})
    assert to_dict(table) == {**data, "spans": {"x": [1.0, 2.5]}}
    # ``Any`` takes the value as it is: the same object, not a copy.
    assert table.extra["k"] is data["extra"]["k"]
    for bad, field in (
        ({"counts": {"a": "1"}}, r"counts\[a\]"),
        ({"counts": {"a": True}}, r"counts\[a\]"),
        ({"spans": {"x": [1, "2"]}}, r"spans\[x\]\[1\]"),
        ({"counts": [1]}, "counts"),
        ({"counts": {1: 1}}, "counts"),
        ({"extra": [1]}, "extra"),
    ):
        with pytest.raises(ValueError, match="'" + field + "'"):
            from_dict(Table, bad)


# ----------------------------------------------------------------------
# (ii) Seeded mutation sweep over every field of every example, nested
# ones included.  pytest.raises(ValueError) lets a TypeError / KeyError /
# AttributeError out of the codec propagate and fail the test.
# ----------------------------------------------------------------------
_WRONG: dict[type, list[Any]] = {
    int: ["6", 2.5, True, [1], {"a": 1}],
    float: ["0.1", True, [0.5], {"a": 1}],
    bool: ["no", 1, 0.0, [True]],
    str: [7, 1.5, True, ["x"]],
    type(None): [[1], [[]]],
    list: ["ab", 5, True, {"a": 1}],
    dict: [5, "x", True, [1]],
}


def _nodes(value: Any, tokens: tuple = ()) -> Iterator[tuple[tuple, Any]]:
    """``(path tokens, instance)`` for ``value`` and every dataclass inside it."""
    if dataclasses.is_dataclass(value):
        yield tokens, value
        for f in dataclasses.fields(value):
            yield from _nodes(getattr(value, f.name), tokens + (f.name,))
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _nodes(item, tokens + (i,))


def _path(tokens: tuple) -> str:
    path = ""
    for token in tokens:
        if isinstance(token, int):
            path += f"[{token}]"
        else:
            path += f".{token}" if path else token
    return path


def _mutated(example: Any, tokens: tuple) -> tuple[dict[str, Any], dict[str, Any]]:
    """A fresh dict form of ``example`` and the nested dict at ``tokens``."""
    data = to_dict(example)
    node = data
    for token in tokens:
        node = node[token]
    return data, node


@pytest.mark.parametrize(
    "cls", CONFIG_CLASSES + list(MANIFEST_EXAMPLES), ids=lambda cls: cls.__name__
)
def test_mutation_sweep(cls):
    example = {**EXAMPLES, **MANIFEST_EXAMPLES}[cls]
    rng = random.Random(cls.__name__)
    for tokens, instance in _nodes(example):
        data, node = _mutated(example, tokens)
        node["zz_unknown"] = 1
        unknown_path = _path(tokens + ("zz_unknown",))
        with pytest.raises(ValueError, match=names_field(unknown_path)):
            from_dict(cls, data)

        for f in dataclasses.fields(instance):
            field_path = _path(tokens + (f.name,))

            data, node = _mutated(example, tokens)
            node[f.name] = rng.choice(_WRONG[type(node[f.name])])
            with pytest.raises(ValueError, match=names_field(field_path)):
                from_dict(cls, data)

            if f.default is f.default_factory is dataclasses.MISSING:
                data, node = _mutated(example, tokens)
                del node[f.name]
                with pytest.raises(ValueError, match=names_field(field_path)):
                    from_dict(cls, data)


# ----------------------------------------------------------------------
# (iv) Wire format: what the parent commit's hand-written codecs wrote
# loads unchanged — same keys, same nesting, same values back out.
# ----------------------------------------------------------------------
PARENT_DICTS = json.loads((DATA / "parent_config_dicts.json").read_text())

# ServingConfig fields the parent wrote that have since been deleted (the
# autoscaler and the admission policy).  A dict still carrying one is
# refused by name; without them the rest loads unchanged.
DELETED_SERVING_KEYS = (
    "admission_policy",
    "autoscale",
    "min_workers",
    "max_workers",
    "autoscale_interval_s",
    "target_p99_ms",
    "autoscale_queue_per_worker",
    "autoscale_up_patience",
    "autoscale_down_patience",
    "autoscale_cooldown_s",
)

# RouterConfig fields the parent wrote that have since been deleted (the
# p99 breaker trip) or turned into constants of ``repro.serving.router``.
DELETED_ROUTER_KEYS = (
    "readiness_max_staleness",
    "retry_backoff_base_s",
    "retry_backoff_max_s",
    "breaker_p99_ms",
    "breaker_window",
    "breaker_half_open_probes",
    "degradation_budget_steps",
    "degradation_interval_s",
    "degradation_queue_high",
    "degradation_up_patience",
    "degradation_down_patience",
    "degradation_shed_depth",
    "seed",
)

DELETED_KEYS = {ServingConfig: DELETED_SERVING_KEYS, RouterConfig: DELETED_ROUTER_KEYS}


def _assert_refused_naming_deleted_keys(cls, load) -> None:
    with pytest.raises(ValueError, match="unknown .* config fields") as excinfo:
        load()
    named = str(excinfo.value).split(";")[0]
    assert all(repr(key) in named for key in DELETED_KEYS[cls])


def _without_deleted_keys(cls, written: dict) -> dict:
    deleted = DELETED_KEYS[cls]
    assert set(deleted) <= set(written)
    return {k: v for k, v in written.items() if k not in deleted}


@pytest.mark.parametrize(
    "cls", CONFIG_CLASSES + [FaultPlan], ids=lambda cls: cls.__name__
)
def test_parent_written_dict_round_trips_bit_for_bit(cls):
    written = PARENT_DICTS[cls.__name__]
    if cls in DELETED_KEYS:
        _assert_refused_naming_deleted_keys(cls, lambda: from_dict(cls, written))
        written = _without_deleted_keys(cls, written)
    config = from_dict(cls, written)
    assert to_dict(config) == written
    if cls in EXAMPLES:  # the examples moved here verbatim
        assert config == EXAMPLES[cls]


def test_parent_written_serving_json_loads(tmp_path):
    path = DATA / "parent_serving.json"
    _assert_refused_naming_deleted_keys(
        ServingConfig, lambda: load_config(ServingConfig, path)
    )
    written = _without_deleted_keys(ServingConfig, json.loads(path.read_text()))
    trimmed = tmp_path / "serving.json"
    trimmed.write_text(json.dumps(written))
    config = load_config(ServingConfig, trimmed)
    assert config == EXAMPLES[ServingConfig]
    assert to_dict(config) == written


@pytest.mark.parametrize("key", DELETED_SERVING_KEYS)
def test_serving_config_refuses_each_deleted_key_by_name(key):
    with pytest.raises(ValueError, match=f"unknown serving config field '{key}'"):
        from_dict(ServingConfig, {"num_workers": 2, key: 1})


@pytest.mark.parametrize("key", DELETED_ROUTER_KEYS)
def test_router_config_refuses_each_deleted_key_by_name(key):
    # The parent-written value, which the parent's codec accepted.
    data = {"num_replicas": 2, key: PARENT_DICTS["RouterConfig"][key]}
    with pytest.raises(ValueError, match=f"unknown router config field '{key}'"):
        from_dict(RouterConfig, data)


def test_parent_written_checkpoint_loads():
    path = DATA / "parent_checkpoint"
    manifest = json.loads((path / "manifest.json").read_text())
    loaded = SlideNetwork.from_checkpoint(path)
    optimizer_config = read_manifest(path).optimizer.config
    assert to_dict(loaded.config) == manifest["network_config"]
    assert to_dict(optimizer_config) == manifest["optimizer"]["config"]
    assert loaded.config.seed == 7
    assert loaded.config.layers[1].lsh.hash_family == "dwta"

    # The fixture stores float64 arrays; they load by cast into the float32
    # parameters and moments, through both load paths.
    with np.load(path / "arrays.npz") as data:
        stored = {key: np.array(data[key]) for key in data.files}
    restored = SlideNetwork(loaded.config)
    restored_optimizer = restored.build_optimizer(
        TrainingConfig(optimizer=optimizer_config)
    )
    restore_checkpoint_into(path, restored, restored_optimizer)
    checked = 0
    for network, optimizer in ((loaded, None), (restored, restored_optimizer)):
        live = {}
        for idx, layer in enumerate(network.layers):
            live[f"layer{idx}.weights"] = layer.weights
            live[f"layer{idx}.biases"] = layer.biases
        if optimizer is not None:
            for name, slot, array in optimizer.state_items():
                live[f"optim.{name}.{slot}"] = array
        for key, array in live.items():
            assert stored[key].dtype == np.float64, key
            assert array.dtype == np.float32, key
            np.testing.assert_array_equal(array, stored[key].astype(np.float32))
            checked += 1
    # Weights + biases of two layers on both paths (4 arrays each), and
    # Adam m / v of each on the restore path (8 more).
    assert checked == 16


def test_model_arrays_name_exactly_the_parent_checkpoint_model_arrays():
    path = DATA / "parent_checkpoint"
    network = SlideNetwork.from_checkpoint(path)
    optimizer = network.build_optimizer(
        TrainingConfig(optimizer=read_manifest(path).optimizer.config)
    )
    with np.load(path / "arrays.npz") as data:
        stored = set(data.files)
    index_arrays = {key for key in stored if re.fullmatch(r"layer\d+\.lsh_\w+", key)}
    assert index_arrays == {"layer1.lsh_items", "layer1.lsh_codes"}
    expected = stored - {"iteration"} - index_arrays
    assert set(model_arrays(network, optimizer)) == expected
