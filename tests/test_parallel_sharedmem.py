"""Shared-memory parameter store lifecycle and the process-HOGWILD trainer.

The store tests cover attach/detach/unlink in-process and from child
processes under both ``fork`` and ``spawn`` start methods; the trainer tests
pin the single-process fallback's bit-for-bit parity with the fused
synchronous path and exercise a real 2-process training run end to end.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.data.ingest import ingest_examples
from repro.data.shards import ShardedDataset
from repro.parallel.store import SharedParamStore
from repro.parallel.trainer import (
    ProcessHogwildTrainer,
    ProcessTrainingReport,
    WorkerStats,
)
from repro.state import bind_model_arrays, model_arrays

START_METHODS = [
    method for method in ("fork", "spawn") if method in mp.get_all_start_methods()
]


def _sharded(tiny_dataset, tmp_path, shard_size=24, seed=0) -> ShardedDataset:
    cache = tmp_path / "shards"
    ingest_examples(
        tiny_dataset.train,
        feature_dim=tiny_dataset.config.feature_dim,
        label_dim=tiny_dataset.config.label_dim,
        cache_dir=cache,
        shard_size=shard_size,
    )
    return ShardedDataset(cache, seed=seed)


def _child_write_marker(manifest, value):
    """Child-process target: attach, write a marker, detach."""
    store = SharedParamStore.attach(manifest)
    try:
        array = store["w"]
        array[0, 0] = value
    finally:
        store.close()


def _child_read_cell(manifest, queue):
    """Child-process target: attach, report w[0, 0], detach."""
    store = SharedParamStore.attach(manifest)
    try:
        queue.put(float(store["w"][0, 0]))
    finally:
        store.close()


class TestSharedParamStore:
    def test_create_copies_and_roundtrips(self, rng):
        source = {"w": rng.normal(size=(4, 3)), "b": np.arange(5.0)}
        with SharedParamStore.create(source, prefix="test-store") as store:
            assert sorted(store.names()) == ["b", "w"]
            np.testing.assert_array_equal(store["w"], source["w"])
            np.testing.assert_array_equal(store["b"], source["b"])
            # The store holds a copy: mutating the source changes nothing.
            source["w"][0, 0] += 100.0
            assert store["w"][0, 0] != source["w"][0, 0]

    def test_attach_is_zero_copy(self, rng):
        with SharedParamStore.create({"w": rng.normal(size=(2, 2))}) as store:
            twin = SharedParamStore.attach(store.manifest())
            try:
                twin["w"][1, 1] = 42.0
                assert store["w"][1, 1] == 42.0
                store["w"][0, 0] = -7.0
                assert twin["w"][0, 0] == -7.0
            finally:
                twin.close()

    def test_manifest_is_json_safe(self, rng):
        import json

        with SharedParamStore.create({"w": rng.normal(size=(2, 2))}) as store:
            manifest = json.loads(json.dumps(store.manifest()))
            twin = SharedParamStore.attach(manifest)
            try:
                np.testing.assert_array_equal(twin["w"], store["w"])
            finally:
                twin.close()

    def test_close_invalidates_access_and_unlink_frees(self, rng):
        store = SharedParamStore.create({"w": rng.normal(size=(2, 2))})
        manifest = store.manifest()
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store["w"]
        store.unlink()
        with pytest.raises(FileNotFoundError):
            SharedParamStore.attach(manifest)
        # unlink is idempotent.
        store.unlink()

    def test_create_rejects_empty(self):
        with pytest.raises(ValueError):
            SharedParamStore.create({})

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_child_process_sees_and_mutates(self, start_method, rng):
        context = mp.get_context(start_method)
        with SharedParamStore.create({"w": np.zeros((2, 2))}) as store:
            writer = context.Process(
                target=_child_write_marker, args=(store.manifest(), 5.5)
            )
            writer.start()
            writer.join(30.0)
            assert writer.exitcode == 0
            assert store["w"][0, 0] == 5.5

            store["w"][0, 0] = 9.25
            queue = context.Queue()
            reader = context.Process(
                target=_child_read_cell, args=(store.manifest(), queue)
            )
            reader.start()
            seen = queue.get(timeout=30.0)
            reader.join(30.0)
            assert reader.exitcode == 0
            assert seen == 9.25

    def test_network_bind_unbind_roundtrip(self, tiny_network_config):
        network = SlideNetwork(tiny_network_config)
        optimizer = network.build_optimizer(TrainingConfig())
        before = [layer.weights.copy() for layer in network.layers]
        store = SharedParamStore.create(model_arrays(network, optimizer))
        try:
            bind_model_arrays(network, optimizer, store)
            # Bound arrays are the store's views: writes land in shared memory.
            network.layers[0].weights[0, 0] = 123.0
            assert store["layer0.weights"][0, 0] == 123.0
            # Optimiser state is bound too.
            m = optimizer.state_of("layer0.weights")["m"]
            assert m is store["optim.layer0.weights.m"]

            bind_model_arrays(
                network,
                optimizer,
                {name: store.copy_out(name) for name in store.names()},
            )
        finally:
            store.close()
            store.unlink()
        # Values survived the round trip (including the mutation) and the
        # arrays are private again — usable after unlink.
        assert network.layers[0].weights[0, 0] == 123.0
        network.layers[0].weights[0, 1] = -1.0
        np.testing.assert_array_equal(network.layers[1].weights, before[1])


    def test_store_holds_exactly_the_model_arrays(self, tiny_network_config):
        network = SlideNetwork(tiny_network_config)
        optimizer = network.build_optimizer(TrainingConfig())
        arrays = model_arrays(network, optimizer)
        # One name per live array: weights, biases and Adam m / v per layer.
        assert list(arrays) == [
            "layer0.weights",
            "layer0.biases",
            "layer1.weights",
            "layer1.biases",
            "optim.layer0.weights.m",
            "optim.layer0.weights.v",
            "optim.layer0.biases.m",
            "optim.layer0.biases.v",
            "optim.layer1.weights.m",
            "optim.layer1.weights.v",
            "optim.layer1.biases.m",
            "optim.layer1.biases.v",
        ]
        assert arrays["layer1.weights"] is network.layers[1].weights
        assert arrays["optim.layer1.biases.v"] is optimizer.state_of("layer1.biases")["v"]

    def test_bind_rejects_a_mis_shaped_or_missing_array_before_rebinding(
        self, tiny_network_config
    ):
        network = SlideNetwork(tiny_network_config)
        optimizer = network.build_optimizer(TrainingConfig())
        live = model_arrays(network, optimizer)
        copies = {name: array.copy() for name, array in live.items()}
        copies["layer1.biases"] = copies["layer1.biases"][:-1]
        with pytest.raises(ValueError, match=r"'layer1\.biases'.*shape"):
            bind_model_arrays(network, optimizer, copies)
        del copies["layer1.biases"]
        with pytest.raises(ValueError, match=r"no array named 'layer1\.biases'"):
            bind_model_arrays(network, optimizer, copies)
        # Nothing was rebound by either failed call.
        for name, array in model_arrays(network, optimizer).items():
            assert array is live[name], name

class TestProcessHogwildTrainer:
    def test_single_process_matches_fused_path_bitwise(
        self, tiny_dataset, tiny_network_config, tiny_training_config, tmp_path
    ):
        fused = SlideNetwork(tiny_network_config)
        SlideTrainer(fused, tiny_training_config, hogwild=False).train(
            tiny_dataset.train
        )
        inline = SlideNetwork(tiny_network_config)
        report = ProcessHogwildTrainer(
            inline, tiny_training_config, num_processes=1
        ).train(_sharded(tiny_dataset, tmp_path))
        assert report.num_processes == 1
        assert report.start_method == "inline"
        for fused_layer, inline_layer in zip(fused.layers, inline.layers):
            np.testing.assert_array_equal(fused_layer.weights, inline_layer.weights)
            np.testing.assert_array_equal(fused_layer.biases, inline_layer.biases)

    def test_two_process_run_trains_and_restores_private_arrays(
        self, tiny_dataset, tiny_network_config, tiny_training_config, tmp_path
    ):
        network = SlideNetwork(tiny_network_config)
        trainer = ProcessHogwildTrainer(
            network, tiny_training_config, num_processes=2
        )
        report = trainer.train(_sharded(tiny_dataset, tmp_path), tiny_dataset.test)

        assert report.num_processes == 2
        assert len(report.worker_stats) == 2
        # Every training example was consumed exactly once per epoch.
        expected = len(tiny_dataset.train) * tiny_training_config.epochs
        assert report.samples == expected
        # The run actually learned something and was evaluated by the parent.
        assert report.final_accuracy() > 0.1
        # Conflict counters saw the output layer, and the shared per-worker
        # update counters agree with the workers' own batch counts.
        assert report.conflict is not None
        assert report.conflict.neurons_updated > 0
        assert 0.0 <= report.conflict.contested_fraction <= 1.0
        assert report.supervision.lost_batches == 0
        # The adopted optimiser carries the *global* step count (the shared
        # moments saw one cycle per worker batch), so a checkpoint/resume
        # does not re-apply t=1 bias correction to mature moments.
        total_batches = sum(stats.batches for stats in report.worker_stats)
        assert trainer.optimizer is not None
        assert trainer.optimizer.step_count == total_batches
        # The shared segments are gone and the weights are private again.
        network.layers[0].weights[0, 0] += 1.0

    def test_sharded_dataset_workers_stream_disjoint_shards(
        self, tiny_dataset, tiny_network_config, tiny_training_config, tmp_path
    ):
        dataset = _sharded(tiny_dataset, tmp_path, seed=5)
        assert dataset.num_shards >= 2

        network = SlideNetwork(tiny_network_config)
        trainer = ProcessHogwildTrainer(
            network, tiny_training_config, num_processes=2
        )
        report = trainer.train(dataset, tiny_dataset.test)
        assert report.samples == len(dataset) * tiny_training_config.epochs

    def test_worker_failure_surfaces(
        self, tiny_dataset, tiny_network_config, tiny_training_config, tmp_path
    ):
        import shutil

        dataset = _sharded(tiny_dataset, tmp_path)
        network = SlideNetwork(tiny_network_config)
        trainer = ProcessHogwildTrainer(
            network, tiny_training_config, num_processes=2
        )
        # Pull the cache out from under the workers: every worker fails to
        # open its shards, and the parent must relay the error, not hang or
        # leave shared segments behind.
        shutil.rmtree(dataset.cache_dir)
        with pytest.raises(RuntimeError, match="worker"):
            trainer.train(dataset)
        # The network was restored to private arrays on the failure path.
        network.layers[0].weights[0, 0] += 1.0

    def test_mean_loss_is_the_loss_sum_over_the_batch_count(self):
        def report(*stats):
            return ProcessTrainingReport(2, "fork", 1.0, 0, list(stats), None)

        assert report(
            WorkerStats(0, batches=3, samples=48, loss_sum=6.0, rebuilds=0),
            WorkerStats(1, batches=1, samples=16, loss_sum=4.0, rebuilds=0),
        ).mean_loss() == 2.5
        assert report(WorkerStats(0, 0, 0, 0.0, 0)).mean_loss() == 0.0

    def test_validates_process_count(self, tiny_network_config, tiny_training_config):
        network = SlideNetwork(tiny_network_config)
        with pytest.raises(ValueError):
            ProcessHogwildTrainer(network, tiny_training_config, num_processes=0)
        with pytest.raises(ValueError):
            ProcessHogwildTrainer(network, tiny_training_config, num_processes=65)

    def test_rejects_an_example_list(
        self, tiny_dataset, tiny_network_config, tiny_training_config
    ):
        trainer = ProcessHogwildTrainer(
            SlideNetwork(tiny_network_config), tiny_training_config, num_processes=1
        )
        with pytest.raises(TypeError, match="repro.data.ingest_examples"):
            trainer.train(tiny_dataset.train)

    def test_rejects_fewer_shards_than_processes(
        self, tiny_dataset, tiny_network_config, tiny_training_config, tmp_path
    ):
        dataset = _sharded(tiny_dataset, tmp_path, shard_size=96)
        assert dataset.num_shards == 2
        trainer = ProcessHogwildTrainer(
            SlideNetwork(tiny_network_config), tiny_training_config, num_processes=3
        )
        with pytest.raises(ValueError, match="2 shard.*3 processes"):
            trainer.train(dataset)

    def test_slide_trainer_is_single_process(
        self, tiny_network_config, tiny_training_config
    ):
        with pytest.raises(TypeError, match="num_processes"):
            SlideTrainer(
                SlideNetwork(tiny_network_config), tiny_training_config, num_processes=2
            )


class TestShardAssignment:
    def test_assignment_is_disjoint_and_total(self, tiny_dataset, tmp_path):
        dataset = _sharded(tiny_dataset, tmp_path, shard_size=20)
        groups = dataset.assign_shards(3)
        flat = [index for group in groups for index in group]
        assert sorted(flat) == list(range(dataset.num_shards))

    def test_assignment_is_balanced(self, tiny_dataset, tmp_path):
        dataset = _sharded(tiny_dataset, tmp_path, shard_size=20)
        sizes = {
            index: dataset.manifest.shards[index].num_examples
            for index in range(dataset.num_shards)
        }
        groups = dataset.assign_shards(2)
        loads = [sum(sizes[i] for i in group) for group in groups]
        assert abs(loads[0] - loads[1]) <= max(sizes.values())

    def test_subset_validation(self, tiny_dataset, tmp_path):
        dataset = _sharded(tiny_dataset, tmp_path, shard_size=20)
        with pytest.raises(ValueError, match="out of range"):
            ShardedDataset(dataset.cache_dir, shard_subset=[dataset.num_shards])
        with pytest.raises(ValueError, match="repeats"):
            ShardedDataset(dataset.cache_dir, shard_subset=[0, 0])
