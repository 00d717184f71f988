"""The fault-tolerant training runtime: injection, supervision, resume.

Covers the deterministic fault-injection framework (specs fire at exact
``(worker, batch)`` coordinates, ``once`` semantics across restarts, torn
checkpoints and NaN-poisoned shared arrays), the supervised HOGWILD
runtime (SIGKILL mid-epoch → run completes with restarts and measured
recovery latency; hung worker → stale-heartbeat kill; restart budget
exhausted → remaining work reassigned to survivors), and checkpoint/resume
parity: a run resumed from a mid-epoch checkpoint reproduces the
uninterrupted run's loss trajectory bitwise, and a torn newest version
falls back to the previous intact one.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.config import FaultToleranceConfig, from_dict, to_dict
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.data.ingest import ingest_examples
from repro.data.shards import ShardedDataset
from repro.datasets.synthetic import delicious_like_config, generate_synthetic_xc
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    corrupt_shared_array,
    tear_checkpoint,
)
from repro.parallel.trainer import ProcessHogwildTrainer
from repro.reports import get_spec
from repro.state import (
    CheckpointError,
    CheckpointStore,
    save_checkpoint,
    verify_checkpoint,
)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _sharded(tiny_dataset, tmp_path, shard_size=24) -> ShardedDataset:
    cache = tmp_path / "shards"
    ingest_examples(
        tiny_dataset.train,
        feature_dim=tiny_dataset.config.feature_dim,
        label_dim=tiny_dataset.config.label_dim,
        cache_dir=cache,
        shard_size=shard_size,
    )
    return ShardedDataset(cache, seed=0)


# ----------------------------------------------------------------------
# Fault specs / plans / injector
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor", worker_id=0, at_batch=0)
        with pytest.raises(ValueError, match="worker_id"):
            FaultSpec(kind="kill", worker_id=-1, at_batch=0)
        with pytest.raises(ValueError, match="at_batch"):
            FaultSpec(kind="kill", worker_id=0, at_batch=-1)
        with pytest.raises(ValueError, match="duration_s"):
            FaultSpec(kind="hang", worker_id=0, at_batch=0, duration_s=-1.0)

    def test_plan_round_trips_through_dict(self):
        plan = FaultPlan.of(
            FaultSpec(kind="kill", worker_id=1, at_batch=3),
            FaultSpec(kind="hang", worker_id=0, at_batch=5, duration_s=2.0, once=False),
        )
        assert bool(plan)
        assert not bool(FaultPlan())
        restored = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert restored == plan
        assert restored.for_worker(1) == (plan.specs[0],)
        assert restored.for_worker(7) == ()
        # Strict like every other config: bool("false") used to read as True.
        spec = {**plan.specs[0].to_dict(), "once": "false"}
        with pytest.raises(ValueError, match=r"'specs\[0\]\.once'"):
            FaultPlan.from_dict({"specs": [spec]})

    def test_injector_fires_crash_at_exact_coordinate(self):
        injector = FaultInjector(
            specs=(FaultSpec(kind="crash", worker_id=0, at_batch=2),)
        )
        injector.on_batch()  # batch 0
        injector.on_batch()  # batch 1
        with pytest.raises(InjectedFault, match="at batch 2"):
            injector.on_batch()

    def test_once_faults_do_not_refire_after_restart(self):
        spec = FaultSpec(kind="crash", worker_id=0, at_batch=2, once=True)
        # The restarted incarnation replays through the same coordinates.
        injector = FaultInjector(specs=(spec,), incarnation=1, start_batch=0)
        for _ in range(6):
            injector.on_batch()  # never fires

    def test_repeating_fault_honours_start_batch_offset(self):
        spec = FaultSpec(kind="crash", worker_id=0, at_batch=3, once=False)
        # Restarted worker fast-forwarded past 2 batches: global batch
        # coordinates continue at 2, so the fault fires on its 2nd batch.
        injector = FaultInjector(specs=(spec,), incarnation=1, start_batch=2)
        injector.on_batch()  # global batch 2
        with pytest.raises(InjectedFault):
            injector.on_batch()  # global batch 3

    def test_from_payload_filters_by_worker_and_carries_start_batch(self):
        plan = FaultPlan.of(
            FaultSpec(kind="crash", worker_id=0, at_batch=0),
            FaultSpec(kind="crash", worker_id=1, at_batch=0),
        )
        payload = {"fault_plan": plan.to_dict(), "start_batch": 4}
        injector = FaultInjector.from_payload(payload, worker_id=1, incarnation=2)
        assert injector.specs == (plan.specs[1],)
        assert injector.start_batch == 4
        assert injector.incarnation == 2
        # No plan in the payload → inert injector.
        empty = FaultInjector.from_payload({}, worker_id=0, incarnation=0)
        assert empty.specs == ()
        empty.on_batch()

    def test_slow_fault_keeps_training(self):
        injector = FaultInjector(
            specs=(FaultSpec(kind="slow", worker_id=0, at_batch=0, duration_s=0.01),)
        )
        injector.on_batch()  # sleeps briefly, returns
        assert injector.batches_seen == 1


class TestFaultToleranceConfig:
    def test_validation_names_bad_fields(self):
        with pytest.raises(ValueError, match="heartbeat_timeout_s"):
            FaultToleranceConfig(heartbeat_timeout_s=-1.0)
        with pytest.raises(ValueError, match="poll_interval_s"):
            FaultToleranceConfig(poll_interval_s=0.0)
        with pytest.raises(ValueError, match="max_restarts"):
            FaultToleranceConfig(max_restarts=-1)
        with pytest.raises(ValueError, match="backoff_max_s"):
            FaultToleranceConfig(backoff_base_s=2.0, backoff_max_s=1.0)
        with pytest.raises(ValueError, match="checkpoint_keep_last"):
            FaultToleranceConfig(checkpoint_keep_last=0)

    def test_backoff_doubles_and_caps(self):
        config = FaultToleranceConfig(backoff_base_s=0.1, backoff_max_s=0.5)
        assert config.restart_backoff_s(1) == pytest.approx(0.1)
        assert config.restart_backoff_s(2) == pytest.approx(0.2)
        assert config.restart_backoff_s(3) == pytest.approx(0.4)
        assert config.restart_backoff_s(4) == pytest.approx(0.5)  # capped
        with pytest.raises(ValueError):
            config.restart_backoff_s(0)

    def test_dict_round_trip_is_strict(self):
        config = FaultToleranceConfig(max_restarts=5, checkpoint_every_batches=7)
        data = to_dict(config)
        assert from_dict(FaultToleranceConfig, data) == config
        with pytest.raises(ValueError, match="unknown fault tolerance"):
            from_dict(FaultToleranceConfig, {**data, "typo_field": 1})


# ----------------------------------------------------------------------
# Storage-level fault helpers
# ----------------------------------------------------------------------
class TestStorageFaults:
    def test_torn_checkpoint_fails_verification(
        self, tmp_path, tiny_network_config
    ):
        network = SlideNetwork(tiny_network_config)
        path = tmp_path / "ckpt"
        save_checkpoint(path, network)
        assert verify_checkpoint(path)  # intact before the tear
        tear_checkpoint(path)
        with pytest.raises(CheckpointError):
            verify_checkpoint(path)

    def test_store_falls_back_past_torn_newest(
        self, tmp_path, tiny_network_config
    ):
        network = SlideNetwork(tiny_network_config)
        store = CheckpointStore(tmp_path / "store")
        good = store.save(network)
        torn = store.save(network)
        tear_checkpoint(torn)
        assert store.latest().name == torn.name
        assert store.latest_valid().name == good.name

    def test_tear_requires_arrays(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            tear_checkpoint(tmp_path / "missing")

    def test_corrupt_shared_array_is_deterministic(self):
        first = np.zeros(100, dtype=np.float64)
        second = np.zeros(100, dtype=np.float64)
        count = corrupt_shared_array(first, fraction=0.25, seed=7)
        assert count == 25
        assert int(np.isnan(first).sum()) == 25
        corrupt_shared_array(second, fraction=0.25, seed=7)
        np.testing.assert_array_equal(np.isnan(first), np.isnan(second))
        with pytest.raises(ValueError):
            corrupt_shared_array(first, fraction=0.0)


# ----------------------------------------------------------------------
# Inline checkpoint / resume parity
# ----------------------------------------------------------------------
# Both runs must checkpoint on the same cadence: saving pre-rebuilds dirty
# LSH tables, which changes sampling for subsequent batches, so parity is a
# statement about two identically-checkpointed trajectories.
_INLINE_FT = FaultToleranceConfig(checkpoint_every_batches=5, checkpoint_keep_last=10)


class TestInlineResume:
    @pytest.fixture()
    def baseline(self, tmp_path, tiny_dataset, tiny_network_config, tiny_training_config):
        config = dataclasses.replace(tiny_training_config, epochs=2)
        network = SlideNetwork(tiny_network_config)
        trainer = SlideTrainer(
            network,
            config,
            hogwild=False,
            checkpoint_dir=tmp_path / "base",
            fault_tolerance=_INLINE_FT,
        )
        history = trainer.train(tiny_dataset.train)
        return {
            "config": config,
            "network": network,
            "store": CheckpointStore(tmp_path / "base"),
            "losses": history.losses(),
        }

    @staticmethod
    def _train_state(version):
        manifest = json.loads((version / "manifest.json").read_text())
        return manifest["metadata"]["train_state"]

    def test_mid_epoch_resume_matches_uninterrupted_losses_bitwise(
        self, tmp_path, tiny_dataset, tiny_network_config, baseline
    ):
        batches_per_epoch = -(-len(tiny_dataset.train) // baseline["config"].batch_size)
        # Pick a checkpoint strictly inside the second epoch — the hardest
        # resume point: mid-epoch, mid-shuffle, with optimizer momentum.
        chosen = None
        for version in baseline["store"].versions():
            state = self._train_state(version)
            if state["epoch"] == 1 and state["batches_done"] > 0:
                chosen = (version, state)
                break
        assert chosen is not None, "expected a mid-epoch checkpoint in epoch 1"
        version, state = chosen
        position = state["epoch"] * batches_per_epoch + state["batches_done"]

        resumed_network = SlideNetwork(tiny_network_config)
        resumed = SlideTrainer(
            resumed_network,
            baseline["config"],
            hogwild=False,
            checkpoint_dir=tmp_path / "resumed",
            fault_tolerance=_INLINE_FT,
        )
        history = resumed.train(tiny_dataset.train, resume=version)

        # The resumed run replays exactly the suffix of the baseline run.
        expected_suffix = baseline["losses"][position:]
        assert len(history.records) == len(expected_suffix)
        np.testing.assert_array_equal(history.losses(), expected_suffix)
        for base_layer, res_layer in zip(
            baseline["network"].layers, resumed_network.layers
        ):
            np.testing.assert_array_equal(base_layer.weights, res_layer.weights)
            np.testing.assert_array_equal(base_layer.biases, res_layer.biases)

    def test_resume_from_store_root_skips_torn_newest(
        self, tmp_path, tiny_dataset, tiny_network_config, baseline
    ):
        versions = baseline["store"].versions()
        assert len(versions) >= 2
        tear_checkpoint(versions[-1])
        fallback_state = self._train_state(versions[-2])
        batches_per_epoch = -(-len(tiny_dataset.train) // baseline["config"].batch_size)
        position = (
            fallback_state["epoch"] * batches_per_epoch
            + fallback_state["batches_done"]
        )

        resumed_network = SlideNetwork(tiny_network_config)
        resumed = SlideTrainer(
            resumed_network,
            baseline["config"],
            hogwild=False,
            checkpoint_dir=tmp_path / "resumed",
            fault_tolerance=_INLINE_FT,
        )
        # Resuming from the store ROOT routes through latest_valid(): the
        # torn newest version is skipped, not fatal.
        history = resumed.train(tiny_dataset.train, resume=baseline["store"].root)
        np.testing.assert_array_equal(
            history.losses(), baseline["losses"][position:]
        )
        for base_layer, res_layer in zip(
            baseline["network"].layers, resumed_network.layers
        ):
            np.testing.assert_array_equal(base_layer.weights, res_layer.weights)

    def test_resume_rejects_seed_mismatch(
        self, tmp_path, tiny_dataset, tiny_network_config, baseline
    ):
        other = SlideTrainer(
            SlideNetwork(tiny_network_config),
            dataclasses.replace(baseline["config"], seed=baseline["config"].seed + 1),
            hogwild=False,
        )
        with pytest.raises(CheckpointError, match="seed"):
            other.train(tiny_dataset.train, resume=baseline["store"].root)


# ----------------------------------------------------------------------
# Supervised multi-process runtime under injected faults
# ----------------------------------------------------------------------
_CHAOS_FT = FaultToleranceConfig(
    poll_interval_s=0.05,
    max_restarts=2,
    backoff_base_s=0.05,
    backoff_max_s=0.2,
)


class TestSupervisedChaos:
    def test_sigkilled_worker_is_restarted_and_run_completes(
        self, tiny_dataset, tiny_network_config, tiny_training_config, tmp_path
    ):
        network = SlideNetwork(tiny_network_config)
        trainer = ProcessHogwildTrainer(
            network,
            tiny_training_config,
            num_processes=2,
            fault_tolerance=_CHAOS_FT,
            # The survivor stalls for one maximal backoff at the kill point,
            # so the victim's item is still pending when its slot restarts.
            fault_plan=FaultPlan.of(
                FaultSpec(kind="kill", worker_id=1, at_batch=2),
                FaultSpec(
                    kind="slow",
                    worker_id=0,
                    at_batch=2,
                    duration_s=_CHAOS_FT.backoff_max_s,
                ),
            ),
        )
        report = trainer.train(_sharded(tiny_dataset, tmp_path), tiny_dataset.test)

        supervision = report.supervision
        assert supervision is not None
        assert supervision.restarts >= 1
        assert supervision.recovery_latency_s  # measured, per restart
        assert any(e.kind == "death" for e in supervision.events)
        assert any(e.kind == "restart" for e in supervision.events)
        # The two batches the victim trained before dying were stamped in
        # shared memory but never reported; the restarted incarnation
        # skipped past them.
        assert supervision.lost_batches == 2
        total_batches = -(-len(tiny_dataset.train) // tiny_training_config.batch_size)
        assert (
            sum(stats.batches for stats in report.worker_stats)
            + supervision.lost_batches
            == total_batches * tiny_training_config.epochs
        )
        # The run still trained and evaluated end-to-end.
        assert report.final_accuracy() > 0.1

    def test_hung_worker_is_detected_via_stale_heartbeat(
        self, tiny_dataset, tiny_network_config, tiny_training_config, tmp_path
    ):
        network = SlideNetwork(tiny_network_config)
        trainer = ProcessHogwildTrainer(
            network,
            tiny_training_config,
            num_processes=2,
            fault_tolerance=dataclasses.replace(_CHAOS_FT, heartbeat_timeout_s=0.5),
            # Hang far longer than the timeout, without heartbeating: only
            # staleness detection can catch this (the process stays alive).
            # The survivor stalls in steps shorter than the timeout, so it is
            # still busy when the hung slot restarts.
            fault_plan=FaultPlan.of(
                FaultSpec(kind="hang", worker_id=1, at_batch=1, duration_s=60.0),
                *(
                    FaultSpec(kind="slow", worker_id=0, at_batch=b, duration_s=0.25)
                    for b in range(1, 5)
                ),
            ),
        )
        report = trainer.train(_sharded(tiny_dataset, tmp_path))

        supervision = report.supervision
        assert supervision is not None
        hangs = [e for e in supervision.events if e.kind == "hang"]
        assert hangs and hangs[0].worker_id == 1
        assert supervision.restarts >= 1
        total_batches = -(-len(tiny_dataset.train) // tiny_training_config.batch_size)
        assert (
            sum(stats.batches for stats in report.worker_stats)
            + supervision.lost_batches
            == total_batches * tiny_training_config.epochs
        )

    def test_exhausted_restarts_reassign_work_to_survivors(
        self, tiny_dataset, tiny_network_config, tiny_training_config, tmp_path
    ):
        dataset = _sharded(tiny_dataset, tmp_path)
        network = SlideNetwork(tiny_network_config)
        trainer = ProcessHogwildTrainer(
            network,
            tiny_training_config,
            num_processes=2,
            # No restart budget: the first crash writes worker 1 off, so
            # its shard-group item MUST migrate to worker 0 (with a budget,
            # the survivor usually steals the item before the restart
            # anyway — that path is timing-dependent, this one is not).
            fault_tolerance=dataclasses.replace(_CHAOS_FT, max_restarts=0),
            fault_plan=FaultPlan.of(
                FaultSpec(kind="crash", worker_id=1, at_batch=0, once=False)
            ),
        )
        report = trainer.train(dataset)

        supervision = report.supervision
        assert supervision is not None
        kinds = [e.kind for e in supervision.events]
        assert "error" in kinds
        assert "gave_up" in kinds
        assert supervision.reassigned_items >= 1
        # Shard-group items are worker-independent: nothing is lost, the
        # survivor covers the whole dataset exactly once per epoch.
        assert supervision.lost_batches == 0
        assert report.samples == len(dataset) * tiny_training_config.epochs

    def test_silent_death_of_all_workers_names_exit_code(
        self, tiny_dataset, tiny_network_config, tiny_training_config, tmp_path
    ):
        network = SlideNetwork(tiny_network_config)
        trainer = ProcessHogwildTrainer(
            network,
            tiny_training_config,
            num_processes=2,
            fault_tolerance=dataclasses.replace(_CHAOS_FT, max_restarts=0),
            fault_plan=FaultPlan.of(
                FaultSpec(kind="kill", worker_id=0, at_batch=0, once=False),
                FaultSpec(kind="kill", worker_id=1, at_batch=0, once=False),
            ),
        )
        with pytest.raises(RuntimeError) as excinfo:
            trainer.train(_sharded(tiny_dataset, tmp_path))
        message = str(excinfo.value)
        # Satellite: a worker that dies without posting a result surfaces
        # immediately, naming the worker and the exit code.
        assert "exit code -9" in message
        assert "worker" in message
        # The failure path restored private arrays (no leaked segments).
        network.layers[0].weights[0, 0] += 1.0

    def test_mid_run_checkpoints_and_process_resume(
        self, tiny_dataset, tiny_network_config, tiny_training_config, tmp_path
    ):
        dataset = _sharded(tiny_dataset, tmp_path)
        config = dataclasses.replace(tiny_training_config, epochs=2)
        # A checkpoint on every supervisor pass: the whole run can finish
        # inside any coarser interval, which left nothing to resume from.
        ft = dataclasses.replace(_CHAOS_FT, checkpoint_every_s=1e-6)
        store_root = tmp_path / "ckpt"

        network = SlideNetwork(tiny_network_config)
        trainer = ProcessHogwildTrainer(
            network,
            config,
            num_processes=2,
            fault_tolerance=ft,
            checkpoint_dir=store_root,
        )
        report = trainer.train(dataset)
        supervision = report.supervision
        assert supervision is not None
        assert supervision.checkpoints_saved >= 1
        assert supervision.checkpoints_saved == len(
            [e for e in supervision.events if e.kind == "checkpoint"]
        )

        store = CheckpointStore(store_root)
        version = store.latest_valid()
        state = verify_checkpoint(version)["metadata"]["train_state"]
        assert state["mode"] == "process"
        assert state["kind"] == "shards"
        assert state["items"]

        # A fresh trainer resumes the remaining work items from the store
        # root and finishes the run.
        resumed_network = SlideNetwork(tiny_network_config)
        resumed = ProcessHogwildTrainer(
            resumed_network,
            config,
            num_processes=2,
            fault_tolerance=_CHAOS_FT,
        )
        resumed_report = resumed.train(dataset, resume=store_root)
        assert resumed.optimizer is not None
        total_batches = (
            -(-len(dataset) // config.batch_size) * config.epochs
        )
        # Snapshot + remainder covers the full run; at most one in-flight
        # batch per worker can be double-counted across the snapshot race.
        assert total_batches <= resumed.optimizer.step_count <= total_batches + 2
        assert resumed_report.supervision is not None

    def test_process_resume_rejects_config_mismatch(
        self, tiny_dataset, tiny_network_config, tiny_training_config, tmp_path
    ):
        dataset = _sharded(tiny_dataset, tmp_path)
        store_root = tmp_path / "ckpt"
        trainer = ProcessHogwildTrainer(
            SlideNetwork(tiny_network_config),
            tiny_training_config,
            num_processes=2,
            fault_tolerance=dataclasses.replace(_CHAOS_FT, checkpoint_every_s=1e-6),
            checkpoint_dir=store_root,
        )
        report = trainer.train(dataset)
        assert report.supervision.checkpoints_saved >= 1

        mismatched = ProcessHogwildTrainer(
            SlideNetwork(tiny_network_config),
            dataclasses.replace(tiny_training_config, batch_size=8),
            num_processes=2,
        )
        with pytest.raises(CheckpointError, match="batch_size"):
            mismatched.train(dataset, resume=store_root)

    def test_process_resume_rejects_a_checkpoint_without_shard_groups(
        self, tiny_dataset, tiny_network_config, tiny_training_config, tmp_path
    ):
        dataset = _sharded(tiny_dataset, tmp_path)
        store_root = tmp_path / "ckpt"
        trainer = ProcessHogwildTrainer(
            SlideNetwork(tiny_network_config),
            tiny_training_config,
            num_processes=2,
            fault_tolerance=dataclasses.replace(_CHAOS_FT, checkpoint_every_s=1e-6),
            checkpoint_dir=store_root,
        )
        assert trainer.train(dataset).supervision.checkpoints_saved >= 1

        # Work items index into the checkpoint's shard groups; without them
        # the items cannot be resolved, so the resume must refuse.
        version = CheckpointStore(store_root).latest_valid()
        manifest_path = version / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["metadata"]["train_state"]["groups"]
        manifest_path.write_text(json.dumps(manifest))
        resumed = ProcessHogwildTrainer(
            SlideNetwork(tiny_network_config), tiny_training_config, num_processes=2
        )
        with pytest.raises(CheckpointError, match="shard groups"):
            resumed.train(dataset, resume=version)


# ----------------------------------------------------------------------
# The fault_recovery bench's kill point
# ----------------------------------------------------------------------
def test_fault_recovery_smoke_kill_lands_inside_the_victims_first_item(tmp_path):
    # Only a slot's first work item is sure to be its own (later items go to
    # whichever slot is idle), so a kill batch at or past one item's batch
    # count may never fire: the run then records no death and no recovery.
    bench = get_spec("fault_recovery").load_module()
    scale, _ = bench.SMOKE_WORKLOAD
    batch_size = 32
    dataset = generate_synthetic_xc(delicious_like_config(scale=scale, seed=0))
    sharded = bench._ingest_shards(dataset, batch_size, str(tmp_path), seed=0)
    item_batches = [
        sum(1 for _ in ShardedDataset(tmp_path, shard_subset=group).iter_batches(batch_size))
        for group in sharded.assign_shards(bench.WORKERS)
    ]
    assert 1 <= bench._kill_at_batch(sharded, batch_size) < min(item_batches)
