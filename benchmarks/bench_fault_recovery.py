"""Fault-recovery bench — chaos scenarios for the training runtime, measured.

A training system's fault story is only as good as its measurements.  This
bench runs two chaos scenarios end-to-end against the synthetic XC workload
and records what recovery actually cost:

* **Worker kill** — a 2-process supervised HOGWILD run in which worker 1 is
  ``SIGKILL``-ed mid-epoch, and worker 0 stalls at the same batch, by a
  deterministic :class:`~repro.faults.FaultPlan`.  The supervisor must detect the death,
  restart the slot, and finish the run; the report records the measured
  recovery latency (death detection → replacement launch), the batches whose
  telemetry died with the victim, and the final precision@1 against an
  uninterrupted baseline of the same seed (must stay within
  ``PRECISION_TOLERANCE``).
* **Parent kill + resume** — the whole training process is ``SIGKILL``-ed
  mid-run (no cleanup, no atexit) while it writes periodic checkpoints.  A
  fresh process then resumes from the surviving store and must reproduce the
  uninterrupted run's loss trajectory *bitwise* from the restored batch
  onward — the strongest statement that nothing about the crash leaked into
  the resumed model.

``python -m repro.reports --run fault_recovery`` writes
``BENCH_fault_recovery.json``.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import shutil
import signal
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.config import FaultToleranceConfig, OptimizerConfig, TrainingConfig
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.data.ingest import ingest_examples
from repro.data.shards import ShardedDataset
from repro.datasets.synthetic import delicious_like_config, generate_synthetic_xc
from repro.faults import FaultPlan, FaultSpec
from repro.harness.report import format_table
from repro.harness.scaling import build_scaling_network_config
from repro.parallel.trainer import ProcessHogwildTrainer
from repro.reports.schema import BOOL, FRACTION, NAT, POS
from repro.reports.spec import BenchSpec, MetricGate
from repro.state import CheckpointStore

# The killed run loses at most a couple of batches of telemetry and retrains
# them after the restart; its converged precision must stay within a point of
# the uninterrupted baseline (the smoke config's tiny eval set gets the same
# looser bar the other process benches use).
PRECISION_TOLERANCE = 0.01
SMOKE_PRECISION_TOLERANCE = 0.05

# Inline checkpoint cadence for the parent-kill scenario.  Both the baseline
# and the victim run checkpoint on this cadence: saving canonicalises dirty
# LSH tables, so trajectory parity is defined over identically-checkpointed
# runs.
CHECKPOINT_EVERY_BATCHES = 5
_INLINE_FT = FaultToleranceConfig(
    checkpoint_every_batches=CHECKPOINT_EVERY_BATCHES, checkpoint_keep_last=8
)

# Worker processes of the supervised worker-kill run; worker 1 is the victim.
WORKERS = 2
# ``(scale, epochs)`` of the smoke and full workloads.
SMOKE_WORKLOAD = (1.0 / 2048.0, 2)
FULL_WORKLOAD = (1.0 / 512.0, 3)

SPEC = BenchSpec(
    bench_id="fault_recovery",
    title="Chaos training: worker SIGKILL recovery + mid-run checkpoint resume",
    paper_anchor="beyond-paper (fault tolerance)",
    schema={
        "type": "object",
        "required": ["worker_kill", "parent_kill_resume"],
        "properties": {
            "worker_kill": {
                "type": "object",
                "required": ["baseline", "killed", "precision_gap"],
                "properties": {
                    "baseline": {
                        "type": "object",
                        "required": ["precision_at_1"],
                        "properties": {"precision_at_1": FRACTION},
                    },
                    "killed": {
                        "type": "object",
                        "required": ["precision_at_1", "restarts", "mean_recovery_latency_s"],
                        "properties": {
                            "precision_at_1": FRACTION,
                            "restarts": NAT,
                            "lost_batches": NAT,
                            "mean_recovery_latency_s": POS,
                        },
                    },
                    "precision_gap": POS,
                },
            },
            "parent_kill_resume": {
                "type": "object",
                "required": [
                    "killed_mid_run",
                    "loss_trajectory_matches",
                    "final_weights_match",
                    "recovery_wall_s",
                ],
                "properties": {
                    "killed_mid_run": BOOL,
                    "loss_trajectory_matches": BOOL,
                    "final_weights_match": BOOL,
                    "recovery_wall_s": POS,
                    "max_loss_divergence": POS,
                },
            },
        },
    },
    smoke_params={"smoke": True},
    full_params={"smoke": False},
    measured=True,
    gates=(
        MetricGate(
            "worker_kill.killed.mean_recovery_latency_s", "lower", rel_tol=2.0, abs_tol=0.1
        ),
        MetricGate("worker_kill.precision_gap", "lower", rel_tol=1.0, abs_tol=0.04),
        MetricGate("parent_kill_resume.recovery_wall_s", "lower", rel_tol=2.0, abs_tol=0.3),
    ),
    timeout_s=240.0,
)


def _training_config(batch_size: int, epochs: int, seed: int) -> TrainingConfig:
    return TrainingConfig(
        batch_size=batch_size,
        epochs=epochs,
        optimizer=OptimizerConfig(name="adam", learning_rate=1e-3),
        seed=seed,
    )


# ----------------------------------------------------------------------
# Scenario 1: SIGKILL a worker mid-epoch, supervised run completes
# ----------------------------------------------------------------------
def _ingest_shards(dataset, batch_size: int, cache: str, seed: int) -> ShardedDataset:
    """The worker-kill run's training set as about eight mmap CSR shards."""
    ingest_examples(
        dataset.train,
        feature_dim=dataset.config.feature_dim,
        label_dim=dataset.config.label_dim,
        cache_dir=cache,
        shard_size=max(batch_size, len(dataset.train) // 8 or 1),
        source=dataset.config.name,
    )
    return ShardedDataset(cache, seed=seed)


def _kill_at_batch(sharded: ShardedDataset, batch_size: int) -> int:
    """The victim's kill point: halfway through its first work item.

    Each work item is one epoch of one shard group, and the supervisor hands
    every slot an item at launch but later items to whichever slot is idle,
    so only the victim's first item is sure to be its own.  Killing inside
    the smallest group's item makes the fault fire on every run.
    """
    item_batches = min(
        -(-sum(sharded.manifest.shards[s].num_examples for s in group) // batch_size)
        for group in sharded.assign_shards(WORKERS)
    )
    return max(1, item_batches // 2)


def _worker_kill_scenario(
    scale: float, epochs: int, batch_size: int, seed: int
) -> dict[str, object]:
    dataset = generate_synthetic_xc(delicious_like_config(scale=scale, seed=seed))
    training = _training_config(batch_size, epochs, seed)
    network_config = build_scaling_network_config(
        dataset.config.feature_dim, dataset.config.label_dim, seed
    )
    cache = tempfile.mkdtemp(prefix="fault-bench-shards-")
    try:
        sharded = _ingest_shards(dataset, batch_size, cache, seed)
        total_batches = -(-len(dataset.train) // batch_size) * epochs
        kill_at_batch = _kill_at_batch(sharded, batch_size)
        supervision_config = FaultToleranceConfig(
            poll_interval_s=0.05,
            max_restarts=2,
            backoff_base_s=0.05,
            backoff_max_s=0.5,
        )

        def train(fault_plan):
            network = SlideNetwork(network_config)
            trainer = ProcessHogwildTrainer(
                network,
                training,
                num_processes=WORKERS,
                fault_tolerance=supervision_config,
                fault_plan=fault_plan,
            )
            return trainer.train(sharded, dataset.test)

        baseline = train(None)
        # The survivor stalls at the kill point for one maximal backoff, so
        # the victim's requeued item is still pending when the slot is
        # relaunched; otherwise the survivor can finish it first, the run
        # ends before the restart fires, and no recovery is measured.
        chaos = train(
            FaultPlan.of(
                FaultSpec(kind="kill", worker_id=1, at_batch=kill_at_batch),
                FaultSpec(
                    kind="slow",
                    worker_id=0,
                    at_batch=kill_at_batch,
                    duration_s=supervision_config.backoff_max_s,
                ),
            )
        )
    finally:
        shutil.rmtree(cache, ignore_errors=True)

    supervision = chaos.supervision
    latencies = supervision.recovery_latency_s if supervision else []
    return {
        "workload": {
            "dataset": dataset.config.name,
            "num_train": len(dataset.train),
            "num_test": len(dataset.test),
            "batch_size": batch_size,
            "epochs": epochs,
            "total_batches": total_batches,
            "seed": seed,
        },
        "kill_at_worker_batch": kill_at_batch,
        "baseline": {
            "wall_time_s": round(baseline.wall_time_s, 3),
            "samples": baseline.samples,
            "precision_at_1": round(baseline.final_accuracy() or 0.0, 4),
        },
        "killed": {
            "wall_time_s": round(chaos.wall_time_s, 3),
            "samples": chaos.samples,
            "precision_at_1": round(chaos.final_accuracy() or 0.0, 4),
            "restarts": supervision.restarts if supervision else 0,
            "lost_batches": supervision.lost_batches if supervision else 0,
            "reassigned_items": supervision.reassigned_items if supervision else 0,
            "failure_events": [
                {"kind": e.kind, "worker": e.worker_id, "detail": e.detail}
                for e in (supervision.failures if supervision else [])
            ],
            "recovery_latency_s": [round(v, 4) for v in latencies],
            "mean_recovery_latency_s": round(
                float(np.mean(latencies)), 4
            ) if latencies else None,
        },
        "precision_gap": round(
            abs(
                (chaos.final_accuracy() or 0.0)
                - (baseline.final_accuracy() or 0.0)
            ),
            4,
        ),
    }


# ----------------------------------------------------------------------
# Scenario 2: SIGKILL the whole training process, resume from checkpoints
# ----------------------------------------------------------------------
def _parent_kill_victim(network_config, training, examples, store_dir) -> None:
    """Child-process body: train inline with periodic checkpoints until
    killed from outside (or until completion, if the killer is too slow)."""
    trainer = SlideTrainer(
        SlideNetwork(network_config),
        training,
        hogwild=False,
        checkpoint_dir=store_dir,
        fault_tolerance=_INLINE_FT,
    )
    trainer.train(examples)


def _parent_kill_scenario(
    scale: float, epochs: int, batch_size: int, seed: int
) -> dict[str, object]:
    dataset = generate_synthetic_xc(delicious_like_config(scale=scale, seed=seed))
    training = _training_config(batch_size, epochs, seed)
    network_config = build_scaling_network_config(
        dataset.config.feature_dim, dataset.config.label_dim, seed
    )
    batches_per_epoch = -(-len(dataset.train) // batch_size)
    total_batches = batches_per_epoch * epochs

    work_root = Path(tempfile.mkdtemp(prefix="fault-bench-resume-"))
    try:
        # Uninterrupted baseline, checkpointing on the same cadence.
        baseline_network = SlideNetwork(network_config)
        baseline = SlideTrainer(
            baseline_network,
            training,
            hogwild=False,
            checkpoint_dir=work_root / "baseline",
            fault_tolerance=_INLINE_FT,
        )
        baseline_losses = baseline.train(dataset.train).losses()

        # The victim: same run in a child process, SIGKILL-ed (no cleanup,
        # no flush) as soon as its first mid-run checkpoint lands.
        store_dir = work_root / "victim"
        context = mp.get_context("fork")
        victim = context.Process(
            target=_parent_kill_victim,
            args=(network_config, training, dataset.train, store_dir),
            daemon=True,
        )
        victim.start()
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and victim.is_alive():
            try:
                if CheckpointStore(store_dir).versions():
                    break
            except OSError:  # pragma: no cover - store mid-mkdir
                pass
            time.sleep(0.002)
        killed_mid_run = victim.is_alive()
        if killed_mid_run:
            os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30.0)

        # Resume in a fresh "process": new network, new trainer, the same
        # checkpoint cadence, restored from the survivor store's newest
        # intact version.
        store = CheckpointStore(store_dir)
        resume_version = store.latest_valid()
        manifest = json.loads((resume_version / "manifest.json").read_text())
        state = manifest["metadata"]["train_state"]
        position = int(state["epoch"]) * batches_per_epoch + int(
            state["batches_done"]
        )

        resumed_network = SlideNetwork(network_config)
        resumed = SlideTrainer(
            resumed_network,
            training,
            hogwild=False,
            checkpoint_dir=work_root / "resumed",
            fault_tolerance=_INLINE_FT,
        )
        recovery_start = time.monotonic()
        resumed_losses = resumed.train(dataset.train, resume=store_dir).losses()
        recovery_wall_s = time.monotonic() - recovery_start
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    expected_suffix = baseline_losses[position:]
    trajectory_matches = bool(
        len(resumed_losses) == len(expected_suffix)
        and np.array_equal(resumed_losses, expected_suffix)
    )
    max_loss_divergence = (
        float(np.max(np.abs(resumed_losses - expected_suffix)))
        if len(resumed_losses) == len(expected_suffix) and len(expected_suffix)
        else None
    )
    weights_match = all(
        np.array_equal(base_layer.weights, res_layer.weights)
        and np.array_equal(base_layer.biases, res_layer.biases)
        for base_layer, res_layer in zip(
            baseline_network.layers, resumed_network.layers
        )
    )
    return {
        "workload": {
            "dataset": dataset.config.name,
            "num_train": len(dataset.train),
            "batch_size": batch_size,
            "epochs": epochs,
            "total_batches": total_batches,
            "checkpoint_every_batches": CHECKPOINT_EVERY_BATCHES,
            "seed": seed,
        },
        "killed_mid_run": killed_mid_run,
        "victim_exit_code": victim.exitcode,
        "resume_position_batches": position,
        "retrained_batches": len(resumed_losses),
        "recovery_wall_s": round(recovery_wall_s, 3),
        "loss_trajectory_matches": trajectory_matches,
        "max_loss_divergence": max_loss_divergence,
        "final_weights_match": weights_match,
    }


# ----------------------------------------------------------------------
# Registry entry points
# ----------------------------------------------------------------------
def run(params: dict | None = None) -> dict:
    """Both chaos scenarios, end to end."""
    p = dict(params or {})
    scale, epochs = SMOKE_WORKLOAD if p.get("smoke", False) else FULL_WORKLOAD
    scale = float(p.get("scale", scale))
    epochs = int(p.get("epochs", epochs))
    batch_size = int(p.get("batch_size", 32))
    seed = int(p.get("seed", 0))
    return {
        "worker_kill": _worker_kill_scenario(scale, epochs, batch_size, seed),
        "parent_kill_resume": _parent_kill_scenario(scale, epochs, batch_size, seed),
    }


def check(payload: dict, smoke: bool) -> list[str]:
    """Both chaos scenarios recovered within the precision/parity bars."""
    precision_tolerance = SMOKE_PRECISION_TOLERANCE if smoke else PRECISION_TOLERANCE
    failures: list[str] = []
    kill = payload["worker_kill"]
    if kill["killed"]["restarts"] < 1:
        failures.append("worker-kill run recorded no restart")
    if not kill["killed"]["recovery_latency_s"]:
        failures.append("worker-kill run recorded no recovery latency")
    if kill["killed"]["samples"] <= 0:
        failures.append("worker-kill run trained no samples")
    if float(kill["precision_gap"]) > precision_tolerance:
        failures.append(
            f"killed-run precision@1 deviates {kill['precision_gap']} from the "
            f"uninterrupted baseline (tolerance {precision_tolerance})"
        )
    resume = payload["parent_kill_resume"]
    if not resume["loss_trajectory_matches"]:
        failures.append(
            "resumed run diverged from the uninterrupted loss trajectory "
            f"(max divergence {resume['max_loss_divergence']})"
        )
    if not resume["final_weights_match"]:
        failures.append("resumed final weights differ from the baseline's")
    if resume["killed_mid_run"] and resume["retrained_batches"] <= 0:
        failures.append("mid-run kill left no batches to retrain — bad cadence?")
    return failures


def print_report(payload: dict) -> None:
    kill = payload["worker_kill"]
    resume = payload["parent_kill_resume"]
    summary = [
        {
            "scenario": "worker SIGKILL",
            "completed": True,
            "restarts": kill["killed"]["restarts"],
            "lost_batches": kill["killed"]["lost_batches"],
            "recovery_s": kill["killed"]["mean_recovery_latency_s"],
            "precision_gap": kill["precision_gap"],
        },
        {
            "scenario": "parent SIGKILL + resume",
            "completed": bool(resume["loss_trajectory_matches"]),
            "restarts": 1 if resume["killed_mid_run"] else 0,
            "lost_batches": resume["retrained_batches"],
            "recovery_s": resume["recovery_wall_s"],
            "precision_gap": 0.0 if resume["final_weights_match"] else None,
        },
    ]
    print(format_table(summary, title="Fault recovery"))
    print(
        f"worker kill: {kill['killed']['restarts']} restart(s), mean recovery "
        f"{kill['killed']['mean_recovery_latency_s']}s, precision gap "
        f"{kill['precision_gap']}"
    )
    print(
        f"parent kill: resumed at batch {resume['resume_position_batches']}/"
        f"{resume['workload']['total_batches']}, trajectory match: "
        f"{resume['loss_trajectory_matches']}"
    )
