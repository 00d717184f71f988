"""Example: the online train-to-serve loop — hot reload and load shedding.

Where ``serve_model.py`` shows the one-shot hand-off (train, checkpoint,
serve), this example runs the *continuous* loop from
:mod:`repro.serving.runtime`:

1. train a small SLIDE network and publish v1 into a
   :class:`~repro.state.CheckpointStore`;
2. start an :class:`~repro.serving.runtime.OnlineRuntime` — a fixed-size
   worker pool with shed admission, per-request deadlines, and a
   :class:`~repro.serving.runtime.CheckpointWatcher` on the store;
3. drive sustained open-loop traffic while the trainer keeps training and
   publishing new versions (auto-pruned with ``keep_last``): each version
   is hot-swapped in place through the incremental LSH patch, with
   in-flight requests finishing on the old weights;
4. print what happened: per-swap blip / moved entries, traffic broken down
   by weight generation, shed counts, and the runtime stats snapshot.

Run with::

    PYTHONPATH=src python examples/online_serving.py
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

from repro.config import (
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    SamplingConfig,
    ServingConfig,
    SlideNetworkConfig,
    TrainingConfig,
)
from repro.core.inference import evaluate_precision_at_1
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.datasets.synthetic import delicious_like_config, generate_synthetic_xc
from repro.serving import OnlineRuntime, run_open_loop
from repro.state import CheckpointStore


def build_trainer():
    dataset = generate_synthetic_xc(delicious_like_config(scale=1.0 / 2048.0, seed=0))
    label_dim = dataset.config.label_dim
    print(f"dataset: {dataset.config.name} "
          f"({dataset.config.feature_dim} features, {label_dim} labels)")
    # bucket_size >= label_dim keeps hot swaps bitwise-faithful (no FIFO
    # bucket overflow, so incremental patches reproduce a cold load exactly).
    lsh = LSHConfig(hash_family="simhash", k=4, l=20, bucket_size=max(96, label_dim))
    layers = (
        LayerConfig(size=64, activation="relu", lsh=None),
        LayerConfig(
            size=label_dim,
            activation="softmax",
            lsh=lsh,
            sampling=SamplingConfig(
                strategy="vanilla", target_active=max(16, label_dim // 10)
            ),
        ),
    )
    network = SlideNetwork(
        SlideNetworkConfig(input_dim=dataset.config.feature_dim, layers=layers, seed=0)
    )
    trainer = SlideTrainer(
        network,
        TrainingConfig(batch_size=64, epochs=1, optimizer=OptimizerConfig(), seed=0),
    )
    return network, dataset, trainer


def main() -> None:
    network, dataset, trainer = build_trainer()
    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(Path(tmp) / "store")

        # v1: the starting model the server boots from.
        trainer.train(dataset.train)
        store.save(network, trainer.optimizer, keep_last=3)
        print(f"published v1: precision@1 = "
              f"{evaluate_precision_at_1(network, dataset.test):.3f}")

        config = ServingConfig(
            engine="sparse",
            active_budget=max(32, network.output_dim // 8),
            top_k=5,
            max_batch_size=16,
            max_wait_ms=1.0,
            num_workers=2,
            queue_capacity=256,        # overload -> typed 429, not latency collapse
            deadline_ms=250.0,         # stale queue entries dropped before compute
            reload_poll_s=0.2,         # watcher polls the store in the background
        )
        runtime = OnlineRuntime(store, config).start()
        print(f"\nserving {runtime.stats()['checkpoint_version']} "
              f"(engine={runtime.engine.name}, workers={config.num_workers})")
        try:
            # Client traffic and continued training run concurrently: the
            # watcher hot-swaps each published version into the live engine.
            result: list = []

            def client() -> None:
                result.append(
                    run_open_loop(
                        runtime, list(dataset.test), qps=300.0, duration_s=6.0, k=5
                    )
                )

            thread = threading.Thread(target=client, daemon=True)
            thread.start()
            for version in (2, 3):
                trainer.train(dataset.train)  # one more epoch
                path = store.save(network, trainer.optimizer, keep_last=3)
                print(f"published {path.name}: precision@1 = "
                      f"{evaluate_precision_at_1(network, dataset.test):.3f}")
            thread.join(timeout=60.0)
            report = result[0]

            print("\n--- hot swaps (incremental LSH patches) ---")
            for record in runtime.metrics.reload_records():
                print(f"{record['version']}: blip {record['duration_s'] * 1e3:.1f}ms, "
                      f"{record['changed_rows']} rows changed, "
                      f"{record['moved_entries']} table entries moved, "
                      f"full_rebuild={record['full_rebuild']}")

            print("\n--- client-observed traffic ---")
            print(f"completed {report.completed}/{report.sent} "
                  f"(errors {report.errors}, shed {report.shed_total})")
            for generation, count in sorted(report.generations.items()):
                print(f"  generation {generation}: {count} requests")
            latency = report.to_dict()["latency_ms"]
            print(f"latency ms: p50={latency['p50']:.2f} "
                  f"p99={latency['p99']:.2f} p999={latency['p999']:.2f}")

            stats = runtime.stats()
            print(f"\nruntime: version={stats['checkpoint_version']} "
                  f"reloads={stats['reloads']:.0f} "
                  f"shed_total={stats['shed_total']:.0f} "
                  f"generation={stats['generation']:.0f}")
        finally:
            runtime.stop()


if __name__ == "__main__":
    main()
