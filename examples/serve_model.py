"""Example: train a SLIDE network, checkpoint it, and serve it.

Walks the full production loop the :mod:`repro.serving` subsystem enables:

1. train a small SLIDE network on synthetic extreme-classification data;
2. write a versioned checkpoint (weights + optimiser + LSH tables);
3. load the checkpoint into an LSH-accelerated sparse inference engine;
4. serve a burst of requests through the micro-batching queue and a
   multi-worker engine pool, then print latency/throughput metrics;
5. (optionally, with ``--http``) expose the model over HTTP/JSON — the same
   runtime `python -m repro.serving <checkpoint>` would start.

Run with::

    PYTHONPATH=src python examples/serve_model.py [--http]
"""

from __future__ import annotations

import argparse
import json
import tempfile
import urllib.request
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
from repro.serving import ServingRuntime, build_engine, build_server
from repro.state import CheckpointStore


def train_and_checkpoint(root: Path):
    dataset = generate_synthetic_xc(delicious_like_config(scale=1.0 / 2048.0, seed=0))
    label_dim = dataset.config.label_dim
    print(f"dataset: {dataset.config.name} "
          f"({dataset.config.feature_dim} features, {label_dim} labels)")

    lsh = LSHConfig(hash_family="simhash", k=4, l=20, bucket_size=96)
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
        TrainingConfig(batch_size=64, epochs=2, optimizer=OptimizerConfig(), seed=0),
    )
    trainer.train(dataset.train, dataset.test)
    print(f"trained: precision@1 = {evaluate_precision_at_1(network, dataset.test):.3f}")

    store = CheckpointStore(root)
    path = store.save(network, trainer.optimizer, metadata={"example": "serve_model"})
    print(f"checkpointed to {path}")
    return store, dataset


def serve_burst(store: CheckpointStore, dataset) -> None:
    network = SlideNetwork.from_checkpoint(store.latest())
    config = ServingConfig(
        engine="sparse",
        active_budget=max(32, network.output_dim // 8),
        top_k=5,
        max_batch_size=32,
        max_wait_ms=2.0,
        num_workers=4,
    )
    with ServingRuntime.from_network(network, config) as runtime:
        print(f"\nserving with engine={runtime.engine.name}, "
              f"workers={config.num_workers}, budget={config.active_budget}")
        predictions = runtime.predict_many(dataset.test * 2, k=5)
        stats = runtime.stats()

    print(f"served {len(predictions)} requests")
    latency = stats["latency_ms"]
    print(f"latency ms: p50={latency['p50']:.2f} p95={latency['p95']:.2f} "
          f"p99={latency['p99']:.2f}")
    print(f"throughput: {stats['throughput_rps']:.0f} req/s, "
          f"mean batch {stats['mean_batch_size']:.1f}, modes {stats['modes']}")


def serve_http(store: CheckpointStore, dataset) -> None:
    import threading

    network = SlideNetwork.from_checkpoint(store.latest())
    config = ServingConfig(num_workers=2, top_k=5)
    runtime = ServingRuntime(build_engine(network, config), config).start()
    server = build_server(runtime, port=0)
    host, port = server.address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"\nHTTP server on http://{host}:{port}")

    example = dataset.test[0]
    body = json.dumps(
        {
            "indices": [int(i) for i in example.features.indices],
            "values": [float(v) for v in example.features.values],
            "k": 5,
        }
    ).encode()
    request = urllib.request.Request(
        f"http://{host}:{port}/v1/predict",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        print("POST /v1/predict ->", json.loads(response.read()))
    with urllib.request.urlopen(f"http://{host}:{port}/healthz", timeout=10) as response:
        print("GET /healthz ->", json.loads(response.read()))
    server.shutdown()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--http", action="store_true", help="also demo the HTTP front-end"
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        store, dataset = train_and_checkpoint(Path(tmp) / "checkpoints")
        serve_burst(store, dataset)
        if args.http:
            serve_http(store, dataset)


if __name__ == "__main__":
    main()
