"""HTTP/JSON front-end: predict, health, stats, and error handling."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.config import ServingConfig
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.serving import ServingRuntime, build_server


@pytest.fixture(scope="module")
def http_server(tiny_dataset, request):
    """A live server over a briefly trained network, torn down after the module."""
    from repro.config import (
        LayerConfig,
        LSHConfig,
        OptimizerConfig,
        SamplingConfig,
        SlideNetworkConfig,
        TrainingConfig,
    )

    lsh = LSHConfig(hash_family="simhash", k=3, l=16, bucket_size=64)
    layers = (
        LayerConfig(size=32, activation="relu", lsh=None),
        LayerConfig(
            size=tiny_dataset.config.label_dim,
            activation="softmax",
            lsh=lsh,
            sampling=SamplingConfig(strategy="vanilla", target_active=12, min_active=8),
        ),
    )
    network = SlideNetwork(
        SlideNetworkConfig(
            input_dim=tiny_dataset.config.feature_dim, layers=layers, seed=3
        )
    )
    trainer = SlideTrainer(
        network,
        TrainingConfig(batch_size=16, epochs=1, optimizer=OptimizerConfig(), seed=11),
    )
    trainer.train(tiny_dataset.train[:96], tiny_dataset.test[:32])

    config = ServingConfig(num_workers=2, max_batch_size=8, max_wait_ms=1.0, top_k=3)
    runtime = ServingRuntime.from_network(network, config).start()
    server = build_server(runtime, port=0)  # port 0 = any free port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    host, port = server.address
    base = f"http://{host}:{port}"

    def teardown():
        server.shutdown()
        thread.join(timeout=5.0)

    request.addfinalizer(teardown)
    return base, tiny_dataset


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(url: str, payload: dict):
    data = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=30) as response:
        return response.status, json.loads(response.read())


def test_healthz(http_server):
    base, _ = http_server
    status, payload = _get(base + "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["workers"] == 2


def test_predict_endpoint(http_server):
    base, dataset = http_server
    example = dataset.test[0]
    status, payload = _post(
        base + "/v1/predict",
        {
            "indices": [int(i) for i in example.features.indices],
            "values": [float(v) for v in example.features.values],
            "k": 5,
        },
    )
    assert status == 200
    assert len(payload["class_ids"]) == 5
    assert len(payload["scores"]) == 5
    assert payload["mode"] in ("sparse", "dense_fallback")
    assert all(0 <= i < dataset.config.label_dim for i in payload["class_ids"])
    # Scores come back sorted descending.
    assert payload["scores"] == sorted(payload["scores"], reverse=True)


def test_stats_endpoint_populated_after_traffic(http_server):
    base, dataset = http_server
    for example in dataset.test[:10]:
        _post(
            base + "/v1/predict",
            {
                "indices": [int(i) for i in example.features.indices],
                "values": [float(v) for v in example.features.values],
            },
        )
    status, stats = _get(base + "/v1/stats")
    assert status == 200
    assert stats["requests"] >= 10
    assert stats["latency_ms"]["p50"] > 0
    assert stats["throughput_rps"] > 0
    assert stats["engine"] == "sparse"


def test_predict_rejects_malformed_body(http_server):
    base, _ = http_server
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(base + "/v1/predict", {"values": [1.0]})
    assert excinfo.value.code == 400


def test_predict_rejects_out_of_range_indices(http_server):
    base, dataset = http_server
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(
            base + "/v1/predict",
            {"indices": [dataset.config.feature_dim + 5], "values": [1.0]},
        )
    assert excinfo.value.code == 400


def test_predict_rejects_repeated_indices_before_the_engine(http_server):
    """A repeated index is summed by the sparse first layer and last-wins
    when densified: the boundary refuses it, naming the first one that
    repeats, and the runtime never sees the request."""
    base, _ = http_server
    _, before = _get(base + "/v1/stats")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(
            base + "/v1/predict",
            {"indices": [7, 2, 9, 2, 7], "values": [1.0, 2.0, 3.0, 4.0, 5.0]},
        )
    assert excinfo.value.code == 400
    error = json.loads(excinfo.value.read())["error"]
    assert "unique" in error and "2 is repeated" in error
    _, after = _get(base + "/v1/stats")
    assert after["requests"] == before["requests"]
    assert after["batches"] == before["batches"]


def test_predict_answers_a_valid_unsorted_body(http_server):
    base, dataset = http_server
    example = dataset.test[1]
    body = {
        "indices": [int(i) for i in example.features.indices],
        "values": [float(v) for v in example.features.values],
    }
    _, in_order = _post(base + "/v1/predict", body)
    status, reversed_order = _post(
        base + "/v1/predict",
        {"indices": body["indices"][::-1], "values": body["values"][::-1]},
    )
    assert status == 200
    assert reversed_order["class_ids"] == in_order["class_ids"]
    assert reversed_order["scores"] == pytest.approx(in_order["scores"])


@pytest.mark.parametrize(
    "body, field",
    [
        ({"indices": [1.9, 2], "values": [1.0, 1.0]}, "indices[0]"),
        ({"indices": [True, 2], "values": [1.0, 1.0]}, "indices[0]"),
        ({"indices": [2**70], "values": [1.0]}, "indices[0]"),
        ({"indices": [1, 2], "values": [1.0, 1.0], "k": 1.7}, "'k'"),
        ({"indices": [1, 2], "values": [1.0, 1.0], "k": True}, "'k'"),
        ({"indices": [1, 2], "values": ["1", "0.5"]}, "values[0]"),
        ({"indices": [1, 2], "values": [1.0, float("nan")]}, "values[1]"),
        ({"indices": [1, 2], "values": [float("inf"), 1.0]}, "values[0]"),
        ({"indices": [1, 2], "values": [1.0, -float("inf")]}, "values[1]"),
        ({"indices": [1, 2], "values": [1.0, 1e39]}, "values[1]"),
    ],
    ids=[
        "fractional-index",
        "bool-index",
        "index-past-int64",
        "fractional-k",
        "bool-k",
        "string-values",
        "nan-value",
        "infinite-value",
        "negative-infinite-value",
        "value-past-float32",
    ],
)
def test_predict_refuses_a_wrongly_typed_field_naming_it(http_server, body, field):
    """np.asarray would truncate, coerce or overflow each of these; the
    boundary answers 400 naming the field instead of serving a guess."""
    base, _ = http_server
    data = json.dumps(body).encode("utf-8")  # NaN / Infinity as Python emits them
    status, payload = _raw_post(base, str(len(data)), data)
    assert status == 400
    assert field in payload["error"]


_JUNK = [None, True, False, -1, 0, 1.5, 2**70, -(2**70), 10**400, "1", "", [], {},
         [1], float("nan"), float("inf"), 1e300]


def _mutations(body: dict, rng):
    """Yield ``(label, mutated body)`` pairs derived from a valid ``body``."""
    keys = list(body)
    while True:
        mutated = json.loads(json.dumps(body))
        kind = rng.integers(5)
        if kind == 0:  # one element of an array replaced by junk
            key = rng.choice(["indices", "values"])
            position = int(rng.integers(len(mutated[key])))
            junk = _JUNK[rng.integers(len(_JUNK))]
            mutated[key][position] = junk
            yield f"{key}[{position}]={junk!r}", mutated
        elif kind == 1:  # a whole field replaced by junk
            key = keys[rng.integers(len(keys))]
            junk = _JUNK[rng.integers(len(_JUNK))]
            mutated[key] = junk
            yield f"{key}={junk!r}", mutated
        elif kind == 2:  # a field dropped
            key = keys[rng.integers(len(keys))]
            del mutated[key]
            yield f"drop {key}", mutated
        elif kind == 3:  # an array shortened or emptied
            key = rng.choice(["indices", "values"])
            keep = int(rng.integers(len(mutated[key])))
            mutated[key] = mutated[key][:keep]
            yield f"{key}[:{keep}]", mutated
        else:  # an index pushed out of range or repeated
            position = int(rng.integers(len(mutated["indices"])))
            mutated["indices"][position] = int(
                rng.choice([-1, 10**6, mutated["indices"][0]])
            )
            yield f"indices[{position}]={mutated['indices'][position]}", mutated


def _strict_json(raw: bytes):
    def refuse(constant):
        raise ValueError(f"response carries {constant}, which is not JSON")

    return json.loads(raw, parse_constant=refuse)


def test_predict_body_mutation_sweep_never_500s(http_server):
    """Seeded mutations of a valid body are each answered 200 or 400, and
    every answer is strict JSON (no NaN / Infinity scores)."""
    import http.client

    base, dataset = http_server
    example = dataset.test[0]
    body = {
        "indices": [int(i) for i in example.features.indices],
        "values": [float(v) for v in example.features.values],
        "k": 3,
    }
    host, port = base.removeprefix("http://").split(":")
    rng = np.random.default_rng(2024)
    mutations = _mutations(body, rng)
    statuses = {}
    for _ in range(150):
        label, mutated = next(mutations)
        data = json.dumps(mutated).encode("utf-8")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.request("POST", "/v1/predict", body=data)
            response = conn.getresponse()
            status, payload = response.status, _strict_json(response.read())
        finally:
            conn.close()
        assert status in (200, 400), f"{label}: {status} {payload}"
        if status == 200:
            assert all(np.isfinite(payload["scores"])), label
        statuses[status] = statuses.get(status, 0) + 1
    # The sweep exercises both outcomes, not just one of them.
    assert statuses.get(200, 0) > 0 and statuses.get(400, 0) > 0


def test_unknown_path_404(http_server):
    base, _ = http_server
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(base + "/nope")
    assert excinfo.value.code == 404


# ----------------------------------------------------------------------
# Error paths: body limits, bad framing, concurrency with hot swaps
# ----------------------------------------------------------------------
def _raw_post(base: str, content_length: str, body: bytes = b""):
    """POST with full control over the Content-Length header."""
    import http.client

    host, port = base.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.putrequest("POST", "/v1/predict")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", content_length)
        conn.endheaders()
        if body:
            conn.send(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def test_predict_rejects_invalid_json_body(http_server):
    base, _ = http_server
    body = b"{definitely not json"
    status, payload = _raw_post(base, str(len(body)), body)
    assert status == 400
    assert "error" in payload


def test_predict_rejects_non_integer_content_length(http_server):
    base, _ = http_server
    status, payload = _raw_post(base, "banana")
    assert status == 400
    assert "Content-Length" in payload["error"]


def test_predict_rejects_negative_content_length(http_server):
    base, _ = http_server
    status, payload = _raw_post(base, "-5")
    assert status == 400
    assert "Content-Length" in payload["error"]


def test_predict_rejects_oversized_body_without_reading_it(http_server):
    base, _ = http_server
    # Declare 100 MiB; the server must answer 413 from the header alone —
    # no body is ever sent, so a hang here would mean it tried to read.
    status, payload = _raw_post(base, str(100 * 1024 * 1024))
    assert status == 413
    assert payload["cause"] == "body_too_large"


def test_max_body_bytes_is_configurable(tiny_dataset):
    from repro.serving import ServingRuntime as _Runtime

    network = _tiny_server_network(tiny_dataset)
    config = ServingConfig(num_workers=1, max_body_bytes=64)
    runtime = _Runtime.from_network(network, config).start()
    server = build_server(runtime, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.address
        base = f"http://{host}:{port}"
        status, payload = _raw_post(base, "65")
        assert status == 413
        body = b'{"indices": [1], "values": [1.0]}'
        assert len(body) <= 64
        status, _ = _raw_post(base, str(len(body)), body)
        assert status == 200
    finally:
        server.shutdown()
        thread.join(timeout=5.0)


def _tiny_server_network(tiny_dataset, seed: int = 3) -> SlideNetwork:
    from repro.config import LayerConfig, LSHConfig, SlideNetworkConfig

    lsh = LSHConfig(hash_family="simhash", k=3, l=8, bucket_size=64)
    layers = (
        LayerConfig(size=16, activation="relu", lsh=None),
        LayerConfig(size=tiny_dataset.config.label_dim, activation="softmax", lsh=lsh),
    )
    return SlideNetwork(
        SlideNetworkConfig(
            input_dim=tiny_dataset.config.feature_dim, layers=layers, seed=seed
        )
    )


def test_predict_succeeds_during_hot_swap(tiny_dataset):
    from repro.serving import ServingRuntime as _Runtime

    network = _tiny_server_network(tiny_dataset)
    runtime = _Runtime.from_network(network, ServingConfig(num_workers=2)).start()
    server = build_server(runtime, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.address
        base = f"http://{host}:{port}"
        example = tiny_dataset.test[0]
        payload = {
            "indices": [int(i) for i in example.features.indices],
            "values": [float(v) for v in example.features.values],
        }
        stop = threading.Event()

        def swap_loop():
            seed = 100
            while not stop.is_set():
                runtime.engine.hot_swap(
                    _tiny_server_network(tiny_dataset, seed=seed)
                )
                seed += 1

        swapper = threading.Thread(target=swap_loop, daemon=True)
        swapper.start()
        try:
            for _ in range(20):
                status, answer = _post(base + "/v1/predict", payload)
                assert status == 200
                assert answer["generation"] >= 0
        finally:
            stop.set()
            swapper.join(timeout=5.0)
    finally:
        server.shutdown()
        thread.join(timeout=5.0)


def test_readiness_endpoint_tracks_worker_pool(tiny_dataset, tmp_path, monkeypatch):
    from repro.serving import OnlineRuntime
    from repro.state import CheckpointStore

    store = CheckpointStore(tmp_path / "store")
    store.save(_tiny_server_network(tiny_dataset))
    runtime = OnlineRuntime(store, ServingConfig(num_workers=2)).start()
    server = build_server(runtime, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def crashed_next_batch(timeout=None):
        raise RuntimeError("worker crashed")

    try:
        host, port = server.address
        base = f"http://{host}:{port}"
        status, payload = _get(base + "/healthz/ready")
        assert status == 200
        assert payload["status"] == "ready"

        # Every worker crashes on its next poll of the queue.
        monkeypatch.setattr(runtime.queue, "next_batch", crashed_next_batch)
        deadline = _wait_deadline()
        while runtime.alive_workers() and time.monotonic() < deadline:
            time.sleep(0.01)
        # Liveness stays green — the process answers — while readiness
        # flips to 503 so a router or LB can drain this replica.
        status, payload = _get(base + "/healthz")
        assert status == 200
        assert payload["workers"] == 0
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/healthz/ready")
        assert excinfo.value.code == 503
        detail = json.loads(excinfo.value.read())
        assert detail["detail"] == "no alive workers"
    finally:
        monkeypatch.undo()
        # Shutdown stops the runtime, which re-raises the workers' crash.
        with pytest.raises(RuntimeError, match="worker crashed"):
            server.shutdown()
        thread.join(timeout=5.0)


def _wait_deadline(seconds: float = 5.0) -> float:
    return time.monotonic() + seconds
