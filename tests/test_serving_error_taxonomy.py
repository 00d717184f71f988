"""Regression tests for :class:`repro.serving.errors.NotServingError`.

The "not started / already closed" rejections used to be bare
``RuntimeError``\\ s, invisible to the serving metrics and HTTP mapping
(lint rule EXC001 flagged them).  They now share a taxonomy class; these
tests pin the class contract and every raise site, while confirming the
errors still satisfy the historical ``RuntimeError`` catch interface.
"""

from __future__ import annotations

import pytest

from repro.config import ServingConfig
from repro.core.network import SlideNetwork
from repro.serving import ReplicaRouter, ServingRuntime
from repro.serving.batching import MicroBatchQueue
from repro.serving.errors import NotServingError, ServingError
from repro.state import CheckpointStore


class TestNotServingErrorContract:
    def test_taxonomy_placement(self):
        error = NotServingError("runtime is not started")
        assert isinstance(error, ServingError)
        assert isinstance(error, RuntimeError)  # legacy catch sites keep working

    def test_http_status_and_cause(self):
        assert NotServingError.http_status == 503
        assert NotServingError.cause == "not_serving"

    def test_message_carries_detail(self):
        assert str(NotServingError("router is not started")) == (
            "not serving: router is not started"
        )


class TestRaiseSites:
    def test_closed_queue_submit(self, tiny_dataset):
        queue = MicroBatchQueue()
        queue.close()
        with pytest.raises(NotServingError, match="closed"):
            queue.submit(tiny_dataset.test[0])

    def test_unstarted_runtime_submit(self, tiny_dataset, tiny_network_config):
        runtime = ServingRuntime.from_network(
            SlideNetwork(tiny_network_config), ServingConfig(num_workers=1)
        )
        with pytest.raises(NotServingError, match="not started"):
            runtime.submit(tiny_dataset.test[0])

    def test_unstarted_router_submit_and_predict(
        self, tiny_dataset, tiny_network_config, tmp_path
    ):
        store = CheckpointStore(tmp_path / "store")
        store.save(SlideNetwork(tiny_network_config))
        router = ReplicaRouter(
            store, serving_config=ServingConfig(num_workers=1, max_wait_ms=0.5)
        )
        with pytest.raises(NotServingError, match="not started"):
            router.submit(tiny_dataset.test[0])
        with pytest.raises(NotServingError, match="not started"):
            router.predict(tiny_dataset.test[0])
