"""Tests for the measured process-scaling driver behind Fig 9 and Table 2.

One micro-scale sweep (1 and 2 worker processes, one epoch of a few hundred
examples) is run once per module and shared; every assertion on it is about
structure and bookkeeping, never about timings, so the tests hold on any
core count.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import pytest

from repro.core.network import SlideNetwork
from repro.harness import scaling
from repro.harness.scaling import (
    ScalingRun,
    available_cores,
    build_scaling_network_config,
    measure_process_scaling,
)
from repro.reports import get_spec
from repro.reports.schema import check as schema_check

MICRO = {"process_counts": [2], "scale": 1 / 4096, "epochs": 1}


@pytest.fixture(scope="module")
def fig9_payload() -> dict:
    """fig9's ``run`` at micro scale; the 1-process baseline is implied."""
    return get_spec("fig9_scalability").load_module().run(dict(MICRO))


def test_available_cores_is_a_usable_positive_count():
    cores = available_cores()
    assert 1 <= cores <= (os.cpu_count() or cores)


class TestNetworkConfig:
    def test_hidden_layer_is_dense_and_output_layer_is_hashed(self):
        config = build_scaling_network_config(feature_dim=300, label_dim=120, seed=3)
        hidden, output = config.layers
        assert config.input_dim == 300 and config.seed == 3
        assert (hidden.size, hidden.activation, hidden.lsh) == (64, "relu", None)
        assert (output.size, output.activation) == (120, "softmax")
        assert output.lsh.hash_family == "simhash"
        assert output.lsh.bucket_size == 96

    @pytest.mark.parametrize(("label_dim", "target"), [(50, 16), (600, 50)])
    def test_output_sampling_target_has_a_floor_of_16(self, label_dim, target):
        output = build_scaling_network_config(100, label_dim, seed=0).layers[-1]
        assert output.sampling.target_active == target
        assert output.sampling.min_active == 16

    def test_config_builds_a_network_with_one_lsh_index(self):
        config = build_scaling_network_config(
            feature_dim=64, label_dim=40, seed=1, hidden_dim=12, bucket_size=16
        )
        network = SlideNetwork(config)
        assert [layer.lsh_index is not None for layer in network.layers] == [False, True]
        assert network.layers[0].weights.size == 64 * 12


def test_scaling_run_row_rounds_for_display():
    run = ScalingRun(
        processes=2,
        wall_time_s=1.23456,
        samples=100,
        samples_per_sec=81.2345,
        speedup_vs_1=1.87654,
        parallel_efficiency=0.93827,
        precision_at_1=0.123456,
        cpu_utilization=0.987654,
        mean_loss=2.345678,
        neurons_updated=10,
        neurons_contested=1,
        contested_fraction=0.123456,
        lsh_rebuilds=3,
    )
    assert run.as_row() == {
        "processes": 2,
        "wall_time_s": 1.235,
        "samples": 100,
        "samples_per_sec": 81.2,
        "speedup_vs_1": 1.877,
        "parallel_efficiency": 0.938,
        "precision_at_1": 0.1235,
        "cpu_utilization": 0.988,
        "mean_loss": 2.3457,
        "neurons_updated": 10,
        "neurons_contested": 1,
        "contested_fraction": 0.1235,
        "lsh_rebuilds": 3,
    }


@pytest.mark.parametrize("counts", [(), (0, 2)], ids=["empty", "non-positive"])
def test_measure_rejects_counts_without_a_positive_worker(counts):
    with pytest.raises(ValueError, match="positive count"):
        measure_process_scaling(process_counts=counts)


def test_caller_owned_cache_survives_and_own_cache_is_removed(tmp_path, monkeypatch):
    owned = tmp_path / "owned"
    measure_process_scaling(process_counts=(1,), scale=1 / 4096, epochs=1, cache_dir=str(owned))
    assert (owned / "manifest.json").is_file()

    temporary = tmp_path / "temporary"
    temporary.mkdir()
    monkeypatch.setattr(scaling.tempfile, "mkdtemp", lambda prefix: str(temporary))
    measure_process_scaling(process_counts=(1,), scale=1 / 4096, epochs=1)
    assert not temporary.exists()


class TestMicroSweep:
    def test_payload_validates_against_the_fig9_schema(self, fig9_payload):
        assert schema_check(fig9_payload, get_spec("fig9_scalability").schema) == []

    def test_a_single_process_baseline_is_always_measured(self, fig9_payload):
        rows = fig9_payload["measured"]["rows"]
        assert [row["processes"] for row in rows] == [1, 2]
        assert rows[0]["speedup_vs_1"] == 1.0
        assert rows[0]["neurons_contested"] == 0

    def test_efficiency_is_speedup_per_process(self, fig9_payload):
        for row in fig9_payload["measured"]["rows"]:
            assert row["parallel_efficiency"] == pytest.approx(
                row["speedup_vs_1"] / row["processes"], abs=2e-3
            )

    def test_every_run_trains_the_whole_epoch(self, fig9_payload):
        measured = fig9_payload["measured"]
        num_train = measured["workload"]["num_train"]
        assert {row["samples"] for row in measured["rows"]} == {num_train}

    def test_start_method_is_the_one_the_workers_used(self, fig9_payload):
        expected = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        assert fig9_payload["measured"]["start_method"] == expected

    def test_each_worker_gets_its_own_shards(self, fig9_payload):
        assert fig9_payload["measured"]["workload"]["num_shards"] >= 2

    def test_precision_gap_is_measured_against_the_baseline(self, fig9_payload):
        measured = fig9_payload["measured"]
        two = measured["rows"][1]["precision_at_1"]
        assert set(fig9_payload["precision_gap_vs_baseline"]) == {"2"}
        assert fig9_payload["precision_gap_vs_baseline"]["2"] == pytest.approx(
            abs(two - measured["baseline_precision_at_1"]), abs=1e-4
        )

    def test_summary_fields_follow_the_rows(self, fig9_payload):
        measured = fig9_payload["measured"]
        assert measured["available_cores"] == available_cores()
        assert measured["cores_limit_speedup"] == (measured["available_cores"] < 2)
        assert measured["max_measured_speedup"] == pytest.approx(
            max(row["speedup_vs_1"] for row in measured["rows"]), abs=1e-3
        )


def test_table2_payload_is_a_view_of_the_same_sweep():
    table2_spec = get_spec("table2_core_utilization")
    payload = table2_spec.load_module().run(dict(MICRO))
    assert schema_check(payload, table2_spec.schema) == []
    rows = payload["measured"]["rows"]
    assert [row["processes"] for row in rows] == [1, 2]
    assert set(rows[0]) == {
        "processes",
        "SLIDE_utilization_measured",
        "wall_time_s",
        "speedup_vs_1",
    }
    assert set(payload["paper_table2"]) == {"8", "16", "32"}
