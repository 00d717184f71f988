"""Tests for the report renderer, experiment machinery and figure/table drivers.

These use the smallest possible synthetic scales so the whole module runs in
a few tens of seconds; ``python -m repro.reports`` exercises the same bench
files at a more meaningful scale.  Each figure and table lives in its
``benchmarks/bench_<id>.py``: drivers that take an ``ExperimentConfig`` are
called directly at micro scale, the rest through ``run`` — and where that
builds a payload whose invariants hold at micro scale (fig4's is a timing
ordering, table1's needs a non-degenerate feature dimension) the bench's own
``check`` supplies them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticXCConfig
from repro.harness.experiment import (
    AMAZON_PAPER_DIMS,
    DELICIOUS_PAPER_DIMS,
    ExperimentConfig,
    HeadToHeadExperiment,
    project_run_to_paper_scale,
    small_experiment_config,
)
from repro.harness.report import format_comparison, format_series, format_table
from repro.perf.devices import SLIDE_CPU_PROFILE
from repro.perf.simulator import WallClockSimulator
from repro.reports import get_spec


def bench(bench_id: str):
    """The ``benchmarks/bench_<bench_id>.py`` module."""
    return get_spec(bench_id).load_module()


@pytest.fixture(scope="module")
def micro_config() -> ExperimentConfig:
    """A micro-scale experiment used by every driver test in this module."""
    dataset = SyntheticXCConfig(
        feature_dim=192,
        label_dim=48,
        num_train=96,
        num_test=48,
        avg_features_per_example=16,
        avg_labels_per_example=2.0,
        prototype_nnz=10,
        seed=5,
        name="micro",
    )
    return ExperimentConfig(
        dataset=dataset,
        hidden_dim=24,
        batch_size=16,
        epochs=1,
        eval_every=2,
        eval_samples=48,
        k=3,
        l=10,
        bucket_size=32,
        target_active_fraction=0.2,
        seed=5,
    )


class TestReport:
    def test_format_table_alignment_and_content(self):
        rows = [
            {"name": "a", "value": 1.0},
            {"name": "bbbb", "value": 123456.789},
        ]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "name" in text and "value" in text
        assert "bbbb" in text
        assert len(text.splitlines()) == 5

    def test_format_table_empty(self):
        assert "(empty)" in format_table([], title="nothing")

    def test_format_series_downsamples(self):
        xs = np.arange(100)
        ys = np.linspace(0, 1, 100)
        text = format_series("t", "acc", {"run": (xs, ys)}, max_points=5)
        assert text.count("(") == 5

    def test_format_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("x", "y", {"bad": ([1, 2], [1])})

    def test_format_comparison(self):
        line = format_comparison(2.7, 2.1, "speedup", unit="x")
        assert "paper=2.7" in line and "measured=2.1" in line


class TestExperimentMachinery:
    def test_small_experiment_config_presets(self):
        delicious = small_experiment_config("delicious", scale=1 / 4096)
        amazon = small_experiment_config("amazon", scale=1 / 8192)
        assert delicious.hash_family == "simhash"
        assert amazon.hash_family == "dwta"
        with pytest.raises(ValueError):
            small_experiment_config("imagenet")

    def test_head_to_head_runs_and_projection(self, micro_config):
        experiment = HeadToHeadExperiment(micro_config)
        slide_run = experiment.run_slide()
        dense_run = experiment.run_dense()

        assert slide_run.accuracies.shape == slide_run.iterations.shape
        assert len(slide_run.per_iteration_work) == len(slide_run.iterations)
        assert 0 < slide_run.avg_active_output < micro_config.dataset.label_dim
        assert dense_run.avg_active_output == micro_config.dataset.label_dim

        # SLIDE's measured work must be smaller than the dense baseline's.
        assert (
            slide_run.per_iteration_work[0].total_macs
            < dense_run.per_iteration_work[0].total_macs
        )

        projected = project_run_to_paper_scale(slide_run, DELICIOUS_PAPER_DIMS)
        np.testing.assert_array_equal(projected.accuracies, slide_run.accuracies)
        assert projected.per_iteration_work[0].total_macs > slide_run.per_iteration_work[0].total_macs
        assert projected.avg_active_output == DELICIOUS_PAPER_DIMS.avg_active_output

        sims = experiment.simulate_standard_devices(slide_run, dense_run, cores=44)
        assert set(sims) == {"SLIDE CPU", "TF-GPU", "TF-CPU"}

    def test_measured_run_simulation(self, micro_config):
        experiment = HeadToHeadExperiment(micro_config)
        run = experiment.run_slide()
        sim = run.simulate(WallClockSimulator(SLIDE_CPU_PROFILE, cores=8))
        assert sim.cumulative_seconds.shape == run.iterations.shape
        assert np.all(np.diff(sim.cumulative_seconds) > 0)

    def test_target_active_property(self, micro_config):
        assert micro_config.target_active >= 8
        with pytest.raises(ValueError):
            ExperimentConfig(dataset=micro_config.dataset, target_active_fraction=0.0)


class TestFigureDrivers:
    def test_figure4_sampling_strategy_timing(self):
        fig4 = bench("fig4_sampling")
        payload = fig4.run({"neuron_counts": [300, 600], "dim": 32, "k": 3, "l": 8, "queries": 5})
        rows = payload["rows"]
        assert len(rows) == 6
        strategies = {row["strategy"] for row in rows}
        assert strategies == {"Vanilla Sampling", "TopK Sampling", "Hard Thresholding"}
        assert all(row["seconds_per_query"] > 0 for row in rows)
        assert set(payload["total_seconds_per_query"]) == strategies

    def test_figure5_structure_and_ordering(self, micro_config):
        out = bench("fig5_time_accuracy").figure5_time_vs_accuracy(
            micro_config, paper_dims=DELICIOUS_PAPER_DIMS
        )
        assert set(out["time_series"]) == {"SLIDE CPU", "TF-GPU", "TF-CPU"}
        assert set(out["iteration_series"]) == {"SLIDE CPU", "TF-GPU"}
        assert out["speedup_vs_cpu"] > out["speedup_vs_gpu"] > 0
        # Figure 5's headline at paper scale: SLIDE converges faster than both.
        assert out["speedup_vs_gpu"] > 1.0

    def test_figure6_trends(self):
        fig6 = bench("fig6_inefficiencies")
        payload = fig6.run({"threads": [8, 16, 32]})
        rows = payload["rows"]
        tf_rows = [r for r in rows if r["framework"] == "Tensorflow-CPU"]
        slide_rows = [r for r in rows if r["framework"] == "SLIDE"]
        assert len(tf_rows) == len(slide_rows) == 3
        assert fig6.check(payload, smoke=True) == []

    def test_figure7_sampled_softmax(self, micro_config):
        out = bench("fig7_sampled_softmax").figure7_sampled_softmax(
            micro_config, paper_dims=DELICIOUS_PAPER_DIMS
        )
        assert set(out["final_accuracy"]) == {"SLIDE CPU", "TF-GPU SSM"}
        assert out["active_fraction"]["SLIDE CPU"] < 1.0

    def test_figure8_batch_size(self, micro_config):
        rows = bench("fig8_batch_size").figure8_batch_size_effect(
            micro_config, batch_sizes=(8, 16), paper_dims=AMAZON_PAPER_DIMS
        )
        assert len(rows) == 6
        assert {r["framework"] for r in rows} == {"SLIDE CPU", "TF-GPU", "TF-GPU SSM"}

    def test_figure9_and_13_scalability(self, micro_config):
        fig9 = bench("fig9_scalability")
        rows = fig9.figure9_scalability(
            micro_config, core_counts=(2, 8, 44), paper_dims=DELICIOUS_PAPER_DIMS
        )
        assert len(rows) == 3
        # SLIDE convergence time decreases with cores; GPU stays flat.
        slide_times = [r["SLIDE_convergence_s"] for r in rows]
        assert slide_times[0] > slide_times[-1]
        gpu_times = {r["TF-GPU_convergence_s"] for r in rows}
        assert len(gpu_times) == 1

        ratios = fig9.figure13_scalability_ratio(rows)
        assert ratios[-1]["SLIDE_ratio"] == pytest.approx(1.0)
        assert ratios[0]["SLIDE_ratio"] > 1.0
        assert fig9.figure13_scalability_ratio([]) == []

    def test_figure10_hugepages(self, micro_config):
        out = bench("fig10_hugepages_simd").figure10_hugepages_simd(
            micro_config, paper_dims=AMAZON_PAPER_DIMS
        )
        assert out["optimized_speedup"] == pytest.approx(out["expected_speedup"], rel=0.05)
        assert set(out["time_series"]) == {"SLIDE-CPU", "SLIDE-CPU Optimized", "TF-GPU"}

    def test_figure11_hard_threshold_curves(self):
        fig11 = bench("fig11_hard_threshold")
        payload = fig11.run({})
        assert set(payload["series"]) == {"m=1", "m=3", "m=5", "m=7", "m=9"}
        # Lower thresholds select at least as often at every collision probability.
        assert fig11.check(payload, smoke=True) == []


class TestTableDrivers:
    def test_table1(self):
        rows = bench("table1_datasets").run({"scale": 1 / 4096})["rows"]
        sources = {row["source"] for row in rows}
        assert sources == {"paper", "synthetic"}
        assert len(rows) == 4
        paper_rows = [r for r in rows if r["source"] == "paper"]
        assert {r["dataset"] for r in paper_rows} == {"Delicious-200K", "Amazon-670K"}

    def test_table2(self):
        rows = bench("table2_core_utilization").calibrated_model_rows()
        assert len(rows) == 3
        for row in rows:
            assert row["SLIDE_utilization_calibrated"] > row["TF-CPU_utilization_calibrated"]
            assert row["SLIDE_utilization_model"] > row["TF-CPU_utilization_model"]

    def test_table3(self):
        table3 = bench("table3_insertion")
        payload = table3.run({"num_neurons": 800, "dim": 32, "k": 3, "l": 8, "min_speedup": 1.0})
        rows = payload["rows"]
        assert len(rows) == 2
        assert {r["policy"] for r in rows} == {"Reservoir Sampling", "FIFO"}
        for row in rows:
            assert row["full_insertion_s"] >= row["insertion_to_ht_s"]
        assert table3.check(payload, smoke=True) == []

    def test_table4(self):
        table4 = bench("table4_hugepages_counters")
        payload = table4.run({})
        metrics = {row["metric"] for row in payload["rows"]}
        assert "dTLB load miss rate" in metrics
        assert "PageFaults per second" in metrics
        for row in payload["rows"]:
            assert row["improvement_factor"] >= 1.0
        assert table4.check(payload, smoke=True) == []
