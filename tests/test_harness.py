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
    ExperimentConfig,
    HeadToHeadExperiment,
    small_experiment_config,
)
from repro.harness.report import (
    format_comparison,
    format_series,
    format_table,
    series_payload,
)
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

    def test_format_comparison_without_unit(self):
        assert format_comparison(0.5, 0.25, "p@1") == "p@1: paper=0.5, measured=0.25"

    @pytest.mark.parametrize(
        ("value", "text"),
        [
            (0.0, "0"),
            (123456.0, "1.235e+05"),
            (0.0004, "4.000e-04"),
            (3.14159, "3.142"),
            (7, "7"),
            ("SLIDE", "SLIDE"),
        ],
    )
    def test_table_cells_use_compact_number_formats(self, value, text):
        table = format_table([{"cell": value}])
        assert table.splitlines()[-1].strip() == text

    def test_format_table_blank_for_a_missing_column(self):
        text = format_table([{"a": 1, "b": 2}, {"a": 3}])
        assert text.splitlines()[-1] == "3 |  "

    def test_format_series_marks_an_empty_series(self):
        text = format_series("x", "y", {"run": ([], [])}, title="curves")
        assert text.splitlines() == ["curves", "  run: (empty)"]

    def test_series_payload_emits_plain_float_lists(self):
        payload = series_payload(
            {1: (np.arange(3), np.array([0.5, 0.25, 0.125], dtype=np.float32))},
            "iteration",
            "precision_at_1",
        )
        assert payload == {
            "1": {"iteration": [0.0, 1.0, 2.0], "precision_at_1": [0.5, 0.25, 0.125]}
        }
        assert all(type(v) is float for v in payload["1"]["precision_at_1"])

    def test_series_payload_accepts_generators(self):
        payload = series_payload({"run": ((x for x in (1, 2)), iter([3, 4]))}, "x", "y")
        assert payload == {"run": {"x": [1.0, 2.0], "y": [3.0, 4.0]}}


class TestExperimentMachinery:
    def test_small_experiment_config_presets(self):
        delicious = small_experiment_config("delicious", scale=1 / 4096)
        amazon = small_experiment_config("amazon", scale=1 / 8192)
        assert delicious.hash_family == "simhash"
        assert amazon.hash_family == "dwta"
        with pytest.raises(ValueError):
            small_experiment_config("imagenet")

    def test_head_to_head_runs(self, micro_config):
        experiment = HeadToHeadExperiment(micro_config)
        slide_run = experiment.run_slide()
        dense_run = experiment.run_dense()

        assert slide_run.accuracies.shape == slide_run.iterations.shape
        assert slide_run.losses.shape == slide_run.iterations.shape
        assert 0 < slide_run.avg_active_output < micro_config.dataset.label_dim
        assert dense_run.avg_active_output == micro_config.dataset.label_dim

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

    def test_figure7_sampled_softmax(self, micro_config):
        out = bench("fig7_sampled_softmax").figure7_sampled_softmax(micro_config)
        assert set(out["final_accuracy"]) == {"SLIDE CPU", "TF-GPU SSM"}
        assert out["active_fraction"]["SLIDE CPU"] < 1.0

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

    def test_table3(self):
        table3 = bench("table3_insertion")
        payload = table3.run({"num_neurons": 800, "dim": 32, "k": 3, "l": 8, "min_speedup": 1.0})
        rows = payload["rows"]
        assert len(rows) == 2
        assert {r["policy"] for r in rows} == {"Reservoir Sampling", "FIFO"}
        for row in rows:
            assert row["full_insertion_s"] >= row["insertion_to_ht_s"]
        assert table3.check(payload, smoke=True) == []
