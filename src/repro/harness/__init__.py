"""Experiment harness: the machinery more than one bench shares (head-to-head
experiments, report rendering, process-scaling measurements and the network
the serving benches publish).
Each figure and table itself is defined in its ``benchmarks/bench_<id>.py``."""

from repro.harness.report import format_table, format_series, format_comparison
from repro.harness.experiment import (
    ExperimentConfig,
    HeadToHeadExperiment,
    MeasuredRun,
)
from repro.harness.serving_sweep import train_serving_network
from repro.harness.scaling import (
    ScalingRun,
    available_cores,
    measure_process_scaling,
)

__all__ = [
    "ScalingRun",
    "available_cores",
    "measure_process_scaling",
    "format_table",
    "format_series",
    "format_comparison",
    "ExperimentConfig",
    "HeadToHeadExperiment",
    "MeasuredRun",
    "train_serving_network",
]
