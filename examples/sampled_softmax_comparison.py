"""Adaptive LSH sampling vs static Sampled Softmax (the Figure 7 experiment).

The paper's argument for *adaptive* sparsity: a static candidate sampler
(TF's sampled softmax) needs ~20 % of all classes per batch and still
converges to a lower accuracy than SLIDE, which samples well under 1 % of
classes but picks them *as a function of the input* via the LSH tables.

This example trains both at several sampling budgets and prints the accuracy
each reaches, making the gap (and its cause) visible.

Run:  python examples/sampled_softmax_comparison.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import numpy as np

from repro.baselines.sampled_softmax import SampledSoftmaxConfig, SampledSoftmaxNetwork
from repro.config import OptimizerConfig
from repro.core.inference import evaluate_precision_at_1
from repro.harness.experiment import HeadToHeadExperiment, small_experiment_config
from repro.harness.report import format_table
from repro.types import SparseBatch


def train_sampled_softmax(experiment: HeadToHeadExperiment, fraction: float) -> float:
    cfg = experiment.config
    network = SampledSoftmaxNetwork(
        SampledSoftmaxConfig(
            input_dim=cfg.dataset.feature_dim,
            hidden_dim=cfg.hidden_dim,
            output_dim=cfg.dataset.label_dim,
            sample_fraction=fraction,
            optimizer=OptimizerConfig(learning_rate=cfg.learning_rate),
            seed=cfg.seed,
        )
    )
    rng = np.random.default_rng(cfg.seed)
    examples = experiment.dataset.train
    for _epoch in range(cfg.epochs):
        order = rng.permutation(len(examples))
        for start in range(0, len(order), cfg.batch_size):
            chunk = [examples[i] for i in order[start : start + cfg.batch_size]]
            network.train_batch(
                SparseBatch.from_examples(
                    chunk,
                    feature_dim=cfg.dataset.feature_dim,
                    label_dim=cfg.dataset.label_dim,
                )
            )
    return evaluate_precision_at_1(network, experiment.dataset.test)


def main() -> None:
    config = small_experiment_config(dataset="delicious", scale=1.0 / 1024.0, epochs=3)
    experiment = HeadToHeadExperiment(config)

    print("training SLIDE (adaptive LSH sampling)...")
    slide_run = experiment.run_slide()
    slide_fraction = slide_run.avg_active_output / config.dataset.label_dim

    rows = [
        {
            "system": "SLIDE (adaptive LSH)",
            "sampled fraction of classes": round(slide_fraction, 3),
            "final precision@1": round(slide_run.final_accuracy, 3),
        }
    ]
    for fraction in (0.05, 0.2, 0.5):
        print(f"training sampled softmax with a {fraction:.0%} static candidate set...")
        accuracy = train_sampled_softmax(experiment, fraction)
        rows.append(
            {
                "system": f"Sampled Softmax ({fraction:.0%} static)",
                "sampled fraction of classes": fraction,
                "final precision@1": round(accuracy, 3),
            }
        )

    print()
    print(format_table(rows, title="Adaptive vs static sampling (Delicious-200K-like)"))
    print(
        "\nSLIDE samples the fewest classes yet reaches the highest accuracy, because\n"
        "its candidates are chosen per input by the LSH tables (large inner products)\n"
        "rather than by a fixed input-independent distribution — the paper's Figure 7."
    )


if __name__ == "__main__":
    main()
