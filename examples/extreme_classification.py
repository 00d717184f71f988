"""Head-to-head extreme classification: SLIDE vs full softmax vs sampled softmax.

Reproduces the paper's main experimental setting (Section 5) at laptop scale:
a Delicious-200K-like synthetic dataset, the same one-hidden-layer
architecture for all three systems, the same Adam optimiser — then compares

* final precision@1 (SLIDE should match full softmax and beat sampled softmax),
* the output-layer sparsity each system trained with (SLIDE touches a small
  fraction of the output layer).

The paper's wall-clock comparison (44-core Xeon vs V100) needs that
hardware; ``python -m repro.reports --run train_throughput --out-dir DIR``
measures sparse-vs-dense throughput on this machine instead.

Run:  python examples/extreme_classification.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.harness.experiment import HeadToHeadExperiment, small_experiment_config
from repro.harness.report import format_table


def main() -> None:
    config = small_experiment_config(dataset="delicious", scale=1.0 / 1024.0, epochs=3)
    print(f"dataset: {config.dataset.name}")
    print(f"  features={config.dataset.feature_dim}  labels={config.dataset.label_dim}  "
          f"train={config.dataset.num_train}")

    experiment = HeadToHeadExperiment(config)

    print("\ntraining SLIDE (LSH-adaptive sparsity)...")
    slide_run = experiment.run_slide()
    print("training the dense full-softmax baseline (TF equivalent)...")
    dense_run = experiment.run_dense()
    print("training the static sampled-softmax baseline (20% of classes)...")
    ssm_run = experiment.run_sampled_softmax()

    # ------------------------------------------------------------------
    # Accuracy comparison (what the paper's iteration-wise plots show).
    # ------------------------------------------------------------------
    print()
    print(
        format_table(
            [
                {
                    "system": run.framework,
                    "final precision@1": round(run.final_accuracy, 3),
                    "avg active output neurons": round(run.avg_active_output, 1),
                    "output layer fraction": round(
                        run.avg_active_output / config.dataset.label_dim, 3
                    ),
                }
                for run in (slide_run, dense_run, ssm_run)
            ],
            title="Accuracy and measured output-layer sparsity",
        )
    )



if __name__ == "__main__":
    main()
