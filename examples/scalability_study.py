"""Scalability study: how SLIDE's advantage depends on the CPU core count.

Two views on Figures 9 and 13 of the paper:

1. **Measured** — train the same synthetic XC workload with the
   shared-memory process-HOGWILD trainer
   (:class:`repro.parallel.sharedmem.ProcessHogwildTrainer`) at 1/2/4 worker
   processes and print the real wall-clock speedup curve, parallel
   efficiency, CPU utilisation and gradient-conflict counts.  The measured
   speedup is bounded by this machine's usable cores (printed alongside).
2. **Projected** — train SLIDE and the dense baseline once (the
   per-iteration *work* does not depend on the core count), then attribute
   wall-clock time with the calibrated device profiles at 2-44 cores and
   find the crossover points where SLIDE overtakes TF-CPU and TF-GPU.

Run:  PYTHONPATH=src python examples/scalability_study.py [--skip-measured]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.harness.experiment import (
    AMAZON_PAPER_DIMS,
    DELICIOUS_PAPER_DIMS,
    small_experiment_config,
)
from repro.harness.report import format_table
from repro.harness.scaling import available_cores, measure_process_scaling
from repro.reports import get_spec

PROCESS_COUNTS = (1, 2, 4)


def measured_study(process_counts: tuple[int, ...] = PROCESS_COUNTS) -> None:
    cores = available_cores()
    print(f"\n=== Measured process-HOGWILD scaling ({cores} usable cores) ===")
    result = measure_process_scaling(
        process_counts=process_counts, scale=1.0 / 512.0, epochs=2
    )
    print(
        format_table(
            result["rows"],
            title="Wall-clock speedup vs worker processes (shared-memory HOGWILD)",
        )
    )
    print("speedup curve: ", end="")
    print(
        "  ".join(
            f"{row['processes']}p -> {row['speedup_vs_1']:.2f}x"
            for row in result["rows"]
        )
    )
    if result["cores_limit_speedup"]:
        print(
            f"note: only {cores} usable core(s) — worker processes beyond "
            "that time-share a core, so measured speedup saturates; the "
            "projected section below carries the paper-scale story."
        )


def projected_study(dataset: str, dims, paper_note: str) -> None:
    config = small_experiment_config(dataset=dataset, scale=1.0 / 1024.0, epochs=2)
    print(f"\n=== {dims.name} (synthetic stand-in: {config.dataset.name}) ===")
    # The Figure 9 projection is defined once, in its bench file.
    projection = get_spec("fig9_scalability").load_module().paper_projection(config, dims)
    print(
        format_table(projection["rows"], title="Convergence time (s) vs CPU cores (projected)")
    )
    print(
        format_table(projection["figure13_ratios"], title="Ratio to the 44-core convergence time")
    )
    print(
        f"SLIDE overtakes TF-CPU at {projection['tf_cpu_crossover_cores']} cores "
        f"and TF-GPU at {projection['tf_gpu_crossover_cores']} cores."
    )
    print(f"paper: {paper_note}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--skip-measured",
        action="store_true",
        help="only print the device-model projection (no multi-process runs)",
    )
    parser.add_argument("--processes", type=int, nargs="+", default=None)
    args = parser.parse_args()

    if not args.skip_measured:
        measured_study(tuple(args.processes or PROCESS_COUNTS))
    projected_study(
        "delicious",
        DELICIOUS_PAPER_DIMS,
        "SLIDE beats TF-CPU with 8 cores and TF-GPU with fewer than 32 cores",
    )
    projected_study(
        "amazon",
        AMAZON_PAPER_DIMS,
        "SLIDE beats TF-CPU with 2 cores and TF-GPU with 8 cores",
    )


if __name__ == "__main__":
    main()
