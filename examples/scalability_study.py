"""Scalability study: how SLIDE's training speed depends on the core count.

A measured view on Figures 9 and 13 of the paper: train the same synthetic
XC workload with the shared-memory process-HOGWILD trainer
(:class:`repro.parallel.trainer.ProcessHogwildTrainer`) at 1/2/4 worker
processes and print the real wall-clock speedup curve, parallel efficiency,
CPU utilisation and gradient-conflict counts.  The measured speedup is
bounded by this machine's usable cores (printed alongside).

Run:  PYTHONPATH=src python examples/scalability_study.py [--processes N ...]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.harness.report import format_table
from repro.harness.scaling import available_cores, measure_process_scaling

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
            "that time-share a core, so measured speedup saturates."
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--processes", type=int, nargs="+", default=None)
    args = parser.parse_args()
    measured_study(tuple(args.processes or PROCESS_COUNTS))


if __name__ == "__main__":
    main()
