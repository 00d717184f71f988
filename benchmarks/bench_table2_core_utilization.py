"""Table 2 — CPU core utilisation of SLIDE, measured.

Runs the process-HOGWILD trainer (:mod:`repro.parallel.trainer`) at
several worker counts and computes the real utilisation of the cores it
occupied: total worker CPU seconds divided by ``wall x processes`` (via
``getrusage``).  SLIDE's claim is that lock-free asynchronous workers keep
their cores busy — utilisation should stay high as workers are added, unlike
TF-CPU's sync-barrier drop.  Utilisation, unlike speedup, remains meaningful
even when worker counts exceed the machine's cores (time-shared workers
still occupy their share).  The paper's printed Table 2 (TF-CPU 45 %→32 %
from 8 to 32 threads; SLIDE stable at ~82-85 %) rides along in the payload
as ``paper_table2``, for reference only.

``python -m repro.reports --run table2_core_utilization`` writes
``BENCH_table2_core_utilization.json``.
"""

from __future__ import annotations

from repro.harness.report import format_table
from repro.harness.scaling import available_cores, measure_process_scaling
from repro.reports.schema import POS, POSITIVE_INT, rows
from repro.reports.spec import BenchSpec, MetricGate

# Table 2 as printed in the paper.
PAPER_TABLE2 = {
    8: {"tf": 0.45, "slide": 0.82},
    16: {"tf": 0.35, "slide": 0.81},
    32: {"tf": 0.32, "slide": 0.85},
}

SPEC = BenchSpec(
    bench_id="table2_core_utilization",
    title="Core utilisation: measured process-HOGWILD",
    paper_anchor="Table 2",
    schema={
        "type": "object",
        "required": ["measured", "paper_table2"],
        "properties": {
            "measured": {
                "type": "object",
                "required": ["available_cores", "rows"],
                "properties": {
                    "available_cores": POSITIVE_INT,
                    "rows": rows(
                        {
                            "processes": POSITIVE_INT,
                            "SLIDE_utilization_measured": POS,
                            "wall_time_s": POS,
                            "speedup_vs_1": POS,
                        }
                    ),
                },
            },
            "paper_table2": {"type": "object"},
        },
    },
    smoke_params={"process_counts": [1, 2], "scale": 1 / 2048, "epochs": 1},
    full_params={"process_counts": [1, 2, 4], "scale": 1 / 512, "epochs": 2},
    measured=True,
    gates=(
        MetricGate(
            "measured.rows[processes=1].SLIDE_utilization_measured",
            "higher",
            rel_tol=0.4,
            abs_tol=0.05,
        ),
    ),
    timeout_s=180.0,
)


def _measured_utilization(
    process_counts: tuple[int, ...], scale: float, epochs: int
) -> dict[str, object]:
    """Real per-core utilisation of the process-HOGWILD trainer."""
    measured = measure_process_scaling(process_counts=process_counts, scale=scale, epochs=epochs)
    rows = [
        {
            "processes": row["processes"],
            "SLIDE_utilization_measured": row["cpu_utilization"],
            "wall_time_s": row["wall_time_s"],
            "speedup_vs_1": row["speedup_vs_1"],
        }
        for row in measured["rows"]
    ]
    return {
        "available_cores": measured["available_cores"],
        "workload": measured["workload"],
        "rows": rows,
    }


def run(params: dict | None = None) -> dict:
    """Pure payload generator for the report registry."""
    p = dict(params or {})
    return {
        "measured": _measured_utilization(
            process_counts=tuple(int(n) for n in p.get("process_counts", (1, 2, 4))),
            scale=float(p.get("scale", 1.0 / 512.0)),
            epochs=int(p.get("epochs", 2)),
        ),
        "paper_table2": {str(k): v for k, v in PAPER_TABLE2.items()},
    }


def check(payload: dict, smoke: bool) -> list[str]:
    """rusage accounting works and every utilisation is a core fraction."""
    problems = []
    rows = payload["measured"]["rows"]
    if rows[0]["SLIDE_utilization_measured"] <= 0.0:
        problems.append("measured utilisation was zero — rusage accounting broke")
    for row in rows:
        if not 0.0 < row["SLIDE_utilization_measured"] <= 1.1:
            problems.append(
                f"{row['processes']}-process utilisation "
                f"{row['SLIDE_utilization_measured']} is not a core fraction"
            )
    return problems


def print_report(payload: dict) -> None:
    print(
        format_table(
            payload["measured"]["rows"],
            title=(
                "Table 2 (measured): process-HOGWILD core utilisation "
                f"({payload['measured']['available_cores']} usable cores)"
            ),
        )
    )
    print(f"cores available: {available_cores()}")
