"""Table 2 — CPU core utilisation of TF-CPU vs SLIDE, measured and modelled.

Two complementary sections:

* **Measured** — run the process-HOGWILD trainer
  (:mod:`repro.parallel.sharedmem`) at several worker counts and compute the
  real utilisation of the cores it occupied: total worker CPU seconds
  divided by ``wall x processes`` (via ``getrusage``).  SLIDE's claim is
  that lock-free asynchronous workers keep their cores busy — utilisation
  should stay high as workers are added, unlike TF-CPU's sync-barrier drop.
  Utilisation, unlike speedup, remains meaningful even when worker counts
  exceed the machine's cores (time-shared workers still occupy their share).
* **Calibrated + mechanistic model** — the paper's printed Table 2 numbers
  (TF-CPU 45 %→32 % from 8 to 32 threads; SLIDE stable at ~82-85 %)
  reproduced by :func:`calibrated_model_rows`.

``python -m repro.reports --run table2_core_utilization`` writes
``BENCH_table2_core_utilization.json``.
"""

from __future__ import annotations

from repro.harness.report import format_table
from repro.harness.scaling import available_cores, measure_process_scaling
from repro.perf.cpu_counters import slide_breakdown, tf_breakdown
from repro.perf.devices import SLIDE_UTILIZATION, TF_CPU_UTILIZATION
from repro.reports.schema import FRACTION, NAT, POS, POSITIVE_INT, rows
from repro.reports.spec import BenchSpec, MetricGate

# Table 2 as printed in the paper.
PAPER_TABLE2 = {
    8: {"tf": 0.45, "slide": 0.82},
    16: {"tf": 0.35, "slide": 0.81},
    32: {"tf": 0.32, "slide": 0.85},
}

SPEC = BenchSpec(
    bench_id="table2_core_utilization",
    title="Core utilisation: measured process-HOGWILD + calibrated model",
    paper_anchor="Table 2",
    schema={
        "type": "object",
        "required": ["measured", "calibrated_model", "paper_table2"],
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
            "calibrated_model": rows(
                {
                    "threads": NAT,
                    "TF-CPU_utilization_calibrated": FRACTION,
                    "SLIDE_utilization_calibrated": FRACTION,
                    "TF-CPU_utilization_model": FRACTION,
                    "SLIDE_utilization_model": FRACTION,
                }
            ),
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


def calibrated_model_rows(
    threads: tuple[int, ...] = (8, 16, 32),
    output_dim: int = 670_091,
    hidden_dim: int = 128,
    batch_size: int = 256,
    avg_active_output: float = 3000.0,
) -> list[dict[str, float | int | str]]:
    """Core utilisation of TF-CPU vs SLIDE at several thread counts.

    Two columns are reported per framework: the calibrated utilisation curve
    used by the wall-clock device model (anchored on the paper's Table 2),
    and the utilisation implied by the mechanistic pipeline-slot model of
    Figure 6 — showing that the model reproduces the *direction* of the
    paper's measurement (SLIDE stays high and flat, TF-CPU degrades).
    """
    rows: list[dict[str, float | int | str]] = []
    for t in threads:
        tf_model = tf_breakdown(t, output_dim, hidden_dim, batch_size)
        slide_model = slide_breakdown(t, avg_active_output, hidden_dim, batch_size, output_dim)
        rows.append(
            {
                "threads": t,
                "TF-CPU_utilization_calibrated": round(TF_CPU_UTILIZATION(t), 3),
                "SLIDE_utilization_calibrated": round(SLIDE_UTILIZATION(t), 3),
                "TF-CPU_utilization_model": round(tf_model.utilization(), 3),
                "SLIDE_utilization_model": round(slide_model.utilization(), 3),
            }
        )
    return rows


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
        "calibrated_model": calibrated_model_rows(
            threads=tuple(int(t) for t in p.get("threads", (8, 16, 32)))
        ),
        "paper_table2": {str(k): v for k, v in PAPER_TABLE2.items()},
    }


def check(payload: dict, smoke: bool) -> list[str]:
    """Calibrated model matches the printed Table 2; rusage accounting works."""
    problems = []
    for row in payload["calibrated_model"]:
        paper = PAPER_TABLE2.get(int(row["threads"]))
        if paper is None:
            continue
        # The calibrated curve reproduces the paper's numbers directly; the
        # mechanistic model must reproduce the *relationship* (SLIDE high and
        # stable, TF-CPU low and degrading).
        if abs(row["TF-CPU_utilization_calibrated"] - paper["tf"]) >= 0.02:
            problems.append(f"TF-CPU calibrated utilisation drifted at {row['threads']} threads")
        if abs(row["SLIDE_utilization_calibrated"] - paper["slide"]) >= 0.02:
            problems.append(f"SLIDE calibrated utilisation drifted at {row['threads']} threads")
        if row["SLIDE_utilization_model"] <= row["TF-CPU_utilization_model"]:
            problems.append(
                f"mechanistic model lost the SLIDE>TF-CPU ordering at {row['threads']} threads"
            )
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
    print(
        format_table(
            payload["calibrated_model"],
            title="Table 2 (model): calibrated + mechanistic utilisation",
        )
    )
    print(f"cores available: {available_cores()}")
