"""Figure 6 — distribution of CPU pipeline inefficiencies (top-down analysis).

Paper finding: memory-bound stalls dominate for both frameworks; they *grow*
with thread count for TF-CPU and *shrink* for SLIDE.
"""

from repro.harness.report import format_table
from repro.perf.cpu_counters import slide_breakdown, tf_breakdown
from repro.reports.schema import CONFIG, FRACTION, NAT, STR, rows
from repro.reports.spec import BenchSpec

SPEC = BenchSpec(
    bench_id="fig6_inefficiencies",
    title="Top-down CPU pipeline-slot inefficiency breakdown",
    paper_anchor="Fig 6",
    schema={
        "type": "object",
        "required": ["config", "rows"],
        "properties": {
            "config": CONFIG,
            "rows": rows(
                {
                    "framework": STR,
                    "threads": NAT,
                    "front_end_bound": FRACTION,
                    "memory_bound": FRACTION,
                    "retiring": FRACTION,
                    "core_bound": FRACTION,
                    "utilization": FRACTION,
                },
                min_items=2,
            ),
        },
    },
    smoke_params={"threads": [8, 16, 32]},
    full_params={"threads": [8, 16, 32]},
    measured=False,
    notes="Mechanistic pipeline-slot model; no hardware counters are read.",
)

# The paper's Amazon-670K workload at batch 256 with ~3000 active outputs.
_OUTPUT_DIM = 670_091
_HIDDEN_DIM = 128
_BATCH_SIZE = 256
_AVG_ACTIVE_OUTPUT = 3000.0


def run(params: dict | None = None) -> dict:
    """Top-down pipeline-slot breakdown for TF-CPU and SLIDE (MODELLED)."""
    p = dict(params or {})
    threads = tuple(int(t) for t in p.get("threads", (8, 16, 32)))
    rows = [
        tf_breakdown(t, _OUTPUT_DIM, _HIDDEN_DIM, _BATCH_SIZE).as_row() for t in threads
    ] + [
        slide_breakdown(t, _AVG_ACTIVE_OUTPUT, _HIDDEN_DIM, _BATCH_SIZE, _OUTPUT_DIM).as_row()
        for t in threads
    ]
    return {"config": {"threads": list(threads)}, "rows": rows}


def check(payload: dict, smoke: bool) -> list[str]:
    """Memory-bound dominates everywhere; trends oppose with thread count."""
    rows = payload["rows"]
    problems = []
    for row in rows:
        if row["memory_bound"] < max(row["front_end_bound"], row["core_bound"]):
            problems.append(
                f"{row['framework']} @ {row['threads']} threads: memory-bound "
                "stalls should dominate the breakdown"
            )
    tf_rows = [r for r in rows if r["framework"] == "Tensorflow-CPU"]
    slide_rows = [r for r in rows if r["framework"] == "SLIDE"]
    if tf_rows and tf_rows[0]["memory_bound"] >= tf_rows[-1]["memory_bound"]:
        problems.append("TF-CPU memory-bound share should grow with threads")
    if slide_rows and slide_rows[0]["memory_bound"] <= slide_rows[-1]["memory_bound"]:
        problems.append("SLIDE memory-bound share should shrink with threads")
    return problems


def print_report(payload: dict) -> None:
    print(format_table(payload["rows"], title="Figure 6: CPU usage inefficiency breakdown"))
