"""Table 4 — CPU-counter metrics with and without Transparent Hugepages.

These counters come from the paper's published Table 4 values applied to a
modelled memory footprint — not from perf counters on this host — so the
artifact is stamped ``measured: false`` and excluded from trend gating.
"""

from repro.harness.report import format_table
from repro.perf.memory import hugepages_counter_comparison, slide_memory_footprint
from repro.reports.schema import CONFIG, MAYBE_NUM, POS, STR, rows
from repro.reports.spec import BenchSpec

SPEC = BenchSpec(
    bench_id="table4_hugepages_counters",
    title="TLB/page-walk/page-fault counters with and without hugepages",
    paper_anchor="Table 4",
    schema={
        "type": "object",
        "required": ["config", "rows"],
        "properties": {
            "config": CONFIG,
            "rows": rows(
                {
                    "metric": STR,
                    "without_hugepages": POS,
                    "with_hugepages": POS,
                    "improvement_factor": MAYBE_NUM,
                },
                min_items=3,
            ),
        },
    },
    smoke_params={},
    full_params={},
    measured=False,
    notes="MODELLED: derived from the analytical memory-footprint model "
    "anchored on the paper's Table 4; no perf counters are read, so these "
    "metrics are excluded from trend gating.",
)


def run(params: dict | None = None) -> dict:
    """TLB / page-walk / page-fault metrics with 4 KB vs 2 MB pages (MODELLED)."""
    p = dict(params or {})
    config = {
        key: type(default)(p.get(key, default))
        for key, default in (
            ("input_dim", 135_909),
            ("hidden_dim", 128),
            ("output_dim", 670_091),
            ("batch_size", 256),
            ("avg_active_output", 3000.0),
            ("iterations_per_second", 10.0),
        )
    }
    footprint = slide_memory_footprint(
        input_dim=config["input_dim"],
        hidden_dim=config["hidden_dim"],
        output_dim=config["output_dim"],
        batch_size=config["batch_size"],
        avg_active_output=config["avg_active_output"],
        avg_input_nnz=75.0,
        l_tables=50,
    )
    comparison = hugepages_counter_comparison(footprint, config["iterations_per_second"])
    rows = [
        {
            "metric": metric,
            "without_hugepages": values["without_hugepages"],
            "with_hugepages": values["with_hugepages"],
            "improvement_factor": (
                values["without_hugepages"] / values["with_hugepages"]
                if values["with_hugepages"]
                else float("inf")
            ),
        }
        for metric, values in comparison.items()
    ]
    return {"config": config, "rows": rows}


def check(payload: dict, smoke: bool) -> list[str]:
    """Every counter improves with hugepages; dTLB improvement is dramatic."""
    rows = payload["rows"]
    problems = []
    for row in rows:
        if row["with_hugepages"] > row["without_hugepages"]:
            problems.append(f"{row['metric']}: hugepages should not make the counter worse")
    by_metric = {row["metric"]: row for row in rows}
    dtlb = by_metric.get("dTLB load miss rate")
    if dtlb is not None:
        factor = dtlb["improvement_factor"]
        if not (isinstance(factor, (int, float)) and factor > 5.0):
            problems.append(f"dTLB miss-rate improvement {factor!r} should exceed 5x")
    return problems


def print_report(payload: dict) -> None:
    print(
        format_table(
            payload["rows"], title="Table 4: CPU counters with / without Transparent Hugepages"
        )
    )
