"""Figures 9 and 13 — scalability with CPU cores, **measured**.

The paper's headline systems claim is that SLIDE's lock-free HOGWILD design
scales near-linearly with CPU cores (Figure 9, Table 2).  This bench trains
the synthetic XC workload through
:class:`repro.parallel.trainer.ProcessHogwildTrainer` at several worker
process counts (shared-memory parameters, disjoint
:class:`~repro.data.ShardedDataset` shards per worker, private per-worker
LSH indexes) and records real wall-clock speedup, parallel efficiency, CPU
utilisation and gradient-conflict counts.  The 1-process run *is* the fused
synchronous path, so it doubles as the precision baseline.

``python -m repro.reports --run fig9_scalability`` writes
``BENCH_fig9_scalability.json``.  Measured speedup is hardware-bounded: the
JSON records ``available_cores`` and the checks only demand speedup the
machine can physically deliver (a 1-core container cannot run 4 processes
faster than 1).  The paper's 44-core Xeon curves are not reproducible here.
"""

from __future__ import annotations

from repro.harness.report import format_table
from repro.harness.scaling import available_cores, measure_process_scaling
from repro.reports.schema import BOOL, FRACTION, POS, POSITIVE_INT, rows
from repro.reports.spec import BenchSpec, MetricGate

PROCESS_COUNTS = (1, 2, 4)
# Acceptance bars for the measured section: the async multi-process runs
# must stay within one precision point of the fused single-process baseline,
# and — when the machine actually has >= 4 usable cores — deliver >= 1.5x
# wall-clock speedup at 4 processes.  The smoke config uses a much
# looser precision bar: its eval set is ~100-200 examples (one flipped
# prediction is already ~0.5-1%) and HOGWILD run-to-run variance on a
# seconds-long workload spans a few points.  The smoke bar exists to catch
# divergence-class regressions — e.g. the shared-moment tearing bug showed
# up as a 40-60 point collapse — not to relitigate noise.
PRECISION_TOLERANCE = 0.01
SMOKE_PRECISION_TOLERANCE = 0.05
SPEEDUP_AT_4_BAR = 1.5

SPEC = BenchSpec(
    bench_id="fig9_scalability",
    title="Core scalability: measured process-HOGWILD speedup",
    paper_anchor="Fig 9 (and Fig 13)",
    schema={
        "type": "object",
        "required": ["measured", "precision_gap_vs_baseline"],
        "properties": {
            "measured": {
                "type": "object",
                "required": [
                    "available_cores",
                    "rows",
                    "baseline_precision_at_1",
                    "max_measured_speedup",
                    "cores_limit_speedup",
                ],
                "properties": {
                    "available_cores": POSITIVE_INT,
                    "rows": rows(
                        {
                            "processes": POSITIVE_INT,
                            "wall_time_s": POS,
                            "samples_per_sec": POS,
                            "speedup_vs_1": POS,
                            "parallel_efficiency": POS,
                            "precision_at_1": FRACTION,
                            "cpu_utilization": POS,
                        }
                    ),
                    "baseline_precision_at_1": FRACTION,
                    "max_measured_speedup": POS,
                    "cores_limit_speedup": BOOL,
                },
            },
            "precision_gap_vs_baseline": {"type": "object", "patternProperties": {".": POS}},
        },
    },
    smoke_params={
        "process_counts": [1, 2],
        "scale": 1 / 2048,
        "epochs": 2,
    },
    full_params={
        "process_counts": [1, 2, 4],
        "scale": 1 / 256,
        "epochs": 5,
    },
    measured=True,
    gates=(
        MetricGate("measured.rows[processes=1].samples_per_sec", "higher", rel_tol=0.6),
        MetricGate("precision_gap_vs_baseline.2", "lower", rel_tol=1.0, abs_tol=0.04),
    ),
    timeout_s=180.0,
    notes="Measured speedup is bounded by available cores.",
)


def _precision_gaps(measured: dict[str, object]) -> dict[int, float]:
    """Absolute precision@1 gap of each multi-process run vs the baseline."""
    baseline = float(measured["baseline_precision_at_1"])
    return {
        int(row["processes"]): abs(float(row["precision_at_1"]) - baseline)
        for row in measured["rows"]
        if int(row["processes"]) > 1
    }


def run(params: dict | None = None) -> dict:
    """Measured process scaling at each worker count."""
    p = dict(params or {})
    seed = int(p.get("seed", 0))
    measured = measure_process_scaling(
        process_counts=tuple(int(n) for n in p.get("process_counts", PROCESS_COUNTS)),
        scale=float(p.get("scale", 1.0 / 256.0)),
        epochs=int(p.get("epochs", 5)),
        batch_size=int(p.get("batch_size", 32)),
        seed=seed,
    )
    return {
        "measured": measured,
        "precision_gap_vs_baseline": {
            str(processes): round(gap, 4)
            for processes, gap in sorted(_precision_gaps(measured).items())
        },
    }


def check(payload: dict, smoke: bool) -> list[str]:
    """Hardware-aware acceptance: precision parity always, speedup when possible.

    The speedup bars do not bind in smoke mode: its workload is deliberately
    sub-second, so fixed per-process costs (fork/spawn, network construction,
    LSH re-hash) dominate and a speedup bar would only measure overhead, not
    scaling.
    """
    precision_tolerance = SMOKE_PRECISION_TOLERANCE if smoke else PRECISION_TOLERANCE
    measured = payload["measured"]
    rows = {int(row["processes"]): row for row in measured["rows"]}
    cores = int(measured["available_cores"])
    failures: list[str] = []
    for processes, gap in _precision_gaps(measured).items():
        if gap > precision_tolerance:
            failures.append(
                f"{processes}-process precision@1 deviates {gap:.4f} from the "
                f"fused baseline (tolerance {precision_tolerance})"
            )
    if smoke:
        return failures
    if 4 in rows and cores >= 4:
        speedup = float(rows[4]["speedup_vs_1"])
        if speedup < SPEEDUP_AT_4_BAR:
            failures.append(
                f"4-process speedup {speedup:.2f}x below the "
                f"{SPEEDUP_AT_4_BAR}x bar on a {cores}-core machine"
            )
    elif 2 in rows and cores >= 2:
        speedup = float(rows[2]["speedup_vs_1"])
        if speedup < 1.2:
            failures.append(
                f"2-process speedup {speedup:.2f}x below 1.2x on a "
                f"{cores}-core machine"
            )
    return failures


def print_report(payload: dict) -> None:
    measured = payload["measured"]
    print(
        format_table(
            measured["rows"],
            title=(
                "Figure 9 (measured): process-HOGWILD scaling "
                f"({measured['available_cores']} usable cores)"
            ),
        )
    )
    print(
        f"max measured speedup: {measured['max_measured_speedup']}x "
        f"(cores available: {available_cores()})"
    )
