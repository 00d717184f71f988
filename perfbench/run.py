"""One workload, once, in this process: what the command line and the test share."""

from __future__ import annotations

import json
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from perfbench.layers import per_layer
from perfbench.shape import Shape
from perfbench.trace import POINTS, Tracer
from perfbench.workloads import WORKLOADS, Run, untraced_loss_digest

__all__ = ["run_workload", "load_benchmark"]

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark() -> dict:
    """``BENCHMARK.json``: the one place workloads and metrics are listed."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def ref_matmul_ms(size: int = 512, repeats: int = 31) -> float:
    """Median time of a fixed matmul: is the host as fast as it was?"""
    rng = np.random.default_rng(0)
    a, b = rng.random((size, size)), rng.random((size, size))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    name: str,
    shape: Shape,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path | None = None,
    points=POINTS,
) -> dict:
    """Run workload ``name`` and return its report.

    The report's ``e2e`` and ``per_layer`` hold every metric the run could
    compute, keyed as in ``BENCHMARK.json``; ``per_layer`` is ``None`` for an
    untraced run.  With ``out_dir`` the report, and the spans of a traced
    run, are also written there; without it a run leaves nothing behind.
    """
    tracer = Tracer(points) if trace else None
    matmul_before = ref_matmul_ms()
    try:
        if tracer is not None:
            tracer.install()
        outcome = WORKLOADS[name](Run(shape, seed, seconds, tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
    matmul_after = ref_matmul_ms()

    e2e = {"setup_s": outcome.setup_s, "peak_rss_mb": peak_rss_mb(), **outcome.e2e}
    checks = dict(outcome.checks)
    layers = None
    if tracer is not None:
        layers = per_layer(tracer, outcome, e2e["throughput_per_s"])
        layers["host.ref_matmul_ms_before"] = matmul_before
        layers["host.ref_matmul_ms_after"] = matmul_after
        if outcome.loss_digest is not None:
            # Wrappers must not change the trajectory: same seed, same losses.
            checks["losses_equal_untraced"] = outcome.loss_digest == untraced_loss_digest(
                shape, seed, seconds
            )
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "correct": all(checks.values()),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "checks": checks,
        "e2e": e2e,
        "per_layer": layers,
        "missing_points": (tracer.missing + sorted(tracer.broken)) if tracer else [],
        "host_matmul_ms": [matmul_before, matmul_after],
        "loss_digest": outcome.loss_digest,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{seed}-{seconds:g}s-trace{int(trace)}"
        (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1, default=float))
        if tracer is not None:
            tracer.write(out_dir / f"{stem}.spans.jsonl")
    return report
