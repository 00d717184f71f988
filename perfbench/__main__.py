"""``python3 -m perfbench``: run the benchmark and print every metric.

With ``--workload`` (and ``--repeat 1``) the workload runs once in this
process; the last line of standard output is one JSON object, which is what
the benchmark driver reads.  Otherwise each run is a child process of that
same form, so that peak memory is per run, and workloads are interleaved
round-robin (A B A B, never A A B B) so that slow drift of the host spreads
over all of them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse(argv: list[str] | None) -> argparse.Namespace:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__)
    parser.add_argument(
        "--workload",
        choices=workloads,
        help="one workload (default: all, each in a child process)",
    )
    parser.add_argument("--seed", type=int, default=1, help="seed of the inputs")
    parser.add_argument(
        "--seconds",
        type=float,
        default=benchmark["run_seconds"],
        help="length of the timed sections of one run",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: record spans and print the per-layer metrics instead of the "
        "end-to-end ones (with several runs: do both, untraced first)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run everything N times with seeds seed..seed+N-1 and print "
        "the median and quartiles of every metric",
    )
    parser.add_argument(
        "--out",
        type=Path,
        help="directory for each run's report and, traced, its spans as JSON "
        "lines (default: nothing is written)",
    )
    args = parser.parse_args(argv)
    args.benchmark = benchmark
    args.workloads = workloads
    return args


def run_here(args: argparse.Namespace) -> int:
    """One run in this process; the result line goes last."""
    # Before numpy loads: single-thread BLAS cut the run-to-run spread of
    # training throughput from 12% to 4% on the sizing host.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.run import run_workload
    from perfbench.shape import FULL

    report = run_workload(
        args.workload, FULL, args.seed, args.seconds, bool(args.trace), args.out
    )

    kind = "per_layer" if args.trace else "end_to_end"
    measured = report["per_layer"] if args.trace else report["e2e"]
    metrics = {}
    for spec in args.benchmark[kind]:
        # A layer the workload does not exercise reads zero; an end-to-end
        # metric that is absent is a bug and raises.
        value = measured.get(spec["name"], 0.0) if args.trace else measured[spec["name"]]
        if not math.isfinite(value):
            raise SystemExit(f"{args.workload}: {spec['name']} is {value}")
        metrics[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
        print(args.workload, spec["name"], f"{value:.6g}", spec["unit"])
    for point in report["missing_points"]:
        print(args.workload, f"trace point {point}", "missing")
    for name, passed in report["checks"].items():
        print(args.workload, f"check {name}", "ok" if passed else "FAILED")
    print(args.workload, "host.ref_matmul_ms", *report["host_matmul_ms"])
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if report["correct"] else 1


def run_children(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else args.workloads
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    units: dict[str, str] = {}
    failures = 0
    for repeat in range(args.repeat):
        for name in names:
            throughput = {}
            for trace in (0, 1) if args.trace else (0,):
                command = [
                    sys.executable, "-m", "perfbench",
                    "--workload", name,
                    "--seed", str(args.seed + repeat),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ]  # fmt: skip
                if args.out is not None:
                    command += ["--out", str(args.out.resolve())]
                child = subprocess.run(
                    command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900
                )
                sys.stdout.write(child.stdout)
                sys.stdout.flush()
                if child.returncode != 0:
                    failures += 1
                    print(name, f"run failed with exit code {child.returncode}")
                    continue
                result = json.loads(child.stdout.splitlines()[-1])
                for metric, entry in result["metrics"].items():
                    values[(name, metric)].append(entry["value"])
                    units[metric] = entry["unit"]
                for metric in ("throughput_per_s", "trace.throughput_per_s"):
                    if metric in result["metrics"]:
                        throughput[trace] = result["metrics"][metric]["value"]
                before, after = _host_matmul(child.stdout)
                if not 0.9 <= after / before <= 1.1:
                    print(name, f"noisy: reference matmul {before:.2f} -> {after:.2f} ms")
            if len(throughput) == 2:
                print(
                    name,
                    "trace.overhead_measured_frac",
                    f"{1 - throughput[1] / throughput[0]:.4f}",
                    "fraction",
                )
    if args.repeat > 1:
        print("workload metric median q1 q3 spread unit")
        for (name, metric), runs in values.items():
            q1, median, q3 = statistics.quantiles(runs, n=4)
            spread = (q3 - q1) / median if median else 0.0
            print(
                name, metric, f"{median:.6g}", f"{q1:.6g}", f"{q3:.6g}",
                f"{spread:.4f}", units[metric],
            )  # fmt: skip
    return 1 if failures else 0


def _host_matmul(stdout: str) -> tuple[float, float]:
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[1] == "host.ref_matmul_ms":
            return float(fields[2]), float(fields[3])
    return 1.0, 1.0


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if args.workload and args.repeat == 1:
        return run_here(args)
    return run_children(args)


if __name__ == "__main__":
    sys.exit(main())
