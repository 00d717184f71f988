"""``python -m repro.reports`` — the one way to list, run and gate benches."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Sequence

from repro.reports.artifacts import write_artifact
from repro.reports.docs_sync import check_paper_map, sync_paper_map
from repro.reports.registry import all_specs, bench_ids, get_spec
from repro.reports.spec import REPO_ROOT, BenchSpec
from repro.reports.trend import check_trend

__all__ = ["main", "run_bench"]


def run_bench(
    spec: BenchSpec,
    smoke: bool,
    out_dir: Path | None = None,
    param_overrides: dict[str, Any] | None = None,
) -> tuple[dict[str, Any], Path | None, list[str]]:
    """Generate, check, stamp, validate and write one artifact.

    Returns ``(payload, written_path, checker_problems)``.  Schema problems
    raise; checker problems are returned so the caller decides severity.
    Without ``out_dir`` the target is the committed baseline at the repo
    root, which a payload that fails its own ``check`` must not replace (the
    trend gate would compare every later run against it): nothing is written
    and ``written_path`` is ``None``.  Under ``out_dir`` the artifact is
    written either way, so CI can upload what failed.
    """
    params = spec.params_for(smoke)
    params.update(param_overrides or {})
    module = spec.load_module()
    payload = module.run(params)
    problems = list(module.check(payload, smoke))
    if problems and out_dir is None:
        return payload, None, problems
    written = write_artifact(
        spec, payload, mode="smoke" if smoke else "full", path=spec.artifact_path(out_dir)
    )
    return payload, written, problems


def _parse_param(text: str) -> tuple[str, Any]:
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"--param wants key=value, got {text!r}")
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def _run_isolated(
    spec: BenchSpec, smoke: bool, out_dir: Path | None, overrides: dict[str, Any]
) -> list[str]:
    """Run one bench in a fresh child process; returns failure strings.

    Isolation matters for two reasons: the per-spec ``timeout_s`` becomes
    enforceable (the child is killed, not abandoned), and benches that fork
    worker processes (fig9, fault_recovery) never inherit thread state from
    an earlier bench's serving runtime — fork-after-threads deadlocks were
    observed when the whole sweep shared one interpreter.
    """
    argv = [sys.executable, "-m", "repro.reports", "--run", spec.bench_id, "--in-process"]
    if smoke:
        argv.append("--smoke")
    if out_dir is not None:
        argv.extend(["--out-dir", str(out_dir)])
    for key, value in overrides.items():
        argv.extend(["--param", f"{key}={json.dumps(value)}"])
    env = dict(os.environ)
    # Single-thread BLAS: a multi-threaded GEMM in one worker spills onto the
    # other cores, which the timing and core-utilisation checks then see.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = "1"
    src_dir = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    try:
        result = subprocess.run(
            argv, capture_output=True, text=True, timeout=spec.timeout_s, env=env
        )
    except subprocess.TimeoutExpired:
        return [f"{spec.bench_id}: timed out after {spec.timeout_s:.0f}s"]
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        detail = result.stderr.strip().splitlines()
        tail = detail[-1] if detail else f"exit code {result.returncode}"
        return [f"{spec.bench_id}: {tail}"]
    return []


def _run_one(
    spec: BenchSpec, smoke: bool, out_dir: Path | None, overrides: dict[str, Any]
) -> list[str]:
    """Run one bench in this interpreter; returns failure strings."""
    started = time.perf_counter()
    try:
        payload, written, problems = run_bench(spec, smoke, out_dir, overrides)
    except Exception as exc:
        print(f"[FAIL] {spec.bench_id}: {exc}", file=sys.stderr)
        return [f"{spec.bench_id}: generation failed: {exc}"]
    elapsed = time.perf_counter() - started
    spec.load_module().print_report(payload)
    mode = "smoke" if smoke else "full"
    status = "ok" if not problems else "CHECK-FAILED"
    target = written if written is not None else f"{spec.artifact_path()} left untouched"
    print(f"[{status}] {spec.bench_id} ({mode}, {elapsed:.1f}s) -> {target}")
    for problem in problems:
        print(f"    - {problem}", file=sys.stderr)
    return [f"{spec.bench_id}: {problem}" for problem in problems]


def _cmd_list() -> int:
    width = max(len(spec.bench_id) for spec in all_specs())
    print(f"{'BENCH ID':{width}}  {'ANCHOR':24}  {'STATUS':8}  {'GATES':5}  ARTIFACT")
    for spec in all_specs():
        status = "measured" if spec.measured else "modelled"
        print(
            f"{spec.bench_id:{width}}  {spec.paper_anchor:24.24}  {status:8}  "
            f"{len(spec.gates):5}  {spec.artifact}"
        )
    print(f"{len(all_specs())} registered benchmark(s)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.reports",
        description="Registry-driven benchmark factory with schema-validated "
        "artifacts and perf-regression gating.",
    )
    parser.add_argument("--list", action="store_true", help="list registered benchmarks")
    parser.add_argument(
        "--run", action="append", default=[], metavar="ID", help="run one bench (repeatable)"
    )
    parser.add_argument("--all", action="store_true", help="run every registered bench")
    parser.add_argument("--smoke", action="store_true", help="CI-scale parameters")
    parser.add_argument(
        "--param",
        action="append",
        type=_parse_param,
        default=[],
        metavar="KEY=VALUE",
        help="override one generator parameter of the single --run bench "
        "(value parsed as JSON, else string)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="trend-gate freshly generated artifacts against the committed "
        "BENCH_*.json baselines (generation goes to a temp dir unless "
        "--out-dir is given, so the baselines are not clobbered)",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=None, help="directory for generated artifacts"
    )
    parser.add_argument(
        "--sync-docs",
        action="store_true",
        help="rewrite the generated registry-status table in docs/paper_map.md",
    )
    parser.add_argument(
        "--check-docs",
        action="store_true",
        help="fail if docs/paper_map.md's status table is out of sync",
    )
    parser.add_argument(
        "--in-process",
        action="store_true",
        help="run generators in this interpreter instead of one child process "
        "per bench (no timeout enforcement; used internally and for debugging)",
    )
    args = parser.parse_args(argv)

    if args.sync_docs:
        changed = sync_paper_map()
        print("docs/paper_map.md status table " + ("rewritten" if changed else "already in sync"))
        return 0
    if args.check_docs:
        problems = check_paper_map()
        if problems:
            print("registry docs check FAILED:")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print("registry docs check OK")
        return 0
    if args.list:
        return _cmd_list()

    if not args.run and not args.all:
        parser.print_help()
        return 2
    if args.param and (args.all or len(args.run) != 1):
        parser.error("--param needs exactly one --run (parameters are per bench)")
    overrides = dict(args.param)

    ids = bench_ids() if args.all else args.run
    specs = [get_spec(bench_id) for bench_id in ids]

    out_dir = args.out_dir
    temp_ctx = None
    if args.check and out_dir is None:
        temp_ctx = tempfile.TemporaryDirectory(prefix="repro-reports-")
        out_dir = Path(temp_ctx.name)
    try:
        failures: list[str] = []
        runner = _run_one if args.in_process else _run_isolated
        for spec in specs:
            failures.extend(runner(spec, args.smoke, out_dir, overrides))

        if args.check:
            report = check_trend(specs, fresh_dir=out_dir or REPO_ROOT)
            print(report.describe())
            if not report.ok:
                failures.append("trend gating failed")

        if failures:
            print(f"{len(failures)} failure(s):", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        return 0
    finally:
        if temp_ctx is not None:
            temp_ctx.cleanup()
