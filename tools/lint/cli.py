"""``python -m tools.lint`` — the repo-native contract checker CLI.

Exit codes: 0 = clean against the baseline, 1 = new violations (or a
baseline problem), 2 = usage error.  ``--json`` emits a machine-readable
report (schema below) instead of human output.

Usage::

    python -m tools.lint                      # code rules over src/repro
    python -m tools.lint src tools            # explicit paths
    python -m tools.lint --all                # + docs contracts (DOC001)
    python -m tools.lint --select LCK001,DET001
    python -m tools.lint --json
    python -m tools.lint --update-baseline    # accept the current state
    python -m tools.lint --list-rules

JSON schema (stable, ``"version": 1``)::

    {"version": 1,
     "violations": [{"rule", "path", "line", "col", "message",
                     "snippet", "fingerprint", "baselined"}],
     "stale_baseline": [{"rule", "path", "snippet", "fingerprint"}],
     "summary": {"checked_files", "total", "new", "baselined", "stale"}}
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tools.lint.baseline import Baseline, DEFAULT_BASELINE_PATH, split_by_baseline
from tools.lint.core import REPO_ROOT, collect_sources, run_rules
from tools.lint.rules import ALL_RULES, default_rules, select_rules

DEFAULT_PATHS = ("src/repro",)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--all",
        action="store_true",
        help="also run non-default checkers (DOC001 docs contracts)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (overrides the default set)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE_PATH,
        help="baseline file (default: tools/lint/baseline.json)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: every violation fails the run",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to accept the current violations "
        "(stale entries expire; surviving justifications are kept)",
    )
    parser.add_argument("--list-rules", action="store_true", help="print the catalogue")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    # Project rules (DOC001 doctests) import the package.
    src = REPO_ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))

    if args.list_rules:
        for rule in ALL_RULES:
            marker = " " if rule.default_enabled else " (--all)"
            print(f"{rule.code}{marker}  {rule.name}: {rule.description}")
        return 0

    if args.select:
        try:
            rules = select_rules(args.select.split(","))
        except ValueError as exc:
            parser.error(str(exc))  # exits 2
    elif args.all:
        rules = list(ALL_RULES)
    else:
        rules = default_rules()

    sources, parse_errors = collect_sources(args.paths, root=REPO_ROOT)
    violations = parse_errors + run_rules(rules, sources, root=REPO_ROOT)

    if args.no_baseline:
        baseline = Baseline()
    else:
        try:
            baseline = Baseline.load(args.baseline)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    new, accepted = split_by_baseline(violations, baseline)
    stale = baseline.stale_entries(violations)

    if args.update_baseline:
        updated = Baseline.from_violations(violations, previous=baseline)
        updated.save(args.baseline)
        print(
            f"baseline updated: {len(updated.entries)} entr"
            f"{'y' if len(updated.entries) == 1 else 'ies'} "
            f"({len(stale)} expired) -> {args.baseline}"
        )
        return 0

    if args.json:
        report = {
            "version": 1,
            "violations": [
                {**violation.to_json(), "baselined": violation in baseline}
                for violation in violations
            ],
            "stale_baseline": [entry.to_json() for entry in stale],
            "summary": {
                "checked_files": len(sources),
                "total": len(violations),
                "new": len(new),
                "baselined": len(accepted),
                "stale": len(stale),
            },
        }
        print(json.dumps(report, indent=2))
        return 1 if new else 0

    rule_word = f"{len(rules)} rule{'s' if len(rules) != 1 else ''}"
    if new:
        print(f"repro-lint: {len(new)} new violation(s) ({rule_word}):")
        for violation in new:
            print(f"  {violation.format()}")
    if accepted:
        print(f"repro-lint: {len(accepted)} baselined violation(s) (accepted):")
        for violation in accepted:
            justification = baseline.justification_for(violation.fingerprint)
            suffix = f"  [{justification}]" if justification else ""
            print(f"  {violation.format()}{suffix}")
    if stale:
        print(
            f"repro-lint: {len(stale)} stale baseline entr"
            f"{'y' if len(stale) == 1 else 'ies'} no longer fire(s); "
            "run --update-baseline to expire:"
        )
        for entry in stale:
            print(f"  {entry.path}: {entry.rule} {entry.snippet!r}")
    if not new:
        print(
            f"repro-lint OK: {len(sources)} file(s), {rule_word}, "
            f"{len(accepted)} baselined, 0 new"
        )
        return 0
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
