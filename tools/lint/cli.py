"""``python -m tools.lint`` — the repo-native contract checker CLI.

Exit codes: 0 = clean, 1 = violations, 2 = usage error.  Every violation
fails the run; a line that must stay as it is carries a pragma (see
``docs/static_analysis.md``).  ``--json`` emits a machine-readable report
(schema below) instead of human output.

Usage::

    python -m tools.lint                      # code rules over src/repro
    python -m tools.lint src tools            # explicit paths
    python -m tools.lint --select LCK001,DET001
    python -m tools.lint --json
    python -m tools.lint --list-rules

JSON schema (stable, ``"version": 1``)::

    {"version": 1,
     "violations": [{"rule", "path", "line", "col", "message", "snippet"}],
     "summary": {"checked_files", "total"}}
"""

from __future__ import annotations

import argparse
import json

from tools.lint.core import REPO_ROOT, collect_sources, run_rules
from tools.lint.rules import ALL_RULES, select_rules

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
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: every rule)",
    )
    parser.add_argument("--list-rules", action="store_true", help="print the catalogue")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.name}: {rule.description}")
        return 0

    if args.select:
        try:
            rules = select_rules(args.select.split(","))
        except ValueError as exc:
            parser.error(str(exc))  # exits 2
    else:
        rules = list(ALL_RULES)

    sources, parse_errors = collect_sources(args.paths, root=REPO_ROOT)
    violations = parse_errors + run_rules(rules, sources)

    if args.json:
        report = {
            "version": 1,
            "violations": [violation.to_json() for violation in violations],
            "summary": {"checked_files": len(sources), "total": len(violations)},
        }
        print(json.dumps(report, indent=2))
        return 1 if violations else 0

    rule_word = f"{len(rules)} rule{'s' if len(rules) != 1 else ''}"
    if violations:
        print(f"repro-lint: {len(violations)} violation(s) ({rule_word}):")
        for violation in violations:
            print(f"  {violation.format()}")
        return 1
    print(f"repro-lint OK: {len(sources)} file(s), {rule_word}, 0 violations")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
