"""Framework-level tests for ``tools/lint``: pragmas, baseline, CLI.

The CLI tests write throwaway fixture modules *inside* the repository
(``collect_sources`` keys everything by repo-relative path) and remove
them afterwards; names are chosen so pytest never collects them.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from tools.lint.baseline import Baseline, BaselineEntry, split_by_baseline
from tools.lint.cli import main
from tools.lint.core import REPO_ROOT, ModuleSource, Violation, run_rules
from tools.lint.rules.exc001 import ExceptionDisciplineRule


def module(code: str, rel: str = "src/repro/_fixture.py") -> ModuleSource:
    return ModuleSource(Path(rel), rel, textwrap.dedent(code))


VIOLATING = """
def risky():
    try:
        work()
    except Exception:
        pass
"""

CLEAN = """
def risky(log):
    try:
        work()
    except Exception as exc:
        log.warning("work failed: %s", exc)
"""


@pytest.fixture
def repo_fixture_file():
    """A throwaway .py file inside the repo tree, cleaned up afterwards."""
    path = REPO_ROOT / "tests" / "_lint_cli_fixture.py"
    created = []

    def write(code: str) -> Path:
        path.write_text(textwrap.dedent(code), encoding="utf-8")
        created.append(path)
        return path

    yield write
    for p in created:
        p.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Pragma mechanics
# ----------------------------------------------------------------------
class TestPragmas:
    def test_pragma_on_preceding_line_suppresses(self):
        source = module(
            """
            def risky():
                try:
                    work()
                # repro: allow[exc] teardown is best-effort
                except Exception:
                    pass
            """
        )
        assert not run_rules([ExceptionDisciplineRule()], [source], root=REPO_ROOT)

    def test_pragma_two_lines_away_does_not_suppress(self):
        source = module(
            """
            def risky():
                # repro: allow[exc] too far from the violation
                try:
                    work()
                except Exception:
                    pass
            """
        )
        assert run_rules([ExceptionDisciplineRule()], [source], root=REPO_ROOT)

    def test_wrong_tag_does_not_suppress(self):
        source = module(
            """
            def risky():
                try:
                    work()
                except Exception:  # repro: allow[clock] wrong tag
                    pass
            """
        )
        assert run_rules([ExceptionDisciplineRule()], [source], root=REPO_ROOT)

    def test_rule_code_works_as_tag(self):
        source = module(
            """
            def risky():
                try:
                    work()
                except Exception:  # repro: allow[EXC001] code spelling
                    pass
            """
        )
        assert not run_rules([ExceptionDisciplineRule()], [source], root=REPO_ROOT)

    def test_multi_tag_pragma(self):
        source = module(
            """
            def risky():
                try:
                    work()
                except Exception:  # repro: allow[lock, exc] shared line
                    pass
            """
        )
        assert not run_rules([ExceptionDisciplineRule()], [source], root=REPO_ROOT)


# ----------------------------------------------------------------------
# Fingerprints and the baseline
# ----------------------------------------------------------------------
class TestBaseline:
    def fingerprint_violation(self, line: int = 5) -> Violation:
        return Violation(
            rule="EXC001",
            path="src/repro/x.py",
            line=line,
            col=4,
            message="silent broad except",
            snippet="except Exception:",
        )

    def test_fingerprint_survives_line_drift(self):
        assert (
            self.fingerprint_violation(line=5).fingerprint
            == self.fingerprint_violation(line=50).fingerprint
        )

    def test_fingerprint_changes_with_snippet(self):
        moved = Violation(
            rule="EXC001",
            path="src/repro/x.py",
            line=5,
            col=4,
            message="silent broad except",
            snippet="except BaseException:",
        )
        assert moved.fingerprint != self.fingerprint_violation().fingerprint

    def test_split_by_baseline(self):
        known = self.fingerprint_violation()
        fresh = Violation(
            rule="THR001", path="src/repro/y.py", line=2, col=0,
            message="unjoined thread", snippet="threading.Thread(target=f)",
        )
        baseline = Baseline.from_violations([known])
        new, accepted = split_by_baseline([known, fresh], baseline)
        assert accepted == [known] and new == [fresh]

    def test_stale_entries_expire_on_update(self):
        gone = self.fingerprint_violation()
        baseline = Baseline.from_violations([gone])
        assert baseline.stale_entries([]) == baseline.entries
        updated = Baseline.from_violations([], previous=baseline)
        assert updated.entries == []

    def test_justifications_survive_update(self):
        violation = self.fingerprint_violation()
        previous = Baseline(
            [
                BaselineEntry(
                    rule=violation.rule,
                    path=violation.path,
                    snippet=violation.snippet,
                    fingerprint=violation.fingerprint,
                    justification="grandfathered: see PR 9",
                )
            ]
        )
        updated = Baseline.from_violations([violation], previous=previous)
        assert updated.justification_for(violation.fingerprint) == (
            "grandfathered: see PR 9"
        )

    def test_save_load_round_trip(self, tmp_path):
        violation = self.fingerprint_violation()
        baseline = Baseline.from_violations([violation])
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert violation in loaded
        assert json.loads(path.read_text())["version"] == 1

    def test_load_missing_file_is_empty(self, tmp_path):
        assert Baseline.load(tmp_path / "absent.json").entries == []

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        with pytest.raises(ValueError):
            Baseline.load(path)


# ----------------------------------------------------------------------
# CLI exit codes and JSON schema
# ----------------------------------------------------------------------
class TestCli:
    def rel(self, path: Path) -> str:
        return path.relative_to(REPO_ROOT).as_posix()

    def test_clean_run_exits_zero(self, capsys):
        assert main(["--select", "LCK001", "src/repro/utils/rwlock.py"]) == 0
        assert "repro-lint OK" in capsys.readouterr().out

    def test_new_violation_exits_one(self, repo_fixture_file, capsys):
        path = repo_fixture_file(VIOLATING)
        assert main([self.rel(path), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "EXC001" in out and "new violation" in out

    def test_json_report_schema(self, repo_fixture_file, capsys):
        path = repo_fixture_file(VIOLATING)
        assert main([self.rel(path), "--no-baseline", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert set(report["summary"]) == {
            "checked_files", "total", "new", "baselined", "stale",
        }
        (finding,) = [v for v in report["violations"] if v["rule"] == "EXC001"]
        assert set(finding) == {
            "rule", "path", "line", "col", "message", "snippet",
            "fingerprint", "baselined",
        }
        assert finding["baselined"] is False

    def test_baseline_accept_then_expire(self, repo_fixture_file, tmp_path, capsys):
        path = repo_fixture_file(VIOLATING)
        baseline = tmp_path / "baseline.json"
        rel = self.rel(path)

        # 1. Accept the current state.
        assert main([rel, "--baseline", str(baseline), "--update-baseline"]) == 0
        assert len(json.loads(baseline.read_text())["entries"]) == 1

        # 2. Baselined violations no longer fail the run.
        capsys.readouterr()
        assert main([rel, "--baseline", str(baseline)]) == 0
        assert "baselined violation" in capsys.readouterr().out

        # 3. Fixing the code surfaces the entry as stale...
        path.write_text(textwrap.dedent(CLEAN), encoding="utf-8")
        capsys.readouterr()
        assert main([rel, "--baseline", str(baseline)]) == 0
        assert "stale baseline" in capsys.readouterr().out

        # 4. ...and --update-baseline expires it.
        assert main([rel, "--baseline", str(baseline), "--update-baseline"]) == 0
        assert json.loads(baseline.read_text())["entries"] == []

    def test_unknown_select_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--select", "NOPE999"])
        assert excinfo.value.code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("LCK001", "DET001", "MPX001", "EXC001", "THR001"):
            assert code in out
        assert "DOC001" in out and "--all" in out

    def test_syntax_error_is_reported_not_raised(self, repo_fixture_file, capsys):
        path = repo_fixture_file("def broken(:\n")
        assert main([self.rel(path), "--no-baseline"]) == 1
        assert "PARSE" in capsys.readouterr().out

    def test_committed_baseline_matches_the_tree(self):
        """`python -m tools.lint` must be green at HEAD (the CI contract)."""
        assert main([]) == 0
