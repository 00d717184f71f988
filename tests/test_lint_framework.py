"""Framework-level tests for ``tools/lint``: pragmas and the CLI.

The CLI tests write throwaway fixture modules *inside* the repository
(``collect_sources`` keys everything by repo-relative path) and remove
them afterwards; names are chosen so pytest never collects them.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from tools.lint.cli import main
from tools.lint.core import REPO_ROOT, ModuleSource, run_rules
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
        assert not run_rules([ExceptionDisciplineRule()], [source])

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
        assert run_rules([ExceptionDisciplineRule()], [source])

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
        assert run_rules([ExceptionDisciplineRule()], [source])

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
        assert not run_rules([ExceptionDisciplineRule()], [source])

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
        assert not run_rules([ExceptionDisciplineRule()], [source])


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
        assert main([self.rel(path)]) == 1
        out = capsys.readouterr().out
        assert "EXC001" in out and "1 violation" in out

    def test_json_report_schema(self, repo_fixture_file, capsys):
        path = repo_fixture_file(VIOLATING)
        assert main([self.rel(path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert report["summary"] == {"checked_files": 1, "total": 1}
        (finding,) = [v for v in report["violations"] if v["rule"] == "EXC001"]
        assert set(finding) == {"rule", "path", "line", "col", "message", "snippet"}

    def test_unknown_select_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--select", "NOPE999"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--baseline", "tools/lint/baseline.json"], ["--no-baseline"], ["--update-baseline"]],
    )
    def test_no_flag_accepts_a_violation(self, repo_fixture_file, flags):
        """Every violation fails: there is no baseline to record it in."""
        path = repo_fixture_file(VIOLATING)
        with pytest.raises(SystemExit) as excinfo:
            main([self.rel(path), *flags])
        assert excinfo.value.code == 2
        assert not (REPO_ROOT / "tools" / "lint" / "baseline.json").exists()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("LCK001", "DET001", "MPX001", "EXC001", "THR001"):
            assert code in out
        assert "DOC001" not in out

    def test_syntax_error_is_reported_not_raised(self, repo_fixture_file, capsys):
        path = repo_fixture_file("def broken(:\n")
        assert main([self.rel(path)]) == 1
        assert "PARSE" in capsys.readouterr().out

    def test_the_tree_is_clean(self):
        """`python -m tools.lint` must be green at HEAD (the CI contract)."""
        assert main([]) == 0
