"""Core of the repo-native static analyser (``repro-lint``).

The framework is deliberately small: a :class:`ModuleSource` wraps one
parsed Python file (source text, AST, and ``# repro: allow[...]`` pragma
map); a :class:`Rule` inspects one module at a time
(:meth:`Rule.check_module`) and yields :class:`Violation` records; the
:func:`run_rules` driver applies pragma suppression and returns the sorted
survivors.

Rules encode *this repository's* concurrency/determinism/resource
contracts (lock discipline, seeded-RNG flow, multiprocessing hygiene, the
serving error taxonomy, thread hygiene) — the classes
of invariant that previous PRs only caught by measurement (PR 5's torn
shared Adam moments, PR 6's seqlock generation protocol).  A generic linter
cannot know that ``predict`` under a write lock stalls every reader or that
``np.random`` outside :mod:`repro.utils.rng` breaks replay; these rules do.

Suppression is per line: a trailing (or immediately preceding) comment
``# repro: allow[TAG]`` silences a rule on that line, where ``TAG`` is the
rule code (``LCK001``) or one of the rule's short tags (``lock``,
``clock``, ``rng``, ``exc``, ``mp``, ``thread``).  Everything after the
closing bracket is free-form justification and is encouraged.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Violation",
    "ModuleSource",
    "Rule",
    "collect_sources",
    "run_rules",
    "REPO_ROOT",
]

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

_PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\- ]+)\]")

# Directories never worth parsing.
_EXCLUDED_DIR_NAMES = {
    "__pycache__",
    ".git",
    ".ruff_cache",
    ".pytest_cache",
    "node_modules",
}


@dataclass(frozen=True)
class Violation:
    """One rule finding, anchored to a repo-relative file and line."""

    rule: str
    path: str  # repo-relative, posix separators
    line: int
    col: int
    message: str
    snippet: str = ""

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


class ModuleSource:
    """One parsed Python source file plus its pragma map."""

    def __init__(self, path: Path, rel: str, text: str) -> None:
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text)  # SyntaxError propagates to the caller
        self._pragmas: dict[int, set[str]] | None = None

    @classmethod
    def from_path(cls, path: Path, root: Path = REPO_ROOT) -> "ModuleSource":
        rel = path.resolve().relative_to(root.resolve()).as_posix()
        return cls(path, rel, path.read_text(encoding="utf-8"))

    def line(self, lineno: int) -> str:
        """Stripped source of 1-indexed ``lineno`` (empty if out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    @property
    def pragmas(self) -> dict[int, set[str]]:
        """1-indexed line -> lowered set of ``allow[...]`` tags on it."""
        if self._pragmas is None:
            found: dict[int, set[str]] = {}
            for number, raw in enumerate(self.lines, start=1):
                if "repro:" not in raw:
                    continue
                match = _PRAGMA_RE.search(raw)
                if match is None:
                    continue
                tags = {
                    tag.strip().lower()
                    for tag in match.group(1).split(",")
                    if tag.strip()
                }
                if tags:
                    found[number] = tags
            self._pragmas = found
        return self._pragmas

    def allowed(self, lineno: int, tags: Iterable[str]) -> bool:
        """Is a violation on ``lineno`` suppressed for any of ``tags``?

        A pragma counts when it sits on the violating line itself or on the
        line immediately above it (standalone-comment style).
        """
        wanted = {tag.lower() for tag in tags}
        for candidate in (lineno, lineno - 1):
            present = self.pragmas.get(candidate)
            if present and (present & wanted):
                return True
        return False


class Rule:
    """Base class for all checkers.

    Subclasses set ``code`` (``LCK001``), ``name``, ``description`` and
    optionally ``tags`` — extra pragma spellings accepted besides the code
    itself, and override :meth:`check_module`.
    """

    code: str = "XXX000"
    name: str = ""
    description: str = ""
    tags: tuple[str, ...] = ()

    def suppression_tags(self) -> tuple[str, ...]:
        return (self.code.lower(), *self.tags)

    def check_module(self, module: ModuleSource) -> Iterator[Violation]:
        return iter(())

    # Convenience constructor used by every concrete rule.
    def violation(
        self, module: ModuleSource, node: ast.AST | int, message: str
    ) -> Violation:
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Violation(
            rule=self.code,
            path=module.rel,
            line=line,
            col=col,
            message=message,
            snippet=module.line(line),
        )


def collect_sources(
    paths: Sequence[str | Path], root: Path = REPO_ROOT
) -> tuple[list[ModuleSource], list[Violation]]:
    """Parse every ``.py`` file under ``paths`` (files or directories).

    Returns ``(sources, errors)`` where errors are PARSE-rule violations
    for unreadable/unparseable files — the linter reports them instead of
    crashing mid-run.
    """
    files: list[Path] = []
    for entry in paths:
        path = Path(entry)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            for found in sorted(path.rglob("*.py")):
                if not _EXCLUDED_DIR_NAMES.intersection(found.parts):
                    files.append(found)
        elif path.suffix == ".py":
            files.append(path)

    sources: list[ModuleSource] = []
    errors: list[Violation] = []
    seen: set[Path] = set()
    for path in files:
        resolved = path.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        rel = resolved.relative_to(root.resolve()).as_posix()
        try:
            sources.append(ModuleSource.from_path(resolved, root=root))
        except SyntaxError as exc:
            errors.append(
                Violation(
                    rule="PARSE",
                    path=rel,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"file does not parse: {exc.msg}",
                )
            )
        except OSError as exc:
            errors.append(
                Violation(
                    rule="PARSE", path=rel, line=1, col=0,
                    message=f"file is unreadable: {exc}",
                )
            )
    return sources, errors


def run_rules(
    rules: Sequence[Rule], sources: Sequence[ModuleSource]
) -> list[Violation]:
    """Run every rule over every source, apply pragmas, sort the result."""
    survivors: list[Violation] = []
    for rule in rules:
        tags = rule.suppression_tags()
        for module in sources:
            for violation in rule.check_module(module):
                if not module.allowed(violation.line, tags):
                    survivors.append(violation)
    return sorted(survivors, key=lambda v: v.sort_key)
