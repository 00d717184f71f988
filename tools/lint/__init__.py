"""Repo-native static analysis (``repro-lint``).

An AST-visitor rule framework plus repository-specific rules encoding the
contracts this codebase otherwise enforces only by convention: lock
discipline (LCK001), determinism of seeded paths (DET001),
multiprocessing hygiene (MPX001), exception discipline and the serving
error taxonomy (EXC001) and thread hygiene (THR001).  The docs contracts
are ``tools/check_docs.py``'s job.

Run with ``python -m tools.lint`` — see :mod:`tools.lint.cli` for flags
and ``docs/static_analysis.md`` for the rule catalogue and pragma syntax.
"""

from tools.lint.core import ModuleSource, Rule, Violation, collect_sources, run_rules
from tools.lint.rules import ALL_RULES, select_rules

__all__ = [
    "ALL_RULES",
    "ModuleSource",
    "Rule",
    "Violation",
    "collect_sources",
    "run_rules",
    "select_rules",
]
