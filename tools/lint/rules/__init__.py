"""Rule registry for ``tools.lint``.

``ALL_RULES`` is the single source of truth: the CLI and the docs
rule-catalogue are both generated from it.  Adding a
rule means adding a module here and one entry to the list.
"""

from __future__ import annotations

from tools.lint.core import Rule
from tools.lint.rules.det001 import DeterminismRule
from tools.lint.rules.exc001 import ExceptionDisciplineRule
from tools.lint.rules.lck001 import LockDisciplineRule
from tools.lint.rules.mpx001 import MultiprocessingHygieneRule
from tools.lint.rules.thr001 import ThreadHygieneRule

__all__ = ["ALL_RULES", "select_rules"]

ALL_RULES: tuple[Rule, ...] = (
    LockDisciplineRule(),
    DeterminismRule(),
    MultiprocessingHygieneRule(),
    ExceptionDisciplineRule(),
    ThreadHygieneRule(),
)


def select_rules(codes: list[str]) -> list[Rule]:
    """Resolve ``--select`` codes (case-insensitive); unknown codes raise."""
    by_code = {rule.code.lower(): rule for rule in ALL_RULES}
    selected: list[Rule] = []
    for code in codes:
        rule = by_code.get(code.strip().lower())
        if rule is None:
            known = ", ".join(sorted(r.code for r in ALL_RULES))
            raise ValueError(f"unknown rule code {code!r}; known rules: {known}")
        if rule not in selected:
            selected.append(rule)
    return selected
