"""Generated "measured vs modelled" status table for docs/paper_map.md.

The table between the BEGIN/END markers in ``docs/paper_map.md`` is owned by
the registry: ``python -m repro.reports --sync-docs`` rewrites it and
``tools/check_docs.py`` (and tier-1 via the docs test) fails when it drifts,
so every registered bench id is guaranteed to appear in the paper map with
its machine-readable measured/modelled status.  The registry owns each
row's content, the document owns the row order (paper order: figures,
tables, ablations, beyond-paper); a newly added bench is appended.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.reports.registry import all_specs
from repro.reports.spec import REPO_ROOT

__all__ = [
    "BEGIN_MARKER",
    "END_MARKER",
    "render_status_table",
    "sync_paper_map",
    "check_paper_map",
]

BEGIN_MARKER = "<!-- BEGIN GENERATED: repro.reports status (python -m repro.reports --sync-docs) -->"
END_MARKER = "<!-- END GENERATED: repro.reports status -->"

PAPER_MAP = REPO_ROOT / "docs" / "paper_map.md"


def render_status_table(current: str) -> str:
    """The registry rendered as a Markdown table (one row per bench id).

    Benches that already have a row in ``current`` keep its position; the
    rest follow in registry order.
    """
    rows = {}
    for spec in all_specs():
        status = "**measured**" if spec.measured else "modelled"
        gated = "; ".join(f"`{gate.path}`" for gate in spec.gates) or "—"
        rows[spec.bench_id] = (
            f"| `{spec.bench_id}` | {spec.paper_anchor} | {status} | {gated} "
            f"| [{spec.artifact}](../{spec.artifact}) |"
        )
    placed = re.findall(r"^\| `(\w+)` \|", current, flags=re.MULTILINE)
    order = dict.fromkeys([bench_id for bench_id in placed if bench_id in rows] + list(rows))
    lines = [
        "| Bench id | Paper anchor | Status | Gated metrics | Artifact |",
        "| --- | --- | --- | --- | --- |",
        *(rows[bench_id] for bench_id in order),
    ]
    return "\n".join(lines)


def _splice(text: str) -> str:
    """``text`` with its generated block re-rendered from the registry."""
    begin = text.index(BEGIN_MARKER) + len(BEGIN_MARKER)
    end = text.index(END_MARKER)
    if end < begin:
        raise ValueError("paper_map.md status markers are out of order")
    return text[:begin] + "\n" + render_status_table(text[begin:end]) + "\n" + text[end:]


def sync_paper_map(path: Path | None = None) -> bool:
    """Rewrite the generated block; returns True when the file changed."""
    target = path or PAPER_MAP
    text = target.read_text()
    if BEGIN_MARKER not in text or END_MARKER not in text:
        raise ValueError(
            f"{target} is missing the generated-status markers; re-add "
            f"{BEGIN_MARKER!r} and {END_MARKER!r}"
        )
    updated = _splice(text)
    if updated == text:
        return False
    target.write_text(updated)
    return True


def check_paper_map(path: Path | None = None) -> list[str]:
    """Problems with the paper map's registry coverage (empty = in sync)."""
    target = path or PAPER_MAP
    problems: list[str] = []
    try:
        text = target.read_text()
    except FileNotFoundError:
        return [f"{target} does not exist"]
    if BEGIN_MARKER not in text or END_MARKER not in text:
        return [f"{target}: generated-status markers missing"]
    if _splice(text) != text:
        problems.append(
            f"{target}: registry status table is stale — run "
            "`python -m repro.reports --sync-docs`"
        )
    for spec in all_specs():
        if f"`{spec.bench_id}`" not in text:
            problems.append(f"{target}: bench id {spec.bench_id!r} not mentioned")
    return problems
