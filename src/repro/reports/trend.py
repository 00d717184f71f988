"""Trend tracking: gate freshly generated artifacts against committed ones.

``check_trend`` diffs a fresh artifact against the committed baseline for
every :class:`~repro.reports.spec.MetricGate` the spec declares and reports,
per metric, the committed value, the fresh value, the tolerated bound and
the verdict.  A gated metric that regresses beyond its declared tolerance
fails the check with the offending metric named.

Modelled benchmarks (``spec.measured is False``) are *never* gated — their
payloads are not host measurements (fig 11 is a closed form), so a
"regression" there would only be a changed formula.  They are reported as
skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.reports.artifacts import ArtifactError, read_artifact
from repro.reports.spec import BenchSpec, MetricGate

__all__ = [
    "MetricPathError",
    "extract_metric",
    "GateResult",
    "TrendReport",
    "compare_documents",
    "check_trend",
]


class MetricPathError(KeyError):
    """A gate path does not resolve to a scalar inside the payload."""


def _select_row(items: list[Any], selector: str, path: str) -> Any:
    if "=" in selector:
        key, _, wanted = selector.partition("=")
        for item in items:
            if not isinstance(item, dict) or key not in item:
                continue
            have = item[key]
            try:
                if float(have) == float(wanted):
                    return item
            except (TypeError, ValueError):
                pass
            if str(have) == wanted:
                return item
        raise MetricPathError(f"{path}: no row with {key}={wanted}")
    try:
        return items[int(selector)]
    except (ValueError, IndexError) as exc:
        raise MetricPathError(f"{path}: bad index [{selector}]: {exc}") from None


def extract_metric(payload: Any, path: str) -> float:
    """Resolve a dotted/selector path to a numeric scalar.

    Path language: ``a.b.c`` walks dict keys; ``rows[3]`` indexes a list;
    ``rows[mode=sparse_batched]`` selects the first row whose ``mode`` field
    equals the value (numeric comparison when both sides parse as numbers).

    >>> extract_metric({"rows": [{"mode": "a", "x": 1.5}]}, "rows[mode=a].x")
    1.5
    """
    node = payload
    for step in path.split("."):
        key, bracket, rest = step.partition("[")
        if key:
            if not isinstance(node, dict) or key not in node:
                raise MetricPathError(f"{path}: no key {key!r} at this level")
            node = node[key]
        if bracket:
            if not rest.endswith("]"):
                raise MetricPathError(f"{path}: malformed selector in {step!r}")
            if not isinstance(node, list):
                raise MetricPathError(f"{path}: {key!r} is not a list")
            node = _select_row(node, rest[:-1], path)
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise MetricPathError(f"{path}: resolves to {type(node).__name__}, not a number")
    return float(node)


@dataclass(frozen=True)
class GateResult:
    bench_id: str
    metric: str
    direction: str
    committed: float | None
    fresh: float | None
    bound: float | None
    ok: bool
    detail: str = ""

    def describe(self) -> str:
        status = "ok" if self.ok else "REGRESSION"
        arrow = ">=" if self.direction == "higher" else "<="
        if self.committed is None or self.fresh is None or self.bound is None:
            return f"[{status}] {self.bench_id}:{self.metric} — {self.detail}"
        line = (
            f"[{status}] {self.bench_id}:{self.metric} "
            f"committed={self.committed:g} fresh={self.fresh:g} "
            f"(must be {arrow} {self.bound:g})"
        )
        return line + (f" — {self.detail}" if self.detail else "")


@dataclass
class TrendReport:
    results: list[GateResult] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)  # "<bench_id>: reason"
    errors: list[str] = field(default_factory=list)  # artifact-level failures

    @property
    def failures(self) -> list[GateResult]:
        return [result for result in self.results if not result.ok]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.errors

    def describe(self) -> str:
        lines = [result.describe() for result in self.results]
        lines.extend(f"[skipped] {entry}" for entry in self.skipped)
        lines.extend(f"[error] {entry}" for entry in self.errors)
        gated = len(self.results)
        lines.append(
            f"trend check: {gated} gated metric(s), {len(self.failures)} regression(s), "
            f"{len(self.errors)} error(s)"
        )
        return "\n".join(lines)


def _gate_result(
    spec: BenchSpec, gate: MetricGate, committed: dict[str, Any], fresh: dict[str, Any]
) -> GateResult:
    try:
        committed_value = extract_metric(committed["payload"], gate.path)
    except MetricPathError as exc:
        return GateResult(
            spec.bench_id, gate.path, gate.direction, None, None, None, False,
            f"committed artifact: {exc.args[0]}",
        )
    try:
        fresh_value = extract_metric(fresh["payload"], gate.path)
    except MetricPathError as exc:
        return GateResult(
            spec.bench_id, gate.path, gate.direction, committed_value, None, None, False,
            f"fresh artifact: {exc.args[0]}",
        )
    bound = gate.bound(committed_value)
    ok = gate.passes(committed_value, fresh_value)
    detail = "" if ok else (
        f"tolerance rel={gate.rel_tol:g} abs={gate.abs_tol:g} exceeded"
    )
    return GateResult(
        spec.bench_id, gate.path, gate.direction, committed_value, fresh_value, bound, ok, detail
    )


def compare_documents(
    spec: BenchSpec, committed: dict[str, Any], fresh: dict[str, Any]
) -> TrendReport:
    """Gate one fresh artifact document against its committed counterpart."""
    report = TrendReport()
    if not spec.measured:
        report.skipped.append(f"{spec.bench_id}: modelled artifact, not trend-gated")
        return report
    if not spec.gates:
        report.skipped.append(f"{spec.bench_id}: no gated metrics declared")
        return report
    committed_mode = committed.get("envelope", {}).get("mode")
    fresh_mode = fresh.get("envelope", {}).get("mode")
    if committed_mode != fresh_mode:
        report.errors.append(
            f"{spec.bench_id}: mode mismatch — committed={committed_mode!r} vs "
            f"fresh={fresh_mode!r}; gated comparisons require like-for-like runs"
        )
        return report
    for gate in spec.gates:
        report.results.append(_gate_result(spec, gate, committed, fresh))
    return report


def check_trend(
    specs: list[BenchSpec],
    fresh_dir: Path,
    committed_dir: Path | None = None,
) -> TrendReport:
    """Gate every spec's fresh artifact in ``fresh_dir`` against the baseline.

    A missing or schema-invalid artifact on either side is an error, not a
    silent skip: the check exists to make absent coverage loud.
    """
    merged = TrendReport()
    for spec in specs:
        try:
            committed = read_artifact(spec, spec.artifact_path(committed_dir))
        except ArtifactError as exc:
            merged.errors.append(f"baseline: {exc}")
            continue
        try:
            fresh = read_artifact(spec, spec.artifact_path(fresh_dir))
        except ArtifactError as exc:
            merged.errors.append(f"fresh: {exc}")
            continue
        partial = compare_documents(spec, committed, fresh)
        merged.results.extend(partial.results)
        merged.skipped.extend(partial.skipped)
        merged.errors.extend(partial.errors)
    return merged
