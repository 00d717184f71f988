"""Artifact envelope: stamping, JSON coercion, schema-checked read/write.

Every ``BENCH_*.json`` written through the registry has the same two-part
shape::

    {
      "envelope": {
        "bench_id": "...", "schema_version": 1, "measured": true,
        "mode": "smoke" | "full", "paper_anchor": "...",
        "git_rev": "...", "host": {...}, "generated_at": "..."
      },
      "payload": { ...bench-specific, validated against the spec's schema... }
    }

The envelope is machine-readable provenance: ``measured`` distinguishes real
host measurements from modelled output such as a closed form (so gating and
docs can treat them differently), ``mode`` distinguishes CI smoke baselines
from full-scale runs (the trend checker refuses to compare across modes).
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

from repro.reports.schema import SchemaError, check, validate
from repro.reports.spec import REPO_ROOT, BenchSpec

__all__ = [
    "SCHEMA_VERSION",
    "ENVELOPE_SCHEMA",
    "ArtifactError",
    "to_jsonable",
    "stamp_envelope",
    "wrap_payload",
    "write_artifact",
    "read_artifact",
    "validate_artifact",
]

SCHEMA_VERSION = 1

ENVELOPE_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": [
        "bench_id",
        "schema_version",
        "measured",
        "mode",
        "paper_anchor",
        "git_rev",
        "host",
        "generated_at",
    ],
    "additionalProperties": False,
    "properties": {
        "bench_id": {"type": "string"},
        "schema_version": {"type": "integer", "minimum": 1},
        "measured": {"type": "boolean"},
        "mode": {"enum": ["smoke", "full"]},
        "paper_anchor": {"type": "string"},
        "git_rev": {"type": "string"},
        "host": {
            "type": "object",
            "required": ["platform", "python", "cpu_count"],
            "properties": {
                "platform": {"type": "string"},
                "python": {"type": "string"},
                "cpu_count": {"type": "integer", "minimum": 1},
            },
        },
        "generated_at": {"type": "string"},
    },
}


class ArtifactError(ValueError):
    """An artifact is structurally broken (bad JSON, bad envelope, bad payload)."""


def to_jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays and tuples into plain JSON-safe Python.

    Generators return whatever is natural (numpy floats, ``(x, y)`` series
    tuples); artifacts must be plain JSON.  Non-finite floats are stringified
    (``"NaN"`` / ``"Infinity"``) rather than emitted as bare tokens JSON
    parsers reject.
    """
    import numpy as np

    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return [to_jsonable(item) for item in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if value != value:
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    return value


def git_revision(root: Path | None = None) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(root or REPO_ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def stamp_envelope(spec: BenchSpec, mode: str) -> dict[str, Any]:
    if mode not in ("smoke", "full"):
        raise ValueError(f"mode must be smoke|full, got {mode!r}")
    return {
        "bench_id": spec.bench_id,
        "schema_version": SCHEMA_VERSION,
        "measured": spec.measured,
        "mode": mode,
        "paper_anchor": spec.paper_anchor,
        "git_rev": git_revision(),
        "host": {
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count() or 1,
        },
        "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
    }


def wrap_payload(spec: BenchSpec, payload: dict[str, Any], mode: str) -> dict[str, Any]:
    """Envelope + JSON-coerced payload, validated; raises on schema mismatch."""
    document = {"envelope": stamp_envelope(spec, mode), "payload": to_jsonable(payload)}
    validate_artifact(spec, document, strict=True)
    return document


def validate_artifact(
    spec: BenchSpec, document: Any, *, strict: bool = False
) -> list[str]:
    """Every envelope/payload schema problem for ``document`` (empty = valid)."""
    problems: list[str] = []
    if not isinstance(document, dict):
        problems.append(f"$: artifact must be an object, got {type(document).__name__}")
    else:
        for key in ("envelope", "payload"):
            if key not in document:
                problems.append(f"$: missing top-level {key!r}")
        envelope = document.get("envelope")
        if isinstance(envelope, dict):
            problems.extend(check(envelope, ENVELOPE_SCHEMA, "$.envelope"))
            if envelope.get("bench_id") not in (None, spec.bench_id):
                problems.append(
                    f"$.envelope.bench_id: {envelope.get('bench_id')!r} is not "
                    f"{spec.bench_id!r}"
                )
            if (
                "measured" in envelope
                and isinstance(envelope["measured"], bool)
                and envelope["measured"] != spec.measured
            ):
                problems.append(
                    f"$.envelope.measured: {envelope['measured']!r} contradicts the "
                    f"registry ({spec.measured!r})"
                )
        elif "envelope" in document:
            problems.append("$.envelope: must be an object")
        if "payload" in document:
            problems.extend(check(document["payload"], spec.schema, "$.payload"))
    if strict and problems:
        raise SchemaError(problems)
    return problems


def write_artifact(
    spec: BenchSpec, payload: dict[str, Any], mode: str, path: Path | None = None
) -> Path:
    """Stamp, validate and write one artifact; returns the path written."""
    document = wrap_payload(spec, payload, mode)
    target = path if path is not None else spec.artifact_path()
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2) + "\n")
    return target


def read_artifact(spec: BenchSpec, path: Path | None = None) -> dict[str, Any]:
    """Load + validate one committed artifact; raises :class:`ArtifactError`."""
    target = path if path is not None else spec.artifact_path()
    try:
        document = json.loads(target.read_text())
    except FileNotFoundError:
        raise ArtifactError(f"{spec.bench_id}: artifact missing at {target}") from None
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{spec.bench_id}: {target} is not valid JSON: {exc}") from None
    problems = validate_artifact(spec, document)
    if problems:
        raise ArtifactError(
            f"{spec.bench_id}: {target} fails its schema:\n"
            + "\n".join(f"  - {p}" for p in problems)
        )
    return document
