"""Minimal JSON-schema validation for benchmark artifacts, plus the schema
fragments more than one bench shares.

The repo is stdlib+numpy only, so this implements the small, explicit subset
of JSON Schema the benches' payload schemas actually use:

``type`` (including lists of types), ``properties`` / ``required`` /
``additionalProperties`` (bool or schema), ``patternProperties``, ``items``,
``minItems``, ``enum``, ``const``, ``minimum`` / ``maximum`` /
``exclusiveMinimum``.

Unknown schema keywords are an *error at validation time* — a typo'd
constraint must not silently validate nothing.

Each bench declares its payload schema inline in its ``SPEC`` (next to the
``run`` that produces the payload), built from the fragments below.  Schemas
are deliberately strict about the keys and types the repo's claims rest on —
a hand-edited, truncated or shape-drifted ``BENCH_*.json`` must fail the
golden-artifact contract test — while config blocks stay open
(``additionalProperties``) so adding a knob is not a schema migration.
"""

from __future__ import annotations

import math
import re
from typing import Any

__all__ = [
    "SchemaError",
    "validate",
    "check",
    "NUM",
    "POS",
    "FRACTION",
    "NAT",
    "POSITIVE_INT",
    "STR",
    "BOOL",
    "MAYBE_NUM",
    "CONFIG",
    "NUM_LIST",
    "rows",
    "series",
]

NUM: dict[str, Any] = {"type": "number"}
POS: dict[str, Any] = {"type": "number", "minimum": 0}
FRACTION: dict[str, Any] = {"type": "number", "minimum": 0, "maximum": 1}
NAT: dict[str, Any] = {"type": "integer", "minimum": 0}
POSITIVE_INT: dict[str, Any] = {"type": "integer", "minimum": 1}
STR: dict[str, Any] = {"type": "string"}
BOOL: dict[str, Any] = {"type": "boolean"}
# Coerced non-finite floats (repro.reports.artifacts.to_jsonable).
MAYBE_NUM: dict[str, Any] = {"type": ["number", "string"]}
CONFIG: dict[str, Any] = {"type": "object"}
NUM_LIST: dict[str, Any] = {"type": "array", "items": NUM}


def rows(required: dict[str, Any], *, min_items: int = 1, extra: bool = True) -> dict[str, Any]:
    """A non-empty array of row objects with the given required columns."""
    return {
        "type": "array",
        "minItems": min_items,
        "items": {
            "type": "object",
            "required": sorted(required),
            "properties": required,
            "additionalProperties": extra,
        },
    }


def series(x_name: str = "x", y_name: str = "y") -> dict[str, Any]:
    """``{label: {x: [...], y: [...]}}`` curve families."""
    return {
        "type": "object",
        "patternProperties": {
            ".": {
                "type": "object",
                "required": [x_name, y_name],
                "properties": {x_name: NUM_LIST, y_name: NUM_LIST},
            }
        },
    }


_KNOWN_KEYWORDS = {
    "type",
    "properties",
    "required",
    "additionalProperties",
    "patternProperties",
    "items",
    "minItems",
    "enum",
    "const",
    "minimum",
    "maximum",
    "exclusiveMinimum",
    "description",
}

_TYPES: dict[str, tuple[type, ...]] = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "integer": (int,),
    "number": (int, float),
    "boolean": (bool,),
    "null": (type(None),),
}


class SchemaError(ValueError):
    """A document failed schema validation; ``problems`` lists every failure."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__(
            f"{len(problems)} schema problem(s):\n" + "\n".join(f"  - {p}" for p in problems)
        )


def _type_ok(value: Any, name: str) -> bool:
    expected = _TYPES[name]
    if name in ("integer", "number") and isinstance(value, bool):
        return False  # bool is an int subclass; schemas mean arithmetic numbers
    if name == "number" and isinstance(value, float) and not math.isfinite(value):
        return False  # NaN/Inf are not representable in strict JSON
    return isinstance(value, expected)


def check(instance: Any, schema: dict[str, Any], path: str = "$") -> list[str]:
    """All validation problems for ``instance`` against ``schema`` (empty = valid)."""
    problems: list[str] = []
    unknown = set(schema) - _KNOWN_KEYWORDS
    if unknown:
        problems.append(f"{path}: schema uses unsupported keyword(s) {sorted(unknown)}")
        return problems

    if "type" in schema:
        names = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        for name in names:
            if name not in _TYPES:
                problems.append(f"{path}: schema names unknown type {name!r}")
                return problems
        if not any(_type_ok(instance, name) for name in names):
            problems.append(
                f"{path}: expected {' | '.join(names)}, got {type(instance).__name__}"
                + (f" ({instance!r})" if isinstance(instance, float) else "")
            )
            return problems

    if "enum" in schema and instance not in schema["enum"]:
        problems.append(f"{path}: {instance!r} not in enum {schema['enum']!r}")
    if "const" in schema and instance != schema["const"]:
        problems.append(f"{path}: {instance!r} != const {schema['const']!r}")

    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        if "minimum" in schema and instance < schema["minimum"]:
            problems.append(f"{path}: {instance!r} < minimum {schema['minimum']!r}")
        if "maximum" in schema and instance > schema["maximum"]:
            problems.append(f"{path}: {instance!r} > maximum {schema['maximum']!r}")
        if "exclusiveMinimum" in schema and instance <= schema["exclusiveMinimum"]:
            problems.append(
                f"{path}: {instance!r} <= exclusiveMinimum {schema['exclusiveMinimum']!r}"
            )

    if isinstance(instance, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in instance:
                problems.append(f"{path}: missing required key {key!r}")
        pattern_props = {
            re.compile(pattern): sub for pattern, sub in schema.get("patternProperties", {}).items()
        }
        additional = schema.get("additionalProperties", True)
        for key, value in instance.items():
            key_path = f"{path}.{key}"
            if key in properties:
                problems.extend(check(value, properties[key], key_path))
                continue
            matched = False
            for pattern, sub in pattern_props.items():
                if pattern.search(str(key)):
                    matched = True
                    problems.extend(check(value, sub, key_path))
            if matched:
                continue
            if additional is False:
                problems.append(f"{path}: unexpected key {key!r}")
            elif isinstance(additional, dict):
                problems.extend(check(value, additional, key_path))

    if isinstance(instance, list):
        if "minItems" in schema and len(instance) < schema["minItems"]:
            problems.append(f"{path}: {len(instance)} item(s) < minItems {schema['minItems']}")
        if "items" in schema:
            for index, item in enumerate(instance):
                problems.extend(check(item, schema["items"], f"{path}[{index}]"))

    return problems


def validate(instance: Any, schema: dict[str, Any], path: str = "$") -> None:
    """Raise :class:`SchemaError` listing every problem (no-op when valid)."""
    problems = check(instance, schema, path)
    if problems:
        raise SchemaError(problems)
