"""Golden-artifact contract tests.

Every ``BENCH_*.json`` committed at the repository root must parse, carry a
well-formed envelope that agrees with its registry entry, and validate
against the registered payload schema.  A hand-edited, truncated or
stale-format artifact fails tier-1 here — before the trend gate ever runs.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np
import pytest

from repro.reports.artifacts import (
    ArtifactError,
    ENVELOPE_SCHEMA,
    read_artifact,
    stamp_envelope,
    to_jsonable,
    validate_artifact,
    wrap_payload,
)
from repro.reports.registry import all_specs, get_spec
from repro.reports.schema import SchemaError, check

SPECS = all_specs()
SPEC_IDS = [spec.bench_id for spec in SPECS]


# ----------------------------------------------------------------------
# Golden contract: every committed artifact validates against its schema
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_committed_artifact_exists_and_validates(spec):
    path = spec.artifact_path()
    assert path.is_file(), f"committed baseline missing: {path.name}"
    document = read_artifact(spec)  # raises ArtifactError on any schema problem
    envelope = document["envelope"]
    assert envelope["bench_id"] == spec.bench_id
    assert envelope["measured"] is spec.measured
    # Committed baselines are generated in smoke mode so CI's --smoke sweep
    # compares like-for-like (the trend checker refuses cross-mode diffs).
    assert envelope["mode"] == "smoke"
    assert check(envelope, ENVELOPE_SCHEMA) == []


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_committed_payload_survives_strict_revalidation(spec):
    document = json.loads(spec.artifact_path().read_text())
    assert validate_artifact(spec, document) == []


def _golden(bench_id: str):
    spec = get_spec(bench_id)
    return spec, json.loads(spec.artifact_path().read_text())


# ----------------------------------------------------------------------
# Tampering: edits that must not pass silently
# ----------------------------------------------------------------------
def test_truncated_payload_fails_validation():
    spec, document = _golden("train_throughput")
    broken = copy.deepcopy(document)
    del broken["payload"]["rows"]
    problems = validate_artifact(spec, broken)
    assert any("rows" in p for p in problems)


def test_dropped_row_field_fails_validation():
    spec, document = _golden("train_throughput")
    broken = copy.deepcopy(document)
    del broken["payload"]["rows"][0]["precision_at_1"]
    problems = validate_artifact(spec, broken)
    assert any("precision_at_1" in p for p in problems)


def test_wrong_bench_id_fails_validation():
    spec, document = _golden("fig4_sampling")
    broken = copy.deepcopy(document)
    broken["envelope"]["bench_id"] = "fig9_scalability"
    problems = validate_artifact(spec, broken)
    assert any("bench_id" in p for p in problems)


def test_measured_flag_contradicting_registry_fails_validation():
    # fig11 is a modelled artifact; claiming measured=true in the envelope
    # must fail (docs and gating key off this flag).
    spec, document = _golden("fig11_hard_threshold")
    assert spec.measured is False
    broken = copy.deepcopy(document)
    broken["envelope"]["measured"] = True
    problems = validate_artifact(spec, broken)
    assert any("contradicts the registry" in p for p in problems)


def test_missing_envelope_key_fails_validation():
    spec, document = _golden("fig4_sampling")
    broken = copy.deepcopy(document)
    del broken["envelope"]["git_rev"]
    problems = validate_artifact(spec, broken)
    assert any("git_rev" in p for p in problems)


def test_strict_validation_raises():
    spec, document = _golden("fig4_sampling")
    broken = copy.deepcopy(document)
    broken["payload"] = {}
    with pytest.raises(SchemaError):
        validate_artifact(spec, broken, strict=True)


def test_read_artifact_rejects_truncated_json(tmp_path):
    spec, _ = _golden("fig4_sampling")
    target = tmp_path / spec.artifact
    target.write_text(spec.artifact_path().read_text()[:200])
    with pytest.raises(ArtifactError, match="not valid JSON"):
        read_artifact(spec, target)


def test_read_artifact_rejects_missing_file(tmp_path):
    spec, _ = _golden("fig4_sampling")
    with pytest.raises(ArtifactError, match="missing"):
        read_artifact(spec, tmp_path / spec.artifact)


# ----------------------------------------------------------------------
# Envelope stamping + JSON coercion
# ----------------------------------------------------------------------
def test_stamp_envelope_matches_its_own_schema():
    spec = get_spec("train_throughput")
    envelope = stamp_envelope(spec, "full")
    assert check(envelope, ENVELOPE_SCHEMA) == []
    assert envelope["mode"] == "full"
    with pytest.raises(ValueError):
        stamp_envelope(spec, "warm")


def test_wrap_payload_roundtrips_through_json():
    spec, document = _golden("fig4_sampling")
    wrapped = wrap_payload(spec, document["payload"], mode="smoke")
    json.loads(json.dumps(wrapped))  # strictly JSON-serialisable
    assert wrapped["payload"] == document["payload"]


def test_to_jsonable_coerces_numpy_and_tuples():
    value = {
        "i": np.int64(3),
        "f": np.float32(0.5),
        "b": np.bool_(True),
        "arr": np.arange(3),
        "tup": (1, 2),
        "nested": {"xs": [np.float64(1.5)]},
    }
    out = to_jsonable(value)
    assert out == {
        "i": 3,
        "f": 0.5,
        "b": True,
        "arr": [0, 1, 2],
        "tup": [1, 2],
        "nested": {"xs": [1.5]},
    }
    assert isinstance(out["i"], int) and isinstance(out["f"], float)
    assert isinstance(out["b"], bool)


def test_to_jsonable_stringifies_non_finite_floats():
    assert to_jsonable(math.nan) == "NaN"
    assert to_jsonable(math.inf) == "Infinity"
    assert to_jsonable(-math.inf) == "-Infinity"
    # ...so the result is always strict-JSON serialisable.
    json.dumps(to_jsonable({"x": math.nan}))
