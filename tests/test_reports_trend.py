"""Trend-gate tests: metric extraction, tolerance math, and — the point of
the whole gate — injected regressions must fail naming the offending metric,
while in-tolerance wobble and modelled artifacts must pass.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.reports.registry import get_spec
from repro.reports.spec import MetricGate
from repro.reports.trend import (
    MetricPathError,
    check_trend,
    compare_documents,
    extract_metric,
)


def _golden(bench_id: str):
    spec = get_spec(bench_id)
    return spec, json.loads(spec.artifact_path().read_text())


# ----------------------------------------------------------------------
# Metric path language
# ----------------------------------------------------------------------
def test_extract_metric_dict_walk_and_index():
    payload = {"a": {"b": [10, 20, 30]}}
    assert extract_metric(payload, "a.b[2]") == 30.0


def test_extract_metric_row_selector_string_and_numeric():
    payload = {"rows": [{"mode": "dense", "x": 1.0}, {"mode": "sparse", "x": 2.0}]}
    assert extract_metric(payload, "rows[mode=sparse].x") == 2.0
    sweep = {"rows": [{"load": 0.5, "p99": 10.0}, {"load": 2, "p99": 40.0}]}
    # "2" matches the numeric field 2 (and would match 2.0 as well).
    assert extract_metric(sweep, "rows[load=2].p99") == 40.0


def test_extract_metric_errors_name_the_path():
    with pytest.raises(MetricPathError, match="no key 'b'"):
        extract_metric({"a": {}}, "a.b")
    with pytest.raises(MetricPathError, match="no row with mode=x"):
        extract_metric({"rows": [{"mode": "y"}]}, "rows[mode=x].v")
    with pytest.raises(MetricPathError, match="not a number"):
        extract_metric({"a": "text"}, "a")
    with pytest.raises(MetricPathError, match="not a number"):
        extract_metric({"a": True}, "a")  # bools are not metrics
    with pytest.raises(MetricPathError, match="not a list"):
        extract_metric({"a": {}}, "a[0]")


# ----------------------------------------------------------------------
# Gate tolerance math
# ----------------------------------------------------------------------
def test_gate_bounds_and_directions():
    higher = MetricGate("x", "higher", rel_tol=0.1, abs_tol=0.05)
    assert higher.bound(1.0) == pytest.approx(0.85)
    assert higher.passes(1.0, 0.9)
    assert not higher.passes(1.0, 0.8)
    assert higher.passes(1.0, 2.0)  # improvements never fail

    lower = MetricGate("y", "lower", rel_tol=0.75, abs_tol=5.0)
    assert lower.bound(100.0) == pytest.approx(180.0)
    assert lower.passes(100.0, 150.0)
    assert not lower.passes(100.0, 200.0)
    assert lower.passes(100.0, 1.0)  # improvements never fail

    with pytest.raises(ValueError):
        MetricGate("z", "sideways", rel_tol=0.1)
    with pytest.raises(ValueError):
        MetricGate("z", "higher", rel_tol=-0.1)


# ----------------------------------------------------------------------
# Injected regressions fail, naming the metric
# ----------------------------------------------------------------------
def test_p99_inflated_2x_fails_naming_the_metric():
    spec, committed = _golden("serving_latency")
    fresh = copy.deepcopy(committed)
    for row in fresh["payload"]["qps_sweep"]:
        if row["load_fraction"] == 2:
            row["latency_ms"]["p99"] *= 2.0
    report = compare_documents(spec, committed, fresh)
    assert not report.ok
    failing = [result.metric for result in report.failures]
    assert failing == ["qps_sweep[load_fraction=2].latency_ms.p99"]
    described = report.describe()
    assert "REGRESSION" in described and "latency_ms.p99" in described


def test_precision_drop_past_tolerance_fails_naming_the_metric():
    spec, committed = _golden("train_throughput")
    fresh = copy.deepcopy(committed)
    for row in fresh["payload"]["rows"]:
        if row["mode"] == "sparse_batched":
            row["precision_at_1"] = 0.05  # far below committed*(1-0.1)-0.05
    report = compare_documents(spec, committed, fresh)
    assert not report.ok
    failing = [result.metric for result in report.failures]
    assert failing == ["rows[mode=sparse_batched].precision_at_1"]


def test_in_tolerance_wobble_passes():
    spec, committed = _golden("serving_latency")
    fresh = copy.deepcopy(committed)
    for row in fresh["payload"]["qps_sweep"]:
        row["latency_ms"]["p99"] *= 1.05  # well inside rel_tol=0.75 + abs 5ms
    fresh["payload"]["capacity"]["sustained_qps"] *= 0.95  # inside rel_tol=0.6
    report = compare_documents(spec, committed, fresh)
    assert report.ok, report.describe()
    assert len(report.results) == len(spec.gates)


def test_identical_artifact_passes_every_gate():
    spec, committed = _golden("train_throughput")
    report = compare_documents(spec, committed, copy.deepcopy(committed))
    assert report.ok
    assert all(result.ok for result in report.results)


# ----------------------------------------------------------------------
# Modelled artifacts are excluded from gating
# ----------------------------------------------------------------------
def test_modelled_metric_mutation_is_not_gated():
    spec, committed = _golden("fig11_hard_threshold")
    fresh = copy.deepcopy(committed)
    # Blow up every curve in the modelled payload; the trend checker must
    # still skip (a closed form is not a host measurement).
    for curve in fresh["payload"]["series"].values():
        curve["selection_p"] = [p * 10.0 for p in curve["selection_p"]]
    report = compare_documents(spec, committed, fresh)
    assert report.ok
    assert report.results == []
    assert any("modelled artifact, not trend-gated" in entry for entry in report.skipped)


# ----------------------------------------------------------------------
# Artifact-level failure modes
# ----------------------------------------------------------------------
def test_mode_mismatch_is_an_error_not_a_comparison():
    spec, committed = _golden("train_throughput")
    fresh = copy.deepcopy(committed)
    fresh["envelope"]["mode"] = "full"
    report = compare_documents(spec, committed, fresh)
    assert not report.ok
    assert any("mode mismatch" in entry for entry in report.errors)
    assert report.results == []  # no per-gate comparisons across modes


def test_missing_gated_metric_in_fresh_artifact_fails():
    spec, committed = _golden("train_throughput")
    fresh = copy.deepcopy(committed)
    del fresh["payload"]["speedup_batched_vs_per_sample"]
    report = compare_documents(spec, committed, fresh)
    failing = {result.metric: result for result in report.failures}
    assert "speedup_batched_vs_per_sample" in failing
    assert "fresh artifact" in failing["speedup_batched_vs_per_sample"].detail


def test_check_trend_reports_missing_fresh_artifact_as_error(tmp_path):
    spec = get_spec("train_throughput")
    report = check_trend([spec], fresh_dir=tmp_path)
    assert not report.ok
    assert any("fresh" in entry and "missing" in entry for entry in report.errors)


def test_check_trend_against_self_is_clean(tmp_path):
    # Copy the committed baseline into the "fresh" dir: like-for-like must
    # pass every gate and skip the ungated/modelled specs.
    gated = get_spec("train_throughput")
    modelled = get_spec("fig11_hard_threshold")
    for spec in (gated, modelled):
        (tmp_path / spec.artifact).write_text(spec.artifact_path().read_text())
    report = check_trend([gated, modelled], fresh_dir=tmp_path)
    assert report.ok, report.describe()
    assert len(report.results) == len(gated.gates)
    assert len(report.skipped) == 1
