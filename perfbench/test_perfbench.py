"""The benchmark's own checks, on a shape small enough for the tier-1 suite.

``TINY`` drives every workload through the code the real runs use; its
numbers mean nothing and are never reported.
"""

from __future__ import annotations

import json
import re

import pytest

from perfbench.run import load_benchmark, run_workload
from perfbench.shape import TINY
from perfbench.trace import POINTS, Point, Tracer
from perfbench.workloads import WORKLOADS

BENCHMARK = load_benchmark()
SECONDS = 2.0


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Every workload once, traced (a traced run yields both metric sets)."""
    out_dir = tmp_path_factory.mktemp("perfbench")
    return {
        name: run_workload(name, TINY, seed=3, seconds=SECONDS, trace=True, out_dir=out_dir)
        | {"out_dir": out_dir}
        for name in WORKLOADS
    }


def test_benchmark_json_matches_the_contract():
    listed = [w["name"] for w in BENCHMARK["workloads"]]
    assert 2 <= len(listed) <= 8 and listed == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in BENCHMARK["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_listed_metric_is_emitted(reports, name):
    report = reports[name]
    assert report["correct"], report["checks"]
    # A loaded CI host may drop a request on its queue deadline; not more.
    assert report["attempted"] >= 1 and report["failed"] <= 0.05 * report["attempted"]
    for metric in BENCHMARK["end_to_end"]:
        value = report["e2e"][metric["name"]]
        assert value == value and value != 0, (metric["name"], value)
    computed = set(report["per_layer"])
    listed = {metric["name"] for metric in BENCHMARK["per_layer"]}
    # Nothing is computed that the driver would not see, and every listed
    # name has a source in at least one workload.
    assert computed <= listed, computed - listed
    assert report["missing_points"] == []


def test_every_per_layer_metric_has_a_source(reports):
    computed = set().union(*(report["per_layer"] for report in reports.values()))
    assert {metric["name"] for metric in BENCHMARK["per_layer"]} == computed


def test_layers_work_only_where_the_workload_says(reports):
    batched, direct = reports["train_batched"]["per_layer"], reports["serve_direct"]["per_layer"]
    assert batched["optim.sparse_step_ms"] > 0 and batched["kernels.forward_ms"] > 0
    assert direct["optim.sparse_step_ms"] == 0 and direct["kernels.forward_ms"] == 0
    assert direct["engine.predict_batch_ms"] > 0 and direct["lsh.frequencies_ms"] > 0
    assert batched["engine.predict_batch_ms"] == 0 and batched["batching.submit_us"] == 0


def test_self_times_are_non_negative_and_sum_to_the_parent(reports):
    for name, report in reports.items():
        spans = [
            json.loads(line)
            for line in (report["out_dir"] / f"{name}-seed3-2s-trace1.spans.jsonl")
            .read_text()
            .splitlines()
        ]
        assert spans, name
        duration = {span["id"]: span["end"] - span["start"] for span in spans}
        children: dict[int, float] = {}
        for span in spans:
            if span["parent"] is not None:
                children[span["parent"]] = children.get(span["parent"], 0.0) + duration[span["id"]]
        for span in spans:
            self_time = duration[span["id"]] - children.get(span["id"], 0.0)
            assert self_time >= -1e-9, (name, span)
    # Self time plus the children's time is the parent's, per span name too.
    batched = reports["train_batched"]["per_layer"]
    parts = sum(
        batched[key]
        for key in (
            "core.other_ms", "core.rebuild_ms", "lsh.update_ms", "hashing.hash_matrix_ms",
            "lsh.query_batch_ms", "sampling.select_batch_ms", "kernels.forward_ms",
            "kernels.backward_ms", "optim.sparse_step_ms",
        )
    ) + batched["sampling.select_one_us"] * TINY.batch_size / 1e3  # fmt: skip
    assert parts == pytest.approx(batched["core.train_batch_ms"], rel=0.01)


def test_tracing_leaves_the_loss_trajectory_alone(reports):
    traced = reports["train_batched"]
    # The traced run trains its own untraced reference ...
    assert traced["checks"]["losses_equal_untraced"] is True
    # ... whose digest is the one a run without the tracer reports.
    untraced = run_workload("train_batched", TINY, 3, SECONDS, trace=False)
    assert untraced["per_layer"] is None
    assert untraced["loss_digest"] == traced["loss_digest"]


def test_a_missing_trace_point_is_reported_not_raised():
    points = {
        **POINTS,
        "gone.module": Point("repro.no_such_module", "f"),
        "gone.attribute": Point("repro.types", "SparseBatch.no_such_method"),
    }
    report = run_workload("train_batched", TINY, 3, SECONDS, True, points=points)
    assert report["missing_points"] == ["gone.module", "gone.attribute"]
    assert report["per_layer"]["trace.missing_points"] == 2
    assert report["correct"]


def test_wrappers_are_removed_again():
    from repro.core.network import SlideNetwork

    original = SlideNetwork.train_batch
    with Tracer():
        assert SlideNetwork.train_batch is not original
    assert SlideNetwork.train_batch is original
