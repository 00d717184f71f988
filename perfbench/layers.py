"""Per-layer metrics from a traced run: span self times and boundary counts.

Units and names are those of ``BENCHMARK.json``.  Conventions:

* ``*_ms`` is span time in the timed sections divided by the workload's
  operations (training batches, or answered requests), so that every
  ``*_ms`` of one workload shares a denominator and shares of a parent can
  be read off directly.  It is *self* time (child spans subtracted) except
  for the two parents ``core.train_batch_ms`` and ``engine.predict_batch_ms``.
* ``*_s`` is the mean duration of a call that happens a few times a run, in
  any phase (set-up included).
* Counts and ratios come from the wrappers' observers, timed sections only.
* A layer that a workload does not exercise reads zero.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench.trace import TIMED, Point, Total, Tracer
from perfbench.workloads import Outcome

__all__ = ["per_layer", "span_cost_s"]


def span_cost_s(calls: int = 20_000) -> float:
    """What one span costs the traced program, measured on a no-op."""
    tracer = Tracer()
    traced = tracer.wrap("calibrate", Point("", ""), _nothing)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        _nothing()
    return max(wrapped - (time.perf_counter() - start), 0.0) / calls


def _nothing() -> None:
    return None


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer: Tracer, outcome: Outcome, throughput_per_s: float) -> dict:
    totals = tracer.totals()
    ops = max(outcome.ops, 1)
    count = tracer.counter

    def timed(name: str) -> Total:
        return totals.get((TIMED, name), Total())

    def self_ms(name: str) -> float:
        return timed(name).self_s * 1e3 / ops

    def mean_s(name: str) -> float:
        calls = [total for (_, n), total in totals.items() if n == name]
        return _ratio(sum(t.total_s for t in calls), sum(t.count for t in calls))

    kernel_s = timed("kernels.forward").self_s + timed("kernels.backward").self_s
    select_one_s = timed("sampling.select_one").self_s + timed("sampling.finalize").self_s
    queue_wait = tracer.samples("batching.queue_wait_ms")
    values = {
        "types.batch_assemble_ms": self_ms("types.batch_assemble"),
        "hashing.hash_matrix_ms": self_ms("hashing.hash_matrix"),
        "hashing.rows": count("hashing.rows"),
        "lsh.query_batch_ms": self_ms("lsh.query_batch"),
        "lsh.frequencies_ms": self_ms("lsh.frequencies"),
        "lsh.candidates_per_query": _ratio(count("lsh.candidates"), count("lsh.queries")),
        "lsh.update_ms": self_ms("lsh.update"),
        "lsh.update_items": count("lsh.update_items"),
        "lsh.moved_per_item": _ratio(
            count("lsh.moved_entries"), count("lsh.update_items")
        ),
        "lsh.build_s": mean_s("lsh.build"),
        "sampling.select_batch_ms": self_ms("sampling.select_batch"),
        "sampling.select_one_us": _ratio(select_one_s * 1e6, count("sampling.samples")),
        "sampling.active_per_sample": _ratio(
            count("sampling.active"), count("sampling.samples")
        ),
        "sampling.fallback_frac": _ratio(
            count("sampling.fallback"), count("sampling.active")
        ),
        "kernels.forward_ms": self_ms("kernels.forward"),
        "kernels.backward_ms": self_ms("kernels.backward"),
        "kernels.union_rows": _ratio(count("kernels.union_rows"), count("kernels.batches")),
        "kernels.union_over_sum": _ratio(
            count("kernels.union_rows"), count("kernels.sum_active")
        ),
        # Flops are computed from the gathered block shapes, not counted.
        "kernels.gemm_gflops": _ratio(count("kernels.flops") / 1e9, kernel_s),
        "optim.sparse_step_ms": self_ms("optim.sparse_step"),
        "optim.calls": count("optim.calls"),
        "optim.elements": count("optim.elements"),
        "core.train_batch_ms": timed("core.train_batch").total_s * 1e3 / ops,
        "core.other_ms": self_ms("core.train_batch"),
        "core.rebuild_ms": self_ms("core.rebuild"),
        "core.rebuilds": count("core.rebuilds"),
        "core.hidden_forward_ms": self_ms("core.dense_forward"),
        "baselines.dense_batch_ms": _ratio(
            timed("baselines.dense_batch").total_s * 1e3,
            timed("baselines.dense_batch").count,
        ),
        "batching.queue_wait_ms_p50": (
            float(np.percentile(queue_wait, 50)) if queue_wait else 0.0
        ),
        "batching.queue_wait_ms_p90": (
            float(np.percentile(queue_wait, 90)) if queue_wait else 0.0
        ),
        "batching.submit_us": _ratio(
            timed("batching.submit").self_s * 1e6, timed("batching.submit").count
        ),
        # One worker: engine time over the wall time of the loops.
        "pool.busy_frac": _ratio(timed("pool.predict_guarded").total_s, outcome.wall_s),
        "engine.predict_batch_ms": timed("engine.sparse_batch").total_s * 1e3 / ops,
        "engine.rerank_self_ms": self_ms("engine.sparse_batch"),
        "engine.candidates_scored": _ratio(
            count("engine.candidates"), count("engine.requests")
        ),
        "trace.spans": len(tracer.spans),
        "trace.missing_points": len(tracer.missing) + len(tracer.broken),
        # An estimate: spans recorded times the calibrated cost of one.
        # Compare throughput_per_s of a --trace 0 run with
        # trace.throughput_per_s for the measured figure.
        "trace.overhead_frac": _ratio(len(tracer.spans) * span_cost_s(), outcome.wall_s),
        "trace.throughput_per_s": throughput_per_s,
    }
    values.update(outcome.layer)
    return values
