"""Spans around the layers' public callables, recorded from outside the program.

``POINTS`` is the one table ``span name -> where the callable is looked up``.
:class:`Tracer` replaces each of those names with a timing wrapper for the
length of a traced run and puts the originals back afterwards; the untraced
run never imports this module's wrappers at all.  A point whose target has
gone is listed in :attr:`Tracer.missing` and its metrics read zero; it
never raises.

A span is ``(id, name, phase, start, end, parent, thread, requests)``.
Spans nest per thread, so a span's *self time* is its duration minus the
durations of the spans it is the parent of.  Counts are taken by the same
wrappers (``observe``), so that every ratio is measured where the work
happens.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

__all__ = ["POINTS", "Point", "Tracer", "Total"]

TIMED = "timed"


class _Frame:
    """One open span on a thread's stack."""

    __slots__ = ("id", "name", "phase", "start", "end", "parent", "requests")


Observer = Callable[["Tracer", _Frame, tuple, Any], None]


@dataclass(frozen=True)
class Point:
    module: str
    attr: str
    observe: Observer | None = None


@dataclass
class Total:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


# ----------------------------------------------------------------------
# Counts read at the span boundaries
# ----------------------------------------------------------------------
def _observe_hash_matrix(tracer, frame, args, result) -> None:
    tracer.add({"hashing.rows": len(args[1])})


def _observe_query_batch(tracer, frame, args, result) -> None:
    tracer.add(
        {"lsh.queries": result.batch_size, "lsh.candidates": int(result.sizes.sum())}
    )


def _observe_index_update(tracer, frame, args, result) -> None:
    index = args[0]
    tracer.gauge("lsh.update_items", index, index.num_update_items)
    tracer.gauge("lsh.moved_entries", index, index.num_moved_entries)


def _observe_select_batch(tracer, frame, args, result) -> None:
    tracer.add(
        {
            "sampling.samples": len(result),
            "sampling.active": sum(active.size for active, _, _ in result),
            "sampling.fallback": sum(fallback for _, _, fallback in result),
        }
    )


def _gemm_flops(states, batch: int, backward: bool) -> float:
    """Multiply-adds x2 of the block GEMMs, computed from the block shapes."""
    flops = 0.0
    for index, state in enumerate(states):
        block = 2.0 * batch * state.block.shape[0] * state.block.shape[1]
        # Backward: the weight-gradient GEMM, plus delta propagation below
        # every layer but the first.
        flops += block * (2 if index else 1) if backward else block
    return flops


def _observe_forward(tracer, frame, args, result) -> None:
    output = result.output_state
    tracer.add(
        {
            "kernels.batches": 1,
            "kernels.union_rows": output.rows.size,
            "kernels.sum_active": sum(a.size for a in output.active_sets or ()),
            "kernels.flops": _gemm_flops(result.layer_states, len(args[1]), False),
        }
    )


def _observe_backward(tracer, frame, args, result) -> None:
    tracer.add(
        {"kernels.flops": _gemm_flops(args[2].layer_states, len(args[1]), True)}
    )


def _observe_sparse_step(tracer, frame, args, result) -> None:
    tracer.add({"optim.calls": 1, "optim.elements": args[5].size})


def _observe_rebuild(tracer, frame, args, result) -> None:
    tracer.add({"core.rebuilds": 1})


def _observe_submit(tracer, frame, args, result) -> None:
    request = next(tracer._request_ids)
    result.perfbench_request = request
    frame.requests = (request,)


def _observe_next_batch(tracer, frame, args, result) -> None:
    if not result:
        return
    now = time.monotonic()
    tracer.sample(
        "batching.queue_wait_ms", [(now - r.enqueued_at) * 1e3 for r in result]
    )
    frame.requests = tuple(
        getattr(r.future, "perfbench_request", -1) for r in result
    )
    tracer._local.batch = frame.requests


def _observe_guarded(tracer, frame, args, result) -> None:
    frame.requests = getattr(tracer._local, "batch", None)


def _observe_sparse_engine(tracer, frame, args, result) -> None:
    tracer.add(
        {
            "engine.requests": len(result),
            "engine.candidates": sum(p.candidates_scored for p in result),
            "engine.fallbacks": sum(p.mode == "dense_fallback" for p in result),
        }
    )


POINTS: dict[str, Point] = {
    "types.batch_assemble": Point("repro.types", "SparseBatch.from_examples"),
    "hashing.hash_matrix": Point(
        "repro.hashing.simhash", "SimHash.hash_matrix", _observe_hash_matrix
    ),
    "lsh.query_batch": Point(
        "repro.lsh.index", "LSHIndex.query_batch_flat", _observe_query_batch
    ),
    "lsh.frequencies": Point("repro.lsh.index", "BatchQueryResult.frequencies"),
    "lsh.update": Point("repro.lsh.index", "LSHIndex.update", _observe_index_update),
    "lsh.build": Point("repro.lsh.index", "LSHIndex.build"),
    # Patched where the fused kernels look the name up, not where it is defined.
    "sampling.select_batch": Point(
        "repro.kernels.fused", "select_active_batch", _observe_select_batch
    ),
    "sampling.select_one": Point(
        "repro.sampling.strategies", "VanillaSampling.select_from_result"
    ),
    "sampling.finalize": Point("repro.core.layer", "SlideLayer.finalize_active"),
    "kernels.forward": Point(
        "repro.kernels.fused", "fused_forward_batch", _observe_forward
    ),
    "kernels.backward": Point(
        "repro.kernels.fused", "fused_backward_batch", _observe_backward
    ),
    "optim.sparse_step": Point(
        "repro.optim.adam", "AdamOptimizer.sparse_step", _observe_sparse_step
    ),
    "core.train_batch": Point("repro.core.network", "SlideNetwork.train_batch"),
    "core.rebuild": Point("repro.core.layer", "SlideLayer.rebuild", _observe_rebuild),
    "core.dense_forward": Point("repro.core.layer", "SlideLayer.dense_forward_batch"),
    "baselines.dense_batch": Point("repro.baselines.dense", "DenseNetwork.train_batch"),
    "batching.submit": Point(
        "repro.serving.batching", "MicroBatchQueue.submit", _observe_submit
    ),
    "batching.next_batch": Point(
        "repro.serving.batching", "MicroBatchQueue.next_batch", _observe_next_batch
    ),
    "pool.predict_guarded": Point(
        "repro.serving.engine",
        "InferenceEngine.predict_batch_guarded",
        _observe_guarded,
    ),
    "engine.sparse_batch": Point(
        "repro.serving.engine",
        "SparseInferenceEngine.predict_batch",
        _observe_sparse_engine,
    ),
    "engine.dense_batch": Point(
        "repro.serving.engine", "DenseInferenceEngine.predict_batch"
    ),
}


class Tracer:
    """Installs the wrappers, holds the spans, and adds them up."""

    def __init__(self, points: Mapping[str, Point] = POINTS) -> None:
        self.points = dict(points)
        self.phase = "setup"
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        # Points whose observer no longer fits the callable's signature.
        self.broken: set[str] = set()
        self._ids = itertools.count()
        self._request_ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: dict[str, float] = defaultdict(float)
        self._gauges: dict[tuple[str, int], tuple[weakref.ref, float]] = {}
        self._samples: dict[str, list[float]] = defaultdict(list)

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def install(self) -> None:
        for name, point in self.points.items():
            try:
                owner: Any = importlib.import_module(point.module)
                *path, attr = point.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(self.wrap(name, point, raw.__func__))
            else:
                wrapped = self.wrap(name, point, raw)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def wrap(self, name: str, point: Point, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, point, args, None, ok=False)
                raise
            self._close(frame, point, args, result, ok=True)
            return result

        return traced

    def _open(self, name: str) -> _Frame:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        frame = _Frame()
        frame.id = next(self._ids)
        frame.name = name
        frame.phase = self.phase
        frame.parent = stack[-1].id if stack else None
        frame.requests = None
        stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _close(
        self, frame: _Frame, point: Point, args: tuple, result: Any, ok: bool
    ) -> None:
        frame.end = time.perf_counter()
        self._local.stack.pop()
        if ok and point.observe is not None and frame.name not in self.broken:
            try:
                point.observe(self, frame, args, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                # The callable's signature or result moved on; its counts
                # read zero from here and the point is reported.
                self.broken.add(frame.name)
        self.spans.append(
            (
                frame.id,
                frame.name,
                frame.phase,
                frame.start,
                frame.end,
                frame.parent,
                threading.get_ident(),
                frame.requests,
            )
        )

    # ------------------------------------------------------------------
    # Counts (timed phase only, so that ratios share one boundary)
    # ------------------------------------------------------------------
    def add(self, increments: Mapping[str, float]) -> None:
        if self.phase != TIMED:
            return
        with self._lock:
            for key, value in increments.items():
                self._counters[key] += value

    def gauge(self, key: str, owner: object, value: float) -> None:
        """Count the growth of a running total that ``owner`` keeps itself.

        Every reading is remembered, so that growth outside the timed
        sections is not counted when the next timed reading arrives.
        """
        with self._lock:
            seen, last = self._gauges.get((key, id(owner)), (None, 0.0))
            # An id is reused once its object is gone: set-up runs more than once.
            if seen is None or seen() is not owner:
                last = 0.0
            self._gauges[(key, id(owner))] = (weakref.ref(owner), value)
            if self.phase == TIMED:
                self._counters[key] += value - last

    def sample(self, key: str, values: list[float]) -> None:
        if self.phase != TIMED:
            return
        with self._lock:
            self._samples[key].extend(values)

    def counter(self, key: str) -> float:
        return self._counters.get(key, 0.0)

    def samples(self, key: str) -> list[float]:
        return self._samples.get(key, [])

    # ------------------------------------------------------------------
    # Adding up
    # ------------------------------------------------------------------
    def totals(self) -> dict[tuple[str, str], Total]:
        """``(phase, name) -> count, total and self seconds``."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        table: dict[tuple[str, str], Total] = defaultdict(Total)
        for span_id, name, phase, start, end, _, _, _ in self.spans:
            duration = end - start
            total = table[(phase, name)]
            total.count += 1
            total.total_s += duration
            total.self_s += duration - covered[span_id]
        return table

    def write(self, path: Path) -> None:
        """The spans as JSON lines."""
        keys = ("id", "name", "phase", "start", "end", "parent", "thread", "requests")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
