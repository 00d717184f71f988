"""The two workloads.  Each stresses a different set of ``repro`` modules.

``train_batched``  optim, kernels, lsh/sampling and core do all the work;
                   serving does none.  The paper's headline comparison, with
                   the dense reference in the same run.
``serve_direct``   serving.batching/pool/engine and the read-only LSH path;
                   optim and kernels do none, so an optimiser or gather-GEMM
                   change must not move it.

The program is entered through public calls only.  Every workload takes a
:class:`Run` and returns an :class:`Outcome`; ``run.py`` adds what is common
to both (set-up time is measured here, memory and the host check there).
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.baselines.dense import DenseNetwork, DenseNetworkConfig
from repro.config import ServingConfig
from repro.core.trainer import SlideTrainer
from repro.serving.engine import DenseInferenceEngine, SparseInferenceEngine
from repro.serving.errors import RejectedError
from repro.serving.pool import ServingRuntime

from perfbench.loadgen import LoadResult, closed_loop, open_loop
from perfbench.shape import (
    CHUNK,
    LIMIT_MS,
    TOP_K,
    Shape,
    assemble,
    heldout_p_at_1,
    iter_batches,
    make_dataset,
    make_network,
    optimizer_config,
    top1_hits,
    training_config,
)
from perfbench.trace import TIMED, Tracer

__all__ = ["WORKLOADS", "Run", "Outcome", "untraced_loss_digest"]

# A run sets up this many times and reports the median: one set-up moved by
# up to 0.3 of its median between identical runs on the sizing host.
SETUPS = 3
# Losses compared between the traced run and an untraced reference.
DIGEST_BATCHES = 64
# train_batched trains these before its clock starts: the first steps of a
# process fault in the workspace buffers, a cost paid once per process that
# would otherwise be a tenth of a short run.
WARMUP_BATCHES = 2
# serve_direct: warm-up (discarded), then ROUNDS rounds of two open-loop rates
# and a closed loop, as (requests per second or requests in flight, share of
# --seconds).  Rounds, so that each phase samples the host at three moments
# of the run and one slow second moves one round, not the result.
ROUNDS = 3
WARMUP = (200, 3 / 43)
OPEN_LOW = (300, 15 / 43)
OPEN_HIGH = (800, 15 / 43)
CLOSED = (32, 10 / 43)
PROBE = 64
# serve_direct reads latency and capacity off windows of this many
# consecutive answers: a third of a second at 300 rps, 0.15 s of a closed loop.
LATENCY_WINDOW = 100
CAPACITY_WINDOW = 400
# Examples in the offline sparse-against-dense engine batch of a traced run
# (the dense engine scores about 45 examples a second at this shape).
OFFLINE_BATCH = 128


@dataclass
class Run:
    shape: Shape
    seed: int
    seconds: float
    tracer: Tracer | None = None

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name


@dataclass
class Outcome:
    setup_s: float
    # throughput_per_s, p_at_1, latency_ms and ok_frac.
    e2e: dict[str, float]
    # Per-layer numbers the workload reads off reports and counters itself.
    layer: dict[str, float]
    attempted: int
    failed: int
    checks: dict[str, bool]
    # What per-operation span times are divided by: batches or answers.
    ops: int
    wall_s: float
    loss_digest: str | None = None


def _set_up(build: Callable[[], Any], close: Callable[[Any], None] | None = None):
    """Set up ``SETUPS`` times; the last state and the median time.

    A state is closed and dropped before the next is built, so that peak
    memory is that of one.
    """
    state = None
    times = []
    for _ in range(SETUPS):
        if state is not None and close is not None:
            close(state)
        state = None
        start = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - start)
    return state, statistics.median(times)


def _bucket_load(network) -> float:
    return network.output_layer.lsh_index.stats()["mean_load_factor"]


def _percentiles(values, *points: float) -> list[float]:
    values = np.asarray(values, dtype=np.float64)
    values = values[~np.isnan(values)]
    if values.size == 0:
        return [float("nan")] * len(points)
    return [float(np.percentile(values, p)) for p in points]


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
def _train_batches(run: Run) -> int:
    """The sample budget ``--seconds`` buys at the nominal rate, in whole chunks."""
    return CHUNK * max(2, round(run.seconds * run.shape.train_batches_per_s / CHUNK))


def _trainer(run: Run):
    """Data, and a trainer that has trained the warm-up batches (the last ones)."""
    shape = run.shape
    batches = _train_batches(run)
    data = make_dataset(shape, run.seed, (batches + WARMUP_BATCHES) * shape.batch_size)
    trainer = SlideTrainer(
        make_network(shape, run.seed), training_config(shape, run.seed), hogwild=False
    )
    trainer.train_batches(iter_batches(shape, data.train, batches, WARMUP_BATCHES))
    return data, trainer


def _loss_digest(trainer: SlideTrainer) -> str:
    records = trainer.history.records[WARMUP_BATCHES:][:DIGEST_BATCHES]
    losses = np.array([record.loss for record in records])
    return hashlib.sha256(losses.tobytes()).hexdigest()


def untraced_loss_digest(shape: Shape, seed: int, seconds: float) -> str:
    """What ``train_batched`` reports as ``loss_digest``, from a fresh trainer.

    A traced run calls this with the wrappers taken off again: they must not
    have changed the trajectory.
    """
    run = Run(shape, seed, seconds)
    data, trainer = _trainer(run)
    count = min(DIGEST_BATCHES, _train_batches(run))
    trainer.train_batches(iter_batches(shape, data.train, 0, count))
    return _loss_digest(trainer)


def train_batched(run: Run) -> Outcome:
    shape = run.shape
    batches = _train_batches(run)
    chunks = batches // CHUNK
    size = shape.batch_size
    (data, trainer), setup_s = _set_up(lambda: _trainer(run))
    network = trainer.network

    def stamped(first: int, stamps: list[float]):
        # The stamp precedes assembly: a step is assembly plus train_batch.
        for index in range(first, first + CHUNK):
            stamps.append(time.perf_counter())
            yield assemble(shape, data.train[index * size : (index + 1) * size])

    chunk_s: list[float] = []
    step_ms: list[float] = []
    evals: list[tuple[float, float]] = []
    for chunk in range(chunks):
        run.phase(TIMED)
        stamps: list[float] = []
        start = time.perf_counter()
        trainer.train_batches(stamped(chunk * CHUNK, stamps))
        end = time.perf_counter()
        chunk_s.append(end - start)
        step_ms.extend(np.diff(stamps + [end]) * 1e3)
        # Off the training clock.  The untraced run needs only the last one;
        # the traced run evaluates every chunk for time_to_target_s.
        if run.tracer is not None or chunk == chunks - 1:
            run.phase("eval")
            evals.append((sum(chunk_s), heldout_p_at_1(network, data.test)))

    records = trainer.history.records[WARMUP_BATCHES:]
    losses = np.array([record.loss for record in records])
    reached = [at for at, p in evals if p >= shape.target_p_at_1]
    p50, p90 = _percentiles(step_ms, 50, 90)
    layer = {}
    wall = clock = sum(chunk_s)
    if run.tracer is not None:
        dense_ms = _dense_reference_ms(run, data.train, chunks)
        wall += sum(dense_ms) / 1e3
        layer = {
            "train.samples_per_s": batches * size / clock,
            "train.step_p90_ms": p90,
            "train.time_to_target_s": reached[0] if reached else 0.0,
            # Median step against median step: the first dense step of a
            # process takes five times the others.
            "train.sparse_over_dense": statistics.median(dense_ms) / p50,
            "lsh.bucket_load": _bucket_load(network),
        }
    return Outcome(
        setup_s=setup_s,
        e2e={
            # The median chunk: the chunk that holds the table rebuild and
            # the chunks a slow spell of the host falls into move the plain
            # samples / clock (train.samples_per_s) by half as much again.
            "throughput_per_s": CHUNK * size / statistics.median(chunk_s),
            "p_at_1": evals[-1][1],
            "latency_ms": p50,
            "ok_frac": losses.size / batches,
        },
        layer=layer,
        attempted=batches,
        failed=batches - int(losses.size),
        checks={
            "losses_finite": bool(np.all(np.isfinite(losses))),
            "target_reached": bool(reached),
        },
        ops=batches,
        wall_s=wall,
        loss_digest=_loss_digest(trainer),
    )


def _dense_reference_ms(run: Run, examples: list, count: int) -> list[float]:
    """Step times of ``DenseNetwork.train_batch`` on the first ``count`` batches."""
    shape = run.shape
    dense = DenseNetwork(
        DenseNetworkConfig(
            input_dim=shape.feature_dim,
            hidden_dim=shape.hidden,
            output_dim=shape.label_dim,
            optimizer=optimizer_config(),
            seed=run.seed,
        )
    )
    run.phase(TIMED)
    step_ms = []
    for batch in iter_batches(shape, examples, 0, count):
        start = time.perf_counter()
        dense.train_batch(batch)
        step_ms.append((time.perf_counter() - start) * 1e3)
    run.phase("after")
    return step_ms


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def _runtime(run: Run):
    """Held-out requests, and a started runtime over a pre-trained network."""
    shape = run.shape
    data = make_dataset(shape, run.seed, shape.pretrain_batches * shape.batch_size)
    trainer = SlideTrainer(
        make_network(shape, run.seed), training_config(shape, run.seed), hogwild=False
    )
    trainer.train_batches(iter_batches(shape, data.train, 0, shape.pretrain_batches))
    engine = SparseInferenceEngine(trainer.network, active_budget=shape.active_budget)
    config = ServingConfig(
        engine="sparse",
        active_budget=shape.active_budget,
        top_k=TOP_K,
        max_batch_size=32,
        max_wait_ms=2.0,
        num_workers=1,
        queue_capacity=128,
        deadline_ms=250.0,
    )
    return data.test, ServingRuntime(engine, config).start()


def _valid(prediction, label_dim: int) -> bool:
    ids, scores = prediction.class_ids, prediction.scores
    return bool(
        ids.shape == (TOP_K,)
        and ids.min() >= 0
        and ids.max() < label_dim
        and np.all(np.diff(scores) <= 0)
    )


@dataclass
class _Served:
    """What the client saw over some loops; sums over more loops add up."""

    due: int
    answered: int
    within_limit: int
    refused: int
    top1_hits: int
    valid: bool

    @property
    def p_at_1(self) -> float:
        return self.top1_hits / max(self.answered, 1)

    def __add__(self, other: "_Served") -> "_Served":
        return _Served(
            self.due + other.due,
            self.answered + other.answered,
            self.within_limit + other.within_limit,
            self.refused + other.refused,
            self.top1_hits + other.top1_hits,
            self.valid and other.valid,
        )


def _served(loads: list[LoadResult], examples: list, label_dim: int) -> _Served:
    seen = _Served(0, 0, 0, 0, 0, True)
    for load in loads:
        mask = load.answered
        answers = [load.outcome[index] for index in np.flatnonzero(mask)]
        asked = [examples[slot] for slot in load.example[mask]]
        top1 = [int(answer.class_ids[0]) for answer in answers]
        seen += _Served(
            due=mask.size,
            answered=len(answers),
            within_limit=int(np.sum(load.latency_ms()[mask] <= LIMIT_MS)),
            refused=sum(isinstance(o, RejectedError) for o in load.outcome),
            top1_hits=top1_hits(top1, asked),
            valid=all(_valid(answer, label_dim) for answer in answers),
        )
    return seen


def _best_window_latency_ms(loads: list[LoadResult]) -> float:
    """Lowest median latency of ``LATENCY_WINDOW`` consecutive answers of a loop.

    A loop with fewer answers than that is one window.
    """
    medians = []
    for load in loads:
        latency = load.latency_ms()[load.answered]
        last = max(latency.size - LATENCY_WINDOW, 0)
        medians += [
            float(np.median(latency[first : first + LATENCY_WINDOW]))
            for first in range(0, last + 1, LATENCY_WINDOW)
        ]
    return min(medians)


def _best_window_rate(loads: list[LoadResult]) -> float:
    """Most answers per second over ``CAPACITY_WINDOW`` consecutive answers of a loop.

    Every run of consecutive answers is tried, not only disjoint ones, and
    a loop with fewer answers than that is one window.
    """
    rates = []
    for load in loads:
        done = np.sort(load.done[load.answered])
        count = min(CAPACITY_WINDOW, done.size - 1)
        rates.append(count / float(np.min(done[count:] - done[:-count])))
    return max(rates)


def _client_layer(tail: list[LoadResult], loads: list[LoadResult], seen: _Served) -> dict:
    """The generator's own numbers; the p99 is read off the ``tail`` loops."""
    latency = np.concatenate([load.latency_ms() for load in tail])
    p50, p90, p99 = _percentiles(latency, 50, 90, 99)
    return {
        "client.p50_ms": p50,
        "client.p90_ms": p90,
        "client.p99_ms": p99,
        "client.samples": int(np.sum(~np.isnan(latency))),
        "client.max_lag_ms": max(each.max_lag_ms for each in loads),
        "client.refused": seen.refused,
        "client.failed": seen.due - seen.answered - seen.refused,
    }


def _pool_counts(snapshot: dict) -> np.ndarray:
    """Batches, batched requests, queue-full sheds and deadline drops so far."""
    sheds = snapshot["sheds"]
    return np.array(
        [
            snapshot["batches"],
            snapshot["mean_batch_size"] * snapshot["batches"],
            sheds.get("queue_full", 0.0),
            sheds.get("deadline", 0.0),
        ]
    )


def serve_direct(run: Run) -> Outcome:
    shape = run.shape
    (requests, runtime), setup_s = _set_up(
        lambda: _runtime(run), close=lambda state: state[1].stop()
    )
    engine = runtime.engine

    lows: list[LoadResult] = []
    highs: list[LoadResult] = []
    closeds: list[LoadResult] = []
    share = run.seconds / ROUNDS
    try:
        run.phase("warmup")
        open_loop(runtime.submit, requests, WARMUP[0], WARMUP[1] * run.seconds)
        before = runtime.metrics.snapshot()
        run.phase(TIMED)
        for _ in range(ROUNDS):
            lows.append(open_loop(runtime.submit, requests, OPEN_LOW[0], OPEN_LOW[1] * share))
            highs.append(
                open_loop(runtime.submit, requests, OPEN_HIGH[0], OPEN_HIGH[1] * share)
            )
            closeds.append(
                closed_loop(runtime.submit, requests, CLOSED[0], CLOSED[1] * share)
            )
        run.phase("after")
        after = runtime.metrics.snapshot()
    finally:
        runtime.stop()

    loads = lows + highs + closeds
    open_seen = _served(lows + highs, requests, shape.label_dim)
    seen = open_seen + _served(closeds, requests, shape.label_dim)
    low = lows[0]

    # The first requests of the low-rate phase, asked of the engine directly.
    probe = [i for i in range(min(PROBE, len(low.outcome))) if low.answered[i]]
    direct = engine.predict_batch([requests[low.example[i]] for i in probe], k=TOP_K)
    probe_equal = all(
        int(low.outcome[i].class_ids[0]) == int(answer.class_ids[0])
        for i, answer in zip(probe, direct)
    )

    batches, batched, refused, dropped = _pool_counts(after) - _pool_counts(before)
    layer = {
        "batching.batch_size_mean": batched / max(batches, 1),
        "batching.refused": refused,
        "pool.batches": batches,
        "pool.deadline_drops": dropped,
        "engine.fallback_frac": engine.fallback_rate(),
        "lsh.bucket_load": _bucket_load(engine.network),
        **_client_layer(highs, loads, seen),
    }
    if run.tracer is not None:
        layer.update(_offline_engines(run, engine, requests))

    return Outcome(
        setup_s=setup_s,
        e2e={
            # The best window of the run, for both: interference from the
            # host only ever adds time and comes in bursts.  Latency is read
            # at the low rate: at 800 rps the worker is two thirds busy and
            # queueing amplifies every change of speed, the host's included.
            "throughput_per_s": _best_window_rate(closeds),
            "p_at_1": seen.p_at_1,
            "latency_ms": _best_window_latency_ms(lows),
            "ok_frac": open_seen.within_limit / open_seen.due,
        },
        layer=layer,
        attempted=seen.due,
        failed=seen.due - seen.answered,
        checks={
            "answers_valid": seen.valid,
            "probe_equals_direct_engine": bool(probe) and probe_equal,
        },
        ops=seen.answered,
        wall_s=sum(load.duration_s for load in loads),
    )


def _offline_engines(run: Run, engine: SparseInferenceEngine, requests: list) -> dict:
    """One batch through the sparse and through the dense engine."""
    requests = requests[:OFFLINE_BATCH]
    run.phase("offline")
    start = time.perf_counter()
    sparse = engine.predict_batch(requests, k=TOP_K)
    sparse_s = time.perf_counter() - start
    start = time.perf_counter()
    dense = DenseInferenceEngine(engine.network).predict_batch(requests, k=TOP_K)
    dense_s = time.perf_counter() - start
    run.phase("after")
    agree = sum(int(s.class_ids[0]) == int(d.class_ids[0]) for s, d in zip(sparse, dense))
    return {
        "engine.top1_recall_vs_dense": agree / len(requests),
        "engine.batch_examples_per_s": len(requests) / sparse_s,
        "engine.dense_batch_examples_per_s": len(requests) / dense_s,
    }


WORKLOADS: dict[str, Callable[[Run], Outcome]] = {
    "train_batched": train_batched,
    "serve_direct": serve_direct,
}
