"""Open- and closed-loop load from one generator thread.

Both loops run on the calling thread and learn of completions through
done-callbacks; there is no client thread pool.  The open loop sends request
``i`` when it is *due* (``start + i / rate``), whatever has or has not come
back, and latency is counted from that due time: when the generator itself
is stalled, the wait it imposes on later requests is part of their latency
(``repro.serving.loadgen.run_open_loop`` times from the submit call, which
hides exactly that).  ``max_lag_ms`` says how late the generator ran.  The
arrival schedule is evenly spaced: burstiness is not something any workload
here sets out to vary.
"""

from __future__ import annotations

import functools
import queue
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

__all__ = ["LoadResult", "open_loop", "closed_loop"]

Submit = Callable[[Any], Future]
# How long a loop waits, after its last send, for answers still outstanding.
DRAIN_S = 5.0


@dataclass
class LoadResult:
    """Per-request record of one loop; index ``i`` is request ``i``."""

    due: np.ndarray
    sent: np.ndarray
    # NaN where no answer came back.
    done: np.ndarray
    # Which of the caller's examples each request carried.
    example: np.ndarray
    # The answer, or the exception that took its place (None: still pending).
    outcome: list
    duration_s: float

    @functools.cached_property
    def answered(self) -> np.ndarray:
        """Mask of requests that came back with an answer, not an error."""
        return np.array(
            [o is not None and not isinstance(o, BaseException) for o in self.outcome],
            dtype=bool,
        )

    def latency_ms(self) -> np.ndarray:
        """Due-to-done latency of every request (NaN where unanswered)."""
        latency = (self.done - self.due) * 1e3
        latency[~self.answered] = np.nan
        return latency

    @property
    def max_lag_ms(self) -> float:
        return float(np.max(self.sent - self.due) * 1e3) if self.due.size else 0.0


class _Recorder:
    """Shared by a loop and the done-callbacks of the requests it sent."""

    def __init__(self, count: int) -> None:
        self.due = np.full(count, np.nan)
        self.sent = np.full(count, np.nan)
        self.done = np.full(count, np.nan)
        self.example = np.zeros(count, dtype=np.int64)
        self.outcome: list = [None] * count
        self.completions: queue.SimpleQueue[int] = queue.SimpleQueue()

    def send(self, submit: Submit, examples: Sequence, index: int, due: float) -> None:
        slot = index % len(examples)
        self.due[index] = due
        self.example[index] = slot
        self.sent[index] = time.perf_counter()
        try:
            future = submit(examples[slot])
        except Exception as exc:  # noqa: BLE001 - a refusal is a recorded outcome
            self._finish(index, exc)
            return
        future.add_done_callback(lambda f, index=index: self._on_done(index, f))

    def _on_done(self, index: int, future: Future) -> None:
        if future.cancelled():
            outcome: Any = RuntimeError("request cancelled")
        else:
            outcome = future.exception() or future.result()
        self._finish(index, outcome)

    def _finish(self, index: int, outcome: Any) -> None:
        self.done[index] = time.perf_counter()
        self.outcome[index] = outcome
        self.completions.put(index)

    def result(self, sent: int, duration_s: float) -> LoadResult:
        return LoadResult(
            due=self.due[:sent],
            sent=self.sent[:sent],
            done=self.done[:sent],
            example=self.example[:sent],
            outcome=self.outcome[:sent],
            duration_s=duration_s,
        )


def _drain(recorder: _Recorder, outstanding: int) -> None:
    deadline = time.perf_counter() + DRAIN_S
    while outstanding:
        try:
            recorder.completions.get(timeout=max(deadline - time.perf_counter(), 0.0))
        except queue.Empty:
            return
        outstanding -= 1


def open_loop(
    submit: Submit, examples: Sequence, rate: float, duration_s: float
) -> LoadResult:
    """Send ``rate`` requests a second for ``duration_s``, on schedule."""
    count = max(1, int(rate * duration_s))
    recorder = _Recorder(count)
    start = time.perf_counter()
    for index in range(count):
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        recorder.send(submit, examples, index, due)
    # Every finished request queued one completion; the rest are outstanding.
    _drain(recorder, count)
    return recorder.result(count, time.perf_counter() - start)


def closed_loop(
    submit: Submit, examples: Sequence, in_flight: int, duration_s: float
) -> LoadResult:
    """Keep ``in_flight`` requests outstanding for ``duration_s``.

    A request is due the moment the completion that frees its slot is seen.
    ``duration_s`` of the result runs to the last completion counted, so
    ``answered / duration_s`` is the rate at which work was finished.
    """
    # Far more slots than any engine here can fill; the loop ends on time.
    recorder = _Recorder(int(duration_s * 100_000) + in_flight)
    start = time.perf_counter()
    end = start + duration_s
    sent = 0
    for _ in range(in_flight):
        recorder.send(submit, examples, sent, time.perf_counter())
        sent += 1
    outstanding = sent
    while outstanding:
        try:
            recorder.completions.get(timeout=DRAIN_S)
        except queue.Empty:
            break
        outstanding -= 1
        now = time.perf_counter()
        if now < end and sent < recorder.due.size:
            recorder.send(submit, examples, sent, now)
            sent += 1
            outstanding += 1
    return recorder.result(sent, time.perf_counter() - start)
