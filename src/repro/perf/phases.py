"""Cumulative wall-clock accounting for named training phases.

The batched training step decomposes into a small number of phases — LSH
hashing/probing, the gather + GEMM math, the optimiser update, and the
periodic hash-table rebuild.  :class:`PhaseTimer` accumulates real
``perf_counter`` seconds per phase with negligible overhead (two clock reads
per instrumented section), so the throughput benchmarks can report *where*
a training run spends its time and track the rebuild share across PRs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["PhaseTimer"]


class PhaseTimer:
    """Accumulates wall-clock seconds under named phases."""

    __slots__ = ("totals", "offloaded")

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        # Seconds other processes spent on phases handed to them.  Kept out
        # of ``totals``, which add up to (part of) the caller's wall clock.
        self.offloaded: dict[str, float] = {}

    def add(self, name: str, seconds: float) -> None:
        """Credit ``seconds`` to ``name``."""
        self.totals[name] = self.totals.get(name, 0.0) + float(seconds)

    def offload(self, name: str, seconds: float) -> None:
        """Credit ``seconds`` that another process spent on ``name``."""
        self.offloaded[name] = self.offloaded.get(name, 0.0) + float(seconds)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a ``with`` block and credit it to ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def snapshot(self) -> dict[str, float]:
        """Copy of the accumulated per-phase totals."""
        return dict(self.totals)

    def shares(self) -> dict[str, float]:
        """Per-phase fraction of the total accumulated time."""
        total = sum(self.totals.values())
        if total <= 0.0:
            return {name: 0.0 for name in self.totals}
        return {name: seconds / total for name, seconds in self.totals.items()}

    def reset(self) -> None:
        """Drop all accumulated totals."""
        self.totals.clear()
        self.offloaded.clear()
