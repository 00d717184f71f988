"""Tests for :class:`repro.perf.phases.PhaseTimer`, the per-phase wall-clock ledger."""

from __future__ import annotations

import itertools

import pytest

from repro.perf import phases
from repro.perf.phases import PhaseTimer


@pytest.fixture
def fake_clock(monkeypatch):
    """``perf_counter`` returning 0, 1, 2, ... so every timed block spans
    exactly one second per clock read between its entry and exit."""
    ticks = itertools.count()
    monkeypatch.setattr(phases.time, "perf_counter", lambda: float(next(ticks)))


def test_add_accumulates_per_phase():
    timer = PhaseTimer()
    timer.add("hash", 0.25)
    timer.add("gather_gemm", 1.0)
    timer.add("hash", 0.5)
    assert timer.snapshot() == {"hash": 0.75, "gather_gemm": 1.0}


def test_add_stores_plain_floats():
    timer = PhaseTimer()
    timer.add("optimiser", 2)
    assert type(timer.totals["optimiser"]) is float


def test_phase_credits_the_elapsed_time_of_its_block(fake_clock):
    timer = PhaseTimer()
    with timer.phase("select"):
        pass
    with timer.phase("select"):
        pass
    assert timer.snapshot() == {"select": 2.0}


def test_phase_credits_time_when_the_block_raises(fake_clock):
    timer = PhaseTimer()
    with pytest.raises(RuntimeError):
        with timer.phase("rebuild"):
            raise RuntimeError("boom")
    assert timer.snapshot() == {"rebuild": 1.0}


def test_nested_phases_credit_both_names(fake_clock):
    timer = PhaseTimer()
    with timer.phase("step"):  # reads 0 ... 3
        with timer.phase("hash"):  # reads 1 ... 2
            pass
    assert timer.snapshot() == {"hash": 1.0, "step": 3.0}


def test_real_clock_phase_is_non_negative():
    timer = PhaseTimer()
    with timer.phase("other"):
        sum(range(100))
    assert timer.totals["other"] >= 0.0


def test_snapshot_is_a_detached_copy():
    timer = PhaseTimer()
    timer.add("hash", 1.0)
    snap = timer.snapshot()
    snap["hash"] = 99.0
    snap["new"] = 1.0
    timer.add("hash", 1.0)
    assert timer.snapshot() == {"hash": 2.0}
    assert snap == {"hash": 99.0, "new": 1.0}


def test_shares_are_fractions_of_the_total():
    timer = PhaseTimer()
    timer.add("hash", 1.0)
    timer.add("gather_gemm", 3.0)
    shares = timer.shares()
    assert shares == pytest.approx({"hash": 0.25, "gather_gemm": 0.75})
    assert sum(shares.values()) == pytest.approx(1.0)


def test_shares_of_zero_time_are_zero_not_nan():
    timer = PhaseTimer()
    timer.add("rebuild", 0.0)
    timer.add("hash", 0.0)
    assert timer.shares() == {"rebuild": 0.0, "hash": 0.0}
    assert PhaseTimer().shares() == {}


def test_reset_drops_every_total():
    timer = PhaseTimer()
    timer.add("hash", 1.0)
    timer.reset()
    assert timer.snapshot() == {}
    timer.add("hash", 0.5)
    assert timer.snapshot() == {"hash": 0.5}
