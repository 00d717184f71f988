"""Tests for the hash-table rebuild schedule."""

from __future__ import annotations

import math

import pytest

from repro.lsh.scheduler import ExponentialDecaySchedule


class TestExponentialDecaySchedule:
    def test_first_rebuild_at_initial_period(self):
        schedule = ExponentialDecaySchedule(initial_period=50, decay=0.1)
        assert not schedule.should_rebuild(49)
        assert schedule.should_rebuild(50)

    def test_gaps_grow_exponentially(self):
        schedule = ExponentialDecaySchedule(initial_period=10, decay=0.5)
        gaps = []
        iteration = 0
        previous = 0
        for _ in range(5):
            iteration = schedule.next_rebuild_iteration()
            schedule.record_rebuild(iteration)
            gaps.append(iteration - previous)
            previous = iteration
        assert all(b >= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] > gaps[0]

    def test_zero_decay_is_fixed_period(self):
        schedule = ExponentialDecaySchedule(initial_period=20, decay=0.0)
        iterations = []
        it = 0
        for _ in range(4):
            it = schedule.next_rebuild_iteration()
            schedule.record_rebuild(it)
            iterations.append(it)
        assert iterations == [20, 40, 60, 80]

    def test_max_period_caps_gap(self):
        schedule = ExponentialDecaySchedule(initial_period=10, decay=2.0, max_period=25)
        for _ in range(10):
            schedule.record_rebuild(schedule.next_rebuild_iteration())
        assert schedule.current_period() == 25

    def test_planned_iterations_match_paper_formula(self):
        n0, lam = 50, 0.1
        schedule = ExponentialDecaySchedule(initial_period=n0, decay=lam, max_period=100_000)
        planned = schedule.planned_iterations(4)
        expected = []
        total = 0.0
        for t in range(4):
            total += n0 * math.exp(lam * t)
            expected.append(int(round(total)))
        assert planned == expected

    def test_long_runs_do_not_overflow(self):
        """Regression: ``N0 * exp(lambda * t)`` used to raise OverflowError
        once ``lambda * t`` passed math.exp's ~709 limit; long trainings must
        settle at max_period instead of crashing."""
        schedule = ExponentialDecaySchedule(
            initial_period=10, decay=5.0, max_period=1000
        )
        iteration = 0
        for _ in range(500):  # exponent reaches 2500 — far past overflow
            iteration = schedule.next_rebuild_iteration()
            schedule.record_rebuild(iteration)
        assert schedule.current_period() == 1000
        assert schedule.next_rebuild_iteration() == iteration + 1000
        # planned_iterations shares the clamped formula.
        planned = schedule.planned_iterations(400)
        assert planned[-1] - planned[-2] == 1000

    def test_planned_iterations_validation(self):
        schedule = ExponentialDecaySchedule(initial_period=10)
        with pytest.raises(ValueError):
            schedule.planned_iterations(-1)
        assert schedule.planned_iterations(0) == []

    def test_rebuild_count_tracks_rebuilds(self):
        schedule = ExponentialDecaySchedule(initial_period=5, decay=0.3)
        assert schedule.rebuild_count == 0
        schedule.record_rebuild(5)
        schedule.record_rebuild(12)
        assert schedule.rebuild_count == 2

    def test_state_dict_round_trip_resumes_the_same_iterations(self):
        schedule = ExponentialDecaySchedule(initial_period=7, decay=0.4, max_period=90)
        for _ in range(3):
            schedule.record_rebuild(schedule.next_rebuild_iteration())
        state = schedule.state_dict()
        assert state == {"next": schedule.next_rebuild_iteration(), "rebuild_count": 3}
        resumed = ExponentialDecaySchedule(initial_period=7, decay=0.4, max_period=90)
        resumed.load_state_dict(state)
        for _ in range(6):
            due = schedule.next_rebuild_iteration()
            assert resumed.next_rebuild_iteration() == due
            assert not resumed.should_rebuild(due - 1) and resumed.should_rebuild(due)
            schedule.record_rebuild(due)
            resumed.record_rebuild(due)
        assert resumed.state_dict() == schedule.state_dict()

    def test_load_state_dict_without_rebuild_count(self):
        """A state saved without ``rebuild_count`` resumes at count 0."""
        schedule = ExponentialDecaySchedule(initial_period=5, decay=0.3)
        schedule.record_rebuild(5)
        schedule.load_state_dict({"next": 40})
        assert schedule.rebuild_count == 0
        assert schedule.next_rebuild_iteration() == 40
        assert schedule.current_period() == 5

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ExponentialDecaySchedule(initial_period=0)
        with pytest.raises(ValueError):
            ExponentialDecaySchedule(initial_period=10, decay=-1.0)
        with pytest.raises(ValueError):
            ExponentialDecaySchedule(initial_period=10, max_period=5)
