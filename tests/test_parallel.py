"""Tests for update-conflict analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.conflicts import (
    analyze_update_conflicts,
    expected_conflict_fraction,
)


class TestConflictAnalysis:
    def test_disjoint_sets_have_no_conflicts(self):
        report = analyze_update_conflicts(
            [np.array([0, 1]), np.array([2, 3]), np.array([4, 5])], layer_size=10
        )
        assert report.conflicted_update_fraction == 0.0
        assert report.pairwise_overlap_rate == 0.0
        assert report.distinct_neurons_updated == 6
        assert report.is_sparse_enough_for_hogwild

    def test_identical_sets_fully_conflict(self):
        report = analyze_update_conflicts(
            [np.array([0, 1, 2]), np.array([0, 1, 2])], layer_size=10
        )
        assert report.conflicted_update_fraction == pytest.approx(1.0)
        assert report.pairwise_overlap_rate == pytest.approx(1.0)
        assert not report.is_sparse_enough_for_hogwild

    def test_partial_overlap(self):
        report = analyze_update_conflicts(
            [np.array([0, 1, 2, 3]), np.array([3, 4, 5, 6])], layer_size=20
        )
        # Only neuron 3 is contested: 2 of 8 updates conflict.
        assert report.conflicted_update_fraction == pytest.approx(0.25)
        assert report.mean_active == pytest.approx(4.0)

    def test_empty_batch(self):
        report = analyze_update_conflicts([], layer_size=10)
        assert report.batch_size == 0
        assert report.conflicted_update_fraction == 0.0

    def test_expected_conflict_fraction_formula(self):
        # 1 - (1 - a/n)^(B-1)
        assert expected_conflict_fraction(2, 10, 100) == pytest.approx(0.1)
        assert expected_conflict_fraction(1, 10, 100) == pytest.approx(0.0)
        assert expected_conflict_fraction(5, 1, 1000) < 0.005

    def test_expected_conflict_fraction_validation(self):
        with pytest.raises(ValueError):
            expected_conflict_fraction(0, 1, 10)
        with pytest.raises(ValueError):
            expected_conflict_fraction(2, 20, 10)

    def test_sparser_activations_conflict_less(self, rng):
        """The core HOGWILD-enabling property: conflicts shrink with sparsity."""
        layer_size = 10_000
        batch = 16

        def random_sets(active):
            return [
                rng.choice(layer_size, size=active, replace=False) for _ in range(batch)
            ]

        sparse_report = analyze_update_conflicts(random_sets(10), layer_size)
        dense_report = analyze_update_conflicts(random_sets(2500), layer_size)
        assert (
            sparse_report.conflicted_update_fraction
            < dense_report.conflicted_update_fraction
        )
        assert sparse_report.is_sparse_enough_for_hogwild
        assert not dense_report.is_sparse_enough_for_hogwild

