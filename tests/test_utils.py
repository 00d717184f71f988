"""Tests for :mod:`repro.utils` (rng, sparse, top-k, validation)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import derive_rng, spawn_rngs
from repro.utils.sparse import spans_all
from repro.utils.topk import top_k_indices
from repro.utils.validation import (
    check_array_1d,
    check_in_range,
    check_positive,
    check_probability,
)


class TestRng:
    def test_same_seed_same_stream_is_deterministic(self):
        a = derive_rng(42, stream=1).integers(0, 1000, size=10)
        b = derive_rng(42, stream=1).integers(0, 1000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_streams_differ(self):
        a = derive_rng(42, stream=1).integers(0, 1_000_000, size=20)
        b = derive_rng(42, stream=2).integers(0, 1_000_000, size=20)
        assert not np.array_equal(a, b)

    def test_passing_generator_returns_it(self):
        gen = np.random.default_rng(0)
        assert derive_rng(gen) is gen

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            derive_rng(-1)

    def test_spawn_rngs_count(self):
        rngs = spawn_rngs(7, 3)
        assert len(rngs) == 3
        draws = [r.integers(0, 1_000_000) for r in rngs]
        assert len(set(draws)) > 1

    def test_spawn_rngs_invalid_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(7, 0)


class TestSpansAll:
    def test_none_and_every_column_in_order_span_all(self):
        assert spans_all(None, 5)
        assert spans_all(np.arange(5), 5)
        assert spans_all(np.zeros(0, dtype=np.int64), 0)

    def test_subset_permutation_or_other_width_do_not(self):
        assert not spans_all(np.array([0, 1, 3]), 4)
        assert not spans_all(np.array([1, 0, 2]), 3)
        assert not spans_all(np.arange(5), 4)
        assert not spans_all(np.arange(4), 5)


class TestTopK:
    def test_top_k_returns_largest_descending(self):
        scores = np.array([1.0, 5.0, 3.0, 4.0, 2.0])
        np.testing.assert_array_equal(top_k_indices(scores, 3), [1, 3, 2])

    def test_top_k_larger_than_input_returns_all_sorted(self):
        scores = np.array([1.0, 3.0, 2.0])
        np.testing.assert_array_equal(top_k_indices(scores, 10), [1, 2, 0])

    def test_top_k_zero_returns_empty(self):
        assert top_k_indices(np.array([1.0, 2.0]), 0).size == 0

    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        k=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_top_k_property(self, values, k):
        scores = np.array(values)
        result = top_k_indices(scores, k)
        assert result.size == min(k, scores.size)
        # Every selected score is >= every non-selected score.
        if result.size < scores.size:
            selected = scores[result]
            not_selected = np.delete(scores, result)
            assert selected.min() >= not_selected.max() - 1e-12


class TestValidation:
    def test_check_positive(self):
        check_positive(1.0, "x")
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive(0.0, "x")

    def test_check_probability(self):
        check_probability(0.5, "p")
        with pytest.raises(ValueError):
            check_probability(1.5, "p")

    def test_check_array_1d(self):
        out = check_array_1d([1, 2, 3], "a")
        assert out.ndim == 1
        with pytest.raises(ValueError):
            check_array_1d(np.zeros((2, 2)), "a")

    def test_check_in_range(self):
        check_in_range(0.5, 0.0, 1.0, "v")
        with pytest.raises(ValueError):
            check_in_range(2.0, 0.0, 1.0, "v")
