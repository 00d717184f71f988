"""Tests for activation functions, in particular the sparse softmax."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.activations import relu, relu_grad, sparse_softmax


class TestReLU:
    def test_clamps_negatives(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_grad_is_indicator(self):
        np.testing.assert_array_equal(
            relu_grad(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 1.0]
        )


class TestSparseSoftmax:
    def test_sums_to_one(self, rng):
        probs = sparse_softmax(rng.normal(size=17))
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= 0)

    def test_empty_input(self):
        assert sparse_softmax(np.array([])).size == 0

    def test_single_element_is_one(self):
        np.testing.assert_allclose(sparse_softmax(np.array([3.0])), [1.0])

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=9)
        np.testing.assert_allclose(
            sparse_softmax(logits), sparse_softmax(logits + 100.0), atol=1e-12
        )

    def test_numerical_stability_with_large_logits(self):
        probs = sparse_softmax(np.array([1e4, 1e4 - 1.0]))
        assert np.all(np.isfinite(probs))
        assert probs.sum() == pytest.approx(1.0)

    def test_ordering_preserved(self):
        logits = np.array([1.0, 3.0, 2.0])
        probs = sparse_softmax(logits)
        assert probs[1] > probs[2] > probs[0]

    @given(
        logits=st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_softmax_properties(self, logits):
        probs = sparse_softmax(np.array(logits))
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all((probs >= 0) & (probs <= 1))
