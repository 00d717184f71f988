"""Tests for the sparse data containers in :mod:`repro.types`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.types import SparseBatch, SparseExample, SparseVector, as_index_array


class TestSparseVector:
    def test_basic_construction(self):
        vec = SparseVector(indices=[1, 3], values=[2.0, -1.0], dimension=5)
        assert vec.nnz == 2
        assert vec.dimension == 5

    def test_to_dense_roundtrip(self):
        vec = SparseVector(indices=[0, 4], values=[1.5, 2.5], dimension=6)
        dense = vec.to_dense()
        assert dense.shape == (6,)
        assert dense[0] == 1.5 and dense[4] == 2.5
        assert dense[1] == dense[2] == dense[3] == dense[5] == 0.0

    def test_from_dense_drops_zeros(self):
        dense = np.array([0.0, 1.0, 0.0, -2.0])
        vec = SparseVector.from_dense(dense)
        assert vec.nnz == 2
        np.testing.assert_array_equal(vec.indices, [1, 3])

    def test_from_dense_drops_values_that_underflow_float32(self):
        # 3e-248 is a float64 non-zero but 0 in float32: it is dropped, not
        # stored as an explicit zero.
        vec = SparseVector.from_dense(np.array([3e-248, 0.0, 1.5]))
        np.testing.assert_array_equal(vec.indices, [2])
        assert vec.values.dtype == np.float32

    def test_dot_matches_dense_dot(self):
        vec = SparseVector(indices=[1, 2], values=[3.0, 4.0], dimension=4)
        other = np.array([1.0, 2.0, 3.0, 4.0])
        assert vec.dot(other) == pytest.approx(np.dot(vec.to_dense(), other))

    def test_dot_dimension_mismatch_raises(self):
        vec = SparseVector(indices=[0], values=[1.0], dimension=3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            vec.dot(np.zeros(5))

    def test_l2_norm(self):
        vec = SparseVector(indices=[0, 1], values=[3.0, 4.0], dimension=2)
        assert vec.l2_norm() == pytest.approx(5.0)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="same length"):
            SparseVector(indices=[0, 1], values=[1.0], dimension=4)

    def test_out_of_range_index_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseVector(indices=[5], values=[1.0], dimension=4)

    def test_negative_index_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseVector(indices=[-1], values=[1.0], dimension=4)

    def test_non_positive_dimension_raises(self):
        with pytest.raises(ValueError, match="dimension must be positive"):
            SparseVector(indices=[], values=[], dimension=0)

    def test_multidimensional_input_raises(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            SparseVector(indices=[[0, 1]], values=[[1.0, 2.0]], dimension=4)

    @given(
        dimension=st.integers(min_value=1, max_value=64),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_from_dense_to_dense_roundtrip_property(self, dimension, data):
        dense = np.array(
            data.draw(
                st.lists(
                    # Values are stored as float32: draw only values it holds.
                    st.floats(min_value=-10, max_value=10, allow_nan=False, width=32),
                    min_size=dimension,
                    max_size=dimension,
                )
            )
        )
        vec = SparseVector.from_dense(dense)
        np.testing.assert_array_equal(vec.to_dense(), dense)
        assert np.all(vec.values != 0)


class TestSparseExample:
    def test_labels_are_deduplicated_and_sorted(self):
        features = SparseVector(indices=[0], values=[1.0], dimension=4)
        example = SparseExample(features=features, labels=[3, 1, 3, 2])
        np.testing.assert_array_equal(example.labels, [1, 2, 3])
        assert example.num_labels == 3

    def test_negative_label_raises(self):
        # A label of -1 would force the output layer's last row into the
        # active set and only fail at the optimiser step.
        features = SparseVector(indices=[0], values=[1.0], dimension=4)
        with pytest.raises(ValueError, match="label -1 is negative"):
            SparseExample(features=features, labels=[2, -1])

    def test_empty_labels_allowed(self):
        features = SparseVector(indices=[0], values=[1.0], dimension=4)
        example = SparseExample(features=features, labels=[])
        assert example.num_labels == 0


class TestSparseBatch:
    def _example(self, dim=8, labels=(1,)):
        features = SparseVector(indices=[0, 2], values=[1.0, 2.0], dimension=dim)
        return SparseExample(features=features, labels=np.array(labels))

    def test_dense_feature_matrix(self):
        batch = SparseBatch(examples=[self._example(), self._example()], label_dim=4)
        dense = batch.to_dense_features()
        assert dense.shape == (2, 8)
        assert dense[0, 0] == 1.0 and dense[0, 2] == 2.0

    def test_dense_label_matrix(self):
        batch = SparseBatch(examples=[self._example(labels=(1, 3))], label_dim=4)
        labels = batch.to_dense_labels()
        assert labels.shape == (1, 4)
        np.testing.assert_array_equal(labels[0], [0, 1, 0, 1])

    def test_mixed_feature_dims_raise(self):
        a = self._example(dim=8)
        b = self._example(dim=16)
        with pytest.raises(ValueError, match="share feature_dim"):
            SparseBatch(examples=[a, b], label_dim=4)

    def test_label_out_of_range_raises(self):
        with pytest.raises(ValueError, match="label index out of range"):
            SparseBatch(examples=[self._example(labels=(9,))], label_dim=4)

    def test_negative_label_never_reaches_a_batch(self):
        with pytest.raises(ValueError, match="negative"):
            SparseBatch(examples=[self._example(labels=(-1,))], label_dim=4)

    def test_average_feature_nnz(self):
        batch = SparseBatch(examples=[self._example(), self._example()], label_dim=4)
        assert batch.average_feature_nnz() == pytest.approx(2.0)

    def test_len_iter_getitem(self):
        examples = [self._example(), self._example()]
        batch = SparseBatch(examples=examples, label_dim=4)
        assert len(batch) == 2
        assert list(batch) == examples
        assert batch[0] is examples[0]

    def test_empty_batch_requires_explicit_feature_dim(self):
        with pytest.raises(ValueError, match="feature_dim must be positive"):
            SparseBatch(examples=[], label_dim=4)

    def test_from_examples_factory(self):
        batch = SparseBatch.from_examples([self._example()], feature_dim=8, label_dim=4)
        assert len(batch) == 1
        assert batch.feature_dim == 8


def test_as_index_array_sorts_and_dedups():
    result = as_index_array([5, 1, 5, 3])
    np.testing.assert_array_equal(result, [1, 3, 5])
    assert result.dtype == np.int64
