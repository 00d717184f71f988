"""Shared type aliases and light-weight containers used across the package.

The SLIDE reproduction works almost exclusively with *sparse* inputs:
extreme-classification datasets store each example as a short list of
``(feature_index, value)`` pairs and each example carries a (usually small)
set of positive label indices.  The containers defined here are deliberately
minimal -- they are plain ``dataclasses`` wrapping NumPy arrays -- so that
the hot paths in :mod:`repro.core` can index into them without any
abstraction overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "FLOAT",
    "FloatArray",
    "IntArray",
    "SparseVector",
    "SparseExample",
    "SparseBatch",
    "dense_features",
]

# The one float dtype of the training and serving paths: inputs, weights,
# biases, optimiser moments, activations and hash projections.  32 bits, as
# in the paper's C++ code, so every memory-bound pass moves half the bytes
# float64 would.  Reductions into Python floats (loss means, metrics,
# latency percentiles) still accumulate in float64.
FLOAT = np.float32

# Convenience aliases.  NumPy's typing story for dtypes is verbose; these keep
# signatures readable without pulling in ``numpy.typing`` generics everywhere.
FloatArray = np.ndarray
IntArray = np.ndarray


@dataclass(frozen=True)
class SparseVector:
    """A sparse vector represented as parallel index/value arrays.

    Parameters
    ----------
    indices:
        Sorted, unique ``int64`` indices of the non-zero coordinates.  The
        constructor checks shape and range only; uniqueness is enforced where
        outside input enters — the XC parser sums duplicates, the shard
        writer and the HTTP server reject them — because code that densifies
        (last value wins) and code that sums per index answer a repeated
        index differently.
    values:
        :data:`FLOAT` (``float32``) values aligned with ``indices``.
    dimension:
        The ambient dimensionality of the vector.
    """

    indices: IntArray
    values: FloatArray
    dimension: int

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=np.int64)
        values = np.asarray(self.values, dtype=FLOAT)
        if indices.ndim != 1 or values.ndim != 1:
            raise ValueError("indices and values must be one-dimensional")
        if indices.shape[0] != values.shape[0]:
            raise ValueError(
                f"indices ({indices.shape[0]}) and values ({values.shape[0]}) "
                "must have the same length"
            )
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        if indices.size and (indices.min() < 0 or indices.max() >= self.dimension):
            raise ValueError("indices out of range for the given dimension")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries."""
        return int(self.indices.shape[0])

    def to_dense(self) -> FloatArray:
        """Materialise the vector as a dense :data:`FLOAT` array."""
        dense = np.zeros(self.dimension, dtype=FLOAT)
        dense[self.indices] = self.values
        return dense

    def dot(self, dense_vector: FloatArray) -> float:
        """Inner product with a dense vector of matching dimension."""
        dense_vector = np.asarray(dense_vector, dtype=np.float64)
        if dense_vector.shape[0] != self.dimension:
            raise ValueError("dimension mismatch in SparseVector.dot")
        return float(np.dot(dense_vector[self.indices], self.values))

    def l2_norm(self) -> float:
        """Euclidean norm of the vector."""
        return float(np.sqrt(np.dot(self.values, self.values)))

    @classmethod
    def from_dense(cls, dense: FloatArray) -> "SparseVector":
        """Build a :class:`SparseVector` from a dense array, dropping zeros.

        The cast to :data:`FLOAT` comes first, so a value that underflows to
        zero in it is dropped rather than stored as an explicit zero.
        """
        dense = np.asarray(dense, dtype=FLOAT)
        indices = np.flatnonzero(dense)
        return cls(indices=indices, values=dense[indices], dimension=dense.shape[0])


@dataclass(frozen=True)
class SparseExample:
    """One training/test example: sparse features plus a set of labels."""

    features: SparseVector
    labels: IntArray

    def __post_init__(self) -> None:
        labels = np.unique(np.asarray(self.labels, dtype=np.int64))
        # A negative id would wrap to the far end of the output layer.
        if labels.size and labels[0] < 0:
            raise ValueError(f"label {int(labels[0])} is negative")
        object.__setattr__(self, "labels", labels)

    @property
    def num_labels(self) -> int:
        return int(self.labels.shape[0])


@dataclass
class SparseBatch:
    """A mini-batch of sparse examples.

    ``SparseBatch`` is a thin list wrapper with a couple of conveniences used
    by both SLIDE and the dense baselines (densification, label matrices).
    """

    examples: list[SparseExample] = field(default_factory=list)
    feature_dim: int = 0
    label_dim: int = 0
    # CSR view of the batch's features (indptr, indices, values), set by
    # :meth:`from_csr` when the batch was assembled by the data pipeline.
    # Purely an acceleration cache for :meth:`to_dense_features`; it must
    # stay consistent with ``examples`` (never mutate one without the other).
    features_csr: tuple[IntArray, IntArray, FloatArray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.examples:
            dims = {ex.features.dimension for ex in self.examples}
            if len(dims) != 1:
                raise ValueError("all examples in a batch must share feature_dim")
            inferred = dims.pop()
            if self.feature_dim and self.feature_dim != inferred:
                raise ValueError("feature_dim does not match examples")
            self.feature_dim = inferred
        if self.feature_dim <= 0:
            raise ValueError("feature_dim must be positive")
        if self.label_dim <= 0:
            raise ValueError("label_dim must be positive")
        for ex in self.examples:
            if ex.labels.size and ex.labels.max() >= self.label_dim:
                raise ValueError("label index out of range for label_dim")

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def __getitem__(self, item: int) -> SparseExample:
        return self.examples[item]

    def to_dense_features(self) -> FloatArray:
        """Dense ``(batch, feature_dim)`` feature matrix (for baselines)."""
        if self.features_csr is not None:
            indptr, indices, values = self.features_csr
            dense = np.zeros((len(self.examples), self.feature_dim), dtype=FLOAT)
            rows = np.repeat(np.arange(len(self.examples)), np.diff(indptr))
            dense[rows, indices] = values
            return dense
        return dense_features(self.examples, self.feature_dim)

    def to_dense_labels(self) -> FloatArray:
        """Dense multi-hot ``(batch, label_dim)`` label matrix."""
        dense = np.zeros((len(self.examples), self.label_dim), dtype=FLOAT)
        for row, ex in enumerate(self.examples):
            if ex.labels.size:
                dense[row, ex.labels] = 1.0
        return dense

    def average_feature_nnz(self) -> float:
        """Mean number of non-zero features per example."""
        if not self.examples:
            return 0.0
        return float(np.mean([ex.features.nnz for ex in self.examples]))

    @classmethod
    def from_examples(
        cls,
        examples: Iterable[SparseExample],
        feature_dim: int,
        label_dim: int,
    ) -> "SparseBatch":
        return cls(examples=list(examples), feature_dim=feature_dim, label_dim=label_dim)

    @classmethod
    def from_csr(
        cls,
        feat_indptr: IntArray,
        feat_indices: IntArray,
        feat_values: FloatArray,
        label_indptr: IntArray,
        label_indices: IntArray,
        feature_dim: int,
        label_dim: int,
    ) -> "SparseBatch":
        """Assemble a batch from CSR feature and label arrays.

        The streaming data pipeline (:mod:`repro.data`) stores examples as
        CSR shards; this constructor turns a row range of those arrays into a
        batch without re-sorting or re-validating per-example index order
        (the ingest path guarantees sorted, unique indices per row).  The
        feature CSR triple is kept on the batch so dense scatters skip the
        per-example loop.
        """
        feat_indptr = np.asarray(feat_indptr, dtype=np.int64)
        label_indptr = np.asarray(label_indptr, dtype=np.int64)
        if feat_indptr.shape != label_indptr.shape:
            raise ValueError("feature and label indptr must describe the same rows")
        feat_indices = np.asarray(feat_indices, dtype=np.int64)
        # Shards store float64 values; they become FLOAT here, once per batch.
        feat_values = np.asarray(feat_values, dtype=FLOAT)
        label_indices = np.asarray(label_indices, dtype=np.int64)
        examples = []
        for row in range(feat_indptr.shape[0] - 1):
            lo, hi = int(feat_indptr[row]), int(feat_indptr[row + 1])
            llo, lhi = int(label_indptr[row]), int(label_indptr[row + 1])
            examples.append(
                SparseExample(
                    features=SparseVector(
                        indices=feat_indices[lo:hi],
                        values=feat_values[lo:hi],
                        dimension=feature_dim,
                    ),
                    labels=label_indices[llo:lhi],
                )
            )
        batch = cls(examples=examples, feature_dim=feature_dim, label_dim=label_dim)
        start, stop = int(feat_indptr[0]), int(feat_indptr[-1])
        batch.features_csr = (
            feat_indptr - start,
            feat_indices[start:stop],
            feat_values[start:stop],
        )
        return batch


def dense_features(
    examples: Sequence[SparseExample], feature_dim: int
) -> FloatArray:
    """Dense ``(len(examples), feature_dim)`` matrix of the examples' features."""
    dense = np.zeros((len(examples), feature_dim), dtype=FLOAT)
    for row, example in enumerate(examples):
        dense[row, example.features.indices] = example.features.values
    return dense


def as_index_array(indices: Sequence[int] | IntArray) -> IntArray:
    """Normalise a sequence of indices to a unique, sorted ``int64`` array."""
    return np.unique(np.asarray(indices, dtype=np.int64))
