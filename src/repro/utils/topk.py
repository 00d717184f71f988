"""Top-k selection helpers shared by sampling strategies and metrics."""

from __future__ import annotations

import numpy as np

from repro.types import FloatArray, IntArray

__all__ = ["top_k_indices"]


def top_k_indices(scores: FloatArray, k: int) -> IntArray:
    """Indices of the ``k`` largest entries of ``scores``, descending order.

    Uses ``argpartition`` so the cost is ``O(n + k log k)`` rather than a full
    sort; ties are broken arbitrarily (matching the behaviour of the C++
    reference implementation's partial sort).
    """
    scores = np.asarray(scores)
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    if k >= scores.shape[0]:
        return np.argsort(scores)[::-1].astype(np.int64)
    partition = np.argpartition(scores, -k)[-k:]
    order = np.argsort(scores[partition])[::-1]
    return partition[order].astype(np.int64)
