"""Sparse linear-algebra helpers used by the SLIDE hot paths."""

from __future__ import annotations

import numpy as np

from repro.types import IntArray

__all__ = ["spans_all"]


def spans_all(cols: IntArray | None, width: int) -> bool:
    """Whether a column selection is every column ``0..width-1`` in order.

    ``a[rows]`` then equals ``a[np.ix_(rows, cols)]`` and moves contiguous
    rows instead of single elements.  ``None`` means "all columns".
    """
    return cols is None or (
        cols.size == width and bool(np.array_equal(cols, np.arange(width)))
    )
