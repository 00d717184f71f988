"""Arrays in anonymous shared mappings, written in place across ``fork``.

A forked child inherits a ``MAP_SHARED`` mapping as the same physical
pages, so what it writes there the parent reads, and the other way round,
with nothing copied at the fork.  The pages are zero-filled on first touch:
a buffer sized for the largest block costs only the pages a block touches.
"""

from __future__ import annotations

import mmap

import numpy as np

from repro.types import FLOAT

__all__ = ["shared_zeros", "is_shared"]


def shared_zeros(shape: tuple[int, ...], dtype=FLOAT, order: str = "C") -> np.ndarray:
    """A zero array of ``shape`` in a fresh anonymous shared mapping."""
    nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
    return np.ndarray(shape, dtype=dtype, buffer=mmap.mmap(-1, max(nbytes, 1)), order=order)


def is_shared(array: np.ndarray) -> bool:
    """Whether ``array`` lies in a memory mapping (anonymous or ``/dev/shm``).

    Follows ``base`` through views and memoryviews to the buffer's owner.
    """
    owner = array
    while isinstance(owner, (np.ndarray, memoryview)):
        owner = owner.obj if isinstance(owner, memoryview) else owner.base
    return isinstance(owner, mmap.mmap)
