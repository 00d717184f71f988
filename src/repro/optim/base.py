"""Optimiser interface shared by SLIDE layers and the dense baselines.

SLIDE's gradient updates are *sparse*: only the weights connecting active
neurons to active inputs change on a given step.  To exploit that, the
optimiser exposes both a dense ``step`` (used by the baselines) and a
``sparse_step`` that updates an arbitrary sub-block of a parameter, touching
only the corresponding slices of its internal state.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.types import FloatArray, IntArray
from repro.utils.sparse import spans_all

__all__ = ["Optimizer"]

# Elements per array that one chunk of a block update works on.  A chunk of
# the parameter, its state arrays (two for Adam), the gradient and the update
# rule's scratch is then ~0.2 MB of float32: resident in L2, and small enough
# that the allocator recycles the temporaries instead of mapping fresh pages.
_CHUNK_ELEMENTS = 8192
# Least rows in a chunk of ``sparse_step``'s all-rows walk, whose scatter
# writes column by column, one element per row: fewer rows pay the per-chunk
# calls more often; more, under a power-of-two fan-in, put more lines into
# one L1 set than it has ways.  Measured on (128, 8192) with 2848 columns:
# 2 rows 14.5 ms, 8 rows 7.7, 16 rows 10.4, 128 rows 19.0 (``np.ix_`` 13.1).
_TAKE_CHUNK_ROWS = 8


def _rows_per_chunk(width: int) -> int:
    """Rows of ``width`` elements that make up one chunk (at least one)."""
    return max(1, _CHUNK_ELEMENTS // max(width, 1))


class Optimizer(abc.ABC):
    """Keeps per-parameter state and applies (possibly sparse) updates."""

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)
        self._state: dict[str, dict[str, FloatArray]] = {}
        # Global step counter; sparse and dense steps both advance it.
        self.step_count = 0
        # How far begin_step() advances the counter.  1 everywhere except
        # HOGWILD worker processes: N workers share the moment buffers, so
        # each buffer element sees ~N decay/accumulate cycles per *local*
        # step and bias correction should pace with the global rate.  The
        # process trainer sets this to its worker count.
        self.step_stride = 1

    # ------------------------------------------------------------------
    # Parameter registration
    # ------------------------------------------------------------------
    def register(self, name: str, shape: tuple[int, ...]) -> None:
        """Allocate state for a parameter named ``name`` with ``shape``."""
        if name in self._state:
            raise ValueError(f"parameter {name!r} already registered")
        self._state[name] = self._init_state(shape)

    def has_parameter(self, name: str) -> bool:
        return name in self._state

    def parameter_names(self) -> list[str]:
        """Names of every registered parameter (registration order)."""
        return list(self._state)

    @abc.abstractmethod
    def to_config(self):
        """The :class:`~repro.config.OptimizerConfig` this optimiser encodes.

        The inverse of :func:`repro.optim.factory.make_optimizer`; used by
        the checkpoint format so optimisers serialise themselves instead of
        callers switching on concrete types.
        """

    @abc.abstractmethod
    def _init_state(self, shape: tuple[int, ...]) -> dict[str, FloatArray]:
        """Create optimiser state arrays for a parameter of ``shape``."""

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def begin_step(self) -> None:
        """Advance the global step counter (call once per mini-batch)."""
        self.step_count += self.step_stride

    def step(self, name: str, param: FloatArray, grad: FloatArray) -> None:
        """Dense in-place update of ``param`` given its full gradient.

        Walks ``param``, its state and ``grad`` in row slices of about
        ``_CHUNK_ELEMENTS`` (views, so nothing is gathered or scattered):
        the update rule's temporaries stay chunk-sized however large the
        parameter is.
        """
        state = self._state[name]
        stride = _rows_per_chunk(1 if param.ndim == 1 else param.shape[1])
        for start in range(0, param.shape[0], stride):
            stop = start + stride
            self._update_chunk(
                param[start:stop],
                {key: array[start:stop] for key, array in state.items()},
                grad[start:stop],
            )

    def sparse_step(
        self,
        name: str,
        param: FloatArray,
        rows: IntArray,
        cols: IntArray | None,
        grad_block: FloatArray,
    ) -> None:
        """In-place update of ``param[rows][:, cols]`` given its gradient block.

        When ``cols`` is ``None`` the update applies to whole rows (used for
        biases, which are one-dimensional); a ``cols`` that is exactly
        ``0..fan_in-1`` is treated the same way, so a full-width block is
        moved as contiguous rows and not element by element.  The mirror
        image — ``rows`` exactly ``0..n-1`` under a column subset, a layer
        without LSH over sparse inputs — walks row slices of the parameter
        as views and moves each chunk with a column ``take``: the same
        elements read and written as ``np.ix_`` would, hence the same bits.

        The block is walked in chunks of about ``_CHUNK_ELEMENTS`` along
        ``rows`` only (a ``cols`` set is never split): each chunk of the
        parameter and its state is gathered once, advanced in place by
        :meth:`_update_chunk`, and scattered once, so the working set stays
        cache-resident and no block-sized temporary is ever allocated.  The
        chunk copies are call-local; nothing is kept between calls, which
        keeps the routine re-entrant for HOGWILD workers sharing ``param``.

        **Precondition: ``rows`` holds no duplicates.**  A duplicated row
        inside one chunk keeps only its last update, and one straddling two
        chunks would see its own first update.  Every in-repo caller passes
        sorted-unique ids (``tests/test_kernels.py`` checks them all).

        Callers use this in two patterns: HOGWILD training applies one small
        block per *sample* (many calls per ``begin_step``), while the batched
        synchronous kernels accumulate the whole micro-batch's gradient and
        apply one union-active-set block per layer per ``begin_step`` — the
        standard mini-batch semantics.  Implementations must therefore not
        assume any particular number of ``sparse_step`` calls per step.
        """
        state = self._state[name]
        whole_rows = param.ndim == 1 or spans_all(cols, param.shape[1])
        if not whole_rows and spans_all(rows, param.shape[0]):
            stride = max(_TAKE_CHUNK_ROWS, _rows_per_chunk(cols.size))
            for start in range(0, rows.size, stride):
                span = slice(start, start + stride)
                param_chunk = param[span].take(cols, axis=1)
                state_chunk = {
                    key: array[span].take(cols, axis=1)
                    for key, array in state.items()
                }
                self._update_chunk(param_chunk, state_chunk, grad_block[span])
                for key, array in state.items():
                    array[span][:, cols] = state_chunk[key]
                param[span][:, cols] = param_chunk
            return
        stride = _rows_per_chunk(
            1 if param.ndim == 1 else (param.shape[1] if whole_rows else cols.size)
        )
        for start in range(0, rows.size, stride):
            chunk_rows = rows[start : start + stride]
            index = chunk_rows if whole_rows else np.ix_(chunk_rows, cols)
            param_chunk = param[index]
            state_chunk = {key: array[index] for key, array in state.items()}
            self._update_chunk(
                param_chunk, state_chunk, grad_block[start : start + stride]
            )
            for key, array in state.items():
                array[index] = state_chunk[key]
            param[index] = param_chunk

    @abc.abstractmethod
    def _update_chunk(
        self, param: FloatArray, state: dict[str, FloatArray], grad: FloatArray
    ) -> None:
        """The update rule: advance ``param`` and ``state`` in place by ``grad``.

        All three have the same shape — row slices of the full arrays from
        :meth:`step`, gathered copies from :meth:`sparse_step` — and ``grad``
        must be left untouched.  Temporaries should be written with ``out=``
        so that at most a chunk or two of scratch is live.
        """

    # ------------------------------------------------------------------
    # Introspection (used by tests)
    # ------------------------------------------------------------------
    def state_of(self, name: str) -> dict[str, FloatArray]:
        """Return the internal state arrays of a parameter (no copy)."""
        return self._state[name]

    def state_items(self) -> list[tuple[str, str, FloatArray]]:
        """Every state array as ``(param_name, state_key, array)`` triples.

        Registration order for parameters, insertion order for keys — a
        stable flat enumeration used by the shared-memory parameter store
        (:mod:`repro.parallel.sharedmem`) to place the optimiser's moment
        buffers alongside the weights they belong to.
        """
        return [
            (name, key, array)
            for name, state in self._state.items()
            for key, array in state.items()
        ]

    def set_state_array(self, name: str, key: str, array: FloatArray) -> None:
        """Rebind one state array to ``array`` (same shape, in place thereafter).

        The counterpart of :meth:`state_items` for attaching/detaching
        shared-memory backing: the new array must match the shape of the one
        it replaces, and subsequent ``step``/``sparse_step`` calls read and
        write through it.
        """
        current = self._state[name][key]
        if array.shape != current.shape:
            raise ValueError(
                f"state array {name!r}/{key!r} has shape {current.shape}; "
                f"cannot rebind to shape {array.shape}"
            )
        self._state[name][key] = array
