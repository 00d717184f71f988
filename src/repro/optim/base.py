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
from repro.utils.sparse import spans_all, take_rows

__all__ = ["Optimizer"]

# Elements per array that one chunk of a block update works on: 64 KiB of
# float32, under glibc's 128 KiB mmap threshold, so the allocator recycles
# the temporaries instead of mapping fresh pages.  A chunk of the parameter,
# its state arrays (two for Adam), the gradient and the update rule's two
# scratch arrays is then ~0.4 MB, resident in L2.  Measured on the (32768,
# 128) output layer's 8,200-row block, float32, one core of a 2-core Xeon
# with 2 MiB of L2 a core: 8,192 elements 12.0-12.4 ms, 16,384 10.0-10.1 ms,
# 32,768 10.1-10.4 ms.
_CHUNK_ELEMENTS = 16384


def _rows_per_chunk(width: int) -> int:
    """Rows of ``width`` elements that make up one chunk (at least one)."""
    return max(1, _CHUNK_ELEMENTS // max(width, 1))


def _check_ids(ids: IntArray, bound: int) -> None:
    """Raise ``IndexError`` unless every id lies in ``[0, bound)``.

    A negative id would otherwise wrap to the far end of the axis.
    """
    if ids.size and (ids.min() < 0 or ids.max() >= bound):
        raise IndexError(f"sparse_step ids must lie in [0, {bound})")


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
    def register(self, name: str, shape: tuple[int, ...], order: str = "C") -> None:
        """Allocate state for a parameter named ``name`` with ``shape``, in the
        parameter's memory ``order`` (``"C"`` or ``"F"``), so that
        :meth:`sparse_step` walks both along the same contiguous axis."""
        if name in self._state:
            raise ValueError(f"parameter {name!r} already registered")
        self._state[name] = self._init_state(shape, order)

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
    def _init_state(self, shape: tuple[int, ...], order: str) -> dict[str, FloatArray]:
        """Create optimiser state arrays of ``shape`` in memory ``order``."""

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
        moved as contiguous rows and not element by element.  A
        column-major (Fortran-ordered) ``param`` under a column subset is
        walked as its row-major transpose ``param.T``, with ``cols`` as the
        rows: a layer without LSH has every row active and is stored that
        way, so its block is whole input columns, each a contiguous run.
        An out-of-range or negative id raises ``IndexError`` before
        anything is written.

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
        if cols is not None and np.isfortran(param):
            param, grad_block, rows, cols = param.T, grad_block.T, cols, rows
            state = {key: array.T for key, array in state.items()}
        _check_ids(rows, param.shape[0])
        if cols is not None:
            _check_ids(cols, param.shape[1])
        whole_rows = param.ndim == 1 or spans_all(cols, param.shape[1])
        stride = _rows_per_chunk(
            1 if param.ndim == 1 else (param.shape[1] if whole_rows else cols.size)
        )
        for start in range(0, rows.size, stride):
            chunk_rows = rows[start : start + stride]
            if whole_rows:
                index = chunk_rows
                param_chunk = take_rows(param, chunk_rows)
                state_chunk = {
                    key: take_rows(array, chunk_rows) for key, array in state.items()
                }
            else:
                index = np.ix_(chunk_rows, cols)
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
        (:class:`repro.parallel.store.SharedParamStore`) to place the
        optimiser's moment buffers alongside the weights they belong to.
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
