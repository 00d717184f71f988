"""Active-neuron selection: the one selection path, per sample or batched.

:func:`select_active_batch` probes a layer's tables with a ``(batch,
fan_in)`` block of dense queries through
:meth:`~repro.lsh.index.LSHIndex.query_batch_flat` — one hash sweep (one
matmul for SimHash, one gather/reduce sweep for (D)WTA/DOPH), one key pack,
one directory ``searchsorted`` and one gather for every table of every row —
and only then walks the rows through the layer's sampling strategy and
:meth:`~repro.core.layer.SlideLayer.finalize_active`.

The training kernel calls it with each block it runs: the whole micro-batch
in synchronous mode, one row per call under HOGWILD.  Rows are selected in
order and each draws from the layer's generator — one table
permutation, plus one subset draw when over target, plus any random
fallback padding — so a batch consumes the RNG exactly like its rows one
at a time.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.types import FLOAT, FloatArray, IntArray

if TYPE_CHECKING:
    from repro.core.layer import SlideLayer

__all__ = ["select_active_batch"]


def select_active_batch(
    layer: SlideLayer,
    dense_queries: FloatArray,
    forced_active: list[IntArray | None] | None = None,
    timer=None,
) -> list[tuple[IntArray, int, int]]:
    """Active output sets for a ``(batch, fan_in)`` block of dense queries.

    Returns one ``(active_ids, sampled_from_tables, fallback_random)`` tuple
    per row.  ``forced_active`` optionally supplies per-sample ids (e.g.
    ground-truth labels) that are always unioned into the corresponding
    active set.  ``timer`` (a :class:`~repro.perf.phases.PhaseTimer`)
    optionally receives the split between the table probe (``hash``) and
    the per-sample strategy selection (``select``).
    """
    dense_queries = np.asarray(dense_queries, dtype=FLOAT)
    if dense_queries.ndim != 2 or dense_queries.shape[1] != layer.fan_in:
        raise ValueError(
            f"queries must have shape (batch, {layer.fan_in}), "
            f"got {dense_queries.shape}"
        )
    batch_size = dense_queries.shape[0]
    if forced_active is not None and len(forced_active) != batch_size:
        raise ValueError("forced_active must align with the query rows")

    if layer.lsh_index is None or layer.sampler is None:
        all_active = np.arange(layer.size, dtype=np.int64)
        return [(all_active, 0, 0) for _ in range(batch_size)]

    target = layer.config.sampling.target_active
    # One flat batched probe; the sampler reads each row of it in place.
    probe_start = time.perf_counter()
    flat = layer.lsh_index.query_batch_flat(dense_queries)
    select_start = time.perf_counter()
    selections: list[tuple[IntArray, int, int]] = []
    for row in range(batch_size):
        sampled = layer.sampler.select_from_result(flat, row, target)
        forced = forced_active[row] if forced_active is not None else None
        selections.append(layer.finalize_active(sampled, forced))
    if timer is not None:
        timer.add("hash", select_start - probe_start)
        timer.add("select", time.perf_counter() - select_start)
    return selections
