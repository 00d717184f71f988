"""Batched sparse kernels — the vectorised training/serving hot path.

The per-sample training loop in :mod:`repro.core.network` pays Python and
NumPy call overhead for every example: one LSH hash, one ``np.ix_`` gather,
one GEMV, one ``np.outer`` and one optimiser step per sample per layer.  The
kernels in this package restructure that work around the micro-batch:

* :mod:`repro.kernels.active` — the one active-set selection path: hash a
  block of queries with one matrix operation per hash family, probe every
  table with one directory lookup and one gather, and turn each row's
  buckets into an active set.  The fused step passes the micro-batch; the
  per-sample path (HOGWILD) passes a one-row block;
* :mod:`repro.kernels.fused` — forward/backward over the *union* active set
  of the batch: one gather + GEMM per layer instead of a gather + GEMV per
  sample, with element-wise work done on each sample's own (sample, neuron)
  pairs so sparse softmax/ReLU semantics match the per-sample path, and the
  whole batch's weight gradient accumulated into one reusable block buffer.

``SlideNetwork.train_batch(..., hogwild=False)`` routes through
:func:`~repro.kernels.fused.fused_train_step` by default; the HOGWILD
per-sample step remains the asynchronous mode and selects through the same
:func:`~repro.kernels.active.select_active_batch`.
"""

from repro.kernels.active import select_active_batch
from repro.kernels.fused import (
    FusedBatchResult,
    FusedLayerState,
    Workspace,
    fused_forward_batch,
    fused_train_step,
)

__all__ = [
    "select_active_batch",
    "FusedBatchResult",
    "FusedLayerState",
    "Workspace",
    "fused_forward_batch",
    "fused_train_step",
]
