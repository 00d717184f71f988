"""Batched sparse kernels — the one training path and the selection it uses.

* :mod:`repro.kernels.active` — the one active-set selection path: hash a
  block of queries with one matrix operation per hash family, probe every
  table with one directory lookup and one gather, and turn each row's
  buckets into an active set;
* :mod:`repro.kernels.fused` — the one training kernel: forward/backward
  over the *union* active set of a block of examples, one gather + GEMM per
  layer, element-wise work on each sample's own (sample, neuron) pairs so
  sparse softmax/ReLU semantics are per sample, and the block's weight
  gradient accumulated into one reusable buffer and applied with one
  optimiser step per layer.
* :mod:`repro.kernels.activations` — the activation functions the kernel
  and the layers apply: ReLU and the sparse softmax, normalised over the
  active neurons only.

``SlideNetwork.train_batch`` calls
:func:`~repro.kernels.fused.fused_train_step` with the micro-batch as one
block (``hogwild=False``) or with one block per example (``hogwild=True``,
HOGWILD's per-sample order).
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
