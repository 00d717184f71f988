"""The one training kernel: fused forward/backward for a block of examples.

A block is a :class:`~repro.types.SparseBatch` of one or more examples.  Per
layer:

* a layer with every row active (no LSH) gathers its weight block for the
  block's input columns once and one GEMM computes every sample's
  pre-activations;
* a layer with per-sample active sets (LSH) works on each sample's *own*
  rows: the sorted active ids are padded to one ``(batch, width)`` id matrix
  (:class:`PairLayout`), those rows are gathered once, and one batched
  ``matmul`` gives every (sample, active neuron) pair its logit.  The
  softmax and cross-entropy run per sample over its own entries, so extra
  union neurons never leak into a sample's activations, next-layer inputs,
  or loss, and the work is ``batch x width`` rows, not ``batch x union``;
* a hidden layer feeds the next one only the columns some sample is
  non-zero in, so a unit that is zero in every row gets neither a gathered
  weight nor an optimiser step in the layer above;
* the block's weight gradient is one ``delta^T @ X`` GEMM over the union of
  the active rows, accumulated into a reusable workspace buffer and applied
  with **one** optimiser step per layer; the input gradient of a layer with
  active sets is one batched ``matmul`` against the rows gathered forward.

:func:`fused_train_step` runs a sequence of blocks under one optimiser
``begin_step``.  The synchronous mode passes the micro-batch as one block
(one accumulated step per layer, standard mini-batch semantics); HOGWILD
passes one block per example, so each sample's update lands before the next
sample is selected — at ``B = 1`` the kernel is exactly Algorithm 1's
per-sample forward, backward and update.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.kernels.activations import hidden_activation_grad, relu, softmax_rows
from repro.kernels.active import select_active_batch
from repro.optim.base import Optimizer
from repro.types import FLOAT, FloatArray, IntArray, SparseBatch
from repro.utils.shared import is_shared, shared_zeros
from repro.utils.sparse import spans_all, take_rows

__all__ = [
    "Workspace",
    "FusedLayerState",
    "FusedBatchResult",
    "fused_forward_batch",
    "fused_backward_batch",
    "fused_train_step",
]


class Workspace:
    """Grow-only scratch buffers reused across fused training steps.

    Union active-set sizes vary batch to batch; buffers grow to the largest
    shape seen and later steps slice views out of them, so steady-state
    training performs no per-batch gradient-buffer allocations.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, FloatArray] = {}

    def take(self, name: str, shape: tuple[int, int]) -> FloatArray:
        """A writable ``shape`` view of the named buffer (contents undefined)."""
        buffer = self._buffers.get(name)
        if buffer is None or buffer.shape[0] < shape[0] or buffer.shape[1] < shape[1]:
            grown = (
                shape[0] if buffer is None else max(buffer.shape[0], shape[0]),
                shape[1] if buffer is None else max(buffer.shape[1], shape[1]),
            )
            buffer = np.empty(grown, dtype=FLOAT)
            self._buffers[name] = buffer
        return buffer[: shape[0], : shape[1]]

    def share(self, name: str, shape: tuple[int, int]) -> FloatArray:
        """Make the named buffer a ``shape`` one in a shared mapping, once.

        Its untouched pages stay unallocated, so ``shape`` can be the
        largest block the buffer will hold; later :meth:`take` calls slice
        it, and a forked process that inherited it reads what they write.
        """
        buffer = self._buffers.get(name)
        if buffer is None or buffer.shape != shape or not is_shared(buffer):
            buffer = self._buffers[name] = shared_zeros(shape)
        return buffer

    def matmul(self, a: FloatArray, b: FloatArray, name: str) -> FloatArray:
        """``a @ b`` written into the named reusable buffer."""
        out = self.take(name, (a.shape[0], b.shape[1]))
        np.matmul(a, b, out=out)
        return out


@dataclass
class PairLayout:
    """Each sample's sorted active ids, padded to one ``(batch, width)`` matrix.

    ``width`` is the largest active set of the block.  A pad repeats its
    row's last id (0 in an empty row), so every row stays sorted.
    """

    ids: IntArray
    # False at the pads.
    valid: np.ndarray
    # Each entry's position within the union ``rows`` (0 at the pads).
    positions: IntArray
    # The sample of each valid entry, in row-major order.
    sample: IntArray

    def to_union(self, values: FloatArray, width: int) -> FloatArray:
        """``values`` at the valid entries, scattered to ``(batch, width)``."""
        union = np.zeros((self.ids.shape[0], width), dtype=FLOAT)
        union[self.sample, self.positions[self.valid]] = values[self.valid]
        return union


def _pair_layout(active_sets: list[IntArray]) -> tuple[IntArray, PairLayout]:
    """The union of ``active_sets`` (sorted unique) and their padded layout."""
    counts, sample, pair_id = _pairs(active_sets)
    rows, pair_pos = np.unique(pair_id, return_inverse=True)
    width = int(counts.max()) if counts.size else 0
    valid = np.arange(width) < counts[:, None]
    ids = np.zeros(valid.shape, dtype=np.int64)
    positions = np.zeros(valid.shape, dtype=np.int64)
    ids[valid] = pair_id
    positions[valid] = pair_pos
    if width:
        last = ids[np.arange(counts.size), np.maximum(counts - 1, 0)]
        ids = np.where(valid, ids, last[:, None])
    return rows, PairLayout(ids=ids, valid=valid, positions=positions, sample=sample)


@dataclass
class FusedLayerState:
    """Batch-level bookkeeping for one layer of the fused forward pass."""

    # Union of the batch's active output neurons (sorted unique).
    rows: IntArray
    # Fan-in column ids the input block covers (``None`` = every column).
    cols: IntArray | None
    # Weights captured at forward time, so that delta propagation sees
    # pre-update weights after this layer's gradient block has been applied:
    # the ``(|rows|, |cols|)`` block of a layer without active sets, or each
    # sample's own rows, ``(batch, width, fan_in)`` (``|cols|`` wide in the
    # first layer, whose input is the batch's sparse features).
    gathered: FloatArray
    # (batch, |cols|) input block.
    x_block: FloatArray
    # Pre/post activations: (batch, |rows|) without active sets, else
    # (batch, width) in ``pairs`` layout, zero at the pads.
    pre: FloatArray
    act: FloatArray
    # Per-sample active sets and their padded layout (``None`` for dense
    # layers).
    active_sets: list[IntArray] | None
    activation_name: str
    pairs: PairLayout | None = None
    sampled_from_tables: int = 0
    fallback_random: int = 0

    @property
    def mask(self) -> np.ndarray | None:
        """Which entries of ``pre`` / ``act`` are real (``None``: all)."""
        return None if self.pairs is None else self.pairs.valid

    @cached_property
    def block(self) -> FloatArray:
        """The ``(|rows|, |cols|)`` weight block the gradient step covers.

        Gathered as such only by a layer without active sets; for a layer
        with them it is assembled here from each sample's rows, for
        inspection only.
        """
        if self.pairs is None:
            return self.gathered
        block = np.empty((self.rows.size, self.gathered.shape[2]), dtype=FLOAT)
        block[self.pairs.positions[self.pairs.valid]] = self.gathered[self.pairs.valid]
        if block.shape[1] != self.cols.size:
            block = block[:, self.cols]
        return block

    def active_count(self, batch_size: int) -> int:
        if self.active_sets is None:
            return batch_size * int(self.rows.size)
        return int(sum(active.size for active in self.active_sets))


@dataclass
class FusedBatchResult:
    """Everything the training step needs from one fused forward pass."""

    layer_states: list[FusedLayerState]
    # (batch,) per-sample input-column counts per layer, for work accounting.
    input_counts: list[IntArray] = field(default_factory=list)

    @property
    def output_state(self) -> FusedLayerState:
        return self.layer_states[-1]

    def total_active_neurons(self, batch_size: int) -> int:
        return sum(s.active_count(batch_size) for s in self.layer_states)

    def total_active_weights(self, batch_size: int) -> int:
        total = 0
        for state, in_counts in zip(self.layer_states, self.input_counts):
            if state.active_sets is None:
                total += int(state.rows.size) * int(in_counts.sum())
            else:
                out_counts = np.array(
                    [active.size for active in state.active_sets], dtype=np.int64
                )
                total += int(np.dot(out_counts, in_counts))
        return total


def weight_grad_name(layer) -> str:
    """The workspace buffer that ``layer``'s weight-gradient GEMM writes into."""
    return f"wgrad.{layer.name}"


def _pair_softmax(pre: FloatArray, valid: np.ndarray) -> FloatArray:
    """Softmax of each row of ``pre`` over its ``valid`` entries; 0 elsewhere.

    Row ``b`` is one sample's logits on its own active set, so this is
    :func:`~repro.kernels.activations.sparse_softmax` run per sample in one
    pass.  A row without a valid entry is all zeros.
    """
    logits = np.where(valid, pre, -np.inf)
    top = logits.max(axis=1, initial=-np.inf, keepdims=True)
    top[np.isneginf(top)] = 0.0
    exp = np.exp(logits - top)
    total = exp.sum(axis=1, keepdims=True)
    total[total == 0.0] = 1.0
    exp /= total
    return exp


def _pairs(id_sets: list[IntArray]) -> tuple[IntArray, IntArray, IntArray]:
    """Per-sample id arrays as flat ``(sample, id)`` pairs, in sample order.

    Returns ``(counts, pair_sample, pair_id)``.  ``np.unique(pair_id,
    return_inverse=True)`` then gives, from one sort, the sorted union of the
    ids and every pair's position within it.
    """
    counts = np.array([ids.size for ids in id_sets], dtype=np.int64)
    pair_id = np.concatenate(id_sets) if id_sets else np.zeros(0, dtype=np.int64)
    return counts, np.repeat(np.arange(counts.size), counts), pair_id


def _activate(name: str, pre: FloatArray, softmax) -> FloatArray:
    """``name``'s activation of ``pre``; ``softmax`` knows its grouping."""
    if name == "relu":
        return relu(pre)
    if name == "softmax":
        return softmax(pre)
    if name == "linear":
        return pre.copy()
    raise ValueError(f"unknown activation {name!r}")  # pragma: no cover


def _scatter_dense(
    x_block: FloatArray, cols: IntArray | None, width: int
) -> FloatArray:
    """Expand a column-restricted block back to ``(batch, width)`` dense."""
    if spans_all(cols, width):
        return x_block
    dense = np.zeros((x_block.shape[0], width), dtype=FLOAT)
    dense[:, cols] = x_block
    return dense


def fused_forward_batch(
    network,
    batch: SparseBatch,
    include_labels: bool = False,
) -> FusedBatchResult:
    """Forward pass for a whole micro-batch.

    Per layer: one batched LSH selection, one gather (of the weight block,
    or of each sample's own rows) and one GEMM or batched ``matmul``.
    Sample-level sparsity semantics (active-set membership, ReLU pruning,
    sparse softmax support) are each example's own, as if it were run as a
    block of one.
    """
    batch_size = len(batch)
    # The input block straight from the examples' index/value arrays: its
    # columns are the batch's distinct feature ids, and a repeated index
    # keeps its last value, as ``dense_features`` does.
    input_counts, pair_sample, pair_id = _pairs(
        [example.features.indices for example in batch]
    )
    cols, pair_pos = np.unique(pair_id, return_inverse=True)
    x_block = np.zeros((batch_size, cols.size), dtype=FLOAT)
    if cols.size:
        x_block[pair_sample, pair_pos] = np.concatenate(
            [example.features.values for example in batch]
        )

    states: list[FusedLayerState] = []
    result = FusedBatchResult(layer_states=states)
    num_layers = len(network.layers)
    timer = getattr(network, "phase_timer", None)
    gemm_seconds = 0.0
    for layer_idx, layer in enumerate(network.layers):
        is_output = layer_idx == num_layers - 1
        forced: list[IntArray | None] | None = None
        if is_output and include_labels and layer.config.sampling.include_labels:
            forced = [
                example.labels if example.labels.size else None for example in batch
            ]

        if layer.lsh_index is not None:
            # The dense (batch, fan_in) queries exist only for a layer that
            # hashes them.
            queries = (
                batch.to_dense_features()
                if layer_idx == 0
                else _scatter_dense(x_block, cols, layer.fan_in)
            )
            # select_active_batch splits its own time into "hash" (the
            # vectorised table probe) and "select" (per-sample strategy).
            selections = select_active_batch(layer, queries, forced, timer=timer)
            active_sets: list[IntArray] | None = [sel[0] for sel in selections]
            from_tables = sum(sel[1] for sel in selections)
            fallback = sum(sel[2] for sel in selections)
            rows, pairs = _pair_layout(active_sets)
        else:
            active_sets = pairs = None
            from_tables = fallback = 0
            rows = np.arange(layer.size, dtype=np.int64)

        # A step of this layer still in flight lands before its rows are read.
        layer.settle()
        gemm_start = time.perf_counter()
        if pairs is None:
            # An all-row layer is column-major, so it gathers whole rows of
            # ``weights.T``, not single elements.
            gathered = take_rows(layer.weights.T, cols).T
            pre = x_block @ gathered.T
            pre += layer.biases
            act = _activate(layer.activation_name, pre, softmax_rows)
        else:
            # Each sample's own rows, once.  Above the first layer they are
            # whole rows, against the dense input the probe hashed; the
            # first layer's input is the batch's sparse features, so it
            # gathers only their columns.
            if layer_idx == 0 and not spans_all(cols, layer.fan_in):
                gathered = layer.weights[pairs.ids[:, :, None], cols]
                inputs = x_block
            else:
                gathered = layer.weights.take(pairs.ids, axis=0)
                inputs = queries
            pre = np.matmul(gathered, inputs[:, :, None])[:, :, 0]
            pre += layer.biases[pairs.ids]
            act = _activate(
                layer.activation_name,
                pre,
                lambda values: _pair_softmax(values, pairs.valid),
            )
            act[~pairs.valid] = 0.0

        states.append(
            FusedLayerState(
                rows=rows,
                cols=cols,
                gathered=gathered,
                x_block=x_block,
                pre=pre,
                act=act,
                active_sets=active_sets,
                activation_name=layer.activation_name,
                pairs=pairs,
                sampled_from_tables=from_tables,
                fallback_random=fallback,
            )
        )
        result.input_counts.append(input_counts)

        # This layer's masked activations, one column per union row, feed
        # the next layer.  A column that is zero in every row (masked out or
        # killed by ReLU) is dropped, so the layer above neither gathers nor
        # steps its weights; on a block of one this prunes a sample's exact
        # zeros.
        if not is_output:
            x_block = act if pairs is None else pairs.to_union(act, rows.size)
            cols = rows
            input_counts = np.count_nonzero(act, axis=1).astype(np.int64)
            live = x_block.any(axis=0)
            if not live.all():
                x_block = x_block[:, live]
                cols = rows[live]
        gemm_seconds += time.perf_counter() - gemm_start

    if timer is not None:
        timer.add("gather_gemm", gemm_seconds)
    return result


def _output_delta_and_losses(
    batch: SparseBatch, output_state: FusedLayerState
) -> tuple[FloatArray, FloatArray]:
    """Softmax + cross-entropy ``dL/dz = p - y`` and the per-sample losses.

    ``dL/dz`` is in the layout of ``output_state.act``.  One pass over the
    batch's ``(sample, label)`` pairs: each ground-truth label present in the
    sample's *own* active set receives probability mass ``1/|labels|``;
    labels outside it contribute nothing.  Each sample's ids are sorted
    (guaranteed by ``finalize_active``), so with the sample as the leading
    key every entry of the block is sorted and ``searchsorted`` label lookup
    is exact.
    """
    probabilities = output_state.act
    delta = probabilities.copy()
    pairs = output_state.pairs
    if pairs is None:
        ids = np.broadcast_to(output_state.rows, probabilities.shape)
        valid = None
    else:
        ids, valid = pairs.ids, pairs.valid.ravel()
    if not ids.size:
        return delta, np.zeros(len(batch), dtype=np.float64)
    stride = max(batch.label_dim, int(output_state.rows[-1]) + 1)
    keys = (np.arange(len(batch))[:, None] * stride + ids).ravel()
    label_counts, sample, labels = _pairs([example.labels for example in batch])
    wanted = sample * stride + labels
    at = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    matched = keys[at] == wanted
    if valid is not None:
        matched &= valid[at]
    sample, at = sample[matched], at[matched]
    mass = 1.0 / label_counts[sample]
    losses = np.bincount(
        sample,
        weights=-(mass * np.log(probabilities.ravel()[at] + 1e-12)),
        minlength=len(batch),
    )
    delta.ravel()[at] -= mass
    return delta, losses


def fused_backward_batch(
    network,
    batch: SparseBatch,
    result: FusedBatchResult,
    optimizer: Optimizer,
    workspace: Workspace,
    helper=None,
) -> FloatArray:
    """Backward pass + one accumulated optimiser step per layer.

    The weight gradient of layer ``l`` is the single GEMM ``delta_l^T @
    X_l / batch`` over the union rows — the mean of the per-sample outer
    products — written into a reusable workspace buffer and applied with one
    ``sparse_step``.  ``helper`` (a :class:`repro.core.offload.StepHelper`)
    takes the step of its own layer, which returns before it has landed.
    Returns the per-sample losses.
    """
    batch_size = len(batch)
    states = result.layer_states
    timer = getattr(network, "phase_timer", None)
    gemm_seconds = 0.0
    optim_seconds = 0.0
    # Both terms of ``p - y`` vanish outside each sample's active set.
    delta, losses = _output_delta_and_losses(batch, result.output_state)
    scale = 1.0 / max(batch_size, 1)

    for layer_idx in range(len(states) - 1, -1, -1):
        layer = network.layers[layer_idx]
        state = states[layer_idx]

        gemm_start = time.perf_counter()
        pairs = state.pairs
        # The weight gradient covers the union rows in either layout.
        if pairs is None:
            union_delta = delta
            # The C-contiguous transpose, walked row by row by the optimiser
            # step of the column-major weights.
            weight_grad = workspace.matmul(
                state.x_block.T, delta, weight_grad_name(layer)
            ).T
        else:
            union_delta = pairs.to_union(delta, state.rows.size)
            weight_grad = workspace.matmul(
                union_delta.T, state.x_block, weight_grad_name(layer)
            )
        weight_grad *= scale
        bias_grad = union_delta.sum(axis=0)
        bias_grad *= scale

        if layer_idx > 0:
            below = states[layer_idx - 1]
            # ``state.gathered`` is the forward-time weight copy, so delta
            # propagation is unaffected by this layer's update landing first.
            if pairs is None:
                d_act_below = delta @ state.gathered
            else:
                d_act_below = np.matmul(delta[:, None, :], state.gathered)[:, 0, :]
                if d_act_below.shape[1] != state.cols.size:
                    # Whole rows were gathered: keep the input block's columns.
                    d_act_below = d_act_below[:, state.cols]
            if state.cols.size < below.rows.size:
                # Columns dropped in forward get no delta back.
                scattered = np.zeros((batch_size, below.rows.size), dtype=FLOAT)
                scattered[:, np.searchsorted(below.rows, state.cols)] = d_act_below
                d_act_below = scattered
            if below.pairs is not None:
                # From one column per union row to the layer's own entries.
                d_act_below = np.take_along_axis(
                    d_act_below, below.pairs.positions, axis=1
                )
            grad_mask = hidden_activation_grad(below.activation_name, below.pre)
            if below.mask is not None:
                grad_mask *= below.mask
            next_delta = d_act_below * grad_mask
        else:
            next_delta = None
        gemm_seconds += time.perf_counter() - gemm_start

        optim_start = time.perf_counter()
        layer.apply_gradient_block(
            optimizer,
            state.rows,
            state.cols,
            weight_grad,
            bias_grad,
            helper if helper is not None and helper.layer is layer else None,
        )
        optim_seconds += time.perf_counter() - optim_start
        if next_delta is not None:
            delta = next_delta

    if timer is not None:
        timer.add("gather_gemm", gemm_seconds)
        timer.add("optimiser", optim_seconds)
    return losses


def fused_train_step(
    network,
    blocks: Sequence[SparseBatch],
    optimizer: Optimizer,
    workspace: Workspace | None = None,
    helper=None,
) -> dict[str, float]:
    """One training step: forward, backward and update for each block in turn.

    Each block is one fused forward/backward with one accumulated optimiser
    step per layer, so a block sees every update of the blocks before it;
    the optimiser's ``begin_step`` runs once for the whole step.  A
    ``helper``'s layer may still be stepping when this returns (see
    :func:`fused_backward_batch`).  Returns the
    loss averaged over the samples and the work counters summed.  The caller
    (``SlideNetwork.train_batch``) owns the iteration counter and rebuild
    schedule.
    """
    blocks = [block for block in blocks if len(block)]
    if not blocks:
        return {
            "loss": 0.0,
            "active_neurons": 0.0,
            "active_weights": 0.0,
            "batch_size": 0.0,
        }
    if workspace is None:
        workspace = Workspace()
    optimizer.begin_step()
    losses = []
    active_neurons = active_weights = 0
    for block in blocks:
        result = fused_forward_batch(network, block, include_labels=True)
        losses.append(
            fused_backward_batch(network, block, result, optimizer, workspace, helper)
        )
        active_neurons += result.total_active_neurons(len(block))
        active_weights += result.total_active_weights(len(block))
    sample_losses = np.concatenate(losses)
    return {
        "loss": float(sample_losses.mean()),
        "active_neurons": float(active_neurons),
        "active_weights": float(active_weights),
        "batch_size": float(sample_losses.size),
    }
