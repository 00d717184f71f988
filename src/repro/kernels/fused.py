"""The one training kernel: fused union-active-set forward/backward for a block.

A block is a :class:`~repro.types.SparseBatch` of one or more examples.  Per
layer:

* the block's per-sample active sets are unioned; the layer's weight block
  for the union rows (and the union input columns) is gathered **once** and
  a single GEMM computes every sample's pre-activations;
* the same sort that unions the active sets gives every (sample, active
  neuron) pair its column in the union block; activations, softmax and
  cross-entropy targets are computed on those pairs only and scattered into
  the block, so ReLU output support and the sparse softmax's partition
  function are each sample's own — extra union neurons never leak into a
  sample's activations, next-layer inputs, or loss;
* a hidden layer feeds the next one only the columns some sample is
  non-zero in, so a unit that is zero in every row gets neither a gathered
  weight nor an optimiser step in the layer above;
* the block's weight gradient is one ``delta^T @ X`` GEMM accumulated into a
  reusable workspace buffer and applied with **one** optimiser step per
  layer.

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

import numpy as np

from repro.kernels.activations import hidden_activation_grad, relu, softmax_rows
from repro.kernels.active import select_active_batch
from repro.optim.base import Optimizer
from repro.types import FLOAT, FloatArray, IntArray, SparseBatch
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

    def matmul(self, a: FloatArray, b: FloatArray, name: str) -> FloatArray:
        """``a @ b`` written into the named reusable buffer."""
        out = self.take(name, (a.shape[0], b.shape[1]))
        np.matmul(a, b, out=out)
        return out


@dataclass
class FusedLayerState:
    """Batch-level bookkeeping for one layer of the fused forward pass."""

    # Union of the batch's active output neurons (sorted unique).
    rows: IntArray
    # Fan-in column ids the input block covers (``None`` = every column).
    cols: IntArray | None
    # Gathered weight block ``W[rows][:, cols]`` captured at forward time;
    # backward uses it so delta propagation sees pre-update weights even
    # after this layer's gradient block has been applied.
    block: FloatArray
    # (batch, |cols|) input block and (batch, |rows|) pre/post activations.
    x_block: FloatArray
    pre: FloatArray
    act: FloatArray
    # 0/1 membership mask of each sample's own active set within ``rows``
    # (``None`` when every neuron is active for every sample).
    mask: FloatArray | None
    # Per-sample active sets (``None`` for dense layers).
    active_sets: list[IntArray] | None
    activation_name: str
    sampled_from_tables: int = 0
    fallback_random: int = 0

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


def _segment_softmax(values: FloatArray, counts: IntArray) -> FloatArray:
    """Softmax within each consecutive segment of ``values``.

    Segment ``i`` is the next ``counts[i]`` entries: one sample's logits on
    its own active set, so this is
    :func:`~repro.kernels.activations.sparse_softmax` run per sample in one
    pass.  Empty segments are allowed.
    """
    # reduceat yields the element *at* the offset for an empty segment, so
    # only the non-empty segments' offsets go in.
    filled = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[filled]
    sizes = counts[filled]
    exp = np.exp(values - np.repeat(np.maximum.reduceat(values, starts), sizes))
    exp /= np.repeat(np.add.reduceat(exp, starts), sizes)
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
    """Union-active-set forward pass for a whole micro-batch.

    Per layer: one batched LSH selection, one weight-block gather, one GEMM.
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
            active_counts, pair_sample, pair_id = _pairs(active_sets)
            rows, pair_pos = np.unique(pair_id, return_inverse=True)
        else:
            active_sets = None
            from_tables = fallback = 0
            rows = np.arange(layer.size, dtype=np.int64)

        gemm_start = time.perf_counter()
        # An all-row layer is column-major, so it gathers whole rows of
        # ``weights.T``; a full-width ``cols`` (a hidden layer without LSH
        # below) gathers whole contiguous rows; neither moves single elements.
        if active_sets is None:
            block = take_rows(layer.weights.T, cols).T
        elif spans_all(cols, layer.fan_in):
            block = layer.weights[rows]
        else:
            block = layer.weights[np.ix_(rows, cols)]
        pre = x_block @ block.T
        pre += layer.biases[rows]

        mask: FloatArray | None = None
        if active_sets is None:
            act = _activate(layer.activation_name, pre, softmax_rows)
        else:
            # Element-wise work on the pairs only; everything else in the
            # (batch, |union|) block is zero.
            mask = np.zeros_like(pre)
            mask[pair_sample, pair_pos] = 1.0
            act = np.zeros_like(pre)
            act[pair_sample, pair_pos] = _activate(
                layer.activation_name,
                pre[pair_sample, pair_pos],
                lambda values: _segment_softmax(values, active_counts),
            )

        states.append(
            FusedLayerState(
                rows=rows,
                cols=cols,
                block=block,
                x_block=x_block,
                pre=pre,
                act=act,
                mask=mask,
                active_sets=active_sets,
                activation_name=layer.activation_name,
                sampled_from_tables=from_tables,
                fallback_random=fallback,
            )
        )
        result.input_counts.append(input_counts)

        # This layer's masked activations feed the next layer.  A column that
        # is zero in every row (masked out or killed by ReLU) is dropped, so
        # the layer above neither gathers nor steps its weights; on a block
        # of one this prunes a sample's exact zeros.
        x_block = act
        cols = rows
        if not is_output:
            input_counts = np.count_nonzero(act, axis=1).astype(np.int64)
            live = act.any(axis=0)
            if not live.all():
                x_block = act[:, live]
                cols = rows[live]
        gemm_seconds += time.perf_counter() - gemm_start

    if timer is not None:
        timer.add("gather_gemm", gemm_seconds)
    return result


def _output_delta_and_losses(
    batch: SparseBatch, output_state: FusedLayerState
) -> tuple[FloatArray, FloatArray]:
    """Softmax + cross-entropy ``dL/dz = p - y`` over the union set, and losses.

    One pass over the batch's ``(sample, label)`` pairs: each ground-truth label
    present in the sample's *own* active set receives probability mass
    ``1/|labels|``; labels outside it contribute nothing.
    ``output_state.rows`` is sorted (guaranteed by ``finalize_active``), so
    ``searchsorted`` label lookup is exact.
    """
    probabilities = output_state.act
    rows = output_state.rows
    delta = probabilities.copy()
    if not rows.size:
        return delta, np.zeros(len(batch), dtype=np.float64)
    label_counts, sample, labels = _pairs([example.labels for example in batch])
    positions = np.minimum(np.searchsorted(rows, labels), rows.size - 1)
    matched = rows[positions] == labels
    if output_state.mask is not None:
        matched &= output_state.mask[sample, positions] > 0.0
    sample, positions = sample[matched], positions[matched]
    mass = 1.0 / label_counts[sample]
    losses = np.bincount(
        sample,
        weights=-(mass * np.log(probabilities[sample, positions] + 1e-12)),
        minlength=len(batch),
    )
    delta[sample, positions] -= mass
    return delta, losses


def fused_backward_batch(
    network,
    batch: SparseBatch,
    result: FusedBatchResult,
    optimizer: Optimizer,
    workspace: Workspace,
) -> FloatArray:
    """Backward pass + one accumulated optimiser step per layer.

    The weight gradient of layer ``l`` is the single GEMM ``delta_l^T @
    X_l / batch`` over the union block — the mean of the per-sample outer
    products — written into a reusable workspace buffer and applied with one
    ``sparse_step``.  Returns the per-sample losses.
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
        if state.active_sets is None:
            # The C-contiguous transpose, walked row by row by the optimiser
            # step of the column-major weights.
            weight_grad = workspace.matmul(state.x_block.T, delta, f"wgrad{layer_idx}").T
        else:
            weight_grad = workspace.matmul(delta.T, state.x_block, f"wgrad{layer_idx}")
        weight_grad *= scale
        bias_grad = delta.sum(axis=0)
        bias_grad *= scale

        if layer_idx > 0:
            below = states[layer_idx - 1]
            # ``state.block`` is the forward-time weight copy, so delta
            # propagation is unaffected by this layer's update landing first.
            d_act_below = delta @ state.block
            if state.cols.size < below.rows.size:
                # Columns dropped in forward get no delta back.
                scattered = np.zeros_like(below.pre)
                scattered[:, np.searchsorted(below.rows, state.cols)] = d_act_below
                d_act_below = scattered
            grad_mask = hidden_activation_grad(below.activation_name, below.pre)
            if below.mask is not None:
                grad_mask *= below.mask
            next_delta = d_act_below * grad_mask
        else:
            next_delta = None
        gemm_seconds += time.perf_counter() - gemm_start

        optim_start = time.perf_counter()
        layer.apply_gradient_block(
            optimizer, state.rows, state.cols, weight_grad, bias_grad
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
) -> dict[str, float]:
    """One training step: forward, backward and update for each block in turn.

    Each block is one fused forward/backward with one accumulated optimiser
    step per layer, so a block sees every update of the blocks before it;
    the optimiser's ``begin_step`` runs once for the whole step.  Returns the
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
        losses.append(fused_backward_batch(network, block, result, optimizer, workspace))
        active_neurons += result.total_active_neurons(len(block))
        active_weights += result.total_active_weights(len(block))
    sample_losses = np.concatenate(losses)
    return {
        "loss": float(sample_losses.mean()),
        "active_neurons": float(active_neurons),
        "active_weights": float(active_weights),
        "batch_size": float(sample_losses.size),
    }
