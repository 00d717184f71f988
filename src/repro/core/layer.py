"""A single fully connected SLIDE layer with optional LSH neuron sampling.

Responsibilities (paper Figure 2):

* own the weight matrix ``W`` (``size x fan_in``) and bias vector;
* own an :class:`~repro.lsh.index.LSHIndex` over the rows of ``W`` when LSH
  sampling is enabled for the layer;
* given a sparse input, choose the **active** output neurons (via the hash
  tables, or all of them when LSH is disabled) and compute only their
  activations;
* during backpropagation, update only the weights connecting active outputs
  to active inputs, and re-hash neurons on the layer's rebuild schedule.
"""

from __future__ import annotations

import numpy as np

from repro.config import LayerConfig
from repro.kernels.activations import relu, softmax_rows_inplace, sparse_softmax
from repro.lsh.index import LSHIndex
from repro.lsh.scheduler import ExponentialDecaySchedule
from repro.optim.base import Optimizer
from repro.sampling.strategies import SamplingStrategy, make_sampling_strategy
from repro.types import FLOAT, FloatArray, IntArray
from repro.utils.rng import derive_rng
from repro.utils.shared import is_shared, shared_zeros
from repro.utils.sparse import take_rows

__all__ = ["SlideLayer"]


class SlideLayer:
    """One fully connected layer with adaptive-sparsity support."""

    def __init__(
        self,
        fan_in: int,
        config: LayerConfig,
        seed: int = 0,
        name: str = "layer",
        shared: bool = False,
    ) -> None:
        if fan_in <= 0:
            raise ValueError("fan_in must be positive")
        self.fan_in = int(fan_in)
        self.config = config
        self.size = int(config.size)
        self.activation_name = config.activation
        self.name = name
        self._rng = derive_rng(seed, stream=11)

        # He/Glorot-style initialisation scaled by fan-in keeps early logits
        # small enough for the softmax layer of extreme-classification nets.
        # The draw is float64 and rounded once, so the generator's stream is
        # the same whatever the parameter dtype.  A layer without LSH has
        # every row active and is updated under a subset of its input
        # columns, so it is stored column-major: each input's weights (and,
        # through ``register_parameters``, its Adam moments) are contiguous.
        # A ``shared`` layer keeps its parameters (and, through
        # ``register_parameters``, its optimiser state) in anonymous shared
        # mappings, so that a forked helper can step them in place.
        scale = np.sqrt(2.0 / self.fan_in)
        draw = self._rng.normal(scale=scale, size=(self.size, self.fan_in))
        zeros = shared_zeros if shared else np.zeros
        self.weights: FloatArray = zeros(
            draw.shape, dtype=FLOAT, order="C" if config.uses_lsh else "F"
        )
        self.weights[...] = draw
        self.biases: FloatArray = zeros(self.size, dtype=FLOAT)

        # LSH machinery (optional).
        self.lsh_index: LSHIndex | None = None
        self.sampler: SamplingStrategy | None = None
        self.rebuild_schedule: ExponentialDecaySchedule | None = None
        if config.uses_lsh:
            assert config.lsh is not None
            self.lsh_index = LSHIndex(input_dim=self.fan_in, config=config.lsh, seed=seed)
            self.sampler = make_sampling_strategy(config.sampling, rng=self._rng)
            self.rebuild_schedule = ExponentialDecaySchedule(
                initial_period=config.rebuild.initial_period,
                decay=config.rebuild.decay,
                max_period=config.rebuild.max_period,
            )
            self.lsh_index.build(self.weights)

        # Neurons whose weights changed since the last rebuild, as one row
        # mask: only these are re-hashed when the rebuild schedule fires.
        # Marking is a scatter of ``True``, so threads marking at once lose
        # no id, and a rebuild clears only the ids it read.
        self._dirty = np.zeros(self.size, dtype=bool)
        self.num_rebuilds = 0
        # Code-diff accounting for the most recent incremental rebuild: how
        # many neurons were dirty vs how many (neuron, table) bucket entries
        # actually moved — the measured O(changed) claim.
        self.last_rebuild_dirty = 0
        self.last_rebuild_moved = 0
        # Rows touched by the most recent gradient block.  Purely diagnostic: the process-parallel trainer
        # reads it to stamp each worker's update footprint into the shared
        # gradient-conflict counters.
        self.last_update_rows: IntArray | None = None
        # The helper process (``repro.core.offload.StepHelper``) still
        # applying this layer's last step, if any; ``settle`` waits for it.
        self._in_flight = None

    # ------------------------------------------------------------------
    # Optimiser wiring
    # ------------------------------------------------------------------
    def register_parameters(self, optimizer: Optimizer) -> None:
        """Register this layer's weight and bias tensors with ``optimizer``."""
        order = "F" if np.isfortran(self.weights) else "C"
        shared = is_shared(self.weights)
        optimizer.register(
            f"{self.name}.weights", self.weights.shape, order=order, shared=shared
        )
        optimizer.register(f"{self.name}.biases", self.biases.shape, shared=shared)

    # ------------------------------------------------------------------
    # Active-set selection
    # ------------------------------------------------------------------
    def finalize_active(
        self,
        sampled: IntArray,
        forced_active: IntArray | None = None,
    ) -> tuple[IntArray, int, int]:
        """Random-fallback padding and forced-id union for a sampled set.

        The tail of active-set selection (:mod:`repro.kernels.active`):
        returns ``(active_ids, sampled_from_tables, fallback_random)``.
        ``forced_active`` (e.g. the ground-truth labels of the sample) is
        always unioned into the result, matching the reference
        implementation.  The returned array is always sorted and unique —
        downstream ``searchsorted`` label matching relies on that.
        """
        from_tables = int(sampled.size)
        fallback = 0
        min_active = self.config.sampling.min_active
        if sampled.size < min_active and min_active > 0:
            # Early in training the tables can be nearly empty for a query;
            # pad with uniformly random neurons so learning never stalls.
            # The draw can repeat sampled ids, so count what the union added.
            needed = min(min_active - sampled.size, self.size)
            extra = self._rng.choice(self.size, size=needed, replace=False)
            sampled = np.union1d(sampled, extra.astype(np.int64))
            fallback = int(sampled.size) - from_tables

        if forced_active is not None and forced_active.size:
            # Merge in only the forced ids the tables did not retrieve; a
            # duplicated or unsorted one trips the guard below.
            forced = np.asarray(forced_active, dtype=np.int64)
            if sampled.size:
                at = np.minimum(np.searchsorted(sampled, forced), sampled.size - 1)
                forced = forced[sampled[at] != forced]
            if forced.size:
                sampled = np.concatenate((sampled, forced))
                sampled.sort()
        sampled = np.asarray(sampled, dtype=np.int64)
        if sampled.size > 1 and not np.all(sampled[1:] > sampled[:-1]):
            # Samplers return sorted unique ids; guard against a custom
            # strategy violating that contract rather than silently breaking
            # the sorted-active-set invariant.
            sampled = np.unique(sampled)
        return sampled, from_tables, fallback

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def apply_gradient_block(
        self,
        optimizer: Optimizer,
        rows: IntArray,
        cols: IntArray | None,
        weight_grad: FloatArray,
        bias_grad: FloatArray,
        helper=None,
    ) -> None:
        """Apply one accumulated ``(rows, cols)`` gradient block and mark
        its rows dirty.

        The training kernel accumulates a block's gradient into one
        ``(rows, cols)`` array per layer and applies it with one optimiser
        step.  With a ``helper`` the step runs in the helper's process and
        this returns at once; :meth:`settle` waits for it.
        """
        if helper is None:
            self.step_block(optimizer, rows, cols, weight_grad, bias_grad)
        else:
            # The helper reads ``weight_grad`` from the shared buffer it is a
            # view of.
            helper.submit(optimizer.step_count, rows, cols, bias_grad)
            self._in_flight = helper
        self.last_update_rows = rows
        self.mark_dirty(rows)

    def step_block(
        self,
        optimizer: Optimizer,
        rows: IntArray,
        cols: IntArray | None,
        weight_grad: FloatArray,
        bias_grad: FloatArray,
    ) -> None:
        """The optimiser step of one gradient block, and nothing else."""
        optimizer.sparse_step(
            f"{self.name}.weights", self.weights, rows, cols, weight_grad
        )
        optimizer.sparse_step(f"{self.name}.biases", self.biases, rows, None, bias_grad)

    def settle(self) -> None:
        """Wait until a step still in flight in a helper process has landed."""
        if self._in_flight is not None:
            helper, self._in_flight = self._in_flight, None
            helper.join()

    def mark_dirty(self, neuron_ids: IntArray) -> None:
        """Mark neurons awaiting a re-hash (no-op without LSH)."""
        if self.lsh_index is not None:
            self._dirty[np.asarray(neuron_ids, dtype=np.int64)] = True

    # ------------------------------------------------------------------
    # Hash-table maintenance
    # ------------------------------------------------------------------
    def rebuild_due(self, iteration: int) -> bool:
        """Whether the rebuild schedule says it is time at ``iteration``."""
        return (
            self.lsh_index is not None
            and self.rebuild_schedule is not None
            and self.rebuild_schedule.should_rebuild(iteration)
        )

    def maybe_rebuild(self, iteration: int) -> bool:
        """Re-hash dirty neurons if the rebuild schedule says it is time."""
        if not self.rebuild_due(iteration):
            return False
        self.rebuild(iteration)
        return True

    def rebuild(self, iteration: int | None = None) -> None:
        """Re-hash all neurons whose weights changed since the last rebuild.

        Delegates to the index's code-diff ``update``: dirty neurons whose
        fingerprints did not actually change stay in place, so the cost is
        O(changed bucket entries) rather than O(dirty neurons × L).
        """
        if self.lsh_index is None:
            return
        self.settle()
        dirty = np.flatnonzero(self._dirty)
        if dirty.size:
            # Clear only the ids read here, before the weights are gathered:
            # a row marked from now on stays dirty for the next rebuild.
            self._dirty[dirty] = False
            moved_before = self.lsh_index.num_moved_entries
            self.lsh_index.update(dirty, self.weights[dirty])
            self.last_rebuild_dirty = int(dirty.size)
            self.last_rebuild_moved = int(
                self.lsh_index.num_moved_entries - moved_before
            )
        if self.rebuild_schedule is not None and iteration is not None:
            self.rebuild_schedule.record_rebuild(iteration)
        self.num_rebuilds += 1

    @property
    def dirty_neuron_count(self) -> int:
        """Number of distinct neurons awaiting a re-hash."""
        return int(np.count_nonzero(self._dirty))

    # ------------------------------------------------------------------
    # Dense helpers (used by inference and the parity tests)
    # ------------------------------------------------------------------
    def dense_forward(self, dense_input: FloatArray) -> FloatArray:
        """Full (non-sampled) forward pass for a dense input vector."""
        pre = self.weights @ dense_input + self.biases
        if self.activation_name == "relu":
            return relu(pre)
        if self.activation_name == "softmax":
            return sparse_softmax(pre)
        return pre

    def dense_forward_batch(self, dense_inputs: FloatArray) -> FloatArray:
        """Full forward pass for a ``(batch, fan_in)`` matrix of inputs.

        One matrix multiply replaces the per-example loop of
        :meth:`dense_forward`; the bias and the activation are applied in
        place on its output, so the call holds one output-sized array.
        """
        dense_inputs = np.asarray(dense_inputs, dtype=FLOAT)
        if dense_inputs.ndim != 2 or dense_inputs.shape[1] != self.fan_in:
            raise ValueError(
                f"expected inputs of shape (batch, {self.fan_in}), "
                f"got {dense_inputs.shape}"
            )
        # The product of a row-major copy: OpenBLAS rounds the product of a
        # column-major layer's transpose differently at a few rows.
        pre = dense_inputs @ np.ascontiguousarray(self.weights).T
        pre += self.biases
        return self._activate_rows(pre)

    def sparse_forward_batch(
        self, indices: list[IntArray], values: list[FloatArray]
    ) -> FloatArray:
        """Full forward pass for examples given as ``(indices, values)`` pairs.

        Equal to :meth:`dense_forward_batch` on the densified examples, but
        only the weight columns the examples reference are read, and each
        output row is summed from its own example alone — so it does not
        change in the last bits with whatever else shares the batch, as a
        GEMM's rows do.  An example's indices must be unique (the
        ``SparseVector`` contract): a repeated index is summed here, where
        densifying keeps its last value.
        """
        counts = np.array([len(idx) for idx in indices], dtype=np.int64)
        pre = np.zeros((counts.size, self.size), dtype=FLOAT)
        filled = np.flatnonzero(counts)
        if filled.size:
            # reduceat yields the element *at* the offset for an empty
            # segment, so only the non-empty examples' offsets go in.
            starts = (np.cumsum(counts) - counts)[filled]
            # One row of ``weights.T`` per referenced input: contiguous runs
            # of a column-major layer.
            inputs = take_rows(self.weights.T, np.concatenate(indices))
            inputs *= np.concatenate(values)[:, None]
            pre[filled] = np.add.reduceat(inputs, starts, axis=0)
        pre += self.biases
        return self._activate_rows(pre)

    def _activate_rows(self, pre: FloatArray) -> FloatArray:
        """Apply the activation in place on ``pre``, which the caller owns."""
        if self.activation_name == "relu":
            return np.maximum(pre, 0.0, out=pre)
        if self.activation_name == "softmax":
            return softmax_rows_inplace(pre)
        return pre

