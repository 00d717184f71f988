"""Inference engines: the LSH-accelerated sparse path and the dense scorer.

Training-time SLIDE samples active neurons *stochastically* (random table
order, random padding) because exploration helps SGD.  Serving wants the
opposite — deterministic, repeatable answers — so the sparse engine reuses
the per-layer :class:`~repro.lsh.index.LSHIndex` **query** path read-only and
aggregates candidate frequencies across all ``L`` tables (the paper's TopK
collection scheme) instead of going through the layer's sampler:

1. the hidden layers run through :meth:`SlideNetwork.forward_batch`, the
   scorer evaluation uses too: the first reads only the weight columns the
   examples reference, and each later one is one batched matrix multiply
   (they are narrow; the output layer is where extreme classification's
   cost lives);
2. the wide output layer is probed through the hash tables; the
   ``active_budget`` knob caps how many candidate neurons survive (most
   collisions first), trading accuracy for latency;
3. the surviving candidates are scored *exactly* against the weight matrix
   and the top-k is taken over those exact logits — LSH only proposes, the
   rerank disposes;
4. requests whose candidate set is too small to support a top-k answer fall
   back to the dense scorer, so the engine never returns fewer than ``k``
   predictions.

Engines are stateless with respect to requests and therefore safe to share
across the worker threads of :class:`repro.serving.pool.EnginePool`, the
one pool behind both the fixed and the online runtime, however many workers
it runs at the moment.

For the online runtime they additionally support **zero-downtime hot
reload**: :meth:`InferenceEngine.hot_swap` diffs an incoming network against
the resident weights, copies only the changed rows in place, and patches the
LSH tables through the incremental :meth:`~repro.lsh.index.LSHIndex.update`
code-diff path — no full rebuild, no second engine.  The swap runs under a
writer-preferring read-write lock (readers are inference batches), and a
seqlock-style generation counter (odd while a swap is in flight, even when
settled) lets every prediction report which weight generation produced it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core.network import SlideNetwork
from repro.kernels.activations import sparse_softmax
from repro.types import FLOAT, FloatArray, IntArray, SparseExample, dense_features
from repro.utils import sanitize
from repro.utils.rwlock import ReadWriteLock
from repro.utils.topk import top_k_indices

__all__ = [
    "Prediction",
    "SwapReport",
    "InferenceEngine",
    "DenseInferenceEngine",
    "SparseInferenceEngine",
]

# A sparse request falls back to the dense scorer when the tables return
# fewer than this many candidates per requested answer, so sparsity never
# starves the top-k.
_MIN_CANDIDATE_FACTOR = 2


@dataclass(frozen=True)
class Prediction:
    """Top-k answer for one request.

    ``class_ids``/``scores`` are sorted by descending score.  ``mode`` is
    ``sparse`` when the LSH path produced the answer, ``dense`` for the
    dense engine, ``dense_fallback`` when a sparse request fell back, and
    ``sparse_norerank`` when exact rerank was disabled by degradation (the
    candidates are ranked by raw collision counts).  ``candidates_scored``
    counts the output neurons actually scored — the quantity the active
    budget bounds.  ``generation`` identifies the weight generation that
    produced the answer (``-1`` when the request bypassed the
    generation-stamping guarded path).  ``degradation`` is the router's
    quality-for-availability ladder level the answer was served under
    (0 = full quality), and ``replica`` names the serving replica when the
    answer was routed (``None`` for direct engine/runtime calls) — both
    stamped by :class:`repro.serving.router.ReplicaRouter`.
    """

    class_ids: IntArray
    scores: FloatArray
    mode: str
    candidates_scored: int
    generation: int = -1
    degradation: int = 0
    replica: str | None = None


@dataclass(frozen=True)
class SwapReport:
    """What one :meth:`InferenceEngine.hot_swap` actually did.

    ``changed_rows`` counts neurons whose weights or bias differed between
    the resident and incoming networks (summed over layers);
    ``update_items`` / ``moved_entries`` are the incremental LSH counters
    for the swap — ``full_rebuild=False`` together with a bounded
    ``moved_entries`` is the evidence the swap took the code-diff
    ``update(dirty)`` path rather than rebuilding the tables.
    ``evictions`` counts the stored ids that full buckets dropped during the
    swap: bitwise parity with a cold load of the same checkpoint holds only
    when it is 0.
    """

    version: str | None
    changed_rows: int
    update_items: int
    moved_entries: int
    full_rebuild: bool
    duration_s: float
    generation: int
    evictions: int


class InferenceEngine:
    """Common surface shared by the dense and sparse engines."""

    name = "base"

    def __init__(self, network: SlideNetwork) -> None:
        self.network = network
        # Seqlock-style counter: even = settled, odd = swap in progress.
        # Guarded-path readers only ever observe even values because they
        # hold the read lock, but external observers (stats endpoint) can
        # see an odd value and know a swap is mid-flight.
        self.generation = 0
        self._swap_lock = ReadWriteLock(name="engine.swap")
        # Optional deterministic chaos hook (repro.faults.ServingFaultInjector):
        # consulted once per guarded batch and once per checkpoint load, so
        # serving-side faults fire at exact request coordinates.
        self.fault_injector = None

    @property
    def output_dim(self) -> int:
        return self.network.output_dim

    def predict(self, example: SparseExample, k: int = 1) -> Prediction:
        """Top-k prediction for one example."""
        return self.predict_batch([example], k=k)[0]

    def predict_batch(
        self, examples: list[SparseExample], k: int = 1
    ) -> list[Prediction]:
        raise NotImplementedError

    def predict_batch_guarded(
        self, examples: list[SparseExample], k: int = 1
    ) -> list[Prediction]:
        """Batch prediction under the swap gate, generation-stamped.

        Pool workers use this path: batches already in flight finish on the
        weights they started with (the writer waits for them), and every
        answer records the generation that produced it.
        """
        injector = self.fault_injector
        if injector is not None:
            # Outside the read lock: a "hang" fault must not block hot_swap.
            injector.on_predict(len(examples))
        with self._swap_lock.read_locked():
            generation = self.generation
            predictions = self.predict_batch(examples, k=k)
        return [replace(p, generation=generation) for p in predictions]

    # ------------------------------------------------------------------
    # Hot reload
    # ------------------------------------------------------------------
    def hot_swap(
        self, incoming: SlideNetwork, version: str | None = None
    ) -> SwapReport:
        """Swap the resident weights for ``incoming``'s, in place.

        Per layer, rows whose weights or bias changed are diffed out and
        copied over; LSH-backed layers then re-hash exactly that dirty set
        through :meth:`~repro.lsh.index.LSHIndex.update`, which moves only
        entries whose per-table fingerprint actually changed.  In-flight
        guarded batches drain first (writer-preferring lock); requests
        admitted after the swap see the new generation.

        When the incoming network was built from a *different*
        :class:`~repro.config.SlideNetworkConfig` (but with identical layer
        shapes), the incremental path is unsound — hash-family parameters
        may differ — so every LSH layer is rebuilt from scratch with the
        resident hash family and the report says ``full_rebuild=True``.
        Shape mismatches raise ``ValueError``.
        """
        old_layers = self.network.layers
        new_layers = incoming.layers
        if len(old_layers) != len(new_layers):
            raise ValueError(
                f"cannot hot-swap: resident network has {len(old_layers)} "
                f"layers, incoming has {len(new_layers)}"
            )
        for idx, (old, new) in enumerate(zip(old_layers, new_layers)):
            if old.weights.shape != new.weights.shape:
                raise ValueError(
                    f"cannot hot-swap: layer {idx} shape mismatch "
                    f"({old.weights.shape} vs {new.weights.shape})"
                )
        full_rebuild = self.network.config != incoming.config
        start = time.monotonic()
        changed_rows = 0
        update_items = 0
        moved_entries = 0
        evictions = 0
        self._swap_lock.acquire_write()
        try:
            self.generation += 1  # odd: swap in progress
            for old, new in zip(old_layers, new_layers):
                changed = np.flatnonzero(
                    np.any(old.weights != new.weights, axis=1)
                    | (old.biases != new.biases)
                )
                changed_rows += int(changed.size)
                if changed.size:
                    old.weights[changed] = new.weights[changed]
                    old.biases[changed] = new.biases[changed]
                index = old.lsh_index
                if index is None:
                    continue
                evictions_before = index.num_evictions
                if full_rebuild:
                    index.build(old.weights)
                elif changed.size:
                    items_before = index.num_update_items
                    moved_before = index.num_moved_entries
                    index.update(changed, old.weights[changed])
                    update_items += index.num_update_items - items_before
                    moved_entries += index.num_moved_entries - moved_before
                evictions += index.num_evictions - evictions_before
        finally:
            self.generation += 1  # even: swap settled
            self._swap_lock.release_write()
        return SwapReport(
            version=version,
            changed_rows=changed_rows,
            update_items=update_items,
            moved_entries=moved_entries,
            full_rebuild=full_rebuild,
            duration_s=time.monotonic() - start,
            generation=self.generation,
            evictions=evictions,
        )

    def _check_k(self, k: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if k > self.output_dim:
            raise ValueError(
                f"k={k} exceeds the number of output classes ({self.output_dim})"
            )


class DenseInferenceEngine(InferenceEngine):
    """Exact engine: batched full forward pass, exact top-k."""

    name = "dense"

    def predict_batch(
        self, examples: list[SparseExample], k: int = 1
    ) -> list[Prediction]:
        self._check_k(k)
        if not examples:
            return []
        probabilities = self.network.predict_dense_batch(examples)
        predictions = []
        for row in range(probabilities.shape[0]):
            ids = top_k_indices(probabilities[row], k)
            predictions.append(
                Prediction(
                    class_ids=ids,
                    scores=probabilities[row, ids],
                    mode="dense",
                    candidates_scored=self.output_dim,
                )
            )
        return predictions


class SparseInferenceEngine(InferenceEngine):
    """LSH-budgeted engine over a trained :class:`SlideNetwork`.

    Parameters
    ----------
    active_budget:
        Maximum number of output-layer candidates scored per request
        (``None`` scores every neuron the hash tables return).  Smaller
        budgets are faster and less accurate — this is the serving-side
        analogue of the paper's ``beta``.  The effective budget is floored
        at the dense-fallback threshold (``_MIN_CANDIDATE_FACTOR * k``): a
        degraded budget below it would route every request to the *full*
        dense scorer, making the cheap quality level the most expensive.

    Training leaves neurons whose weights changed after the last scheduled
    re-hash "dirty": their table entries are stale, which directly costs
    serving accuracy, so the engine re-hashes any pending dirty neurons once
    at construction and serves from fresh tables.

    ``rerank`` starts ``True``: surviving candidates are scored exactly
    against the weight matrix (step 3 of the module docstring).  With
    ``False`` the exact rerank is skipped entirely and the top-k is taken
    over raw collision counts — cheaper and less accurate, the deepest
    pre-shed step of the router's degradation ladder.  Both
    ``active_budget`` and ``rerank`` are plain attributes so the degradation
    controller can retune a live engine between batches.
    """

    name = "sparse"

    def __init__(
        self,
        network: SlideNetwork,
        active_budget: int | None = None,
    ) -> None:
        super().__init__(network)
        if network.output_layer.lsh_index is None:
            raise ValueError(
                "SparseInferenceEngine requires an LSH-enabled output layer; "
                "use DenseInferenceEngine for dense networks"
            )
        if active_budget is not None and active_budget <= 0:
            raise ValueError("active_budget must be positive when provided")
        if network.output_layer.dirty_neuron_count:
            network.output_layer.rebuild()
        self.active_budget = active_budget
        self.rerank = True
        # Fallback / work counters (diagnostics surfaced by the stats API);
        # locked because pool workers call predict_batch concurrently.
        self._counter_lock = sanitize.lock("engine.counters")
        self.num_requests = 0
        self.num_fallbacks = 0

    # ------------------------------------------------------------------
    # Candidate selection
    # ------------------------------------------------------------------
    def _budget_positions(
        self, ids: IntArray, counts: IntArray, floor: int = 0
    ) -> IntArray:
        """Positions (sorted by id) of the candidates surviving the budget.

        ``floor`` raises the effective budget so a deliberately degraded
        ``active_budget`` never drops below the dense-fallback threshold —
        falling back to the full dense layer would make a *cheaper* quality
        level strictly more expensive, inverting the degradation ladder.
        """
        budget = self.active_budget
        if budget is not None:
            budget = max(budget, floor)
        if budget is None or ids.size <= budget:
            return np.arange(ids.size)
        # Keep the most-collided candidates; break count ties by id so the
        # selection is deterministic for a given table state.
        order = np.lexsort((ids, -counts))[:budget]
        return np.sort(order)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict_batch(
        self, examples: list[SparseExample], k: int = 1
    ) -> list[Prediction]:
        self._check_k(k)
        if not examples:
            return []
        output_layer = self.network.output_layer
        depth = len(self.network.layers) - 1
        if depth:
            features = self.network.forward_batch(examples, depth)
        else:
            # The output layer is the first: its tables hash dense queries.
            features = dense_features(examples, self.network.input_dim)

        assert output_layer.lsh_index is not None
        # Flat batched LSH probing (the same kernel path training uses): one
        # hash sweep and one bucket gather for the whole batch; no
        # per-request query objects are materialised.
        flat = output_layer.lsh_index.query_batch_flat(features)
        min_candidates = _MIN_CANDIDATE_FACTOR * k
        predictions: list[Prediction] = []
        dense_rows: list[int] = []
        rerank = self.rerank
        for row in range(features.shape[0]):
            hidden = features[row]
            ids, counts = flat.frequencies(row)
            positions = self._budget_positions(ids, counts, floor=min_candidates)
            candidates = ids[positions]
            if candidates.size < min_candidates:
                dense_rows.append(row)
                predictions.append(None)  # type: ignore[arg-type]
                continue
            if not rerank:
                # Degraded path: rank by raw collision counts, no weight
                # access at all.  Scores are normalised count fractions —
                # sorted descending like every other mode, comparable only
                # within the request.
                cand_counts = counts[positions]
                keep = np.lexsort((candidates, -cand_counts))[:k]
                fractions = cand_counts[keep] / max(int(cand_counts.sum()), 1)
                predictions.append(
                    Prediction(
                        class_ids=candidates[keep],
                        scores=fractions.astype(FLOAT),
                        mode="sparse_norerank",
                        candidates_scored=0,
                    )
                )
                continue
            # Exact rerank on the candidate set: logits are exact, the
            # softmax is normalised over the candidates only (ranking is
            # unchanged — softmax is monotonic in the logit).
            logits = (
                output_layer.weights[candidates] @ hidden
                + output_layer.biases[candidates]
            )
            probabilities = sparse_softmax(logits)
            keep = top_k_indices(probabilities, k)
            predictions.append(
                Prediction(
                    class_ids=candidates[keep],
                    scores=probabilities[keep],
                    mode="sparse",
                    candidates_scored=int(candidates.size),
                )
            )

        # Dense fallback for the starved rows, batched together.
        if dense_rows:
            block = features[dense_rows]
            probabilities = output_layer.dense_forward_batch(block)
            for position, row in enumerate(dense_rows):
                ids = top_k_indices(probabilities[position], k)
                predictions[row] = Prediction(
                    class_ids=ids,
                    scores=probabilities[position, ids],
                    mode="dense_fallback",
                    candidates_scored=self.output_dim,
                )

        with self._counter_lock:
            self.num_requests += len(examples)
            self.num_fallbacks += len(dense_rows)
        return predictions

    def fallback_rate(self) -> float:
        """Fraction of requests served by the dense fallback path."""
        with self._counter_lock:
            if self.num_requests == 0:
                return 0.0
            return self.num_fallbacks / self.num_requests
