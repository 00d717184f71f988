"""The three active-neuron sampling strategies (paper Section 4.1).

Given the per-table candidate buckets one row of a batched probe drew from
the tables (:class:`repro.lsh.index.BatchQueryResult`), each strategy decides
which neuron ids become *active* for the current input:

* **Vanilla** — probe tables one at a time in random order, stop as soon as
  ``beta`` distinct neurons have been collected.  ``O(beta)`` time, lowest
  quality.
* **TopK** — aggregate candidate frequencies across all ``L`` tables, keep the
  ``beta`` most frequent.  Highest quality, pays a sort.
* **Hard thresholding** — keep every candidate that appears in at least ``m``
  tables; avoids the sort while still filtering low-collision candidates.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.config import SamplingConfig
from repro.lsh.index import BatchQueryResult
from repro.types import IntArray
from repro.utils.topk import top_k_indices

__all__ = [
    "SamplingStrategy",
    "VanillaSampling",
    "TopKSampling",
    "HardThresholdSampling",
    "make_sampling_strategy",
]


class SamplingStrategy(abc.ABC):
    """Turns LSH query results into a set of active neuron ids."""

    name: str = "base"

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    @abc.abstractmethod
    def select_from_result(
        self, flat: BatchQueryResult, row: int, target_active: int | None
    ) -> IntArray:
        """Return a sorted unique array of active neuron ids for one query
        row of ``flat``."""


class VanillaSampling(SamplingStrategy):
    """Random-table probing until ``beta`` neurons are collected.

    The time complexity is ``O(beta)`` because each additional table probe is
    a single bucket merge and the loop stops as soon as enough candidates
    have been gathered.
    """

    name = "vanilla"

    def select_from_result(
        self, flat: BatchQueryResult, row: int, target_active: int | None
    ) -> IntArray:
        # RNG consumption: one table permutation, plus one subset draw when
        # over target.
        candidates = flat.candidates[row]
        sizes = flat.sizes[row].tolist()
        order = self._rng.permutation(len(sizes))
        # Running sorted-unique union of the probed buckets: each probe merges
        # one bucket instead of re-deduplicating everything collected so far.
        # Sort + neighbour compare is np.union1d without its fixed cost, which
        # dominates on bucket-sized arrays.  A bucket is read only when its
        # table is probed.
        unique = np.zeros(0, dtype=np.int64)
        for table_idx in order.tolist():
            size = sizes[table_idx]
            if size:
                merged = candidates[table_idx, :size]
                if unique.size:
                    merged = np.concatenate((unique, merged))
                merged = np.sort(merged)
                first = np.empty(merged.size, dtype=bool)
                first[0] = True
                np.not_equal(merged[1:], merged[:-1], out=first[1:])
                unique = merged[first]
            if target_active is not None and unique.size >= target_active:
                break
        if target_active is not None and unique.size > target_active:
            # Keep a uniformly random subset so the expected size matches beta;
            # sorted positions into the sorted union keep the result sorted.
            keep = self._rng.choice(unique.size, size=target_active, replace=False)
            keep.sort()
            unique = unique[keep]
        return unique.astype(np.int64, copy=False)


class TopKSampling(SamplingStrategy):
    """Frequency aggregation across all tables, keep the top ``beta``."""

    name = "topk"

    def select_from_result(
        self, flat: BatchQueryResult, row: int, target_active: int | None
    ) -> IntArray:
        ids, counts = flat.frequencies(row)
        if ids.size == 0:
            return ids
        if target_active is None or ids.size <= target_active:
            return np.sort(ids)
        keep = top_k_indices(counts.astype(np.float64), target_active)
        return np.sort(ids[keep]).astype(np.int64)


class HardThresholdSampling(SamplingStrategy):
    """Keep candidates appearing in at least ``m`` of the ``L`` tables."""

    name = "hard_threshold"

    def __init__(self, rng: np.random.Generator, threshold: int = 2) -> None:
        super().__init__(rng)
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = int(threshold)

    def select_from_result(
        self, flat: BatchQueryResult, row: int, target_active: int | None
    ) -> IntArray:
        ids, counts = flat.frequencies(row)
        if ids.size == 0:
            return ids
        selected = ids[counts >= self.threshold]
        if selected.size == 0:
            # Degrade gracefully: fall back to the most frequent candidates so
            # the layer never goes completely dark.
            keep = top_k_indices(counts.astype(np.float64), target_active or ids.size)
            selected = ids[keep]
        if target_active is not None and selected.size > target_active:
            keep = self._rng.choice(selected.size, size=target_active, replace=False)
            selected = selected[keep]
        return np.sort(selected).astype(np.int64)


def make_sampling_strategy(
    config: SamplingConfig, rng: np.random.Generator
) -> SamplingStrategy:
    """Instantiate the strategy described by a :class:`SamplingConfig`."""
    name = config.strategy.lower()
    if name == "vanilla":
        return VanillaSampling(rng)
    if name == "topk":
        return TopKSampling(rng)
    if name == "hard_threshold":
        return HardThresholdSampling(rng, threshold=config.hard_threshold)
    raise ValueError(f"unknown sampling strategy {config.strategy!r}")
