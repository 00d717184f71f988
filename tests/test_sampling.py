"""Tests for the active-neuron sampling strategies and their probabilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import LSHConfig, SamplingConfig
from repro.lsh.index import BatchQueryResult, LSHIndex
from repro.sampling.probability import hard_threshold_curve
from repro.sampling.strategies import (
    HardThresholdSampling,
    TopKSampling,
    VanillaSampling,
    make_sampling_strategy,
)


def probe(index: LSHIndex, query: np.ndarray) -> BatchQueryResult:
    """A one-row probe, as the selection path reads it (row 0)."""
    return index.query_batch_flat(query[None, :])


def crafted_batch(rows, bucket_size=16):
    """A ``BatchQueryResult`` whose row ``b`` probes the buckets ``rows[b]``."""
    tables = len(rows[0])
    width = max([bucket_size] + [len(bucket) for buckets in rows for bucket in buckets])
    candidates = np.full((len(rows), tables, width), -1, dtype=np.int64)
    sizes = np.zeros((len(rows), tables), dtype=np.int64)
    for b, buckets in enumerate(rows):
        for t, bucket in enumerate(buckets):
            candidates[b, t, : len(bucket)] = bucket
            sizes[b, t] = len(bucket)
    codes = np.zeros((len(rows), tables, 3), dtype=np.int64)
    return BatchQueryResult(codes=codes, candidates=candidates, sizes=sizes)


def one_row(*buckets):
    """A one-row ``BatchQueryResult`` probing ``buckets``, one per table."""
    return crafted_batch([[np.asarray(bucket).tolist() for bucket in buckets]])


def buckets_of(flat: BatchQueryResult, row: int) -> list[np.ndarray]:
    """Row ``row``'s bucket of each table."""
    return [
        flat.candidates[row, table, :size]
        for table, size in enumerate(flat.sizes[row].tolist())
    ]


@pytest.fixture
def built_index(rng) -> tuple[LSHIndex, np.ndarray]:
    config = LSHConfig(hash_family="simhash", k=4, l=16, bucket_size=32)
    index = LSHIndex(input_dim=24, config=config, seed=2)
    weights = rng.normal(size=(200, 24))
    index.build(weights)
    return index, weights


class TestVanillaSampling:
    def test_respects_target_active(self, built_index, rng):
        index, weights = built_index
        strategy = VanillaSampling(rng=np.random.default_rng(0))
        active = strategy.select_from_result(probe(index, rng.normal(size=24)), 0, 10)
        assert 0 < active.size <= 10 + index.config.bucket_size  # stops after exceeding target
        assert active.size == np.unique(active).size

    def test_truncates_to_target_when_overshooting(self, built_index, rng):
        index, _ = built_index
        strategy = VanillaSampling(rng=np.random.default_rng(1))
        active = strategy.select_from_result(probe(index, rng.normal(size=24)), 0, 5)
        assert active.size <= 5

    def test_no_target_returns_union_of_probed_tables(self, built_index, rng):
        index, _ = built_index
        strategy = VanillaSampling(rng=np.random.default_rng(2))
        flat = probe(index, rng.normal(size=24))
        active = strategy.select_from_result(flat, 0, target_active=None)
        np.testing.assert_array_equal(active, flat.frequencies(0)[0])

    def test_select_from_result(self):
        strategy = VanillaSampling(rng=np.random.default_rng(3))
        selected = strategy.select_from_result(one_row([1, 2, 3], [4, 5]), 0, target_active=2)
        assert selected.size <= 2 + 3
        assert set(selected.tolist()).issubset({1, 2, 3, 4, 5})

    def test_empty_buckets_return_empty(self):
        strategy = VanillaSampling(rng=np.random.default_rng(4))
        assert strategy.select_from_result(one_row([], [], []), 0, 5).size == 0

    @pytest.mark.parametrize("target", [None, 0, 4, 25, 1000])
    def test_running_union_matches_recount_from_scratch(self, rng, target):
        """Ids and RNG consumption equal the loop that re-deduplicated every
        bucket collected so far after each probe."""

        def recount_collect(generator, buckets, target_active):
            order = generator.permutation(len(buckets))
            collected, count = [], 0
            for table_idx in order:
                if buckets[table_idx].size:
                    collected.append(buckets[table_idx])
                    count = np.unique(np.concatenate(collected)).size
                if target_active is not None and count >= target_active:
                    break
            if not collected:
                return np.zeros(0, dtype=np.int64)
            unique = np.unique(np.concatenate(collected))
            if target_active is not None and unique.size > target_active:
                keep = generator.choice(unique.size, size=target_active, replace=False)
                unique = np.sort(unique[keep])
            return unique.astype(np.int64)

        for seed in range(20):
            buckets = [
                rng.choice(60, size=rng.integers(0, 12), replace=False)
                for _ in range(10)
            ]
            strategy = VanillaSampling(rng=np.random.default_rng(seed))
            oracle_rng = np.random.default_rng(seed)
            selected = strategy.select_from_result(one_row(*buckets), 0, target)
            expected = recount_collect(oracle_rng, buckets, target)
            assert selected.dtype == np.int64
            np.testing.assert_array_equal(selected, expected)
            assert strategy._rng.integers(1 << 30) == oracle_rng.integers(1 << 30)


def merge_loop_reference(generator, buckets, target_active):
    """Vanilla selection as a merge loop over one row's buckets: the first
    probed bucket merged into an empty array like every later one."""
    order = generator.permutation(len(buckets))
    unique = np.zeros(0, dtype=np.int64)
    for table_idx in order:
        bucket = buckets[table_idx]
        if bucket.size:
            merged = np.sort(np.concatenate((unique, bucket)))
            first = np.ones(merged.size, dtype=bool)
            np.not_equal(merged[1:], merged[:-1], out=first[1:])
            unique = merged[first]
        if target_active is not None and unique.size >= target_active:
            break
    if target_active is not None and unique.size > target_active:
        keep = generator.choice(unique.size, size=target_active, replace=False)
        unique = np.sort(unique[keep])
    return unique.astype(np.int64)


# name -> (per-row buckets, target): each case pins one branch of the loop.
VANILLA_CASES = {
    "some_empty_tables": ([[], [9, 2, 5], [], [7, 1, 2, 11], [4], []], 6),
    "all_tables_empty": ([[], [], [], []], 5),
    "first_bucket_reaches_target": ([[8, 3, 1, 6], [2, 5, 9, 0], [4, 7, 1, 10]], 4),
    "first_bucket_over_target": ([[8, 3, 1, 6, 12], [2, 5, 9, 0, 13], [4, 7, 1, 10, 14]], 3),
    "union_exactly_at_target": ([[4, 0, 1, 2, 3], [6, 3, 5, 7, 4], [8, 9, 7, 6]], 10),
    "over_target_subset_draw": ([[1, 2, 3, 4], [3, 4, 5, 6], [6, 7, 8], [0, 15, 14]], 7),
    "duplicates_within_a_bucket": ([[5, 5, 1], [1, 2, 2], [], [3]], 4),
    "no_target": ([[3, 1], [], [2, 3], [0]], None),
}


class TestVanillaAgainstMergeLoop:
    @pytest.mark.parametrize("case", sorted(VANILLA_CASES))
    def test_same_ids_and_generator_state_as_reference(self, case):
        buckets, target = VANILLA_CASES[case]
        # Several rows of one batch, so each row starts from the state the
        # previous row left, as in the training kernel.
        batch = crafted_batch([buckets] * 6)
        for seed in range(12):
            strategy = VanillaSampling(rng=np.random.default_rng(seed))
            reference_rng = np.random.default_rng(seed)
            for row in range(batch.batch_size):
                selected = strategy.select_from_result(batch, row, target)
                expected = merge_loop_reference(reference_rng, buckets_of(batch, row), target)
                assert selected.dtype == np.int64
                np.testing.assert_array_equal(selected, expected)
                assert strategy._rng.bit_generator.state == reference_rng.bit_generator.state

    def test_cases_reach_their_branches(self):
        """The union sizes the case names promise, whatever the probe order."""
        for case in ("first_bucket_reaches_target", "first_bucket_over_target"):
            buckets, target = VANILLA_CASES[case]
            assert min(len(set(bucket)) for bucket in buckets) >= target
        buckets, target = VANILLA_CASES["union_exactly_at_target"]
        assert len(set().union(*buckets)) == target
        for skipped in range(len(buckets)):
            rest = buckets[:skipped] + buckets[skipped + 1 :]
            assert len(set().union(*rest)) < target
        buckets, target = VANILLA_CASES["over_target_subset_draw"]
        assert len(set().union(*buckets)) > target


class TestTopKSampling:
    def test_selects_most_frequent(self):
        strategy = TopKSampling(np.random.default_rng(0))
        flat = one_row([1, 2], [2, 3], [2, 4], [3])
        selected = strategy.select_from_result(flat, 0, target_active=2)
        assert 2 in selected  # appears 3 times
        assert 3 in selected  # appears twice
        assert selected.size == 2

    def test_returns_all_when_fewer_than_target(self):
        strategy = TopKSampling(np.random.default_rng(0))
        np.testing.assert_array_equal(strategy.select_from_result(one_row([5, 9]), 0, 10), [5, 9])

    def test_sample_uses_all_tables(self, built_index, rng):
        index, _ = built_index
        queries_before = index.num_queries
        flat = probe(index, rng.normal(size=24))
        assert index.num_queries == queries_before + 1
        assert flat.sizes.shape == (1, index.l)
        selected = TopKSampling(np.random.default_rng(0)).select_from_result(
            flat, 0, target_active=8
        )
        ids, counts = flat.frequencies(0)
        # Every kept id collides at least as often as every dropped one.
        kept = np.isin(ids, selected)
        assert counts[kept].min() >= counts[~kept].max(initial=0)


class TestHardThresholdSampling:
    def test_keeps_only_frequent_candidates(self):
        strategy = HardThresholdSampling(np.random.default_rng(0), threshold=2)
        flat = one_row([1, 2], [2, 3], [2, 3], [4])
        selected = strategy.select_from_result(flat, 0, target_active=None)
        np.testing.assert_array_equal(selected, [2, 3])

    def test_falls_back_when_nothing_clears_threshold(self):
        strategy = HardThresholdSampling(np.random.default_rng(0), threshold=5)
        selected = strategy.select_from_result(one_row([1], [2]), 0, target_active=1)
        assert selected.size == 1

    def test_respects_target_active_cap(self):
        strategy = HardThresholdSampling(np.random.default_rng(0), threshold=1)
        flat = one_row(np.arange(50), np.arange(50))
        selected = strategy.select_from_result(flat, 0, target_active=10)
        assert selected.size == 10

    def test_invalid_threshold_raises(self):
        with pytest.raises(ValueError):
            HardThresholdSampling(np.random.default_rng(0), threshold=0)


class TestStrategyFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("vanilla", VanillaSampling),
            ("topk", TopKSampling),
            ("hard_threshold", HardThresholdSampling),
        ],
    )
    def test_builds_by_name(self, name, cls):
        config = SamplingConfig(strategy=name)
        assert isinstance(make_sampling_strategy(config, np.random.default_rng(0)), cls)

    def test_rng_is_required(self):
        with pytest.raises(TypeError):
            make_sampling_strategy(SamplingConfig())  # type: ignore[call-arg]

    @pytest.mark.parametrize("name", ["vanilla", "topk", "hard_threshold"])
    def test_a_row_is_selected_as_if_probed_alone(self, name):
        """Only row ``row`` of the flat probe decides the selection and the
        draws, whatever the other rows of the batch hold."""
        rows = [
            [[1, 2, 3], [3, 4], [9]],
            [[5, 6, 7, 8], [6, 7], [7, 10, 11], [12]],
            [[], [2, 4], [4]],
        ]
        rows = [buckets + [[]] * (4 - len(buckets)) for buckets in rows]
        batch = crafted_batch(rows)
        config = SamplingConfig(strategy=name, hard_threshold=2)
        for row, buckets in enumerate(rows):
            for target in (None, 2):
                together = make_sampling_strategy(config, np.random.default_rng(row))
                alone = make_sampling_strategy(config, np.random.default_rng(row))
                np.testing.assert_array_equal(
                    together.select_from_result(batch, row, target),
                    alone.select_from_result(crafted_batch([buckets]), 0, target),
                )
                assert together._rng.bit_generator.state == alone._rng.bit_generator.state

    def test_hard_threshold_gets_configured_threshold(self):
        config = SamplingConfig(strategy="hard_threshold", hard_threshold=4)
        strategy = make_sampling_strategy(config, np.random.default_rng(0))
        assert strategy.threshold == 4


class TestSamplingQuality:
    def test_topk_retrieves_higher_inner_product_neurons_than_random(self, rng):
        """Adaptive sampling must be biased toward large inner products —
        the property that distinguishes SLIDE from static sampled softmax."""
        config = LSHConfig(hash_family="simhash", k=5, l=24, bucket_size=32)
        index = LSHIndex(input_dim=32, config=config, seed=3)
        weights = rng.normal(size=(300, 32))
        index.build(weights)
        strategy = TopKSampling(np.random.default_rng(0))
        query = rng.normal(size=32)
        active = strategy.select_from_result(probe(index, query), 0, target_active=30)
        assert active.size > 0
        sampled_mean = np.mean(weights[active] @ query)
        overall_mean = np.mean(weights @ query)
        assert sampled_mean > overall_mean


class TestProbabilityCurves:
    def test_hard_threshold_curve_shape(self):
        p_values, selected = hard_threshold_curve(k=1, l=10, m=3)
        assert p_values.shape == selected.shape
        assert np.all((selected >= 0) & (selected <= 1))
        # Selection probability increases with collision probability.
        assert np.all(np.diff(selected) >= -1e-12)

    def test_higher_threshold_selects_less(self):
        p_values, low = hard_threshold_curve(k=1, l=10, m=1)
        _, high = hard_threshold_curve(k=1, l=10, m=9)
        assert np.all(high <= low + 1e-12)
        # Figure 11's qualitative claim: at p=0.8+, even m=9 has a decent chance.
        assert high[-1] > 0.4
