"""Tests for the batched densification ring walk shared by DWTA and DOPH."""

from __future__ import annotations

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.densify import densify_codes_batch
from repro.hashing.doph import DOPH
from repro.hashing.dwta import DWTAHash, _coprime_offsets


def reference_densify(codes, filled, offsets, sentinel):
    """One bin at a time: walk ``bin + t * offset`` until a filled bin."""
    out = codes.copy()
    total = codes.shape[1]
    for row in range(codes.shape[0]):
        if not filled[row].any():
            out[row] = sentinel
            continue
        for b in np.flatnonzero(~filled[row]):
            for attempt in range(1, total + 1):
                probe = (b + attempt * offsets[b]) % total
                if filled[row, probe]:
                    out[row, b] = codes[row, probe]
                    break
    return out


def random_problem(seed: int, rows: int, total: int, fill_rate: float):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 7, size=(rows, total), dtype=np.int64)
    filled = rng.random((rows, total)) < fill_rate
    offsets = _coprime_offsets(rng, total)
    return codes, filled, offsets


class TestValidation:
    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError, match="matching 2-D"):
            densify_codes_batch(
                np.zeros((2, 4)), np.ones((2, 3), dtype=bool), np.ones(4, dtype=np.int64), 9
            )

    def test_one_dimensional_input_raises(self):
        with pytest.raises(ValueError, match="matching 2-D"):
            densify_codes_batch(
                np.zeros(4), np.ones(4, dtype=bool), np.ones(4, dtype=np.int64), 9
            )


class TestRingWalk:
    def test_fully_filled_rows_are_returned_unchanged_as_a_copy(self):
        codes = np.arange(12, dtype=np.int64).reshape(3, 4)
        filled = np.ones((3, 4), dtype=bool)
        out = densify_codes_batch(codes, filled, np.ones(4, dtype=np.int64), 99)
        np.testing.assert_array_equal(out, codes)
        assert out is not codes
        assert out.dtype == np.int64

    def test_all_empty_row_gets_the_sentinel_and_leaves_other_rows_alone(self):
        codes = np.array([[5, 6, 7, 8], [1, 2, 3, 4]], dtype=np.int64)
        filled = np.array([[False] * 4, [True] * 4])
        out = densify_codes_batch(codes, filled, np.ones(4, dtype=np.int64), 42)
        np.testing.assert_array_equal(out[0], [42, 42, 42, 42])
        np.testing.assert_array_equal(out[1], [1, 2, 3, 4])

    def test_empty_bin_borrows_the_first_filled_bin_on_its_walk(self):
        # total 5, every step 2: bin 0 probes 2, 4, 1, 3 in that order.
        codes = np.array([[10, 11, 12, 13, 14]], dtype=np.int64)
        filled = np.array([[False, False, False, True, True]])
        offsets = np.full(5, 2, dtype=np.int64)
        out = densify_codes_batch(codes, filled, offsets, -1)
        # bin 0 -> 2 (empty) -> 4 (filled): 14.
        # bin 1 -> 3 (filled): 13.
        # bin 2 -> 4 (filled): 14.
        np.testing.assert_array_equal(out[0], [14, 13, 14, 13, 14])

    def test_inputs_are_not_mutated(self):
        codes, filled, offsets = random_problem(seed=3, rows=6, total=11, fill_rate=0.3)
        codes_before, filled_before = codes.copy(), filled.copy()
        densify_codes_batch(codes, filled, offsets, 99)
        np.testing.assert_array_equal(codes, codes_before)
        np.testing.assert_array_equal(filled, filled_before)

    def test_filled_bins_keep_their_own_codes(self):
        codes, filled, offsets = random_problem(seed=8, rows=10, total=13, fill_rate=0.4)
        out = densify_codes_batch(codes, filled, offsets, 99)
        np.testing.assert_array_equal(out[filled], codes[filled])

    def test_every_borrowed_code_comes_from_a_filled_bin_of_the_same_row(self):
        codes = np.arange(40, dtype=np.int64).reshape(4, 10) * 3
        rng = np.random.default_rng(11)
        filled = rng.random((4, 10)) < 0.25
        filled[:, 0] = True  # no degenerate rows
        offsets = _coprime_offsets(rng, 10)
        out = densify_codes_batch(codes, filled, offsets, -1)
        for row in range(4):
            assert set(out[row]) <= set(codes[row, filled[row]])

    def test_offsets_from_the_hash_families_are_coprime_with_the_ring(self):
        rng = np.random.default_rng(0)
        for total in (1, 2, 6, 12, 17, 30):
            offsets = _coprime_offsets(rng, total)
            assert offsets.shape == (max(total, 1),)
            assert all(gcd(int(step), max(total, 1)) == 1 for step in offsets)


@given(
    seed=st.integers(0, 10_000),
    rows=st.integers(1, 6),
    total=st.integers(1, 24),
    fill_rate=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_batched_walk_matches_the_per_bin_reference(seed, rows, total, fill_rate):
    codes, filled, offsets = random_problem(seed, rows, total, fill_rate)
    np.testing.assert_array_equal(
        densify_codes_batch(codes, filled, offsets, 77),
        reference_densify(codes, filled, offsets, 77),
    )


@pytest.mark.parametrize("family", ["dwta", "doph"])
def test_hash_families_batch_and_per_vector_codes_agree_on_sparse_input(family):
    """Sparse rows leave most bins empty, so every code below went through
    the batched walk on one side and the per-vector walk on the other."""
    rng = np.random.default_rng(21)
    dim = 200
    if family == "dwta":
        hasher = DWTAHash(input_dim=dim, k=3, l=6, bin_size=8, seed=2)
    else:
        hasher = DOPH(input_dim=dim, k=3, l=6, seed=2)
    batch = np.zeros((8, dim))
    for row in batch:
        idx = rng.choice(dim, size=3, replace=False)
        row[idx] = rng.random(3) + 0.1
    batch[5] = 0.0  # one all-zero row takes the sentinel path
    batched = hasher.hash_matrix(batch)
    for i, row in enumerate(batch):
        np.testing.assert_array_equal(batched[i], hasher.hash_vector(row))
