"""Tests for SimHash: determinism, LSH property, incremental updates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.collision import simhash_collision_probability
from repro.hashing.simhash import SimHash
from repro.types import SparseVector

EPS32 = float(np.finfo(np.float32).eps)


@pytest.fixture
def simhash() -> SimHash:
    return SimHash(input_dim=64, k=4, l=8, seed=3)


class TestSimHashBasics:
    def test_output_shape_and_values(self, simhash, rng):
        codes = simhash.hash_vector(rng.normal(size=64))
        assert codes.shape == (8, 4)
        assert set(np.unique(codes)).issubset({0, 1})

    def test_deterministic_for_same_input(self, simhash, rng):
        vector = rng.normal(size=64)
        np.testing.assert_array_equal(
            simhash.hash_vector(vector), simhash.hash_vector(vector)
        )

    def test_same_seed_same_family(self, rng):
        vector = rng.normal(size=32)
        a = SimHash(32, 3, 5, seed=9).hash_vector(vector)
        b = SimHash(32, 3, 5, seed=9).hash_vector(vector)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_usually_differs(self, rng):
        vector = rng.normal(size=32)
        a = SimHash(32, 6, 10, seed=1).hash_vector(vector)
        b = SimHash(32, 6, 10, seed=2).hash_vector(vector)
        assert not np.array_equal(a, b)

    def test_code_cardinality_is_two(self, simhash):
        assert simhash.code_cardinality == 2

    def test_scale_invariance(self, simhash, rng):
        vector = rng.normal(size=64)
        np.testing.assert_array_equal(
            simhash.hash_vector(vector), simhash.hash_vector(3.7 * vector)
        )

    def test_wrong_dimension_raises(self, simhash):
        with pytest.raises(ValueError, match="does not match"):
            simhash.hash_vector(np.zeros(10))

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            SimHash(0, 2, 2)
        with pytest.raises(ValueError):
            SimHash(8, 0, 2)
        with pytest.raises(ValueError):
            SimHash(8, 2, 2, sparsity=0.0)

    def test_projection_sparsity(self):
        family = SimHash(input_dim=90, k=2, l=2, sparsity=1.0 / 3.0)
        assert family.projection_nnz == 30


class TestSimHashSparseDenseEquivalence:
    def test_sparse_and_dense_inputs_agree(self, simhash, rng):
        dense = np.zeros(64)
        indices = rng.choice(64, size=7, replace=False)
        dense[indices] = rng.normal(size=7)
        sparse = SparseVector.from_dense(dense)
        np.testing.assert_array_equal(
            simhash.hash_vector(dense), simhash.hash_vector(sparse)
        )

    def test_hash_matrix_matches_per_row(self, simhash, rng):
        matrix = rng.normal(size=(5, 64))
        all_codes = simhash.hash_matrix(matrix)
        for row in range(5):
            np.testing.assert_array_equal(all_codes[row], simhash.hash_vector(matrix[row]))

    def test_hash_matrix_rejects_bad_shape(self, simhash, rng):
        with pytest.raises(ValueError):
            simhash.hash_matrix(rng.normal(size=(3, 10)))


class TestSimHashLSHProperty:
    def test_collision_rate_increases_with_similarity(self, rng):
        """The empirical bit-collision rate should track 1 - theta/pi."""
        family = SimHash(input_dim=48, k=1, l=600, sparsity=1.0, seed=5)
        base = rng.normal(size=48)
        base /= np.linalg.norm(base)

        def empirical_collision(other: np.ndarray) -> float:
            a = family.hash_vector(base).ravel()
            b = family.hash_vector(other).ravel()
            return float(np.mean(a == b))

        # Nearly identical vector vs nearly orthogonal vector.
        similar = base + 0.05 * rng.normal(size=48)
        orthogonal = rng.normal(size=48)
        orthogonal -= np.dot(orthogonal, base) * base

        assert empirical_collision(similar) > empirical_collision(orthogonal) + 0.2

    def test_empirical_matches_theoretical_probability(self, rng):
        family = SimHash(input_dim=32, k=1, l=2000, sparsity=1.0, seed=8)
        a = rng.normal(size=32)
        b = a + 0.8 * rng.normal(size=32)
        cosine = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        expected = simhash_collision_probability(cosine)
        observed = float(
            np.mean(family.hash_vector(a).ravel() == family.hash_vector(b).ravel())
        )
        assert observed == pytest.approx(expected, abs=0.06)


class TestSimHashProjections:
    def test_codes_from_projections_validates_length(self, simhash):
        with pytest.raises(ValueError):
            simhash.codes_from_projections(np.zeros(3))


class TestSimHashFloat32:
    """Rows are hashed in float32; the sign margin is float32's."""

    DIM = 120

    def family(self) -> SimHash:
        return SimHash(input_dim=self.DIM, k=4, l=6, seed=9)

    def near_zero_rows(self, family: SimHash, rng, count: int) -> np.ndarray:
        """Rows with one projection inside the float32 sign margin of zero.

        Each row fills a few coordinates of one projection's support with
        values whose signed sum cancels to within rounding: the last value
        is minus the float64 sum of the others, rounded to float32.
        """
        rows = np.zeros((count, self.DIM), dtype=np.float32)
        for row in range(count):
            hash_id = int(rng.integers(family.k * family.l))
            picked = rng.choice(family.projection_nnz, size=6, replace=False)
            coords = family._proj_indices[hash_id, picked]
            signs = family._proj_signs[hash_id, picked].astype(np.float64)
            terms = np.round(rng.normal(size=5), 1)
            terms = np.append(terms, -terms.sum())
            rows[row, coords] = (terms * signs).astype(np.float32)
        return rows

    def test_projection_and_rows_are_float32(self, rng):
        family = self.family()
        assert family._dense_projection.dtype == np.float32
        assert family.project(rng.normal(size=self.DIM)).dtype == np.float32

    def test_constructed_rows_fall_inside_the_margin(self, rng):
        family = self.family()
        rows = self.near_zero_rows(family, rng, 200)
        exact = rows.astype(np.float64) @ family._dense_projection.astype(np.float64)
        d = self.DIM
        unit = EPS32 / 2
        margin = 2 * d * unit / (1 - d * unit) * np.sqrt(d)
        bound = margin * np.linalg.norm(rows.astype(np.float64), axis=1)
        # Most rows put one projection within the margin (a few cancel to
        # an exact zero, which is also inside it).
        inside = (np.abs(exact) <= bound[:, None]).any(axis=1)
        assert inside.mean() > 0.9

    @pytest.mark.parametrize("kind", ["gaussian", "rounded", "near_zero"])
    def test_per_vector_codes_equal_matrix_codes(self, rng, kind):
        family = self.family()
        if kind == "near_zero":
            matrix = self.near_zero_rows(family, rng, 500)
        else:
            matrix = rng.normal(size=(500, self.DIM)) * (rng.random((500, self.DIM)) < 0.4)
            if kind == "rounded":
                matrix = np.round(matrix, 1)
            matrix = matrix.astype(np.float32)
        batched = family.hash_matrix(matrix)
        for row in range(matrix.shape[0]):
            np.testing.assert_array_equal(family.hash_vector(matrix[row]), batched[row])

    def test_codes_do_not_depend_on_neighbouring_rows(self, rng):
        family = self.family()
        matrix = np.concatenate(
            [
                self.near_zero_rows(family, rng, 250),
                np.round(rng.normal(size=(250, self.DIM)), 1).astype(np.float32),
            ]
        )
        whole = family.hash_matrix(matrix)
        order = rng.permutation(matrix.shape[0])
        np.testing.assert_array_equal(family.hash_matrix(matrix[order]), whole[order])
        for start in range(0, matrix.shape[0], 7):
            np.testing.assert_array_equal(
                family.hash_matrix(matrix[start : start + 7]), whole[start : start + 7]
            )
        for row in range(0, matrix.shape[0], 13):
            np.testing.assert_array_equal(
                family.hash_matrix(matrix[row : row + 1])[0], whole[row]
            )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_simhash_codes_are_binary_for_any_seed(seed):
    rng = np.random.default_rng(seed)
    family = SimHash(input_dim=16, k=3, l=4, seed=seed)
    codes = family.hash_vector(rng.normal(size=16))
    assert codes.shape == (4, 3)
    assert set(np.unique(codes)).issubset({0, 1})
