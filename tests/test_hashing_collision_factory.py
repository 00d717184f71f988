"""Tests for the collision-probability formulas and the hash-family factory."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LSHConfig
from repro.hashing import DOPH, DWTAHash, MinHash, SimHash, WTAHash
from repro.hashing.base import LSHFamily
from repro.hashing.collision import (
    hard_threshold_selection_probability,
    meta_collision_probability,
    retrieval_probability,
    simhash_collision_probability,
    vanilla_selection_probability,
)
from repro.hashing.factory import (
    available_hash_families,
    make_hash_family,
    register_hash_family,
)


class TestCollisionFormulas:
    def test_simhash_collision_extremes(self):
        assert simhash_collision_probability(1.0) == pytest.approx(1.0)
        assert simhash_collision_probability(-1.0) == pytest.approx(0.0)
        assert simhash_collision_probability(0.0) == pytest.approx(0.5)

    def test_simhash_collision_monotone(self):
        sims = np.linspace(-1, 1, 21)
        probs = [simhash_collision_probability(s) for s in sims]
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_meta_collision_probability(self):
        assert meta_collision_probability(0.5, 3) == pytest.approx(0.125)
        with pytest.raises(ValueError):
            meta_collision_probability(0.5, 0)
        with pytest.raises(ValueError):
            meta_collision_probability(1.5, 2)

    def test_retrieval_probability_bounds_and_monotonicity(self):
        # More tables -> higher retrieval probability.
        assert retrieval_probability(0.5, 2, 10) > retrieval_probability(0.5, 2, 2)
        # More concatenated bits -> lower retrieval probability.
        assert retrieval_probability(0.5, 6, 10) < retrieval_probability(0.5, 2, 10)
        assert 0.0 <= retrieval_probability(0.3, 4, 8) <= 1.0

    def test_vanilla_selection_probability_eqn2(self):
        # tau = L reduces to (p^K)^L.
        p, k, l = 0.6, 2, 4
        assert vanilla_selection_probability(p, k, l, l) == pytest.approx((p**k) ** l)
        # tau = 0 reduces to (1 - p^K)^L.
        assert vanilla_selection_probability(p, k, l, 0) == pytest.approx((1 - p**k) ** l)
        with pytest.raises(ValueError):
            vanilla_selection_probability(p, k, l, l + 1)

    def test_hard_threshold_probability_eqn3(self):
        # m=1 is the standard LSH retrieval probability.
        p, k, l = 0.7, 2, 10
        assert hard_threshold_selection_probability(p, k, l, 1) == pytest.approx(
            retrieval_probability(p, k, l)
        )
        # Probability decreases as the threshold m grows.
        probs = [hard_threshold_selection_probability(p, k, l, m) for m in range(1, l + 1)]
        assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))
        with pytest.raises(ValueError):
            hard_threshold_selection_probability(p, k, l, 0)

    def test_hard_threshold_matches_explicit_binomial_sum(self):
        from math import comb

        p, k, l, m = 0.4, 3, 8, 3
        pk = p**k
        expected = sum(comb(l, i) * pk**i * (1 - pk) ** (l - i) for i in range(m, l + 1))
        assert hard_threshold_selection_probability(p, k, l, m) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "p, k, l, m, expected",
        [
            # scipy.stats.binom.sf(m - 1, l, p**k), generated once (scipy
            # 1.17.1) when the package stopped importing scipy for this.
            (0.9, 6, 50, 1, 1.0),
            (0.9, 6, 50, 5, 0.9999999999857956),
            (0.9, 6, 50, 27, 0.5093262106174301),
            (0.9, 6, 50, 50, 1.873927703884804e-14),
            (0.5, 9, 32, 1, 0.06064434742264824),
            (0.5, 9, 32, 2, 0.0018197273003874629),
            (0.5, 9, 32, 32, 2.010764683385949e-87),
            (0.05, 4, 64, 1, 0.0003999212601709056),  # p^K near 0
            (0.05, 4, 64, 3, 1.0168966915725647e-11),
            (0.9999, 2, 40, 1, 1.0),  # p^K near 1
            (0.9999, 2, 40, 39, 0.9999689607384677),
            (0.9999, 2, 40, 40, 0.9920315179979208),
            (0.97, 3, 300, 1, 1.0),
            (0.97, 3, 300, 250, 0.9999963668440238),
            (0.97, 3, 300, 280, 0.11942302479328866),
            (0.97, 3, 300, 300, 1.2432567895039273e-12),
            (0.7, 1, 1, 1, 0.7),
            (1.0, 3, 10, 10, 1.0),
            (0.0, 3, 10, 1, 0.0),
        ],
    )
    def test_hard_threshold_matches_scipy_reference(self, p, k, l, m, expected):
        got = hard_threshold_selection_probability(p, k, l, m)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        k=st.integers(1, 8),
        l=st.integers(1, 30),
    )
    @settings(max_examples=80, deadline=None)
    def test_probabilities_stay_in_unit_interval(self, p, k, l):
        assert 0.0 <= retrieval_probability(p, k, l) <= 1.0
        assert 0.0 <= hard_threshold_selection_probability(p, k, l, max(1, l // 2)) <= 1.0


class TestFactory:
    @pytest.mark.parametrize(
        "name,expected_type",
        [
            ("simhash", SimHash),
            ("wta", WTAHash),
            ("dwta", DWTAHash),
            ("doph", DOPH),
            ("minhash", MinHash),
        ],
    )
    def test_builds_each_family(self, name, expected_type):
        config = LSHConfig(hash_family=name, k=3, l=4)
        family = make_hash_family(32, config, seed=1)
        assert isinstance(family, expected_type)
        assert family.k == 3 and family.l == 4

    def test_unknown_family_raises(self):
        config = LSHConfig(hash_family="simhash", k=2, l=2)
        object.__setattr__(config, "hash_family", "nonexistent")
        with pytest.raises(ValueError, match="unknown hash family"):
            make_hash_family(16, config)

    def test_available_families_lists_builtins(self):
        names = available_hash_families()
        assert {"simhash", "wta", "dwta", "doph", "minhash"}.issubset(set(names))

    def test_register_custom_family(self):
        class ConstantHash(LSHFamily):
            @property
            def code_cardinality(self) -> int:
                return 2

            def hash_vector(self, vector):
                return np.zeros((self.l, self.k), dtype=np.int64)

        register_hash_family(
            "constant-test", lambda dim, cfg, seed: ConstantHash(dim, cfg.k, cfg.l, seed)
        )
        config = LSHConfig(hash_family="simhash", k=2, l=3)
        object.__setattr__(config, "hash_family", "constant-test")
        family = make_hash_family(8, config)
        assert isinstance(family, ConstantHash)
        assert family.hash_vector(np.ones(8)).shape == (3, 2)

    def test_register_invalid_name_raises(self):
        with pytest.raises(ValueError):
            register_hash_family("", lambda *a: None)
