"""Theoretical collision and retrieval probabilities for LSH families.

These closed-form expressions back the paper's Equations (2) and (3) and
Figure 11, and are used by the property-based tests as ground truth for the
empirical collision rates of the hash-family implementations.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.validation import check_probability

__all__ = [
    "simhash_collision_probability",
    "meta_collision_probability",
    "retrieval_probability",
    "vanilla_selection_probability",
    "hard_threshold_selection_probability",
]


def simhash_collision_probability(cosine_similarity: float) -> float:
    """Collision probability of one SimHash bit for a given cosine similarity.

    ``p = 1 - arccos(sim) / pi`` — Equation in Appendix B of the paper.
    """
    sim = float(np.clip(cosine_similarity, -1.0, 1.0))
    return 1.0 - float(np.arccos(sim)) / np.pi


def meta_collision_probability(p: float, k: int) -> float:
    """Probability that all ``K`` elementary codes agree: ``p ** K``."""
    check_probability(p, "p")
    if k <= 0:
        raise ValueError("k must be positive")
    return float(p) ** k


def retrieval_probability(p: float, k: int, l: int) -> float:
    """Probability that an item is retrieved from at least one of ``L`` tables.

    ``1 - (1 - p^K)^L`` — the classic LSH sampling probability (Section 2.1).
    """
    check_probability(p, "p")
    if k <= 0 or l <= 0:
        raise ValueError("k and l must be positive")
    return 1.0 - (1.0 - p**k) ** l


def vanilla_selection_probability(p: float, k: int, l: int, tau: int) -> float:
    """Equation (2): probability a neuron is selected by Vanilla sampling.

    ``Pr = (p^K)^tau * (1 - p^K)^(L - tau)`` where ``tau`` is the number of
    tables actually probed.
    """
    check_probability(p, "p")
    if not 0 <= tau <= l:
        raise ValueError("tau must lie in [0, L]")
    pk = p**k
    return float(pk**tau * (1.0 - pk) ** (l - tau))


def hard_threshold_selection_probability(p: float, k: int, l: int, m: int) -> float:
    """Equation (3): probability a neuron appears in at least ``m`` buckets.

    ``Pr = sum_{i=m}^{L} C(L, i) (p^K)^i (1 - p^K)^(L-i)`` — the binomial
    upper tail, summed term by term: the terms are all positive, the
    coefficients exact integers and ``fsum`` adds without rounding, so for
    the ``L`` of a few hundred tables an index has, the result is good to a
    few ulps.
    """
    check_probability(p, "p")
    if not 1 <= m <= l:
        raise ValueError("m must lie in [1, L]")
    pk = p**k
    # P(X >= m) for X ~ Binomial(L, pk); the terms' own rounding can carry a
    # sum that should be 1 an ulp past it.
    tail = math.fsum(
        math.comb(l, i) * pk**i * (1.0 - pk) ** (l - i) for i in range(m, l + 1)
    )
    return min(tail, 1.0)
