"""Synthetic extreme-classification datasets.

The paper evaluates on Delicious-200K and Amazon-670K from the Extreme
Classification Repository.  Those corpora cannot be bundled here, so this
module generates synthetic datasets that preserve the properties SLIDE's
claims rest on:

* very high feature dimensionality with *extremely sparse* features
  (Delicious averages ~75 non-zeros out of 782,585 dimensions — 0.038 %);
* a very wide output layer (hundreds of thousands of labels in the paper,
  configurable here);
* power-law (Zipfian) label frequencies, the hallmark of extreme
  classification data;
* learnable structure: each label owns a sparse prototype direction in
  feature space, and an example's features are a noisy mixture of its labels'
  prototypes, so both SLIDE and the dense baselines can actually reach
  non-trivial precision@1 and the convergence comparisons are meaningful.

Scale is fully configurable so unit tests run in milliseconds while the
benchmark harness uses larger instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.types import SparseExample, SparseVector
from repro.utils.rng import derive_rng

__all__ = [
    "SyntheticXCConfig",
    "SyntheticXCDataset",
    "generate_synthetic_xc",
    "delicious_like_config",
    "amazon_like_config",
]


@dataclass(frozen=True)
class SyntheticXCConfig:
    """Parameters of the synthetic extreme-classification generator."""

    feature_dim: int = 4096
    label_dim: int = 1024
    num_train: int = 2048
    num_test: int = 512
    # Average number of non-zero features per example.
    avg_features_per_example: int = 32
    # Average number of positive labels per example.
    avg_labels_per_example: float = 2.0
    # Number of non-zero coordinates in each label's prototype.
    prototype_nnz: int = 24
    # Zipf exponent controlling label frequency skew (1.0 ~ natural text).
    zipf_exponent: float = 1.05
    # Standard deviation of additive feature noise relative to signal.
    noise_scale: float = 0.3
    seed: int = 0
    name: str = "synthetic-xc"

    def __post_init__(self) -> None:
        if min(self.feature_dim, self.label_dim, self.num_train, self.num_test) <= 0:
            raise ValueError("dimensions and sizes must be positive")
        if self.avg_features_per_example <= 0 or self.prototype_nnz <= 0:
            raise ValueError("sparsity parameters must be positive")
        if self.avg_labels_per_example < 1:
            raise ValueError("avg_labels_per_example must be at least 1")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be non-negative")


@dataclass
class SyntheticXCDataset:
    """Generated train/test splits plus the generating prototypes."""

    config: SyntheticXCConfig
    train: list[SparseExample]
    test: list[SparseExample]
    # (label_dim, prototype_nnz) indices and values of each label's prototype.
    prototype_indices: np.ndarray
    prototype_values: np.ndarray
    label_probabilities: np.ndarray

    @property
    def feature_dim(self) -> int:
        return self.config.feature_dim

    @property
    def label_dim(self) -> int:
        return self.config.label_dim

    def feature_sparsity(self) -> float:
        """Fraction of non-zero features per example (as in Table 1)."""
        if not self.train:
            return 0.0
        nnz = np.mean([ex.features.nnz for ex in self.train])
        return float(nnz / self.config.feature_dim)


def _zipf_probabilities(label_dim: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, label_dim + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


class _LabelSampler:
    """``rng.choice(probs.size, size, replace=False, p=probs)``, same bits.

    :meth:`draw` returns the ids ``Generator.choice`` returns and leaves
    ``rng`` in the same state, by running numpy's own algorithm: a round
    draws ``rng.random(missing)``, maps the draws through the normalised
    cumulative distribution with ``searchsorted(side="right")`` and keeps
    the first occurrence of each id in draw order; while ids are missing,
    a further round runs over the distribution with the ids found so far
    zeroed.  ``choice`` rebuilds the first round's distribution on every
    call; here it is built once, and the rare later rounds reuse two
    scratch arrays instead of allocating fresh ones.
    """

    def __init__(self, probs: np.ndarray) -> None:
        self.probs = probs
        self.cdf = np.cumsum(probs)
        self.cdf /= self.cdf[-1]
        self._remaining = probs.copy()
        self._retry_cdf = np.empty_like(probs)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        found = self.cdf.searchsorted(rng.random(size), side="right")
        _, first = np.unique(found, return_index=True)
        if first.size == size:
            return found
        first.sort()
        found = found.take(first)
        remaining, cdf = self._remaining, self._retry_cdf
        while found.size < size:
            draws = rng.random(size - found.size)
            remaining[found] = 0
            np.cumsum(remaining, out=cdf)
            cdf /= cdf[-1]
            new = cdf.searchsorted(draws, side="right")
            _, first = np.unique(new, return_index=True)
            first.sort()
            found = np.concatenate([found, new.take(first)])
        remaining[found] = self.probs[found]
        return found


def _generate_example(
    rng: np.random.Generator,
    config: SyntheticXCConfig,
    label_sampler: _LabelSampler,
    prototype_indices: np.ndarray,
    prototype_values: np.ndarray,
) -> SparseExample:
    """One example, from exactly these ``rng`` draws in this order:

    1. ``poisson(avg_labels_per_example - 1)``: the label count is one more;
    2. the labels, as ``choice(label_dim, count, replace=False, p=...)``
       draws them from the Zipf probabilities (see :class:`_LabelSampler`);
    3. ``poisson(avg_features_per_example)``: the target non-zero count;
    4. ``integers(0, feature_dim, missing)`` background ids, only when the
       labels' prototypes cover fewer ids than the target;
    5. ``normal(scale=noise_scale)``, one per feature, in index order.

    Each feature's signal is the sum of the labels' prototype values at its
    index, added in label draw order starting from ``0.0``; background ids
    carry no signal.  These are the bits the former per-example dict loop
    produced, now built with array operations.
    """
    # Number of labels: at least one, Poisson-distributed around the mean.
    num_labels = 1 + rng.poisson(max(config.avg_labels_per_example - 1.0, 0.0))
    num_labels = int(min(num_labels, config.label_dim))
    labels = label_sampler.draw(rng, num_labels)

    # Features: union of the label prototypes' supports plus random background
    # coordinates, with additive noise on the values.  ``bincount`` adds the
    # weights in input order, i.e. label by label as drawn.
    support, slot = np.unique(prototype_indices[labels].ravel(), return_inverse=True)
    signal = np.bincount(slot, weights=prototype_values[labels].ravel())

    target_nnz = max(1, int(rng.poisson(config.avg_features_per_example)))
    background_needed = max(0, target_nnz - support.size)
    if background_needed:
        background = rng.integers(0, config.feature_dim, size=background_needed)
        indices = np.union1d(support, background)
        values = np.zeros(indices.size, dtype=np.float64)
        values[indices.searchsorted(support)] = signal
    else:
        indices, values = support, signal
    values += rng.normal(scale=config.noise_scale, size=values.shape)
    # Keep the vector non-degenerate: ensure at least one non-zero value
    # (1e-8 is ``np.allclose``'s tolerance against zero).
    if np.all(np.abs(values) <= 1e-8):
        values[0] = 1.0

    features = SparseVector(indices=indices, values=values, dimension=config.feature_dim)
    return SparseExample(features=features, labels=labels)


def generate_synthetic_xc(config: SyntheticXCConfig) -> SyntheticXCDataset:
    """Generate a synthetic extreme-classification dataset.

    All randomness comes from one generator, ``derive_rng(config.seed,
    stream=61)``, drawn in a fixed order: for each label in turn its
    prototype ids (``choice(feature_dim, prototype_nnz, replace=False)``)
    and then its values (``abs(normal(1.0, 0.25))``); then the training
    examples and then the test examples, each as :func:`_generate_example`
    describes.  The output is a pure function of ``config``, and the same
    bits, example for example, as when the labels came from one
    ``Generator.choice`` call each and the features from a per-example dict
    (``tests/data/synthetic_parent_digest.json`` pins four configurations).
    """
    rng = derive_rng(config.seed, stream=61)
    label_probs = _zipf_probabilities(config.label_dim, config.zipf_exponent)
    label_sampler = _LabelSampler(label_probs)

    prototype_nnz = min(config.prototype_nnz, config.feature_dim)
    prototype_indices = np.empty((config.label_dim, prototype_nnz), dtype=np.int64)
    prototype_values = np.empty((config.label_dim, prototype_nnz), dtype=np.float64)
    for label in range(config.label_dim):
        prototype_indices[label] = rng.choice(
            config.feature_dim, size=prototype_nnz, replace=False
        )
        prototype_values[label] = np.abs(rng.normal(loc=1.0, scale=0.25, size=prototype_nnz))

    def example() -> SparseExample:
        return _generate_example(
            rng, config, label_sampler, prototype_indices, prototype_values
        )

    train = [example() for _ in range(config.num_train)]
    test = [example() for _ in range(config.num_test)]
    return SyntheticXCDataset(
        config=config,
        train=train,
        test=test,
        prototype_indices=prototype_indices,
        prototype_values=prototype_values,
        label_probabilities=label_probs,
    )


def delicious_like_config(scale: float = 1.0 / 256.0, seed: int = 0) -> SyntheticXCConfig:
    """A scaled-down Delicious-200K-like configuration.

    Delicious-200K: 782,585 features (0.038 % dense, ~75 nnz), 205,443 labels,
    196,606 train / 100,095 test examples.  ``scale`` shrinks the dimensions
    and sizes proportionally so experiments fit on a laptop; the default
    1/256 gives roughly 3K features x 800 labels.
    """
    scale = float(scale)
    if not 0 < scale <= 1:
        raise ValueError("scale must lie in (0, 1]")
    feature_dim = max(64, int(782_585 * scale))
    # Keep the per-example density in the same regime as the real dataset
    # (a fraction of a percent at full scale); at heavily scaled-down feature
    # dimensions cap the non-zeros so examples stay genuinely sparse.
    avg_nnz = int(min(75, max(16, feature_dim // 16)))
    return SyntheticXCConfig(
        feature_dim=feature_dim,
        label_dim=max(32, int(205_443 * scale)),
        num_train=max(256, int(196_606 * scale)),
        num_test=max(64, int(100_095 * scale)),
        avg_features_per_example=avg_nnz,
        avg_labels_per_example=3.0,
        prototype_nnz=min(24, max(8, avg_nnz // 2)),
        zipf_exponent=1.05,
        noise_scale=0.25,
        seed=seed,
        name=f"delicious-200k-like(scale={scale:g})",
    )


def amazon_like_config(scale: float = 1.0 / 512.0, seed: int = 0) -> SyntheticXCConfig:
    """A scaled-down Amazon-670K-like configuration.

    Amazon-670K: 135,909 features (0.055 % dense, ~75 nnz), 670,091 labels,
    490,449 train / 153,025 test examples.
    """
    scale = float(scale)
    if not 0 < scale <= 1:
        raise ValueError("scale must lie in (0, 1]")
    feature_dim = max(64, int(135_909 * scale))
    avg_nnz = int(min(75, max(16, feature_dim // 16)))
    return SyntheticXCConfig(
        feature_dim=feature_dim,
        label_dim=max(32, int(670_091 * scale)),
        num_train=max(256, int(490_449 * scale)),
        num_test=max(64, int(153_025 * scale)),
        avg_features_per_example=avg_nnz,
        avg_labels_per_example=5.0,
        prototype_nnz=min(24, max(8, avg_nnz // 2)),
        zipf_exponent=1.15,
        noise_scale=0.25,
        seed=seed,
        name=f"amazon-670k-like(scale={scale:g})",
    )
