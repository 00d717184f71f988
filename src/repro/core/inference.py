"""Inference helpers: top-k prediction and precision@k evaluation.

The paper's accuracy metric on Delicious-200K and Amazon-670K is precision@1
(the standard extreme-classification metric): the fraction of test examples
whose highest-scoring predicted class is one of the example's true labels.

Evaluation scores every output neuron: SLIDE's hash tables accelerate
training, but at evaluation time we want the model's true argmax.  A model
is anything with a ``predict_dense_batch(examples)`` method returning its
``(len(examples), output_dim)`` class scores.  For a
:class:`~repro.core.network.SlideNetwork` that reads only the weight
columns of each example's non-zero features in the first layer and is one
matrix multiply per later layer; no ``(batch, input_dim)`` array is built.
The LSH-backed *serving* counterpart of this module lives in
:mod:`repro.serving.engine`.
"""

from __future__ import annotations

import numpy as np

from repro.types import IntArray, SparseExample

__all__ = [
    "predict_top_k",
    "predict_top_k_batch",
    "evaluate_precision_at_1",
    "evaluate_precision_at_k",
]


def predict_top_k(network, example: SparseExample, k: int = 1) -> IntArray:
    """Indices of the ``k`` highest-scoring classes for ``example``.

    One row of :func:`predict_top_k_batch`.
    """
    return predict_top_k_batch(network, [example], k)[0]


def predict_top_k_batch(
    network, examples: list[SparseExample], k: int = 1
) -> IntArray:
    """Top-``k`` class indices for each example; shape ``(len(examples), k)``.

    Rows are ordered by descending score.  ``k`` larger than the number of
    output classes is clamped (rows then have ``output_dim`` columns), as
    :func:`~repro.utils.topk.top_k_indices` clamps it.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if not examples:
        return np.zeros((0, k), dtype=np.int64)
    scores = network.predict_dense_batch(examples)
    k = min(k, scores.shape[1])
    if k == scores.shape[1]:
        return np.argsort(-scores, axis=1, kind="stable").astype(np.int64)
    # argpartition per row, then sort the kept slice by descending score.
    partition = np.argpartition(scores, -k, axis=1)[:, -k:]
    kept = np.take_along_axis(scores, partition, axis=1)
    order = np.argsort(-kept, axis=1, kind="stable")
    return np.take_along_axis(partition, order, axis=1).astype(np.int64)


def evaluate_precision_at_1(
    network, examples: list[SparseExample], strict: bool = False
) -> float:
    """Precision@1 over ``examples`` (see :func:`evaluate_precision_at_k`)."""
    return evaluate_precision_at_k(network, examples, k=1, strict=strict)


def evaluate_precision_at_k(
    network,
    examples: list[SparseExample],
    k: int = 1,
    strict: bool = False,
    eval_batch_size: int = 256,
) -> float:
    """Precision@k: mean fraction of the top-k predictions that are true labels.

    Examples without labels carry no signal for the metric.  By default they
    are skipped; with ``strict=True`` their presence raises instead of being
    silently dropped, so data-pipeline bugs surface during evaluation.

    ``eval_batch_size`` bounds the ``(chunk, output_dim)`` score block:
    scoring runs in chunks, so memory stays at ``O(eval_batch_size *
    output_dim)`` however many examples are evaluated.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if eval_batch_size <= 0:
        raise ValueError("eval_batch_size must be positive")
    unlabeled = sum(1 for example in examples if example.labels.size == 0)
    if strict and unlabeled:
        raise ValueError(
            f"{unlabeled} of {len(examples)} examples have no labels; "
            "pass strict=False to skip them"
        )
    labeled = [example for example in examples if example.labels.size]
    if not labeled:
        return 0.0
    scores = []
    for start in range(0, len(labeled), eval_batch_size):
        chunk = labeled[start : start + eval_batch_size]
        predictions = predict_top_k_batch(network, chunk, k=k)
        scores.extend(
            np.isin(predictions[row], example.labels).sum() / k
            for row, example in enumerate(chunk)
        )
    return float(np.mean(scores))
