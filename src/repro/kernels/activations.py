"""Activation functions used by SLIDE layers.

The only non-standard piece is the *sparse softmax*: SLIDE normalises the
softmax over the **active** output neurons only, so the partition function is
a sum over the sampled set rather than all classes (paper Section 3.1).
"""

from __future__ import annotations

import numpy as np

from repro.types import FloatArray

__all__ = [
    "relu",
    "relu_grad",
    "hidden_activation_grad",
    "sparse_softmax",
    "softmax_rows",
    "softmax_rows_inplace",
]


def relu(z: FloatArray) -> FloatArray:
    """Rectified linear unit, element-wise."""
    return np.maximum(z, 0.0)


def relu_grad(z: FloatArray) -> FloatArray:
    """Derivative of ReLU with respect to its pre-activation ``z`` (same dtype)."""
    return (z > 0.0).astype(z.dtype)


def hidden_activation_grad(name: str, pre_activation: FloatArray) -> FloatArray:
    """Element-wise activation derivative used when backpropagating through a
    hidden layer.

    Hidden layers are ``relu`` or ``linear``; a hidden ``softmax`` has a
    non-diagonal Jacobian that the sparse message-passing backward pass does
    not implement, so it is rejected loudly instead of silently gating
    deltas with the wrong derivative.
    """
    if name == "relu":
        return relu_grad(pre_activation)
    if name == "linear":
        return np.ones_like(pre_activation)
    raise ValueError(
        f"backpropagation through a hidden {name!r} layer is not supported"
    )


def sparse_softmax(logits: FloatArray) -> FloatArray:
    """Softmax normalised over the provided (active) logits only.

    Numerically stabilised by subtracting the max logit.  An empty input
    returns an empty array.  The result keeps the input's float dtype.
    """
    logits = np.asarray(logits)
    if logits.size == 0:
        return logits.copy()
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def softmax_rows(logits: FloatArray) -> FloatArray:
    """Row-wise stabilised softmax over a float ``(batch, classes)`` matrix.

    The batched counterpart of :func:`sparse_softmax`.  Returns a new
    array: :func:`softmax_rows_inplace` applied to a copy, so both forms
    share one formula.
    """
    return softmax_rows_inplace(np.array(logits))


def softmax_rows_inplace(logits: FloatArray) -> FloatArray:
    """:func:`softmax_rows` computed in place over ``logits``, which it returns.

    The batched dense prediction path applies it to the GEMM output it
    owns, so scoring holds one output-sized array.  Each step writes the
    same bits as its out-of-place form.
    """
    if logits.size:
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=1, keepdims=True)
    return logits
