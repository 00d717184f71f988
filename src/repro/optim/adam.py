"""Adam optimiser with sparse block updates.

The dense ``step`` is textbook Adam (Kingma & Ba, 2014).  ``sparse_step``
applies the same update rule to an arbitrary ``rows x cols`` block of a
parameter, touching only that block's first/second-moment state — this is
what lets SLIDE keep per-update cost proportional to the number of *active*
weights.

The moments are :data:`~repro.types.FLOAT` (float32), like the parameters
they follow, so a block update moves half the bytes float64 state would.
Every step of the rule runs in the dtype of the gradient it is given.

Bias correction uses the global step count.  Strictly speaking lazily-updated
Adam is a slight approximation of dense Adam (untouched coordinates do not
decay their moments), matching the behaviour of the reference SLIDE code and
of sparse Adam implementations in mainstream frameworks.

``update_clip`` (optional, off by default) bounds each parameter change to
``update_clip * learning_rate`` per element.  Lock-free multi-process
training shares the ``m``/``v`` buffers across workers; a racing gather/
scatter can pair a large first moment with a second moment whose
accumulation was lost, and ``m_hat / (sqrt(v_hat) + eps)`` is unbounded in
that state.  Clipping caps the damage of a torn moment pair at bounded
HOGWILD noise without touching the exact-Adam default path.
"""

from __future__ import annotations

import numpy as np

from repro.config import OptimizerConfig
from repro.optim.base import Optimizer
from repro.types import FloatArray

__all__ = ["AdamOptimizer"]


class AdamOptimizer(Optimizer):
    """Adam with support for block-sparse updates."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        update_clip: float | None = None,
    ) -> None:
        super().__init__(learning_rate=learning_rate)
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise ValueError("beta1/beta2 must lie in [0, 1)")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if update_clip is not None and update_clip <= 0:
            raise ValueError("update_clip must be positive when provided")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.update_clip = None if update_clip is None else float(update_clip)

    def _state_slots(self) -> tuple[str, ...]:
        return ("m", "v")

    def to_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            name="adam",
            learning_rate=self.learning_rate,
            beta1=self.beta1,
            beta2=self.beta2,
            epsilon=self.epsilon,
            update_clip=self.update_clip,
        )

    def _bias_correction(self) -> tuple[float, float]:
        t = max(self.step_count, 1)
        return 1.0 - self.beta1**t, 1.0 - self.beta2**t

    def _update_chunk(
        self, param: FloatArray, state: dict[str, FloatArray], grad: FloatArray
    ) -> None:
        # Textbook order — m, v, m_hat, v_hat, lr * m_hat / (sqrt(v_hat) + eps)
        # — with every intermediate written into one of two scratch arrays.
        m, v = state["m"], state["v"]
        delta = np.multiply(grad, 1.0 - self.beta1)
        m *= self.beta1
        m += delta
        denom = np.square(grad)
        denom *= 1.0 - self.beta2
        v *= self.beta2
        v += denom
        bc1, bc2 = self._bias_correction()
        np.divide(m, bc1, out=delta)
        delta *= self.learning_rate
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.epsilon
        delta /= denom
        if self.update_clip is not None:
            bound = self.update_clip * self.learning_rate
            np.clip(delta, -bound, bound, out=delta)
        param -= delta
