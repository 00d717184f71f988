"""Stochastic gradient descent (optionally with momentum) with sparse blocks."""

from __future__ import annotations

import numpy as np

from repro.config import OptimizerConfig
from repro.optim.base import Optimizer
from repro.types import FLOAT, FloatArray

__all__ = ["SGDOptimizer"]


class SGDOptimizer(Optimizer):
    """Plain SGD / heavy-ball momentum with block-sparse update support."""

    def __init__(self, learning_rate: float = 1e-2, momentum: float = 0.0) -> None:
        super().__init__(learning_rate=learning_rate)
        if not 0 <= momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        self.momentum = float(momentum)

    def _init_state(self, shape: tuple[int, ...], order: str) -> dict[str, FloatArray]:
        if self.momentum == 0.0:
            return {}
        return {"velocity": np.zeros(shape, dtype=FLOAT, order=order)}

    def to_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            name="sgd",
            learning_rate=self.learning_rate,
            momentum=self.momentum,
        )

    def _update_chunk(
        self, param: FloatArray, state: dict[str, FloatArray], grad: FloatArray
    ) -> None:
        if self.momentum != 0.0:
            velocity = state["velocity"]
            velocity *= self.momentum
            velocity += grad
            grad = velocity
        param -= self.learning_rate * grad
