"""The hash-table rebuild schedule (paper Section 4.2, heuristic 1).

Recomputing every neuron's hash codes after every gradient step would erase
SLIDE's advantage, so the paper rebuilds the tables on a schedule whose period
grows exponentially: the ``t``-th rebuild happens ``N0 * exp(lambda * (t-1))``
iterations after the previous one.  Early in training, when gradients are
large and neuron weights move quickly, rebuilds are frequent; near
convergence they become rare.
"""

from __future__ import annotations

import math

__all__ = ["ExponentialDecaySchedule"]


class ExponentialDecaySchedule:
    """The paper's exponentially decaying rebuild frequency.

    Parameters
    ----------
    initial_period:
        ``N0`` — iterations before the first rebuild.
    decay:
        ``lambda`` — the decay constant; 0 reduces to a fixed period.
    max_period:
        Upper bound on the gap between consecutive rebuilds.
    """

    def __init__(self, initial_period: int, decay: float = 0.1, max_period: int = 10_000) -> None:
        if initial_period <= 0:
            raise ValueError("initial_period must be positive")
        if decay < 0:
            raise ValueError("decay must be non-negative")
        if max_period < initial_period:
            raise ValueError("max_period must be >= initial_period")
        self.initial_period = int(initial_period)
        self.decay = float(decay)
        self.max_period = int(max_period)
        self._rebuild_count = 0
        self._next = self.initial_period

    def _capped_period(self, rebuild_count: int) -> float:
        """``min(N0 * exp(lambda * t), max_period)`` without overflowing.

        ``math.exp`` raises ``OverflowError`` once the exponent passes ~709;
        on long runs ``decay * rebuild_count`` sails past that even though the
        result is capped at ``max_period`` anyway, so the exponent is clamped
        at the point where the uncapped period already exceeds the cap.
        """
        exponent = self.decay * rebuild_count
        cap_exponent = math.log(max(self.max_period / self.initial_period, 1.0))
        if exponent >= cap_exponent:
            return float(self.max_period)
        return min(self.initial_period * math.exp(exponent), float(self.max_period))

    def current_period(self) -> int:
        """Gap that will follow the *next* rebuild."""
        return int(round(self._capped_period(self._rebuild_count)))

    def should_rebuild(self, iteration: int) -> bool:
        """Return True if a rebuild is due at ``iteration`` (0-based)."""
        return iteration >= self._next

    def record_rebuild(self, iteration: int) -> None:
        """Notify the schedule that a rebuild happened at ``iteration``."""
        self._rebuild_count += 1
        self._next = iteration + self.current_period()

    def next_rebuild_iteration(self) -> int:
        """Iteration at which the next rebuild is due."""
        return self._next

    def state_dict(self) -> dict[str, int]:
        """JSON-safe mutable state, for checkpoint/resume.

        A resumed run must rebuild at the same iterations the original
        would have, or the active sets — and therefore the whole loss
        trajectory — diverge from the point of the first mistimed rebuild.
        """
        return {"next": int(self._next), "rebuild_count": int(self._rebuild_count)}

    def load_state_dict(self, state: dict[str, int]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._next = int(state["next"])
        self._rebuild_count = int(state.get("rebuild_count", 0))

    @property
    def rebuild_count(self) -> int:
        """Number of rebuilds recorded so far."""
        return self._rebuild_count

    def planned_iterations(self, num_rebuilds: int) -> list[int]:
        """The first ``num_rebuilds`` rebuild iterations implied by the schedule.

        Matches the paper's formula: the ``t``-th update happens at iteration
        ``sum_{i=0}^{t-1} N0 * exp(lambda * i)``.
        """
        if num_rebuilds < 0:
            raise ValueError("num_rebuilds must be non-negative")
        iterations = []
        total = 0.0
        for t in range(num_rebuilds):
            total += self._capped_period(t)
            iterations.append(int(round(total)))
        return iterations
