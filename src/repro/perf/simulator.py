"""Wall-clock simulation: join measured per-iteration work with device profiles.

Given a training history (per-iteration loss/accuracy plus the *measured*
active-neuron and active-weight counts) and a device profile, the simulator
produces the cumulative time axis used by the paper's time-vs-accuracy and
scalability figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.perf.cost_model import WorkloadCounts
from repro.perf.devices import DeviceProfile

if TYPE_CHECKING:
    from repro.core.trainer import TrainingHistory

__all__ = ["SimulatedRun", "WallClockSimulator"]


@dataclass
class SimulatedRun:
    """A time-vs-accuracy series attributed to one device profile."""

    label: str
    iterations: np.ndarray
    cumulative_seconds: np.ndarray
    accuracies: np.ndarray
    losses: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def time_to_accuracy(self, target: float) -> float | None:
        """First simulated time at which ``target`` accuracy is reached."""
        reached = np.flatnonzero(self.accuracies >= target)
        if reached.size == 0:
            return None
        return float(self.cumulative_seconds[reached[0]])

    def convergence_time(self, fraction_of_best: float = 0.98) -> float:
        """Time to reach ``fraction_of_best`` of the run's best accuracy."""
        if self.accuracies.size == 0:
            return 0.0
        target = float(self.accuracies.max()) * fraction_of_best
        time = self.time_to_accuracy(target)
        return float(self.cumulative_seconds[-1]) if time is None else time

    def final_accuracy(self) -> float:
        return float(self.accuracies[-1]) if self.accuracies.size else 0.0


class WallClockSimulator:
    """Attributes wall-clock time to per-iteration workloads."""

    def __init__(self, profile: DeviceProfile, cores: int | None = None) -> None:
        self.profile = profile
        self.cores = cores

    def iteration_time(self, work: WorkloadCounts) -> float:
        """Seconds one iteration of ``work`` takes on this device."""
        return self.profile.iteration_seconds(work, cores=self.cores)

    def simulate(
        self,
        label: str,
        per_iteration_work: list[WorkloadCounts],
        accuracies: list[float],
        losses: list[float] | None = None,
    ) -> SimulatedRun:
        """Build a :class:`SimulatedRun` from aligned work/accuracy series."""
        if len(per_iteration_work) != len(accuracies):
            raise ValueError("work and accuracy series must have the same length")
        times = np.array([self.iteration_time(w) for w in per_iteration_work])
        return SimulatedRun(
            label=label,
            iterations=np.arange(1, len(per_iteration_work) + 1),
            cumulative_seconds=np.cumsum(times),
            accuracies=np.asarray(accuracies, dtype=np.float64),
            losses=np.asarray(losses, dtype=np.float64) if losses is not None else np.zeros(0),
        )

    def simulate_from_history(
        self,
        label: str,
        history: TrainingHistory,
        work_for_record,
    ) -> SimulatedRun:
        """Simulate from a :class:`TrainingHistory`.

        ``work_for_record`` maps an :class:`IterationRecord` to a
        :class:`WorkloadCounts`; the accuracy series carries forward the last
        evaluated accuracy for iterations without an evaluation.
        """
        works = [work_for_record(record) for record in history.records]
        accuracies: list[float] = []
        last = 0.0
        for record in history.records:
            if record.accuracy is not None:
                last = record.accuracy
            accuracies.append(last)
        losses = [record.loss for record in history.records]
        return self.simulate(label, works, accuracies, losses)
