"""Parallelism substrate.

**Real process parallelism** — :mod:`repro.parallel.trainer` trains with
``N`` worker *processes* (:mod:`repro.parallel.worker`) updating parameters
in a shared-memory :mod:`~repro.parallel.store` lock-free, each with a
private LSH index, scheduled by a process-free
:mod:`~repro.parallel.supervisor`.  This is the execution model behind the
paper's Figure 9 / Table 2 claims, measured by
``benchmarks/bench_fig9_scalability.py``.  Update conflicts between
workers are measured, not modelled: a shared per-neuron writer bitmask
feeds :class:`ProcessConflictStats`.  (The serving path's worker threads
live in :class:`repro.serving.pool.EnginePool`.)
"""

from repro.parallel.store import SharedParamStore
from repro.parallel.trainer import (
    ProcessConflictStats,
    ProcessHogwildTrainer,
    ProcessTrainingReport,
    WorkerStats,
)

__all__ = [
    "SharedParamStore",
    "ProcessHogwildTrainer",
    "ProcessTrainingReport",
    "ProcessConflictStats",
    "WorkerStats",
]
