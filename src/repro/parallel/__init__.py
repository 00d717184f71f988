"""Parallelism substrate.

**Real process parallelism** — :mod:`repro.parallel.sharedmem` places the
model's parameters (and optimiser moments) in ``multiprocessing``
shared-memory blocks and trains with ``N`` worker *processes* performing
lock-free asynchronous updates, each owning a private LSH index.  This is
the execution model behind the paper's Figure 9 / Table 2 scalability
claims; ``benchmarks/bench_fig9_scalability.py`` measures it for real.

:mod:`repro.parallel.conflicts` quantifies update overlap between concurrent
sparse updates.  (The serving path's worker threads live in
:class:`repro.serving.pool.EnginePool`.)
"""

from repro.parallel.conflicts import ConflictReport, analyze_update_conflicts
from repro.parallel.sharedmem import (
    ProcessConflictStats,
    ProcessHogwildTrainer,
    ProcessTrainingReport,
    SharedParamStore,
    WorkerStats,
)

__all__ = [
    "ConflictReport",
    "analyze_update_conflicts",
    "SharedParamStore",
    "ProcessHogwildTrainer",
    "ProcessTrainingReport",
    "ProcessConflictStats",
    "WorkerStats",
]
