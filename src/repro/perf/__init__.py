"""Real wall-clock measurement primitives.

* :class:`~repro.perf.phases.PhaseTimer` — cumulative ``perf_counter``
  seconds per named training phase (hash, probe/select, gather-GEMM,
  optimiser, rebuild).
* :class:`~repro.perf.latency.LatencyHistogram` — the per-request latency
  record of :mod:`repro.serving`: exact count, mean, min and max, and
  percentiles from a bounded uniform reservoir of raw samples.

Everything here times the running code on this host; nothing models a
device the host does not have.
"""

from repro.perf.latency import LatencyHistogram
from repro.perf.phases import PhaseTimer

__all__ = [
    "PhaseTimer",
    "LatencyHistogram",
]
