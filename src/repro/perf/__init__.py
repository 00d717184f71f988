"""Real wall-clock measurement primitives.

* :class:`~repro.perf.phases.PhaseTimer` — cumulative ``perf_counter``
  seconds per named training phase (hash, probe/select, gather-GEMM,
  optimiser, rebuild).
* :class:`~repro.perf.latency.LatencyHistogram` and
  :class:`~repro.perf.latency.ThroughputMeter` — per-request serving latency
  and throughput for the model server in :mod:`repro.serving`.

Everything here times the running code on this host; nothing models a
device the host does not have.
"""

from repro.perf.latency import LatencyHistogram, ThroughputMeter
from repro.perf.phases import PhaseTimer

__all__ = [
    "PhaseTimer",
    "LatencyHistogram",
    "ThroughputMeter",
]
