"""repro — a Python reproduction of SLIDE (Sub-LInear Deep learning Engine).

SLIDE (Chen et al., MLSys 2020) trains very wide fully connected networks by
replacing dense matrix multiplication with adaptive sparsity: Locality
Sensitive Hash tables over each layer's neurons select, per input, the small
set of neurons worth computing, and backpropagation touches only those.

Public API overview
-------------------
* :mod:`repro.core` — ``SlideNetwork`` / ``SlideTrainer``, the paper's
  contribution.
* :mod:`repro.state` — model state: the one naming of a model's arrays and
  versioned, checksum-verified checkpoints (``CheckpointStore``), shared by
  training, resume, shared memory and serving.
* :mod:`repro.hashing`, :mod:`repro.lsh`, :mod:`repro.sampling` — the LSH
  substrate (hash families, bounded-bucket tables, sampling strategies).
* :mod:`repro.kernels` — batched sparse kernels: whole-micro-batch LSH
  hashing and the fused union-active-set forward/backward used by
  synchronous training and serving.
* :mod:`repro.baselines` — dense full-softmax and sampled-softmax baselines.
* :mod:`repro.datasets` — synthetic extreme-classification data and the XC
  repository loader.
* :mod:`repro.data` — the streaming pipeline for real XC datasets: one-time
  ingest into memory-mapped CSR shards (``python -m repro.data``), the
  bounded-memory ``ShardedDataset`` and the background ``BatchPrefetcher``.
* :mod:`repro.parallel` — real multi-process HOGWILD training over
  shared-memory parameters (``SharedParamStore`` /
  ``ProcessHogwildTrainer``), conflicts measured from a shared writer mask.
* :mod:`repro.perf` — real wall-clock primitives: the per-phase training
  timer and the serving path's latency record (exact moments, percentiles
  from a raw-sample reservoir).
* :mod:`repro.harness` — machinery the benches share: head-to-head training
  runs, report rendering, measured process scaling and the serving
  accuracy-vs-latency sweep.
* :mod:`repro.serving` — beyond the paper: the LSH-accelerated inference
  engine, micro-batching, a multi-worker engine pool, and an HTTP/JSON
  model server (``repro-serve``).
"""

# Set before the subpackage imports below: they import repro.state, which
# reads it while this package is still initialising.
__version__ = "1.0.0"

from repro.config import (
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    RebuildScheduleConfig,
    SamplingConfig,
    SlideNetworkConfig,
    TrainingConfig,
)
from repro.core import SlideNetwork, SlideTrainer
from repro.types import SparseBatch, SparseExample, SparseVector

__all__ = [
    "__version__",
    "LayerConfig",
    "LSHConfig",
    "OptimizerConfig",
    "RebuildScheduleConfig",
    "SamplingConfig",
    "SlideNetworkConfig",
    "TrainingConfig",
    "SlideNetwork",
    "SlideTrainer",
    "SparseBatch",
    "SparseExample",
    "SparseVector",
]
