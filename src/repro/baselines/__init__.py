"""Baselines the paper compares against.

* :class:`~repro.baselines.dense.DenseNetwork` — full-softmax dense training,
  the mathematical equivalent of the TensorFlow CPU/GPU baselines (identical
  per-iteration convergence).
* :class:`~repro.baselines.sampled_softmax.SampledSoftmaxNetwork` — the
  static-sampling Sampled Softmax heuristic (Jean et al., 2015) that Figure 7
  shows converging to a worse accuracy than SLIDE's adaptive sampling.
"""

from repro.baselines.dense import DenseNetwork, DenseNetworkConfig
from repro.baselines.sampled_softmax import SampledSoftmaxNetwork, SampledSoftmaxConfig

__all__ = [
    "DenseNetwork",
    "DenseNetworkConfig",
    "SampledSoftmaxNetwork",
    "SampledSoftmaxConfig",
]
