"""SLIDE core: sparse layers, network, trainer and inference."""

from repro.core.activations import (
    relu,
    relu_grad,
    sparse_softmax,
    softmax_rows,
)
from repro.core.layer import SlideLayer
from repro.core.network import SlideNetwork, bind_model_arrays, model_arrays
from repro.core.trainer import SlideTrainer, TrainingHistory, IterationRecord
from repro.core.inference import (
    predict_top_k,
    predict_top_k_batch,
    predict_dense_batch,
    evaluate_precision_at_1,
    evaluate_precision_at_k,
)

__all__ = [
    "relu",
    "relu_grad",
    "sparse_softmax",
    "softmax_rows",
    "SlideLayer",
    "SlideNetwork",
    "model_arrays",
    "bind_model_arrays",
    "SlideTrainer",
    "TrainingHistory",
    "IterationRecord",
    "predict_top_k",
    "predict_top_k_batch",
    "predict_dense_batch",
    "evaluate_precision_at_1",
    "evaluate_precision_at_k",
]
