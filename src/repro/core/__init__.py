"""SLIDE core: sparse layers, network, trainer and inference."""

from repro.core.layer import SlideLayer
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer, TrainingHistory, IterationRecord
from repro.core.inference import (
    predict_top_k,
    predict_top_k_batch,
    evaluate_precision_at_1,
    evaluate_precision_at_k,
)

__all__ = [
    "SlideLayer",
    "SlideNetwork",
    "SlideTrainer",
    "TrainingHistory",
    "IterationRecord",
    "predict_top_k",
    "predict_top_k_batch",
    "evaluate_precision_at_1",
    "evaluate_precision_at_k",
]
