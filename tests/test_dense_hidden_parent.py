"""Per-sample and small-batch training of layers without LSH against a parent.

``tests/data/dense_hidden_parent_steps.json`` holds what a ``256 -> 64 relu
-> 32 relu -> 512 softmax (SimHash)`` network did under ``SlideTrainer``:
its two hidden layers have every row active (``SlideTrainer``'s default
hidden shape, stored column-major), and only the output layer samples.  The
cases cover ``hogwild=True`` (one-row blocks, the trainer's default) and
``hogwild=False`` at batches of 1, 2, 3, 4, 8 and 16, where few-row GEMMs and
single-vector products are the ones that move in the last bits.  A sha256 of
every selected output active set comes back exactly; the fixture is float64
and the run float32, so losses and strided parameters are pinned to small
multiples of float32 eps.

The fixture is re-recorded (``dump_parent_steps``) only by a change that
moves these bits on purpose, and that change states the drift.  The move of
LSH layers to per-sample rows (``PairLayout``) re-recorded it: against the
first recording, losses moved by at most 0.39 float32 eps (relative) and the
strided parameters by 0.50 eps, and every held-out top-1 and served top-5
answer of all seven cases was unchanged.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    RebuildScheduleConfig,
    SamplingConfig,
    SlideNetworkConfig,
    TrainingConfig,
)
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.datasets.synthetic import SyntheticXCConfig, generate_synthetic_xc
from repro.kernels import fused
from repro.types import SparseBatch

PARENT_STEPS = Path(__file__).parent / "data" / "dense_hidden_parent_steps.json"
DIM, CLASSES = 256, 512
STEPS = 10
# Every ``WEIGHT_STRIDE``-th weight and ``BIAS_STRIDE``-th bias (flat order).
WEIGHT_STRIDE = 31
BIAS_STRIDE = 3
EPS32 = np.finfo(np.float32).eps
LOSS_RTOL = 4 * EPS32
PARAM_ATOL = 8 * EPS32

# name -> (hogwild, batch size)
CASES = {
    "hogwild-16": (True, 16),
    **{f"sync-{size}": (False, size) for size in (1, 2, 3, 4, 8, 16)},
}


def run(case: str, monkeypatch) -> dict:
    """``STEPS`` Adam steps through ``SlideTrainer.train_batches``."""
    hogwild, size = CASES[case]
    data = generate_synthetic_xc(
        SyntheticXCConfig(
            feature_dim=DIM,
            label_dim=CLASSES,
            num_train=STEPS * size,
            num_test=1,
            avg_features_per_example=20,
            prototype_nnz=10,
            seed=17,
        )
    )
    output = LayerConfig(
        size=CLASSES,
        activation="softmax",
        lsh=LSHConfig(hash_family="simhash", k=4, l=8, bucket_size=16),
        sampling=SamplingConfig(strategy="vanilla", target_active=24, min_active=12),
        rebuild=RebuildScheduleConfig(initial_period=4, decay=0.2),
    )
    network = SlideNetwork(
        SlideNetworkConfig(
            input_dim=DIM,
            layers=(
                LayerConfig(size=64, activation="relu"),
                LayerConfig(size=32, activation="relu"),
                output,
            ),
            seed=9,
        )
    )
    trainer = SlideTrainer(
        network,
        TrainingConfig(
            batch_size=size,
            optimizer=OptimizerConfig(name="adam", learning_rate=2e-3),
            seed=9,
        ),
        hogwild=hogwild,
    )

    active: list[np.ndarray] = []
    select = fused.select_active_batch

    def recording_select(*args, **kwargs):
        selections = select(*args, **kwargs)
        active.extend(ids.astype(np.int64) for ids, _, _ in selections)
        return selections

    monkeypatch.setattr(fused, "select_active_batch", recording_select)
    batches = (
        SparseBatch.from_examples(
            data.train[step * size : (step + 1) * size],
            feature_dim=DIM,
            label_dim=CLASSES,
        )
        for step in range(STEPS)
    )
    trainer.train_batches(batches)
    assert network.output_layer.num_rebuilds >= 1
    return {
        "steps": [
            [r.loss, r.active_neurons, r.active_weights] for r in trainer.history.records
        ],
        "active_sha256": hashlib.sha256(np.concatenate(active).tobytes()).hexdigest(),
        "weights": [
            np.ascontiguousarray(layer.weights).ravel()[::WEIGHT_STRIDE].tolist()
            for layer in network.layers
        ],
        "biases": [layer.biases[::BIAS_STRIDE].tolist() for layer in network.layers],
    }


def dump_parent_steps() -> None:
    """How the fixture was written (run once, at the parent commit)."""
    dumped = {}
    for case in CASES:
        with pytest.MonkeyPatch.context() as monkeypatch:
            dumped[case] = run(case, monkeypatch)
    PARENT_STEPS.write_text(json.dumps(dumped, separators=(",", ":")) + "\n")


@pytest.mark.parametrize("case", CASES)
def test_parent_steps_reproduced(case, monkeypatch):
    parent = json.loads(PARENT_STEPS.read_text())[case]
    got = run(case, monkeypatch)
    assert got["active_sha256"] == parent["active_sha256"]
    steps, expected = np.array(got["steps"]), np.array(parent["steps"])
    np.testing.assert_array_equal(steps[:, 1:], expected[:, 1:])
    np.testing.assert_allclose(steps[:, 0], expected[:, 0], rtol=LOSS_RTOL, atol=0.0)
    for key in ("weights", "biases"):
        for got_layer, expected_layer in zip(got[key], parent[key], strict=True):
            np.testing.assert_allclose(got_layer, expected_layer, rtol=0.0, atol=PARAM_ATOL)
