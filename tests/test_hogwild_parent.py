"""The per-sample training paths against their parent commit.

``tests/data/hogwild_parent_steps.json`` holds what the commit before the
per-sample selection moved onto the batched probe did: a ``256 -> 48 LSH
relu -> 512 LSH softmax`` network trained with ``hogwild=True`` (the
paper's execution model and ``SlideTrainer``'s default) and with the
averaged per-sample synchronous loop.  HOGWILD now runs the training kernel
on one-row blocks; the averaged loop lives on as the test-side reference in
``per_sample_reference.py``.  The cases cover the three sampling
strategies, both insertion policies with buckets small enough to overflow
(so reservoir draws land in full buckets), scheduled rebuilds and one full
``rebuild_all_tables`` on a populated index.  A sha256 of every selected
active set, the work counters and the index statistics come back exactly;
the fixture is float64 and the run float32, so losses and strided
parameters are pinned to small multiples of float32 eps.
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
import per_sample_reference
from repro.core.network import SlideNetwork
from repro.datasets.synthetic import SyntheticXCConfig, generate_synthetic_xc
from repro.kernels import fused
from repro.types import SparseBatch

PARENT_STEPS = Path(__file__).parent / "data" / "hogwild_parent_steps.json"
DIM, HIDDEN, CLASSES = 256, 48, 512
STEPS, BATCH = 12, 16
# Every ``WEIGHT_STRIDE``-th weight and ``BIAS_STRIDE``-th bias (flat order).
WEIGHT_STRIDE = 17
BIAS_STRIDE = 3
EPS32 = np.finfo(np.float32).eps
# The fixture is float64; the run is float32 end to end.  Worst measured:
# losses 2.1e-8 relative (0.2 eps), strided parameters 1.1e-7 absolute
# (0.9 eps).
LOSS_RTOL = 4 * EPS32
PARAM_ATOL = 8 * EPS32

# name -> (hogwild, output (strategy, policy, family), hidden (strategy, policy, family))
CASES = {
    "hogwild-vanilla-fifo": (
        True, ("vanilla", "fifo", "simhash"), ("topk", "reservoir", "dwta")
    ),
    "hogwild-threshold-reservoir": (
        True, ("hard_threshold", "reservoir", "simhash"), ("vanilla", "fifo", "simhash")
    ),
    "hogwild-topk-reservoir": (
        True, ("topk", "reservoir", "dwta"), ("hard_threshold", "reservoir", "simhash")
    ),
    "per-sample-sync-vanilla-reservoir": (
        False, ("vanilla", "reservoir", "simhash"), ("topk", "fifo", "dwta")
    ),
}


def layer(size: int, activation: str, spec: tuple, k: int, l: int, bucket: int, **sampling):
    strategy, policy, family = spec
    return LayerConfig(
        size=size,
        activation=activation,
        lsh=LSHConfig(
            hash_family=family, k=k, l=l, bucket_size=bucket, insertion_policy=policy
        ),
        sampling=SamplingConfig(strategy=strategy, **sampling),
        rebuild=RebuildScheduleConfig(initial_period=4, decay=0.2),
    )


def run(case: str, monkeypatch) -> dict:
    """``STEPS`` Adam steps; a full table rebuild after the sixth."""
    hogwild, output_spec, hidden_spec = CASES[case]
    data = generate_synthetic_xc(
        SyntheticXCConfig(
            feature_dim=DIM,
            label_dim=CLASSES,
            num_train=STEPS * BATCH,
            num_test=1,
            avg_features_per_example=20,
            prototype_nnz=10,
            seed=11,
        )
    )
    # 48 neurons in 4-9 buckets of 4, and 512 in 16 buckets of 8: both overflow.
    hidden_k = 1 if hidden_spec[2] == "dwta" else 2
    hidden = layer(
        HIDDEN, "relu", hidden_spec, k=hidden_k, l=6, bucket=4,
        target_active=16, min_active=8, hard_threshold=2,
    )
    output = layer(
        CLASSES, "softmax", output_spec, k=4 if output_spec[2] == "simhash" else 2,
        l=8, bucket=8, target_active=24, min_active=12, hard_threshold=2,
    )
    network = SlideNetwork(
        SlideNetworkConfig(input_dim=DIM, layers=(hidden, output), seed=5)
    )
    optimizer = network.build_optimizer(
        TrainingConfig(optimizer=OptimizerConfig(name="adam", learning_rate=2e-3))
    )

    active: list[np.ndarray] = []
    select = fused.select_active_batch

    def recording_select(*args, **kwargs):
        selections = select(*args, **kwargs)
        active.extend(ids.astype(np.int64) for ids, _, _ in selections)
        return selections

    monkeypatch.setattr(fused, "select_active_batch", recording_select)
    steps, digests = [], []
    for step in range(STEPS):
        batch = SparseBatch.from_examples(
            data.train[step * BATCH : (step + 1) * BATCH],
            feature_dim=DIM,
            label_dim=CLASSES,
        )
        del active[:]
        if hogwild:
            metrics = network.train_batch(batch, optimizer, hogwild=True)
        else:
            metrics = per_sample_reference.train_step(
                network, batch, optimizer, interleaved=False
            )
        steps.append([metrics["loss"], metrics["active_neurons"], metrics["active_weights"]])
        digests.append(hashlib.sha256(np.concatenate(active).tobytes()).hexdigest())
        if step == STEPS // 2 - 1:
            network.rebuild_all_tables()
    assert all(layer.num_rebuilds >= 2 for layer in network.layers)
    return {
        "steps": steps,
        "active_sha256": digests,
        "weights": [
            layer.weights.ravel()[::WEIGHT_STRIDE].tolist() for layer in network.layers
        ],
        "biases": [layer.biases[::BIAS_STRIDE].tolist() for layer in network.layers],
        "lsh_stats": [layer.lsh_index.stats() for layer in network.layers],
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
    # The eviction counters are newer than the fixture: every stat it holds
    # must match, and the overflowing buckets must show evictions.
    for got_stats, parent_stats in zip(got["lsh_stats"], parent["lsh_stats"], strict=True):
        assert {key: got_stats[key] for key in parent_stats} == parent_stats
        assert got_stats["evictions"] > 0
    steps, expected = np.array(got["steps"]), np.array(parent["steps"])
    np.testing.assert_array_equal(steps[:, 1:], expected[:, 1:])
    np.testing.assert_allclose(steps[:, 0], expected[:, 0], rtol=LOSS_RTOL, atol=0.0)
    for key in ("weights", "biases"):
        for got_layer, expected_layer in zip(got[key], parent[key]):
            np.testing.assert_allclose(got_layer, expected_layer, rtol=0.0, atol=PARAM_ATOL)


def test_the_fixture_overflows_both_policies():
    """The cases exercise what they claim: full buckets under each policy."""
    parent = json.loads(PARENT_STEPS.read_text())
    for case, (_, output_spec, hidden_spec) in CASES.items():
        for stats, spec, size, bucket in zip(
            parent[case]["lsh_stats"], (hidden_spec, output_spec), (HIDDEN, CLASSES), (4, 8)
        ):
            # Fewer stored ids than indexed ones: something did not fit.
            assert stats["mean_items_per_table"] < size, (case, spec)
            assert stats["mean_load_factor"] > 0.5
