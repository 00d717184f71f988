"""The serving read path: one-gather LSH probe and sparse-input first layer.

Three contracts:

1. **Parent answers** — ``tests/data/engine_parent_answers.json`` holds what
   the commit before the shared-store / sparse-first-layer change answered
   (``mid_size_engine`` below, two seeds, all 256 held-out examples in one
   ``predict_batch`` call).  The engine must reproduce it at every batch
   composition, and — which the parent did not — bit for bit the same at
   each of them.
2. **Dense oracle** — ``SlideLayer.sparse_forward_batch`` equals
   ``dense_forward_batch(dense_features(...))``, examples without a single
   non-zero feature included, and each of its rows is bit for bit the row
   its example gets alone, in batches of up to 64 whose nnz cross every
   pad length up to 320.
3. **Nothing raises** — a seeded sweep over odd batches, odd indexes and
   every engine setting: a request the pool hands to ``predict_batch`` must
   come back as ``k`` ids with non-increasing scores.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    SamplingConfig,
    SlideNetworkConfig,
    TrainingConfig,
)
from repro.core.layer import SPARSE_PAD
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.datasets.synthetic import SyntheticXCConfig, generate_synthetic_xc
from repro.serving.engine import SparseInferenceEngine
from repro.types import SparseExample, SparseVector, dense_features

PARENT_ANSWERS = Path(__file__).parent / "data" / "engine_parent_answers.json"
SEEDS = (5, 6)
TOP_K = 5
EPS32 = np.finfo(np.float32).eps
# The fixture's float64 scores against float32 weights trained in float32:
# worst measured 1.0e-6 relative (~8 eps); the bound is 64 eps.
PARENT_SCORE_RTOL = 64 * EPS32
# The sparse first layer and the dense oracle sum up to 40 float32 products
# of O(1) in two orders: worst measured 2.4e-7 (2 eps); the bound is 32 eps.
SUM_ATOL = 32 * EPS32


def mid_size_engine(seed: int) -> tuple[SparseInferenceEngine, list[SparseExample]]:
    """A briefly trained ``1024 -> 64 relu -> 2048 softmax`` engine and 256 requests.

    Training leaves dirty neurons, so constructing the engine also runs the
    code-diff ``update`` on the tables before the first probe.
    """
    data = generate_synthetic_xc(
        SyntheticXCConfig(
            feature_dim=1024,
            label_dim=2048,
            num_train=256,
            num_test=256,
            avg_features_per_example=24,
            prototype_nnz=12,
            seed=seed,
        )
    )
    output = LayerConfig(
        size=2048,
        activation="softmax",
        lsh=LSHConfig(hash_family="simhash", k=6, l=16, bucket_size=64),
        sampling=SamplingConfig(strategy="vanilla", target_active=64, min_active=16),
    )
    network = SlideNetwork(
        SlideNetworkConfig(
            input_dim=1024,
            layers=(LayerConfig(size=64, activation="relu"), output),
            seed=seed,
        )
    )
    training = TrainingConfig(
        batch_size=32,
        epochs=1,
        optimizer=OptimizerConfig(name="adam", learning_rate=1e-3),
        eval_every=0,
        seed=seed,
    )
    SlideTrainer(network, training, hogwild=False).train(data.train)
    return SparseInferenceEngine(network, active_budget=128), list(data.test)


def answers(engine, examples, composition: int) -> list:
    """``predict_batch`` over ``examples`` in calls of ``composition`` requests."""
    out = []
    for start in range(0, len(examples), composition):
        out += engine.predict_batch(examples[start : start + composition], k=TOP_K)
    return out


def dump_parent_answers() -> None:
    """How the fixture was written (run once, at the parent commit)."""
    dumped = {}
    for seed in SEEDS:
        engine, examples = mid_size_engine(seed)
        served = answers(engine, examples, len(examples))
        dumped[str(seed)] = {
            "class_ids": [p.class_ids.tolist() for p in served],
            "scores": [p.scores.tolist() for p in served],
            "mode": [p.mode for p in served],
            "candidates_scored": [p.candidates_scored for p in served],
        }
    PARENT_ANSWERS.write_text(json.dumps(dumped, separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# 1. Parent answers, at every batch composition
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_parent_answers_reproduced_and_independent_of_batch_composition(seed):
    parent = json.loads(PARENT_ANSWERS.read_text())[str(seed)]
    engine, examples = mid_size_engine(seed)
    whole = answers(engine, examples, len(examples))
    for composition in (1, 3, 32, len(examples)):
        served = answers(engine, examples, composition)
        assert [p.class_ids.tolist() for p in served] == parent["class_ids"]
        assert [p.mode for p in served] == parent["mode"]
        assert [p.candidates_scored for p in served] == parent["candidates_scored"]
        np.testing.assert_allclose(
            [p.scores for p in served], parent["scores"], rtol=PARENT_SCORE_RTOL, atol=0
        )
        # Bit for bit the same whoever shared the batch (fails at the parent,
        # whose first-layer GEMM rounds differently at B = 1, 3 and 256).
        for alone, together in zip(served, whole):
            assert alone.scores.tobytes() == together.scores.tobytes()


# ----------------------------------------------------------------------
# 2. The sparse-input layer against the dense oracle
# ----------------------------------------------------------------------
def random_examples(rng, dim: int, count: int) -> list[SparseExample]:
    """Empty, one-feature, full and ordinary examples, shuffled together."""
    examples = []
    for _ in range(count):
        nnz = int(rng.choice([0, 1, dim, rng.integers(2, max(dim // 2, 3))]))
        indices = np.sort(rng.choice(dim, size=nnz, replace=False))
        features = SparseVector(indices, rng.normal(size=nnz), dimension=dim)
        examples.append(SparseExample(features=features, labels=np.zeros(0, dtype=np.int64)))
    return examples


def hidden_of(layer, examples) -> np.ndarray:
    return layer.sparse_forward_batch(
        [e.features.indices for e in examples], [e.features.values for e in examples]
    )


@pytest.mark.parametrize("activation", ["relu", "linear", "softmax"])
@pytest.mark.parametrize(
    "fan_in, size, max_batch",
    # The wide layer's nnz run to 300, across every pad length up to 320.
    [(40, 12, 8), (300, 48, 64)],
)
def test_sparse_forward_batch_equals_the_dense_oracle(activation, fan_in, size, max_batch):
    from repro.core.layer import SlideLayer

    rng = np.random.default_rng(31)
    layer = SlideLayer(
        fan_in=fan_in, config=LayerConfig(size=size, activation=activation), seed=1
    )
    layer.biases[:] = rng.normal(size=size)
    pads = set()
    for _ in range(50):
        examples = random_examples(rng, fan_in, int(rng.integers(1, max_batch + 1)))
        pads.update(-(-e.features.nnz // SPARSE_PAD) for e in examples)
        got = hidden_of(layer, examples)
        oracle = layer.dense_forward_batch(dense_features(examples, fan_in))
        # Over 300 products the worst measured is 40 eps; the bound scales
        # SUM_ATOL with the number of products (240 eps).
        np.testing.assert_allclose(got, oracle, rtol=0, atol=SUM_ATOL * fan_in / 40)
        # Bit for bit its lone answer, whatever the batch-mates' pads.
        for row, example in enumerate(examples):
            assert got[row].tobytes() == hidden_of(layer, [example])[0].tobytes()
    assert len(pads) >= min(fan_in // SPARSE_PAD, 6)
    # No feature at all: the activation of the bias, not a neighbour's sum.
    nothing = [SparseExample(SparseVector([], [], fan_in), labels=[])] * 3
    np.testing.assert_array_equal(
        hidden_of(layer, nothing), layer.dense_forward_batch(np.zeros((3, fan_in)))
    )


# ----------------------------------------------------------------------
# 3. Nothing raises
# ----------------------------------------------------------------------
def small_network(seed: int, hidden: tuple[LayerConfig, ...], l: int) -> SlideNetwork:
    output = LayerConfig(
        size=96,
        activation="softmax",
        lsh=LSHConfig(hash_family="simhash", k=5, l=l, bucket_size=8),
        sampling=SamplingConfig(strategy="vanilla", target_active=12, min_active=8),
    )
    return SlideNetwork(
        SlideNetworkConfig(input_dim=48, layers=(*hidden, output), seed=seed)
    )


NETWORKS = {
    "one_hidden": ((LayerConfig(size=16, activation="relu"),), 6),
    "two_hidden": (
        (LayerConfig(size=16, activation="relu"), LayerConfig(size=10, activation="relu")),
        6,
    ),
    "linear_first": ((LayerConfig(size=16, activation="linear"),), 6),
    "single_table": ((LayerConfig(size=16, activation="relu"),), 1),
    "no_hidden": ((), 6),
}
# active_budget, rerank, what happens to the index before serving.
SETTINGS = [
    (None, True, "built"),
    (16, True, "built"),
    (3, True, "built"),  # below the _MIN_CANDIDATE_FACTOR * k floor
    (16, False, "built"),
    (16, True, "cleared"),  # empty index: every row starves into dense_fallback
    (16, True, "rebuilt"),  # clear() + build: released rows reused
    (None, True, "sparse"),  # 4 of 96 neurons indexed: most rows starve
]


@pytest.mark.parametrize("name", NETWORKS)
def test_no_batch_makes_predict_batch_raise(name):
    hidden, tables = NETWORKS[name]
    rng = np.random.default_rng(17)
    batches = 0
    modes = set()
    for setting, (budget, rerank, state) in enumerate(SETTINGS):
        network = small_network(setting, hidden, tables)
        engine = SparseInferenceEngine(network, active_budget=budget)
        engine.rerank = rerank
        index = network.output_layer.lsh_index
        if state != "built":
            index.clear()
        if state == "rebuilt":
            index.build(network.output_layer.weights)
        if state == "sparse":
            index.build(network.output_layer.weights[:4])
        for _ in range(8):
            examples = random_examples(rng, 48, int(rng.integers(1, 12)))
            k = int(rng.integers(1, 6))
            predictions = engine.predict_batch(examples, k=k)
            batches += 1
            assert len(predictions) == len(examples)
            for prediction in predictions:
                modes.add(prediction.mode)
                assert prediction.class_ids.shape == (k,) == prediction.scores.shape
                assert np.all(np.diff(prediction.scores) <= 0)
                assert 0 <= prediction.class_ids.min() <= prediction.class_ids.max() < 96
            if hidden:
                features = dense_features(examples, 48)
                for layer in network.layers[:-1]:
                    features = layer.dense_forward_batch(features)
                got = hidden_of(network.layers[0], examples)
                for layer in network.layers[1:-1]:
                    got = layer.dense_forward_batch(got)
                np.testing.assert_allclose(got, features, rtol=0, atol=SUM_ATOL)
    assert batches * len(NETWORKS) >= 200
    assert {"sparse", "sparse_norerank", "dense_fallback"} <= modes
