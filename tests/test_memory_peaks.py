"""Peak-memory pins for the LSH build paths and the exact scorer.

``tracemalloc`` sees numpy's buffers, so the peak it reports inside a call,
less what the call leaves allocated, is the call's *transient*: the
temporaries it held at its worst moment.  Every input is allocated before
the measured window opens.

* ``LSHIndex.build`` and a full ``update`` over 8,192 x 128 SimHash rows
  (K=9, L=32) must hold less than one int64 ``(n, L, K)`` code tensor
  (18.0 MiB) of temporaries: codes stay in their one-byte dtype and keys
  are accumulated in place.
* What the built index keeps, less its bucket store and directory, must be
  its one-byte ``(n, L, K)`` code matrix with at most 32 B a row of slack:
  the codes are the index's only per-row state.
* ``SlideNetwork.predict_dense_batch`` must hold no more than one output
  array plus its first layer's gathered weight rows, with a little slack:
  the first layer reads only the weight columns of each example's non-zero
  features, at most ``SPARSE_GATHER_BYTES`` of them at a time, and every
  layer applies its bias and activation in place.
* At the paper's Amazon-670K input width (135,909 features) it must build
  no ``(batch, input_dim)`` array: scoring 512 examples holds less than one
  densified block (265 MiB; 17 MiB measured).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.config import LayerConfig, LSHConfig, SlideNetworkConfig
from repro.core.layer import SPARSE_GATHER_BYTES, SPARSE_PAD
from repro.core.network import SlideNetwork
from repro.lsh.index import LSHIndex
from repro.types import SparseExample, SparseVector

ROWS, DIM, K, L = 8192, 128, 9, 32
INT64_CODE_TENSOR = ROWS * L * K * 8  # bytes: 18.0 MiB


def transient_bytes(call) -> int:
    """Peak traced bytes inside ``call()`` minus the bytes it left allocated."""
    tracemalloc.start()
    try:
        call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current


@pytest.fixture(scope="module")
def weights() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    first = rng.normal(size=(ROWS, DIM)).astype(np.float32)
    second = first + rng.normal(scale=0.5, size=(ROWS, DIM)).astype(np.float32)
    return first, second


def _index() -> LSHIndex:
    return LSHIndex(input_dim=DIM, config=LSHConfig(k=K, l=L, bucket_size=128), seed=1)


def test_build_holds_less_than_one_int64_code_tensor(weights):
    first, _ = weights
    index = _index()
    transient = transient_bytes(lambda: index.build(first))
    assert index.num_items == ROWS
    assert transient < INT64_CODE_TENSOR, f"build transient {transient / 2**20:.1f} MiB"


def test_build_keeps_only_the_codes_per_row(weights):
    first, _ = weights
    index = _index()
    tracemalloc.start()
    try:
        index.build(first)
        resident, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    store = index._store
    tables = sum(
        getattr(store, name).nbytes
        for name in ("slots", "sizes", "seen", "rejections", "evictions")
    )
    tables += index._dir_keys.nbytes + index._dir_rows.nbytes
    per_row = (resident - tables) / ROWS
    assert per_row <= L * K + 32, f"index keeps {per_row:.0f} B a row"


def test_full_update_holds_less_than_one_int64_code_tensor(weights):
    first, second = weights
    index = _index()
    index.build(first)
    ids = np.arange(ROWS, dtype=np.int64)
    moved_before = index.num_moved_entries
    transient = transient_bytes(lambda: index.update(ids, second))
    assert index.num_moved_entries > moved_before
    assert transient < INT64_CODE_TENSOR, f"update transient {transient / 2**20:.1f} MiB"


def test_predict_dense_batch_holds_one_output_array():
    input_dim, labels, batch = 2048, 16384, 256
    rng = np.random.default_rng(1)
    examples = [
        SparseExample(
            features=SparseVector(
                np.sort(rng.choice(input_dim, size=32, replace=False)),
                rng.random(32).astype(np.float32),
                input_dim,
            ),
            labels=np.array([0], dtype=np.int64),
        )
        for _ in range(batch)
    ]
    output = batch * labels * 4
    slack = 1 << 20
    # A hidden layer first, and the wide layer first: its rows would take
    # 512 MiB gathered at once.
    for layers in (
        (
            LayerConfig(size=64, activation="relu"),
            LayerConfig(size=labels, activation="softmax"),
        ),
        (LayerConfig(size=labels, activation="softmax"),),
    ):
        network = SlideNetwork(
            SlideNetworkConfig(input_dim=input_dim, layers=layers, seed=0)
        )
        scores = []
        transient = transient_bytes(
            lambda: scores.append(network.predict_dense_batch(examples))
        )
        gathered = min(batch * SPARSE_PAD * layers[0].size * 4, SPARSE_GATHER_BYTES)
        assert scores[0].shape == (batch, labels)
        assert transient <= output + gathered + slack, (
            f"predict_dense_batch transient {transient / 2**20:.1f} MiB"
        )


def test_predict_dense_batch_never_densifies_a_wide_input():
    input_dim, batch = 135_909, 512
    layers = (
        LayerConfig(size=128, activation="relu"),
        LayerConfig(size=64, activation="softmax"),
    )
    network = SlideNetwork(SlideNetworkConfig(input_dim=input_dim, layers=layers, seed=0))
    rng = np.random.default_rng(2)
    examples = []
    for _ in range(batch):
        indices = np.unique(rng.integers(0, input_dim, size=75))
        values = rng.random(indices.size).astype(np.float32)
        examples.append(
            SparseExample(
                features=SparseVector(indices, values, input_dim),
                labels=np.array([0], dtype=np.int64),
            )
        )
    scores = []
    transient = transient_bytes(lambda: scores.append(network.predict_dense_batch(examples)))
    densified = batch * input_dim * 4
    assert scores[0].shape == (batch, 64)
    assert transient < densified, (
        f"predict_dense_batch transient {transient / 2**20:.1f} MiB"
    )
