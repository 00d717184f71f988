"""Parent-bits fixture for the LSH build paths and the dense scorer.

``tests/data/lsh_parent_digest.json`` holds SHA-256 digests taken before
codes were held narrow and keys were packed by Horner accumulation, and
before the dense scorer applied its bias and activation in place.  Each LSH
digest covers, after ``build``, after an incremental ``update`` and after a
``restore_codes`` of the snapshot:

* the code values ``hash_matrix`` returns for the weights (as int64, so the
  digest does not depend on the dtype they are held in);
* the snapshot's items and codes;
* the directory keys and, per directory entry, the bucket's stored ids.

Every hash family is covered, each with buckets small enough to overflow,
plus one configuration whose keys take ``_pack``'s chunked-mix path.  The
dense digests cover ``predict_dense_batch`` of seeded networks with
non-zero biases.  ``dense/relu-softmax`` and ``dense/linear-relu-softmax``
were re-taken when the first layer stopped densifying its input and became
one zero-padded ``matmul`` per example
(``SlideLayer.sparse_forward_batch``): their scores moved by at most 2.2e-8,
with the argmax unchanged on all 37 examples.  ``dense/softmax-only`` kept
its bits.

``PARENT_CHECKPOINT_TABLES`` is the same state digest of layer 1's index as
restored from ``tests/data/parent_checkpoint``, taken before the index held
its rows by position.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import LayerConfig, LSHConfig, SlideNetworkConfig
from repro.core.network import SlideNetwork
from repro.lsh.index import LSHIndex
from repro.types import SparseExample, SparseVector

PARENT_DIGEST = Path(__file__).parent / "data" / "lsh_parent_digest.json"
PARENT_CHECKPOINT = Path(__file__).parent / "data" / "parent_checkpoint"
PARENT_CHECKPOINT_TABLES = "de497806f9f77dc44b4c7d8195adfcbda28f35336e79790dbb91ac2cb61078a7"

INPUT_DIM = 48
ITEMS = 400

LSH_CONFIGS = {
    "simhash": LSHConfig(hash_family="simhash", k=4, l=6, bucket_size=24),
    "wta": LSHConfig(hash_family="wta", k=3, l=5, bucket_size=16),
    "dwta": LSHConfig(hash_family="dwta", k=3, l=5, bucket_size=16),
    "doph": LSHConfig(hash_family="doph", k=2, l=5, bucket_size=32, doph_top_k=12),
    "minhash": LSHConfig(hash_family="minhash", k=2, l=4, bucket_size=16, doph_top_k=12),
    "simhash-reservoir": LSHConfig(
        hash_family="simhash", k=4, l=6, bucket_size=24, insertion_policy="reservoir"
    ),
    # DWTA codes take 9 values: 24 of them need more than 61 bits, so the
    # keys are packed in two chunks and mixed.
    "dwta-chunked": LSHConfig(hash_family="dwta", k=24, l=4, bucket_size=16),
}

DENSE_NETWORKS = {
    "relu-softmax": (
        LayerConfig(size=24, activation="relu"),
        LayerConfig(
            size=96,
            activation="softmax",
            lsh=LSHConfig(k=3, l=4, bucket_size=32),
        ),
    ),
    "linear-relu-softmax": (
        LayerConfig(size=20, activation="linear"),
        LayerConfig(size=16, activation="relu"),
        LayerConfig(size=64, activation="softmax"),
    ),
    "softmax-only": (LayerConfig(size=40, activation="softmax"),),
}


def _weights(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build weights, the ids an update touches and their new weights."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(ITEMS, INPUT_DIM)).astype(np.float32)
    # Some exact zeros, so DWTA/DOPH/MinHash see sparse rows too.
    weights[rng.random(weights.shape) < 0.3] = 0.0
    dirty = np.sort(rng.choice(ITEMS, size=ITEMS // 2, replace=False))
    fresh = weights[dirty] + rng.normal(scale=0.8, size=(dirty.size, INPUT_DIM)).astype(
        np.float32
    )
    fresh[rng.random(fresh.shape) < 0.3] = 0.0
    return weights, dirty, fresh


def _index_state(digest, index: LSHIndex) -> None:
    items, codes = index.snapshot_codes()
    digest.update(np.asarray(items, dtype=np.int64).tobytes())
    digest.update(np.asarray(codes, dtype=np.int64).tobytes())
    digest.update(index._dir_keys.astype(np.int64).tobytes())
    store = index._store
    for row in index._dir_rows.tolist():
        digest.update(store.slots[row, : store.sizes[row]].astype(np.int64).tobytes())


def lsh_digest(name: str) -> str:
    """Digest of one configuration's codes and tables along build -> update -> restore."""
    config = LSH_CONFIGS[name]
    weights, dirty, fresh = _weights(seed=5)
    digest = hashlib.sha256()
    index = LSHIndex(input_dim=INPUT_DIM, config=config, seed=11)
    digest.update(np.asarray(index.hash_family.hash_matrix(weights), dtype=np.int64).tobytes())
    index.build(weights)
    _index_state(digest, index)
    digest.update(np.asarray(index.hash_family.hash_matrix(fresh), dtype=np.int64).tobytes())
    index.update(dirty, fresh)
    _index_state(digest, index)
    items, codes = index.snapshot_codes()
    restored = LSHIndex(input_dim=INPUT_DIM, config=config, seed=11)
    restored.restore_codes(items, codes)
    _index_state(digest, restored)
    return digest.hexdigest()


def _examples(input_dim: int, count: int, seed: int) -> list[SparseExample]:
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(count):
        nnz = int(rng.integers(1, 12))
        indices = np.sort(rng.choice(input_dim, size=nnz, replace=False))
        values = rng.random(nnz).astype(np.float32) + 0.1
        examples.append(
            SparseExample(
                features=SparseVector(indices, values, input_dim),
                labels=np.array([0], dtype=np.int64),
            )
        )
    return examples


def dense_digest(name: str) -> str:
    """Digest of ``predict_dense_batch`` output bits of one seeded network."""
    layers = DENSE_NETWORKS[name]
    network = SlideNetwork(SlideNetworkConfig(input_dim=64, layers=layers, seed=3))
    rng = np.random.default_rng(9)
    for layer in network.layers:
        layer.biases[:] = rng.normal(scale=0.5, size=layer.size).astype(np.float32)
    examples = _examples(64, 37, seed=4)
    scores = network.predict_dense_batch(examples)
    return hashlib.sha256(np.ascontiguousarray(scores).tobytes()).hexdigest()


def all_digests() -> dict[str, str]:
    digests = {f"lsh/{name}": lsh_digest(name) for name in LSH_CONFIGS}
    digests.update({f"dense/{name}": dense_digest(name) for name in DENSE_NETWORKS})
    return digests


@pytest.fixture(scope="module")
def parent() -> dict[str, str]:
    return json.loads(PARENT_DIGEST.read_text())


def test_fixture_covers_every_configuration(parent):
    assert sorted(parent) == sorted(
        [f"lsh/{name}" for name in LSH_CONFIGS]
        + [f"dense/{name}" for name in DENSE_NETWORKS]
    )


def test_chunked_configuration_takes_the_chunked_pack():
    index = LSHIndex(input_dim=INPUT_DIM, config=LSH_CONFIGS["dwta-chunked"], seed=11)
    assert len(index._chunks) > 1
    for name in ("simhash", "wta", "dwta", "doph", "minhash"):
        exact = LSHIndex(input_dim=INPUT_DIM, config=LSH_CONFIGS[name], seed=11)
        assert len(exact._chunks) == 1


@pytest.mark.parametrize("name", sorted(LSH_CONFIGS))
def test_lsh_build_update_restore_match_parent_bits(parent, name):
    assert lsh_digest(name) == parent[f"lsh/{name}"]


@pytest.mark.parametrize("name", sorted(DENSE_NETWORKS))
def test_predict_dense_batch_matches_parent_bits(parent, name):
    assert dense_digest(name) == parent[f"dense/{name}"]


def test_parent_written_checkpoint_restores_the_parents_tables():
    network = SlideNetwork.from_checkpoint(PARENT_CHECKPOINT)
    digest = hashlib.sha256()
    _index_state(digest, network.layers[1].lsh_index)
    assert digest.hexdigest() == PARENT_CHECKPOINT_TABLES
