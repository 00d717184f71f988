"""One-time ingest: XC-format text → memory-mapped CSR shard cache.

The Extreme Classification Repository ships Delicious-200K / Amazon-670K as
multi-gigabyte text files.  Parsing them into Python ``SparseExample``
objects on every run is both slow (text parsing dominates) and unbounded in
memory (490K objects at Amazon scale).  The ingest parses the text **once**,
streaming line by line, and writes fixed-size CSR shards plus a JSON
manifest (:mod:`repro.data.shards`); every later epoch reads the shards
through ``mmap`` at memory-bandwidth speed.

CLI::

    python -m repro.data <xc_file> <cache_dir> [--shard-size N] [--max-examples N]
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

import numpy as np

from repro.data.shards import ShardInfo, ShardManifest, file_crc32
from repro.datasets.loaders import check_xc_count, iter_xc_rows, read_xc_header
from repro.types import SparseExample

__all__ = ["ShardCacheWriter", "ingest_xc_file", "ingest_examples"]

DEFAULT_SHARD_SIZE = 8192


class ShardCacheWriter:
    """Streaming writer producing the shard cache one example at a time.

    ``add`` buffers rows; every ``shard_size`` rows a shard is flushed to
    disk and the buffers reset, so peak memory is one shard regardless of
    how many examples the source yields.  ``finalize`` flushes the remainder
    and writes the manifest.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        feature_dim: int,
        label_dim: int,
        shard_size: int = DEFAULT_SHARD_SIZE,
        source: str = "",
    ) -> None:
        if feature_dim <= 0 or label_dim <= 0:
            raise ValueError("feature_dim and label_dim must be positive")
        if shard_size <= 0:
            raise ValueError("shard_size must be positive")
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.feature_dim = int(feature_dim)
        self.label_dim = int(label_dim)
        self.shard_size = int(shard_size)
        self.source = source
        self._shards: list[ShardInfo] = []
        self._finalized = False
        self._reset_buffers()

    def _reset_buffers(self) -> None:
        self._feat_indices: list[np.ndarray] = []
        self._feat_values: list[np.ndarray] = []
        self._labels: list[np.ndarray] = []

    @property
    def buffered_examples(self) -> int:
        return len(self._feat_indices)

    @property
    def num_examples(self) -> int:
        return (
            sum(shard.num_examples for shard in self._shards)
            + self.buffered_examples
        )

    def add(self, labels: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
        """Append one example (validated against the cache's dimensions)."""
        if self._finalized:
            raise RuntimeError("writer already finalized")
        labels = np.asarray(labels, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.shape != values.shape:
            raise ValueError("indices and values must align")
        if indices.size:
            if int(indices[0]) < 0 or int(indices[-1]) >= self.feature_dim:
                raise ValueError(
                    f"feature index out of range [0, {self.feature_dim})"
                )
            if np.any(np.diff(indices) <= 0):
                raise ValueError("feature indices must be sorted and unique")
        if labels.size and (labels.min() < 0 or labels.max() >= self.label_dim):
            raise ValueError(f"label index out of range [0, {self.label_dim})")
        self._feat_indices.append(indices)
        self._feat_values.append(values)
        self._labels.append(labels)
        if self.buffered_examples >= self.shard_size:
            self._flush_shard()

    def add_example(self, example: SparseExample) -> None:
        self.add(example.labels, example.features.indices, example.features.values)

    def _flush_shard(self) -> None:
        if not self.buffered_examples:
            return
        name = f"shard-{len(self._shards):05d}"
        feat_counts = np.array([a.size for a in self._feat_indices], dtype=np.int64)
        label_counts = np.array([a.size for a in self._labels], dtype=np.int64)
        arrays = {
            "feat_indptr": np.concatenate([[0], np.cumsum(feat_counts)]),
            "feat_indices": (
                np.concatenate(self._feat_indices)
                if feat_counts.sum()
                else np.zeros(0, dtype=np.int64)
            ),
            "feat_values": (
                np.concatenate(self._feat_values)
                if feat_counts.sum()
                else np.zeros(0, dtype=np.float64)
            ),
            "label_indptr": np.concatenate([[0], np.cumsum(label_counts)]),
            "label_indices": (
                np.concatenate(self._labels)
                if label_counts.sum()
                else np.zeros(0, dtype=np.int64)
            ),
        }
        checksums = {}
        for array_name, array in arrays.items():
            path = self.cache_dir / f"{name}.{array_name}.npy"
            np.save(path, array)
            checksums[array_name] = file_crc32(path)
        self._shards.append(
            ShardInfo(
                name=name,
                num_examples=self.buffered_examples,
                feature_nnz=int(feat_counts.sum()),
                label_nnz=int(label_counts.sum()),
                checksums=checksums,
            )
        )
        self._reset_buffers()

    def finalize(self) -> ShardManifest:
        """Flush the tail shard, write ``manifest.json`` and return it."""
        if self._finalized:
            raise RuntimeError("writer already finalized")
        self._flush_shard()
        self._finalized = True
        if not self._shards:
            raise ValueError("cannot finalize an empty shard cache")
        manifest = ShardManifest(
            feature_dim=self.feature_dim,
            label_dim=self.label_dim,
            num_examples=sum(shard.num_examples for shard in self._shards),
            shard_size=self.shard_size,
            shards=tuple(self._shards),
            source=self.source,
        )
        manifest.save(self.cache_dir)
        return manifest


def ingest_xc_file(
    path: str | Path,
    cache_dir: str | Path,
    shard_size: int = DEFAULT_SHARD_SIZE,
    max_examples: int | None = None,
) -> ShardManifest:
    """Parse an XC-format file once and write the CSR shard cache.

    Memory stays bounded by ``shard_size`` examples; the text is never
    materialised as a Python object list.  Returns the written manifest.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with path.open("r", encoding="utf-8") as handle:
        num_examples, feature_dim, label_dim = read_xc_header(handle.readline())
    writer = ShardCacheWriter(
        cache_dir,
        feature_dim=feature_dim,
        label_dim=label_dim,
        shard_size=shard_size,
        source=str(path),
    )
    for labels, indices, values in iter_xc_rows(
        path, feature_dim, label_dim, max_examples
    ):
        writer.add(labels, indices, values)
    if max_examples is None:
        check_xc_count(num_examples, writer.num_examples)
    return writer.finalize()


def ingest_examples(
    examples: Iterable[SparseExample],
    feature_dim: int,
    label_dim: int,
    cache_dir: str | Path,
    shard_size: int = DEFAULT_SHARD_SIZE,
    source: str = "memory",
) -> ShardManifest:
    """Shard an in-memory example stream (synthetic data, tests, benches)."""
    writer = ShardCacheWriter(
        cache_dir,
        feature_dim=feature_dim,
        label_dim=label_dim,
        shard_size=shard_size,
        source=source,
    )
    for example in examples:
        writer.add_example(example)
    return writer.finalize()
