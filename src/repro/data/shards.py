"""Memory-mapped CSR shard cache: manifest, shard handles and the dataset.

A shard cache directory holds the output of one ingest run
(:mod:`repro.data.ingest`): per shard, five little-endian ``.npy`` arrays

* ``<shard>.feat_indptr.npy``  — ``int64 (n+1,)`` feature row pointers,
* ``<shard>.feat_indices.npy`` — ``int64 (nnz,)`` sorted unique per row,
* ``<shard>.feat_values.npy``  — ``float64 (nnz,)`` aligned values,
* ``<shard>.label_indptr.npy`` — ``int64 (n+1,)`` label row pointers,
* ``<shard>.label_indices.npy``— ``int64 (lnnz,)`` label ids per row,

plus one ``manifest.json`` recording dimensions, per-shard example counts and
CRC-32 checksums of every array file.  Values stay ``float64`` on disk (the
format predates the float32 training path); batch assembly
(:meth:`~repro.types.SparseBatch.from_csr`) casts them to
:data:`~repro.types.FLOAT` once per batch.  :class:`ShardedDataset` opens the
arrays with ``numpy``'s ``mmap_mode="r"`` so resident memory is bounded by
the pages actually touched, never by the dataset size; epoch iteration
streams one shard at a time and can release each shard as soon as it has
been consumed.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.config import from_dict, to_dict
from repro.types import SparseBatch, SparseExample, SparseVector

__all__ = [
    "MANIFEST_NAME",
    "FORMAT_VERSION",
    "ARRAY_NAMES",
    "ShardInfo",
    "ShardManifest",
    "Shard",
    "ShardedDataset",
    "file_crc32",
    "gather_csr_rows",
]

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1
ARRAY_NAMES = (
    "feat_indptr",
    "feat_indices",
    "feat_values",
    "label_indptr",
    "label_indices",
)


def file_crc32(path: Path, chunk_bytes: int = 1 << 20) -> int:
    """CRC-32 of a file's bytes, streamed so large shards never load whole."""
    crc = 0
    with Path(path).open("rb") as handle:
        while True:
            chunk = handle.read(chunk_bytes)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


@dataclass(frozen=True)
class ShardInfo:
    """Manifest entry for one shard."""

    name: str
    num_examples: int
    feature_nnz: int
    label_nnz: int
    # Array name -> CRC-32 of the corresponding ``.npy`` file.
    checksums: dict[str, int]

    def filename(self, array: str) -> str:
        if array not in ARRAY_NAMES:
            raise KeyError(f"unknown shard array {array!r}")
        return f"{self.name}.{array}.npy"


@dataclass(frozen=True)
class ShardManifest:
    """The JSON manifest describing one ingested shard cache."""

    feature_dim: int
    label_dim: int
    num_examples: int
    shard_size: int
    shards: tuple[ShardInfo, ...]
    source: str = ""
    format_version: int = FORMAT_VERSION

    def __post_init__(self) -> None:
        if self.feature_dim <= 0 or self.label_dim <= 0:
            raise ValueError("feature_dim and label_dim must be positive")
        if self.shard_size <= 0:
            raise ValueError("shard_size must be positive")
        if self.num_examples != sum(shard.num_examples for shard in self.shards):
            raise ValueError("num_examples does not match the shard example counts")

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def total_feature_nnz(self) -> int:
        return sum(shard.feature_nnz for shard in self.shards)

    @property
    def total_label_nnz(self) -> int:
        return sum(shard.label_nnz for shard in self.shards)

    def save(self, cache_dir: str | Path) -> Path:
        path = Path(cache_dir) / MANIFEST_NAME
        path.write_text(json.dumps(to_dict(self), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, cache_dir: str | Path) -> "ShardManifest":
        path = Path(cache_dir) / MANIFEST_NAME
        if not path.exists():
            raise FileNotFoundError(
                f"no shard-cache manifest at {path}; run the ingest first "
                "(python -m repro.data <xc_file> <cache_dir>)"
            )
        data = json.loads(path.read_text())
        # Checked before the strict decode, so a newer cache reports its
        # version rather than the fields this build does not know.
        if isinstance(data, dict) and data.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported shard-cache format version "
                f"{data.get('format_version')!r} (this build reads version "
                f"{FORMAT_VERSION})"
            )
        try:
            return from_dict(cls, data)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def gather_csr_rows(
    indptr: np.ndarray, order: np.ndarray, *arrays: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Gather CSR rows ``order`` out of ``(indptr, *arrays)``.

    Returns the new row pointer plus each data array restricted to the
    gathered rows, in ``order`` order.  Fully vectorised: the source
    positions are built with one ``repeat`` + ``arange`` instead of a
    per-row Python loop.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    order = np.asarray(order, dtype=np.int64)
    counts = np.diff(indptr)[order]
    out_indptr = np.empty(order.size + 1, dtype=np.int64)
    out_indptr[0] = 0
    np.cumsum(counts, out=out_indptr[1:])
    total = int(out_indptr[-1])
    if total:
        offsets = np.arange(total, dtype=np.int64) - np.repeat(out_indptr[:-1], counts)
        src = np.repeat(indptr[:-1][order], counts) + offsets
    else:
        src = np.zeros(0, dtype=np.int64)
    return out_indptr, tuple(np.asarray(a)[src] for a in arrays)


@dataclass
class CsrBlock:
    """An in-order run of examples as plain CSR arrays (shard or carry)."""

    feat_indptr: np.ndarray
    feat_indices: np.ndarray
    feat_values: np.ndarray
    label_indptr: np.ndarray
    label_indices: np.ndarray

    @property
    def num_examples(self) -> int:
        return int(self.feat_indptr.shape[0] - 1)

    def slice(self, lo: int, hi: int) -> "CsrBlock":
        """Rows ``[lo, hi)`` as a zero-copy view block."""
        flo, fhi = int(self.feat_indptr[lo]), int(self.feat_indptr[hi])
        llo, lhi = int(self.label_indptr[lo]), int(self.label_indptr[hi])
        return CsrBlock(
            feat_indptr=self.feat_indptr[lo : hi + 1] - flo,
            feat_indices=self.feat_indices[flo:fhi],
            feat_values=self.feat_values[flo:fhi],
            label_indptr=self.label_indptr[lo : hi + 1] - llo,
            label_indices=self.label_indices[llo:lhi],
        )

    def copy(self) -> "CsrBlock":
        """A RAM-resident copy (detaches the block from any shard mmap)."""
        return CsrBlock(
            feat_indptr=np.array(self.feat_indptr),
            feat_indices=np.array(self.feat_indices),
            feat_values=np.array(self.feat_values),
            label_indptr=np.array(self.label_indptr),
            label_indices=np.array(self.label_indices),
        )

    @staticmethod
    def concat(first: "CsrBlock", second: "CsrBlock") -> "CsrBlock":
        return CsrBlock(
            feat_indptr=np.concatenate(
                [first.feat_indptr, second.feat_indptr[1:] + first.feat_indptr[-1]]
            ),
            feat_indices=np.concatenate([first.feat_indices, second.feat_indices]),
            feat_values=np.concatenate([first.feat_values, second.feat_values]),
            label_indptr=np.concatenate(
                [first.label_indptr, second.label_indptr[1:] + first.label_indptr[-1]]
            ),
            label_indices=np.concatenate([first.label_indices, second.label_indices]),
        )

    def to_batch(self, feature_dim: int, label_dim: int) -> SparseBatch:
        return SparseBatch.from_csr(
            self.feat_indptr,
            self.feat_indices,
            self.feat_values,
            self.label_indptr,
            self.label_indices,
            feature_dim=feature_dim,
            label_dim=label_dim,
        )


class Shard:
    """Lazy handle over one shard's memory-mapped arrays."""

    def __init__(self, directory: Path, info: ShardInfo) -> None:
        self.directory = Path(directory)
        self.info = info
        self._arrays: dict[str, np.ndarray] | None = None

    @property
    def num_examples(self) -> int:
        return self.info.num_examples

    @property
    def is_open(self) -> bool:
        return self._arrays is not None

    def open(self) -> dict[str, np.ndarray]:
        """Memory-map the shard's arrays (idempotent).

        Returns the local reference rather than re-reading ``self._arrays``,
        so a concurrent ``close()`` (e.g. a releasing epoch stream on the
        prefetch thread racing random access on the trainer thread) can
        never hand the caller ``None`` — the close simply drops the cached
        handle and the next ``open()`` remaps.
        """
        arrays = self._arrays
        if arrays is None:
            arrays = {}
            for name in ARRAY_NAMES:
                path = self.directory / self.info.filename(name)
                if not path.exists():
                    raise FileNotFoundError(f"shard array missing: {path}")
                arrays[name] = np.load(path, mmap_mode="r")
            n = self.info.num_examples
            if arrays["feat_indptr"].shape != (n + 1,) or arrays[
                "label_indptr"
            ].shape != (n + 1,):
                raise ValueError(
                    f"shard {self.info.name}: indptr shape does not match the "
                    f"manifest's {n} examples"
                )
            self._arrays = arrays
        return arrays

    def close(self) -> None:
        """Drop the mmap references (reopened transparently on next use)."""
        self._arrays = None

    def verify(self) -> None:
        """Recompute every array file's CRC-32 against the manifest."""
        for name in ARRAY_NAMES:
            path = self.directory / self.info.filename(name)
            if not path.exists():
                raise FileNotFoundError(f"shard array missing: {path}")
            actual = file_crc32(path)
            expected = self.info.checksums.get(name)
            if actual != expected:
                raise ValueError(
                    f"shard {self.info.name}: checksum mismatch for {name} "
                    f"(manifest {expected}, file {actual}) — the cache is "
                    "corrupt or was written by a different source; re-ingest"
                )

    def example(self, row: int, feature_dim: int) -> SparseExample:
        arrays = self.open()
        flo = int(arrays["feat_indptr"][row])
        fhi = int(arrays["feat_indptr"][row + 1])
        llo = int(arrays["label_indptr"][row])
        lhi = int(arrays["label_indptr"][row + 1])
        return SparseExample(
            features=SparseVector(
                indices=arrays["feat_indices"][flo:fhi],
                values=arrays["feat_values"][flo:fhi],
                dimension=feature_dim,
            ),
            labels=np.asarray(arrays["label_indices"][llo:lhi]),
        )

    def csr_block(self, order: np.ndarray | None = None) -> CsrBlock:
        """The shard's examples as a CSR block.

        ``order=None`` returns zero-copy views of the mmapped arrays;
        a permutation gathers the rows into RAM (bounded by the shard size).
        """
        arrays = self.open()
        if order is None:
            return CsrBlock(
                feat_indptr=arrays["feat_indptr"],
                feat_indices=arrays["feat_indices"],
                feat_values=arrays["feat_values"],
                label_indptr=arrays["label_indptr"],
                label_indices=arrays["label_indices"],
            )
        feat_indptr, (feat_indices, feat_values) = gather_csr_rows(
            arrays["feat_indptr"], order, arrays["feat_indices"], arrays["feat_values"]
        )
        label_indptr, (label_indices,) = gather_csr_rows(
            arrays["label_indptr"], order, arrays["label_indices"]
        )
        return CsrBlock(
            feat_indptr=feat_indptr,
            feat_indices=feat_indices,
            feat_values=feat_values,
            label_indptr=label_indptr,
            label_indices=label_indices,
        )


class ShardedDataset(Sequence[SparseExample]):
    """Bounded-memory view over an ingested shard cache.

    Two access disciplines:

    * **Random access** (``dataset[i]`` / ``gather``): examples are read
      through the shard mmaps on demand.  ``SlideTrainer`` uses this mode to
      reproduce the eager list's global shuffle bit-for-bit — same
      ``TrainingConfig.seed`` → same batches → same losses.
    * **Streaming** (:meth:`iter_batches`): shard-level shuffling with a
      deterministic per-epoch seed; one shard is resident at a time and each
      shard is released as soon as it has been consumed, so memory is
      bounded by ``shard_size`` regardless of the dataset size.

    ``shard_subset`` restricts the view to a subset of the cache's shards
    (given as manifest positions).  The process-parallel HOGWILD trainer
    (:mod:`repro.parallel.trainer`) splits the shards with
    :meth:`assign_shards` and streams each group through such a view in
    whichever worker process runs it — the workers share nothing but the
    cache directory on disk.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        seed: int = 0,
        verify_checksums: bool = False,
        shard_subset: Sequence[int] | None = None,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.manifest = ShardManifest.load(self.cache_dir)
        self.seed = int(seed)
        if shard_subset is None:
            self._shard_indices = list(range(self.manifest.num_shards))
        else:
            self._shard_indices = [int(i) for i in shard_subset]
            seen: set[int] = set()
            for index in self._shard_indices:
                if not 0 <= index < self.manifest.num_shards:
                    raise ValueError(
                        f"shard_subset index {index} out of range "
                        f"(cache has {self.manifest.num_shards} shards)"
                    )
                if index in seen:
                    raise ValueError(f"shard_subset repeats shard {index}")
                seen.add(index)
        self._shards = [
            Shard(self.cache_dir, self.manifest.shards[i]) for i in self._shard_indices
        ]
        counts = np.array([s.num_examples for s in self._shards], dtype=np.int64)
        self._offsets = np.concatenate([[0], np.cumsum(counts)])
        if verify_checksums:
            self.verify()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def feature_dim(self) -> int:
        return self.manifest.feature_dim

    @property
    def label_dim(self) -> int:
        return self.manifest.label_dim

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def open_shard_count(self) -> int:
        """How many shards currently hold open mmaps (memory diagnostics)."""
        return sum(1 for shard in self._shards if shard.is_open)

    def verify(self) -> None:
        """Checksum-verify every shard file against the manifest."""
        for shard in self._shards:
            shard.verify()

    def close(self) -> None:
        for shard in self._shards:
            shard.close()

    # ------------------------------------------------------------------
    # Worker sharding
    # ------------------------------------------------------------------
    def assign_shards(self, num_workers: int) -> list[list[int]]:
        """Partition this view's shards into ``num_workers`` disjoint groups.

        Deterministic greedy longest-processing-time assignment over example
        counts: shards are sorted by size (largest first, manifest position
        as tie-break) and each goes to the currently lightest worker, so the
        groups are balanced even when shard sizes are uneven.  Every shard of
        the view appears in exactly one group; groups may be empty only when
        ``num_workers`` exceeds the shard count.
        """
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        groups: list[list[int]] = [[] for _ in range(num_workers)]
        loads = [0] * num_workers
        sized = sorted(
            zip(self._shard_indices, self._shards),
            key=lambda pair: (-pair[1].num_examples, pair[0]),
        )
        for manifest_index, shard in sized:
            lightest = min(range(num_workers), key=lambda w: (loads[w], w))
            groups[lightest].append(manifest_index)
            loads[lightest] += shard.num_examples
        return [sorted(group) for group in groups]

    # ------------------------------------------------------------------
    # Random access (the eager-parity path)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._offsets[-1])

    def _locate(self, index: int) -> tuple[Shard, int]:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"example index {index} out of range")
        shard_idx = int(np.searchsorted(self._offsets, index, side="right")) - 1
        return self._shards[shard_idx], index - int(self._offsets[shard_idx])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        shard, row = self._locate(int(index))
        return shard.example(row, self.feature_dim)

    def gather(self, indices: Sequence[int] | np.ndarray) -> list[SparseExample]:
        """Examples at ``indices``, in the given order."""
        return [self[int(i)] for i in indices]

    def __iter__(self) -> Iterator[SparseExample]:
        for shard in self._shards:
            for row in range(shard.num_examples):
                yield shard.example(row, self.feature_dim)

    # ------------------------------------------------------------------
    # Streaming epochs
    # ------------------------------------------------------------------
    def epoch_rng(self, epoch: int) -> np.random.Generator:
        """The deterministic generator driving epoch ``epoch``'s shuffle."""
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(73, epoch))
        )

    def iter_batches(
        self,
        batch_size: int,
        epoch: int = 0,
        shuffle: bool = True,
        release: bool = True,
    ) -> Iterator[SparseBatch]:
        """Stream one epoch as ready-to-train :class:`SparseBatch` objects.

        Shard order and within-shard row order are shuffled by
        :meth:`epoch_rng`, so the stream is reproducible per ``(seed,
        epoch)``.  Batches have exactly ``batch_size`` examples except the
        final one; runs that are not shard-aligned carry the tail rows over
        to the next shard.  ``release=True`` closes each shard's mmaps once
        its rows have been handed out — including the shard being streamed
        when the consumer abandons the generator mid-epoch (``close()`` on
        the generator, an early ``break``, or an exception all release it).
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        rng = self.epoch_rng(epoch)
        shard_order = (
            rng.permutation(self.num_shards)
            if shuffle
            else np.arange(self.num_shards)
        )
        carry: CsrBlock | None = None
        current: Shard | None = None
        try:
            for shard_idx in shard_order:
                shard = self._shards[int(shard_idx)]
                current = shard if release else None
                order = rng.permutation(shard.num_examples) if shuffle else None
                block = shard.csr_block(order)
                if carry is not None:
                    block = CsrBlock.concat(carry, block)
                    carry = None
                n = block.num_examples
                usable = n - (n % batch_size)
                for start in range(0, usable, batch_size):
                    yield block.slice(start, start + batch_size).to_batch(
                        self.feature_dim, self.label_dim
                    )
                if usable < n:
                    # Copy the tail so releasing the shard drops its mmap.
                    carry = block.slice(usable, n).copy()
                if release:
                    shard.close()
                    current = None
            if carry is not None and carry.num_examples:
                yield carry.to_batch(self.feature_dim, self.label_dim)
        finally:
            # Abandoned mid-shard: the resident shard's mmap must not leak
            # into the rest of the process's lifetime.
            if current is not None:
                current.close()
