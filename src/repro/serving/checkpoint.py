"""Versioned on-disk checkpoints for trained SLIDE networks.

A checkpoint is a directory with two files:

* ``manifest.json`` — format version, the full network config (JSON), the
  optimiser's hyper-parameters, user metadata, and a SHA-256 checksum of the
  array payload;
* ``arrays.npz`` — every layer's weights and biases, the LSH index contents
  of every hash-enabled layer (item ids plus their ``(L, K)`` hash codes, in
  insertion order), and the optimiser's per-parameter state tensors.

Loading reconstructs the network from its config, overwrites the freshly
initialised parameters in place, and *replays* the stored hash codes into
the rebuilt index — the hash functions themselves are deterministic given
``(config, seed)``, so only the table contents need to travel.  The snapshot
surface is the index's contiguous ``(n,)`` item / ``(n, L, K)`` code
matrices (``snapshot_codes``/``restore_codes``), so the replay is one
batched key pack plus one batched insertion per table rather than a
per-item loop.  Replaying codes in row order reproduces bucket membership exactly
for any bucket that never overflowed; the exact eviction order of
overflowed FIFO buckets is not preserved (a full ``rebuild_all_tables()``
restores the canonical state if required).

Integrity is enforced end-to-end: a truncated, bit-flipped, or partially
written ``arrays.npz`` fails the checksum and raises
:class:`CheckpointError` instead of yielding a silently corrupt model.

:class:`CheckpointStore` layers monotonically numbered versions
(``v0001``, ``v0002``, …) on top, which is what the training loop and the
model server share: the trainer appends versions, the server loads
``latest()``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from repro import __version__
from repro.config import OptimizerConfig, SlideNetworkConfig, from_dict, to_dict
from repro.core.network import SlideNetwork
from repro.optim.base import Optimizer
from repro.optim.factory import make_optimizer

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointExistsError",
    "LoadedCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "verify_checkpoint",
    "restore_checkpoint_into",
    "CheckpointStore",
]

CHECKPOINT_FORMAT_VERSION = 1

_MANIFEST_NAME = "manifest.json"
_ARRAYS_NAME = "arrays.npz"


class CheckpointError(RuntimeError):
    """A checkpoint is missing, structurally invalid, or fails its checksum."""


class CheckpointExistsError(CheckpointError):
    """A checkpoint already occupies the target path (``overwrite=False``)."""


@dataclass
class LoadedCheckpoint:
    """Everything reconstructed from one checkpoint directory."""

    network: SlideNetwork
    optimizer: Optimizer | None
    metadata: dict[str, Any] = field(default_factory=dict)
    manifest: dict[str, Any] = field(default_factory=dict)

    @property
    def config(self) -> SlideNetworkConfig:
        return self.network.config


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------
def save_checkpoint(
    path: str | Path,
    network: SlideNetwork,
    optimizer: Optimizer | None = None,
    metadata: Mapping[str, Any] | None = None,
    overwrite: bool = True,
) -> Path:
    """Write ``network`` (and optionally its optimiser) to directory ``path``.

    Neurons whose weights changed since the last scheduled re-hash are
    re-hashed first, so the snapshot stores a *canonical* index (table
    entries consistent with the saved weights) and a reloaded network
    serves identically to the live one.

    Writing a *new* checkpoint is atomic at the directory level: files land
    in a hidden temporary sibling which is renamed into place only once
    complete, so a concurrent reader (e.g. a server polling
    ``CheckpointStore.latest()``) never observes a partial checkpoint and a
    crash mid-save leaves no broken version behind.  With
    ``overwrite=False`` an occupied target raises
    :class:`CheckpointExistsError` instead of being replaced — the rename
    itself detects the collision, so concurrent savers cannot destroy each
    other's work.  ``overwrite=True`` (the default) replaces an existing
    checkpoint at ``path`` and assumes a single writer for that path.

    Returns the checkpoint path.
    """
    final_path = Path(path)
    final_path.parent.mkdir(parents=True, exist_ok=True)
    # Hidden prefix keeps in-progress saves invisible to CheckpointStore's
    # version scan; pid + monotonic stamp keeps concurrent savers (processes
    # or threads) out of each other's temp dirs.
    path = final_path.parent / (
        f".{final_path.name}.tmp-{os.getpid()}-{time.monotonic_ns()}"
    )
    path.mkdir()

    for layer in network.layers:
        if layer.lsh_index is not None and layer.dirty_neuron_count:
            layer.rebuild()

    arrays: dict[str, np.ndarray] = {"iteration": np.int64(network.iteration)}
    lsh_layers: list[int] = []
    for idx, layer in enumerate(network.layers):
        arrays[f"layer{idx}.weights"] = layer.weights
        arrays[f"layer{idx}.biases"] = layer.biases
        if layer.lsh_index is not None:
            items, codes = layer.lsh_index.snapshot_codes()
            arrays[f"layer{idx}.lsh_items"] = items
            arrays[f"layer{idx}.lsh_codes"] = codes
            lsh_layers.append(idx)

    optimizer_entry: dict[str, Any] | None = None
    if optimizer is not None:
        optimizer_entry = {
            "config": to_dict(optimizer.to_config()),
            "step_count": int(optimizer.step_count),
            "parameters": {},
        }
        for name in optimizer.parameter_names():
            state = optimizer.state_of(name)
            optimizer_entry["parameters"][name] = sorted(state.keys())
            for slot, array in state.items():
                arrays[f"optim.{name}.{slot}"] = array

    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    payload = buffer.getvalue()
    (path / _ARRAYS_NAME).write_bytes(payload)

    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "repro_version": __version__,
        "saved_unix_time": time.time(),  # repro: allow[clock] metadata, not replayed
        "network_config": to_dict(network.config),
        "lsh_layers": lsh_layers,
        "optimizer": optimizer_entry,
        "metadata": dict(metadata or {}),
        "arrays_file": _ARRAYS_NAME,
        "arrays_sha256": hashlib.sha256(payload).hexdigest(),
    }
    (path / _MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))

    if overwrite and final_path.exists():
        shutil.rmtree(final_path)
    try:
        # Renaming onto an existing non-empty directory fails, which is the
        # collision detector: a concurrent saver that finished first keeps
        # its checkpoint.
        path.rename(final_path)
    except OSError as exc:
        shutil.rmtree(path, ignore_errors=True)
        raise CheckpointExistsError(
            f"checkpoint {final_path} already exists (concurrent save?)"
        ) from exc
    return final_path


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def _read_manifest(path: Path) -> dict[str, Any]:
    manifest_path = path / _MANIFEST_NAME
    if not manifest_path.is_file():
        raise CheckpointError(f"no {_MANIFEST_NAME} in {path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt manifest in {path}: {exc}") from exc
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {version!r} "
            f"(this build reads version {CHECKPOINT_FORMAT_VERSION})"
        )
    return manifest


def _read_arrays(path: Path, manifest: Mapping[str, Any]) -> dict[str, np.ndarray]:
    arrays_path = path / str(manifest.get("arrays_file", _ARRAYS_NAME))
    if not arrays_path.is_file():
        raise CheckpointError(f"missing array payload {arrays_path.name} in {path}")
    payload = arrays_path.read_bytes()
    digest = hashlib.sha256(payload).hexdigest()
    if digest != manifest.get("arrays_sha256"):
        raise CheckpointError(
            f"checksum mismatch for {arrays_path.name} in {path}: "
            "the checkpoint is corrupt or partially written"
        )
    with np.load(io.BytesIO(payload)) as data:
        return {key: np.array(data[key]) for key in data.files}


def _stored_config(cls: type, entry: Mapping[str, Any], key: str, path: Path) -> Any:
    """Decode the config a manifest stores under ``key``, strictly.

    A hand-edited or damaged manifest must fail the load as a
    :class:`CheckpointError` (what the checkpoint watcher records and
    survives), never as a bare ``KeyError``/``TypeError``.
    """
    try:
        return from_dict(cls, entry.get(key))
    except ValueError as exc:
        raise CheckpointError(
            f"malformed {key!r} in the manifest of {path}: {exc}"
        ) from exc


def load_checkpoint(
    path: str | Path, load_optimizer: bool = True
) -> LoadedCheckpoint:
    """Reconstruct a network (and optionally optimiser) from ``path``."""
    path = Path(path)
    manifest = _read_manifest(path)
    arrays = _read_arrays(path, manifest)

    config = _stored_config(SlideNetworkConfig, manifest, "network_config", path)
    network = SlideNetwork(config)
    network.iteration = int(arrays.get("iteration", 0))

    for idx, layer in enumerate(network.layers):
        try:
            weights = arrays[f"layer{idx}.weights"]
            biases = arrays[f"layer{idx}.biases"]
        except KeyError as exc:
            raise CheckpointError(f"missing arrays for layer {idx} in {path}") from exc
        if weights.shape != layer.weights.shape or biases.shape != layer.biases.shape:
            raise CheckpointError(
                f"layer {idx} shape mismatch: checkpoint {weights.shape} "
                f"vs config {layer.weights.shape}"
            )
        # Overwrite in place so the arrays the optimiser and LSH index refer
        # to stay the same objects.
        layer.weights[...] = weights
        layer.biases[...] = biases
        if layer.lsh_index is not None:
            items = arrays.get(f"layer{idx}.lsh_items")
            codes = arrays.get(f"layer{idx}.lsh_codes")
            if items is None or codes is None:
                raise CheckpointError(
                    f"missing LSH index contents for layer {idx} in {path}"
                )
            layer.lsh_index.restore_codes(items, codes)

    optimizer: Optimizer | None = None
    optimizer_entry = manifest.get("optimizer")
    if load_optimizer and optimizer_entry is not None:
        optimizer = make_optimizer(
            _stored_config(OptimizerConfig, optimizer_entry, "config", path)
        )
        for layer in network.layers:
            layer.register_parameters(optimizer)
        optimizer.step_count = int(optimizer_entry["step_count"])
        for name, slots in optimizer_entry["parameters"].items():
            if not optimizer.has_parameter(name):
                raise CheckpointError(
                    f"optimiser state for unknown parameter {name!r} in {path}"
                )
            state = optimizer.state_of(name)
            for slot in slots:
                key = f"optim.{name}.{slot}"
                if key not in arrays:
                    raise CheckpointError(f"missing optimiser array {key} in {path}")
                state[slot][...] = arrays[key]

    return LoadedCheckpoint(
        network=network,
        optimizer=optimizer,
        metadata=dict(manifest.get("metadata", {})),
        manifest=manifest,
    )


def verify_checkpoint(path: str | Path) -> dict[str, Any]:
    """Cheap integrity check: manifest well-formed, payload checksum intact.

    Returns the manifest on success; raises :class:`CheckpointError` on a
    missing, truncated, or corrupt checkpoint.  Does *not* build a network,
    so resume paths can scan several candidate versions quickly.
    """
    path = Path(path)
    manifest = _read_manifest(path)
    arrays_path = path / str(manifest.get("arrays_file", _ARRAYS_NAME))
    if not arrays_path.is_file():
        raise CheckpointError(f"missing array payload {arrays_path.name} in {path}")
    digest = hashlib.sha256(arrays_path.read_bytes()).hexdigest()
    if digest != manifest.get("arrays_sha256"):
        raise CheckpointError(
            f"checksum mismatch for {arrays_path.name} in {path}: "
            "the checkpoint is corrupt or partially written"
        )
    return manifest


def restore_checkpoint_into(
    path: str | Path,
    network: SlideNetwork,
    optimizer: Optimizer | None = None,
) -> dict[str, Any]:
    """Restore a checkpoint *in place* into a live network (and optimiser).

    The mid-run resume path: unlike :func:`load_checkpoint`, which builds a
    fresh network from the stored config, this overwrites the arrays of an
    existing ``network``/``optimizer`` pair — preserving every external
    reference to them (shared-memory bindings, registered optimiser slots,
    LSH index views).  The stored hash codes are replayed into the layers'
    own indexes, so the restored tables match the saving network's exactly
    (the checkpoint was saved canonical: dirty neurons re-hashed first).

    The stored network config must match ``network.config``; a mismatch
    raises :class:`CheckpointError`.  Returns the checkpoint metadata.
    """
    path = Path(path)
    manifest = _read_manifest(path)
    arrays = _read_arrays(path, manifest)

    stored_config = _stored_config(SlideNetworkConfig, manifest, "network_config", path)
    if stored_config != network.config:
        raise CheckpointError(
            f"checkpoint {path} was saved with a different network config; "
            "resume requires an identical architecture and seed"
        )
    network.iteration = int(arrays.get("iteration", 0))
    for idx, layer in enumerate(network.layers):
        try:
            weights = arrays[f"layer{idx}.weights"]
            biases = arrays[f"layer{idx}.biases"]
        except KeyError as exc:
            raise CheckpointError(f"missing arrays for layer {idx} in {path}") from exc
        if weights.shape != layer.weights.shape or biases.shape != layer.biases.shape:
            raise CheckpointError(
                f"layer {idx} shape mismatch: checkpoint {weights.shape} "
                f"vs live network {layer.weights.shape}"
            )
        layer.weights[...] = weights
        layer.biases[...] = biases
        if layer.lsh_index is not None:
            items = arrays.get(f"layer{idx}.lsh_items")
            codes = arrays.get(f"layer{idx}.lsh_codes")
            if items is None or codes is None:
                raise CheckpointError(
                    f"missing LSH index contents for layer {idx} in {path}"
                )
            layer.lsh_index.restore_codes(items, codes)

    optimizer_entry = manifest.get("optimizer")
    if optimizer is not None and optimizer_entry is not None:
        optimizer.step_count = int(optimizer_entry["step_count"])
        for name, slots in optimizer_entry["parameters"].items():
            if not optimizer.has_parameter(name):
                raise CheckpointError(
                    f"optimiser state for unknown parameter {name!r} in {path}"
                )
            state = optimizer.state_of(name)
            for slot in slots:
                key = f"optim.{name}.{slot}"
                if key not in arrays:
                    raise CheckpointError(f"missing optimiser array {key} in {path}")
                if state[slot].shape != arrays[key].shape:
                    raise CheckpointError(
                        f"optimiser array {key} shape mismatch in {path}"
                    )
                state[slot][...] = arrays[key]
    return dict(manifest.get("metadata", {}))


# ----------------------------------------------------------------------
# Versioned store
# ----------------------------------------------------------------------
class CheckpointStore:
    """Monotonically numbered checkpoint versions under one root directory.

    Version directories are named ``v0001``, ``v0002``, …; ``latest()``
    resolves the highest number, which is the hand-off point between a
    training loop that appends versions and a model server that loads the
    newest one.  The bare number is the whole directory name on purpose:
    the atomic rename that claims it is what detects concurrent savers, so
    two writers can never produce the same version.  Tags are recorded in
    the checkpoint metadata (``metadata["tag"]``) rather than the name
    (legacy ``v0002-tag`` directories are still read).
    """

    _VERSION_RE = re.compile(r"^v(\d{4,})(?:-(.+))?$")

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def versions(self) -> list[Path]:
        """Existing version directories, oldest first."""
        found = []
        for entry in self.root.iterdir():
            if entry.is_dir():
                match = self._VERSION_RE.match(entry.name)
                if match:
                    found.append((int(match.group(1)), entry))
        # Name is the tiebreak for legacy tagged duplicates of one number,
        # so latest() is deterministic regardless of directory-scan order.
        return [
            entry
            for _, entry in sorted(found, key=lambda pair: (pair[0], pair[1].name))
        ]

    def latest(self) -> Path:
        """Path of the newest version (:class:`CheckpointError` if none)."""
        versions = self.versions()
        if not versions:
            raise CheckpointError(f"no checkpoint versions under {self.root}")
        return versions[-1]

    def save(
        self,
        network: SlideNetwork,
        optimizer: Optimizer | None = None,
        metadata: Mapping[str, Any] | None = None,
        tag: str | None = None,
        max_attempts: int = 16,
        keep_last: int | None = None,
    ) -> Path:
        """Write a new version directory and return its path.

        Versions are never overwritten: if a concurrent saver claims the
        same number first (detected atomically by the final rename), the
        store rescans and retries with the next number.  ``tag`` lands in
        the checkpoint metadata, keeping the claimed name — and therefore
        collision detection — independent of it.

        ``keep_last=N`` auto-prunes after a successful save (see
        :meth:`prune`), so a long-running publish loop does not grow disk
        unboundedly.
        """
        if tag is not None:
            metadata = {**(metadata or {}), "tag": tag}
        if keep_last is not None and keep_last < 1:
            raise ValueError("keep_last must be at least 1")
        last_error: CheckpointExistsError | None = None
        for _ in range(max_attempts):
            versions = self.versions()
            next_number = 1
            if versions:
                match = self._VERSION_RE.match(versions[-1].name)
                assert match is not None
                next_number = int(match.group(1)) + 1
            try:
                saved = save_checkpoint(
                    self.root / f"v{next_number:04d}",
                    network,
                    optimizer,
                    metadata,
                    overwrite=False,
                )
            except CheckpointExistsError as exc:
                last_error = exc
                continue
            if keep_last is not None:
                self.prune(keep_last=keep_last)
            return saved
        raise CheckpointError(
            f"could not claim a version under {self.root} "
            f"after {max_attempts} attempts"
        ) from last_error

    def load_latest(self, load_optimizer: bool = True) -> LoadedCheckpoint:
        """Load the newest version."""
        return load_checkpoint(self.latest(), load_optimizer=load_optimizer)

    def latest_valid(self) -> Path:
        """Newest version that passes :func:`verify_checkpoint`.

        The resume entry point after an unclean shutdown: a torn or
        corrupted newest version (crash mid-write on a non-atomic
        filesystem, disk damage) is skipped and the scan falls back to the
        next older one, so a run resumes from the last *good* checkpoint
        instead of dying on the bad one.  Raises :class:`CheckpointError`
        when no intact version exists.
        """
        versions = self.versions()
        if not versions:
            raise CheckpointError(f"no checkpoint versions under {self.root}")
        errors: list[str] = []
        for candidate in reversed(versions):
            try:
                verify_checkpoint(candidate)
            except CheckpointError as exc:
                errors.append(f"{candidate.name}: {exc}")
                continue
            return candidate
        raise CheckpointError(
            f"no intact checkpoint under {self.root}; "
            "all versions failed verification:\n" + "\n".join(errors)
        )

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def prune(self, keep_last: int) -> list[Path]:
        """Delete all but the newest ``keep_last`` versions.

        Pinned versions (see :meth:`pin`) are never deleted, so a watcher
        mid-load on an older version cannot have the directory ripped out
        from under it — the next prune collects the version once the pin is
        released.  Returns the paths actually removed.
        """
        if keep_last < 1:
            raise ValueError("keep_last must be at least 1")
        removed: list[Path] = []
        for candidate in self.versions()[:-keep_last]:
            if self._is_pinned(candidate):
                continue
            shutil.rmtree(candidate, ignore_errors=True)
            removed.append(candidate)
        return removed

    @contextmanager
    def pin(self, version: str | Path) -> Iterator[Path]:
        """Hold ``version`` exempt from :meth:`prune` for the ``with`` body.

        The pin is a marker file *inside* the version directory, so it works
        across processes (a trainer pruning in one process cannot delete a
        version a server is loading in another) and cannot leak beyond the
        directory's own lifetime.
        """
        path = Path(version)
        if not path.is_absolute():
            path = self.root / path
        marker = path / f".pin-{os.getpid()}-{time.monotonic_ns()}"
        marker.touch()
        try:
            yield path
        finally:
            marker.unlink(missing_ok=True)

    @staticmethod
    def _is_pinned(version: Path) -> bool:
        return any(version.glob(".pin-*"))
