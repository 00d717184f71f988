"""Model state: the one naming of a model's arrays, and versioned checkpoints.

:func:`model_arrays` names every live array of a network and its optimiser
(``layer{i}.weights``, ``layer{i}.biases``, ``optim.{param}.{slot}``).
Checkpoints store those names, restores copy into them in place, and the
shared-memory parameter store places them in shared blocks that
:func:`bind_model_arrays` points the model at.

A checkpoint is a directory with two files:

* ``arrays.npz`` — the :func:`model_arrays`, the network's ``iteration``,
  and the LSH index contents of every hash-enabled layer
  (``layer{i}.lsh_items`` / ``layer{i}.lsh_codes``: the layer's rows
  ``0..n-1`` and each row's ``(L, K)`` hash codes);
* ``manifest.json`` — a :class:`CheckpointManifest`: format version, the
  network config, the optimiser's config, step count and state slots, user
  metadata, and a SHA-256 checksum of the array payload.

:func:`restore_checkpoint_into` is the one restore: every ``model_arrays``
name must be in the payload with the live shape, and is copied in place
(``SlideNetwork.from_checkpoint`` builds a network from the stored config
and runs it).  The stored hash codes are *replayed* into the index — the
hash functions are deterministic given ``(config, seed)``, so only the table
contents travel.  Replay reproduces bucket membership exactly for any bucket
that never overflowed; the eviction order of overflowed FIFO buckets is not
preserved (a full ``rebuild_all_tables()`` restores the canonical state if
required).

Integrity is enforced end-to-end: a truncated, bit-flipped, or partially
written ``arrays.npz`` fails the checksum, and a manifest that does not
decode strictly into a :class:`CheckpointManifest` (not a JSON object, a
wrongly typed or missing field, non-object metadata) raises
:class:`CheckpointError` instead of yielding a silently corrupt model.

:class:`CheckpointStore` layers monotonically numbered versions
(``v0001``, ``v0002``, …) on top, which is what the training loop and the
model server share: the trainer appends versions, the server loads
``latest()``, and a resumed run restores ``latest_valid()`` through
:func:`restore_train_state`.

This module sits below :mod:`repro.core`: it reads a network only through
its ``layers``, ``config`` and ``iteration``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shutil
import time
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

import numpy as np

from repro import __version__
from repro.config import OptimizerConfig, SlideNetworkConfig, from_dict, to_dict
from repro.optim.base import Optimizer
from repro.types import FloatArray

if TYPE_CHECKING:
    from repro.core.network import SlideNetwork

__all__ = [
    "model_arrays",
    "bind_model_arrays",
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointExistsError",
    "CheckpointManifest",
    "OptimizerEntry",
    "save_checkpoint",
    "read_manifest",
    "verify_checkpoint",
    "restore_checkpoint_into",
    "restore_train_state",
    "CheckpointStore",
]

CHECKPOINT_FORMAT_VERSION = 1

_MANIFEST_NAME = "manifest.json"
_ARRAYS_NAME = "arrays.npz"
# How many version numbers CheckpointStore.save tries before giving up to
# concurrent savers.
_SAVE_ATTEMPTS = 16


# ----------------------------------------------------------------------
# The model's arrays under one naming
# ----------------------------------------------------------------------
def model_arrays(
    network: SlideNetwork, optimizer: Optimizer | None = None
) -> dict[str, FloatArray]:
    """Every live array of ``network`` (and ``optimizer``) under its one name.

    ``layer{i}.weights`` and ``layer{i}.biases`` per layer, then
    ``optim.{param}.{slot}`` per optimiser state array (Adam's ``m`` and
    ``v``), in registration order.  The values are the live arrays, not
    copies.  Checkpoints store these names in ``arrays.npz``, restores copy
    into them in place, and the shared-memory store places them in shared
    blocks that :func:`bind_model_arrays` points the model at.
    """
    arrays: dict[str, FloatArray] = {}
    for layer in network.layers:
        arrays[f"{layer.name}.weights"] = layer.weights
        arrays[f"{layer.name}.biases"] = layer.biases
    if optimizer is not None:
        for param, slot, array in optimizer.state_items():
            arrays[f"optim.{param}.{slot}"] = array
    return arrays


def bind_model_arrays(
    network: SlideNetwork,
    optimizer: Optimizer | None,
    arrays: Mapping[str, FloatArray],
) -> None:
    """Rebind every live array to the same-named array of ``arrays``.

    The names are those of :func:`model_arrays`; each replacement must have
    the shape of the array it replaces (``ValueError`` otherwise, before
    anything is rebound).  Later training reads and writes through the new
    arrays: bind shared-memory views to train in place, and private copies
    to detach from them again.
    """
    for name, current in model_arrays(network, optimizer).items():
        if name not in arrays:
            raise ValueError(f"no array named {name!r} to bind")
        if arrays[name].shape != current.shape:
            raise ValueError(
                f"array {name!r} has shape {current.shape}; "
                f"cannot rebind to shape {arrays[name].shape}"
            )
    for layer in network.layers:
        layer.weights = arrays[f"{layer.name}.weights"]
        layer.biases = arrays[f"{layer.name}.biases"]
    if optimizer is not None:
        for param, slot, _ in optimizer.state_items():
            optimizer.set_state_array(param, slot, arrays[f"optim.{param}.{slot}"])


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
class CheckpointError(RuntimeError):
    """A checkpoint is missing, structurally invalid, or fails its checksum."""


class CheckpointExistsError(CheckpointError):
    """A checkpoint already occupies the target path (``overwrite=False``)."""


@dataclass(frozen=True)
class OptimizerEntry:
    """The manifest's optimiser section: config, step count, state slots."""

    config: OptimizerConfig
    step_count: int
    # Parameter name -> sorted state slot names (``("m", "v")`` for Adam);
    # the arrays themselves are ``optim.{param}.{slot}`` in the payload.
    parameters: dict[str, tuple[str, ...]]


@dataclass(frozen=True, kw_only=True)
class CheckpointManifest:
    """``manifest.json``, decoded strictly by :func:`repro.config.from_dict`.

    Field order is the written key order.
    """

    format_version: int
    repro_version: str = ""
    saved_unix_time: float = 0.0
    network_config: SlideNetworkConfig
    lsh_layers: tuple[int, ...] = ()
    optimizer: OptimizerEntry | None = None
    metadata: dict[str, Any] = field(default_factory=dict)
    arrays_file: str = _ARRAYS_NAME
    arrays_sha256: str


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
    arrays.update(model_arrays(network, optimizer))
    lsh_layers: list[int] = []
    for idx, layer in enumerate(network.layers):
        if layer.lsh_index is not None:
            items, codes = layer.lsh_index.snapshot_codes()
            arrays[f"layer{idx}.lsh_items"] = items
            arrays[f"layer{idx}.lsh_codes"] = codes
            lsh_layers.append(idx)

    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    payload = buffer.getvalue()
    (path / _ARRAYS_NAME).write_bytes(payload)

    manifest = CheckpointManifest(
        format_version=CHECKPOINT_FORMAT_VERSION,
        repro_version=__version__,
        saved_unix_time=time.time(),  # repro: allow[clock] metadata, not replayed
        network_config=network.config,
        lsh_layers=tuple(lsh_layers),
        optimizer=None if optimizer is None else OptimizerEntry(
            config=optimizer.to_config(),
            step_count=int(optimizer.step_count),
            parameters={
                name: tuple(sorted(optimizer.state_of(name)))
                for name in optimizer.parameter_names()
            },
        ),
        metadata=dict(metadata or {}),
        arrays_sha256=hashlib.sha256(payload).hexdigest(),
    )
    (path / _MANIFEST_NAME).write_text(json.dumps(to_dict(manifest), indent=2))

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
def read_manifest(path: str | Path) -> CheckpointManifest:
    """The one manifest reader: every malformed manifest is a CheckpointError."""
    path = Path(path)
    manifest_path = path / _MANIFEST_NAME
    if not manifest_path.is_file():
        raise CheckpointError(f"no {_MANIFEST_NAME} in {path}")
    try:
        data = json.loads(manifest_path.read_text())
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise CheckpointError(f"corrupt manifest in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CheckpointError(
            f"malformed manifest in {path}: expected a JSON object, "
            f"got {type(data).__name__}"
        )
    # Checked before the strict decode, so a newer checkpoint reports its
    # version rather than the fields this build does not know.
    if data.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {data.get('format_version')!r} "
            f"(this build reads version {CHECKPOINT_FORMAT_VERSION})"
        )
    try:
        # The stored configs are decoded on their own first, so that an
        # error names the field as its config knows it ('layers[1].lsh.k').
        from_dict(SlideNetworkConfig, data.get("network_config"))
        if isinstance(data.get("optimizer"), dict):
            from_dict(OptimizerConfig, data["optimizer"].get("config"))
        return from_dict(CheckpointManifest, data)
    except ValueError as exc:
        raise CheckpointError(f"malformed manifest in {path}: {exc}") from exc


def _read_payload(path: Path, manifest: CheckpointManifest) -> bytes:
    """The array payload's bytes, after checking them against the manifest."""
    arrays_path = path / manifest.arrays_file
    if not arrays_path.is_file():
        raise CheckpointError(f"missing array payload {arrays_path.name} in {path}")
    payload = arrays_path.read_bytes()
    if hashlib.sha256(payload).hexdigest() != manifest.arrays_sha256:
        raise CheckpointError(
            f"checksum mismatch for {arrays_path.name} in {path}: "
            "the checkpoint is corrupt or partially written"
        )
    return payload


def _read_arrays(path: Path, manifest: CheckpointManifest) -> dict[str, np.ndarray]:
    payload = _read_payload(path, manifest)
    try:
        with np.load(io.BytesIO(payload)) as data:
            return {key: np.array(data[key]) for key in data.files}
    except (ValueError, OSError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"unreadable array payload in {path}: {exc}") from exc


def _restore(
    path: Path,
    manifest: CheckpointManifest,
    network: SlideNetwork,
    optimizer: Optimizer | None,
) -> None:
    """Copy the checkpoint at ``path`` into ``network`` (and ``optimizer``).

    The one restore behind :func:`restore_checkpoint_into`.  Every array of
    ``model_arrays(network, optimizer)`` must be in the payload with the
    live array's shape, and the manifest must list exactly the optimiser's
    parameters and slots; all of it is checked before anything is written.
    Arrays are copied in place, so every reference to them (registered
    optimiser slots, shared-memory bindings) stays valid, and float64
    payloads load by cast.  A manifest without an optimiser entry leaves a
    passed ``optimizer`` untouched.
    """
    arrays = _read_arrays(path, manifest)
    entry = manifest.optimizer
    if entry is None:
        optimizer = None
    elif optimizer is not None:
        slots = {
            name: tuple(sorted(optimizer.state_of(name)))
            for name in optimizer.parameter_names()
        }
        if entry.parameters != slots:
            raise CheckpointError(
                f"optimiser state in {path} does not match the optimiser: "
                f"stored {entry.parameters}, live {slots}"
            )
    live = model_arrays(network, optimizer)
    for name, array in live.items():
        if name not in arrays:
            raise CheckpointError(f"missing array {name} in {path}")
        if arrays[name].shape != array.shape:
            raise CheckpointError(
                f"array {name} in {path} has shape {arrays[name].shape}; "
                f"the model's is {array.shape}"
            )
    lsh_layers = [
        idx for idx, layer in enumerate(network.layers) if layer.lsh_index is not None
    ]
    for idx in lsh_layers:
        if f"layer{idx}.lsh_items" not in arrays or f"layer{idx}.lsh_codes" not in arrays:
            raise CheckpointError(f"missing LSH index contents for layer {idx} in {path}")
        # The index holds every row of the layer, by position.
        rows = network.layers[idx].size
        items, codes = arrays[f"layer{idx}.lsh_items"], arrays[f"layer{idx}.lsh_codes"]
        if not np.array_equal(items, np.arange(rows)) or codes.shape[:1] != (rows,):
            raise CheckpointError(
                f"LSH index contents for layer {idx} in {path} are not the "
                f"layer's {rows} rows in order"
            )

    for name, array in live.items():
        array[...] = arrays[name]
    for idx in lsh_layers:
        try:
            network.layers[idx].lsh_index.restore_codes(
                arrays[f"layer{idx}.lsh_items"], arrays[f"layer{idx}.lsh_codes"]
            )
        except ValueError as exc:
            raise CheckpointError(
                f"bad LSH index contents for layer {idx} in {path}: {exc}"
            ) from exc
    network.iteration = int(arrays.get("iteration", 0))
    if optimizer is not None:
        optimizer.step_count = entry.step_count


def verify_checkpoint(path: str | Path) -> dict[str, Any]:
    """Cheap integrity check: manifest well-formed, payload checksum intact.

    Returns the manifest's dict form on success; raises
    :class:`CheckpointError` on a missing, truncated, or corrupt checkpoint.
    Does *not* build a network, so resume paths can scan several candidate
    versions quickly.
    """
    path = Path(path)
    manifest = read_manifest(path)
    _read_payload(path, manifest)
    return to_dict(manifest)


def restore_checkpoint_into(
    path: str | Path,
    network: SlideNetwork,
    optimizer: Optimizer | None = None,
) -> dict[str, Any]:
    """Restore a checkpoint *in place* into a live network (and optimiser).

    This overwrites the arrays of an existing ``network``/``optimizer`` pair
    — preserving every external reference to them (shared-memory bindings, registered optimiser slots,
    LSH index views).  The stored hash codes are replayed into the layers'
    own indexes, so the restored tables match the saving network's exactly
    (the checkpoint was saved canonical: dirty neurons re-hashed first).

    The stored network config must match ``network.config``; a mismatch
    raises :class:`CheckpointError`.  Returns the checkpoint metadata.
    """
    path = Path(path)
    manifest = read_manifest(path)
    if manifest.network_config != network.config:
        raise CheckpointError(
            f"checkpoint {path} was saved with a different network config; "
            "resume requires an identical architecture and seed"
        )
    _restore(path, manifest, network, optimizer)
    return dict(manifest.metadata)


def restore_train_state(
    resume: str | Path,
    network: SlideNetwork,
    optimizer: Optimizer | None,
    mode: str,
    seed: int,
) -> dict[str, Any]:
    """The one resume entry: restore a mid-run checkpoint, return its train state.

    ``resume`` is a checkpoint directory or a :class:`CheckpointStore` root,
    which resolves to its newest intact version (:meth:`~CheckpointStore.
    latest_valid`).  The checkpoint is restored in place
    (:func:`restore_checkpoint_into`); its ``metadata["train_state"]`` must
    come from a ``mode`` run (``"inline"`` or ``"process"``) with the same
    ``seed``, else :class:`CheckpointError`.  The caller checks what only
    its own mode records.
    """
    path = Path(resume)
    if not (path / _MANIFEST_NAME).is_file():
        path = CheckpointStore(path).latest_valid()
    metadata = restore_checkpoint_into(path, network, optimizer)
    state = metadata.get("train_state")
    if not isinstance(state, dict) or state.get("mode") != mode:
        raise CheckpointError(
            f"checkpoint {path} carries no {mode} training state; "
            f"it cannot seed a resume in {mode} mode"
        )
    if state.get("seed") != seed:
        raise CheckpointError(
            f"checkpoint {path} was trained with seed {state.get('seed')!r}; "
            f"this run uses seed {seed}"
        )
    return state


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
    two writers can never produce the same version.  Labels belong in the
    checkpoint metadata.

    Opening a store touches nothing on disk: the root is created by the
    first :meth:`save`, and a missing root simply has no versions.
    """

    _VERSION_RE = re.compile(r"^v(\d{4,})$")

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def versions(self) -> list[Path]:
        """Existing version directories, oldest first."""
        if not self.root.is_dir():
            return []
        found = [
            (int(entry.name[1:]), entry)
            for entry in self.root.iterdir()
            if entry.is_dir() and self._VERSION_RE.match(entry.name)
        ]
        return [entry for _, entry in sorted(found)]

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
        keep_last: int | None = None,
    ) -> Path:
        """Write a new version directory and return its path.

        Versions are never overwritten: if a concurrent saver claims the
        same number first (detected atomically by the final rename), the
        store rescans and retries with the next number.

        ``keep_last=N`` auto-prunes after a successful save (see
        :meth:`prune`), so a long-running publish loop does not grow disk
        unboundedly.
        """
        if keep_last is not None and keep_last < 1:
            raise ValueError("keep_last must be at least 1")
        last_error: CheckpointExistsError | None = None
        for _ in range(_SAVE_ATTEMPTS):
            versions = self.versions()
            next_number = int(versions[-1].name[1:]) + 1 if versions else 1
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
            f"after {_SAVE_ATTEMPTS} attempts"
        ) from last_error

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
