"""Named ndarrays in ``multiprocessing.shared_memory`` blocks.

:class:`SharedParamStore` is how the process-HOGWILD trainer shares the
model: the parent creates one block per array and hands its workers a
JSON-safe *manifest*; each worker — forked or spawned — reattaches the
blocks zero-copy from that manifest.  Each array keeps its memory order
(row- or column-major), so a worker walks the same layout as the parent.
:meth:`SharedParamStore.attach` trusts nothing in the manifest it is given:
a format, name, block name, shape, dtype or order it cannot use is a
``ValueError`` naming the array and the field, raised before any block is
mapped.
"""

from __future__ import annotations

import math
import os
import secrets
from typing import Mapping

import numpy as np

__all__ = ["SharedParamStore"]

MANIFEST_FORMAT = 1
_SPEC_FIELDS = frozenset({"shm", "shape", "dtype", "order"})
# Bool, signed / unsigned int, float and complex: fixed-size values that
# are safe to read from any bytes.  Object, string, void and datetime
# dtypes are refused (reading an object array through foreign bytes
# dereferences them as pointers).
_NUMERIC_KINDS = frozenset("biufc")


def _attach_segment(name: str):
    """Attach an existing shared-memory block, untracked where possible.

    Python 3.13+ exposes ``track=False`` so attaching registers nothing with
    the resource tracker.  On older interpreters the attach *does* register,
    which is harmless here: every attaching process in this package is a
    descendant of the creating one, so all of them share the creator's
    resource-tracker process, whose cache is a set — the re-registration is
    idempotent and exactly one unregister happens when the owner unlinks.
    (The classic premature-unlink hazard, bpo-38119, needs *independent*
    trackers, i.e. attaching from an unrelated process — not our topology.)
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter.
        return shared_memory.SharedMemory(name=name, create=False)


def _parse_spec(
    name: object, spec: object
) -> tuple[str, tuple[int, ...], np.dtype, str]:
    """``(block name, shape, dtype, order)`` of one manifest entry, or ``ValueError``."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"manifest array name {name!r} is not a non-empty string")
    if not isinstance(spec, Mapping):
        raise ValueError(f"array {name!r}: spec is {type(spec).__name__}, not a mapping")
    if set(spec) != _SPEC_FIELDS:
        raise ValueError(
            f"array {name!r}: spec fields are {sorted(map(str, spec))}, "
            f"expected {sorted(_SPEC_FIELDS)}"
        )
    shm = spec["shm"]
    if not isinstance(shm, str) or not shm:
        raise ValueError(f"array {name!r}: field 'shm' must be a non-empty string, got {shm!r}")
    shape = spec["shape"]
    if not isinstance(shape, list) or not all(
        isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0 for dim in shape
    ):
        raise ValueError(
            f"array {name!r}: field 'shape' must be a list of non-negative ints, got {shape!r}"
        )
    dtype_name = spec["dtype"]
    try:
        if not isinstance(dtype_name, str):
            raise TypeError
        dtype = np.dtype(dtype_name)
    except (TypeError, ValueError):
        raise ValueError(f"array {name!r}: field 'dtype' {dtype_name!r} is not a dtype") from None
    # Structured and sub-array dtypes are kind "V", so this refuses them too.
    if dtype.kind not in _NUMERIC_KINDS:
        raise ValueError(
            f"array {name!r}: field 'dtype' {dtype_name!r} is not a fixed-size "
            "numeric or bool dtype"
        )
    order = spec["order"]
    if order not in ("C", "F"):  # row-major, or column-major (a layer without LSH)
        raise ValueError(f"array {name!r}: field 'order' must be 'C' or 'F', got {order!r}")
    return shm, tuple(shape), dtype, order


class SharedParamStore:
    """Named ndarrays backed by ``multiprocessing.shared_memory`` blocks.

    One block per array.  The creating process copies the source arrays in
    (:meth:`create`) and owns the blocks' lifetime (:meth:`unlink`); any
    process holding the :meth:`manifest` can :meth:`attach` zero-copy views
    of the same memory.  Views returned by ``store[name]`` stay valid until
    :meth:`close`; callers must drop every outstanding view (rebind the
    model to ``{name: store.copy_out(name)}`` with
    :func:`~repro.state.bind_model_arrays`) before closing, or the
    export check in ``mmap.close`` will refuse.
    """

    def __init__(
        self,
        segments: dict[str, object],
        arrays: dict[str, np.ndarray],
        specs: dict[str, dict[str, object]],
        owner: bool,
    ) -> None:
        self._segments = segments
        self._arrays = arrays
        self._specs = specs
        self._owner = owner
        self._closed = False

    @classmethod
    def create(
        cls, arrays: Mapping[str, np.ndarray], prefix: str = "slide"
    ) -> "SharedParamStore":
        """Allocate shared blocks for ``arrays`` and copy their contents in."""
        from multiprocessing import shared_memory

        if not arrays:
            raise ValueError("arrays must not be empty")
        token = secrets.token_hex(4)
        segments: dict[str, object] = {}
        views: dict[str, np.ndarray] = {}
        specs: dict[str, dict[str, object]] = {}
        try:
            for index, (name, array) in enumerate(arrays.items()):
                if not name:
                    raise ValueError("array names must be non-empty")
                source = np.asarray(array)
                order = "F" if np.isfortran(source) else "C"
                shm_name = f"{prefix}-{os.getpid():x}-{token}-{index}"
                segment = shared_memory.SharedMemory(
                    name=shm_name, create=True, size=max(source.nbytes, 1)
                )
                view = np.ndarray(source.shape, source.dtype, segment.buf, order=order)
                view[...] = source
                segments[name] = segment
                views[name] = view
                specs[name] = {
                    "shm": shm_name,
                    "shape": [int(dim) for dim in source.shape],
                    "dtype": source.dtype.str,
                    "order": order,
                }
        except BaseException:
            for name, segment in segments.items():
                views.pop(name, None)
                segment.close()
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
            raise
        return cls(segments, views, specs, owner=True)

    @classmethod
    def attach(cls, manifest: Mapping[str, object]) -> "SharedParamStore":
        """Reattach every block described by ``manifest`` (zero-copy).

        The whole manifest is checked before the first block is mapped; a
        block that is missing raises ``FileNotFoundError``, one smaller
        than its shape and dtype need a ``ValueError``, and either way the
        blocks already attached are closed again.
        """
        if not isinstance(manifest, Mapping):
            raise ValueError(f"manifest is {type(manifest).__name__}, not a mapping")
        version = manifest.get("format")
        if type(version) is not int or version != MANIFEST_FORMAT:
            raise ValueError(
                f"manifest field 'format' is {version!r}; only {MANIFEST_FORMAT} is known"
            )
        entries = manifest.get("arrays")
        if not isinstance(entries, Mapping) or not entries:
            raise ValueError("manifest has no 'arrays' section")
        parsed = {name: _parse_spec(name, spec) for name, spec in entries.items()}
        segments: dict[str, object] = {}
        views: dict[str, np.ndarray] = {}
        specs: dict[str, dict[str, object]] = {}
        try:
            for name, (shm, shape, dtype, order) in parsed.items():
                segment = _attach_segment(shm)
                segments[name] = segment
                expected = math.prod(shape) * dtype.itemsize
                if segment.size < expected:
                    raise ValueError(
                        f"array {name!r}: shared block {shm!r} holds {segment.size} "
                        f"bytes; field 'shape' {list(shape)} of {dtype.str} needs {expected}"
                    )
                try:
                    views[name] = np.ndarray(shape, dtype, segment.buf, order=order)
                except ValueError as exc:  # e.g. more dimensions than numpy allows
                    raise ValueError(f"array {name!r}: field 'shape': {exc}") from None
                specs[name] = dict(
                    shm=shm, shape=list(shape), dtype=dtype.str, order=order
                )
        except BaseException:
            views.clear()
            for segment in segments.values():
                segment.close()
            raise
        return cls(segments, views, specs, owner=False)

    def names(self) -> list[str]:
        return list(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __getitem__(self, name: str) -> np.ndarray:
        if self._closed:
            raise RuntimeError("store is closed; views are no longer valid")
        return self._arrays[name]

    def copy_out(self, name: str) -> np.ndarray:
        """A private (non-shared) copy of the named array's current contents."""
        return np.array(self[name])

    def manifest(self) -> dict[str, object]:
        """JSON-serialisable layout: pass to workers, :meth:`attach` there."""
        return {
            "format": MANIFEST_FORMAT,
            "arrays": {name: dict(spec) for name, spec in self._specs.items()},
        }

    def close(self) -> None:
        """Detach from the blocks (views die; the memory itself survives)."""
        if self._closed:
            return
        self._arrays.clear()
        for segment in self._segments.values():
            segment.close()
        self._closed = True

    def unlink(self) -> None:
        """Free the blocks system-wide (owner's responsibility, idempotent)."""
        for segment in self._segments.values():
            try:
                segment.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedParamStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        if self._owner:
            self.unlink()
