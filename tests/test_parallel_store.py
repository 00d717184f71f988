"""``SharedParamStore.attach`` trusts nothing in its manifest.

A worker attaches the parent's blocks from a JSON manifest; a manifest it
cannot use must be a ``ValueError`` naming the array and the field, raised
before any block is mapped, and never an attach that reads memory through a
dtype or shape the block was not written with.  The seeded sweep mutates a
valid manifest 200 ways: each mutation either attaches exactly the original
arrays or raises ``ValueError``.
"""

from __future__ import annotations

import copy
import json
import random

import numpy as np
import pytest

from repro.parallel import store as store_module
from repro.parallel.store import SharedParamStore

ARRAYS = {
    "w": np.arange(6, dtype=np.float32).reshape(2, 3),
    "b": np.arange(4, dtype=np.int64) - 2,
    "m": np.array([True, False, True, True, False]),
}
# Spellings numpy reads as the very same dtype: the mutations that must
# still attach.
ALIASES = {
    "w": ("float32", "f4", "<f4", "=f4", "single"),
    "b": ("int64", "i8", "<i8", "=i8", "int"),
    "m": ("bool", "?", "|b1", "b1", "bool_"),
}
BAD_DTYPES = (
    "|O", "O", "object", "V8", "S4", "U2", "M8[s]", "m8", "T", "f8,i4",
    "(2,)f4", "xyz", "", 7, None, 4.0, ["f4"],
)
BAD_SHAPES = (
    "23", "2,3", [2.7, 1], [True, 3], [False], [-1], [2, -3], None, 6, (2, 3),
    [[2, 3]], ["2", "3"], [2**70], [10**20, 10**20], [1] * 70,
)
BAD_VALUES = (None, 99, 0, 2, "1", 1.0, True, [1], {}, "", -1)
KINDS = ("format", "manifest", "name", "spec", "shm", "shape", "dtype", "alias")


def _mutation(manifest: dict, seed: int) -> tuple[object, str]:
    """One seeded mutation of ``manifest``; returns it and a label.

    The kind cycles with ``seed``, and so does the value each kind puts in
    (``turn``), so every listed value is reached; ``rng`` picks the array
    and the smaller choices.
    """
    rng = random.Random(seed)
    kind = KINDS[seed % len(KINDS)]
    turn = seed // len(KINDS)

    def pick(values):
        return values[turn % len(values)]

    out = copy.deepcopy(manifest)
    arrays = out["arrays"]
    name = rng.choice(sorted(arrays))
    spec = arrays[name]
    if kind == "format":
        if turn % 5 == 4:
            del out["format"]
            return out, "format deleted"
        value = pick(BAD_VALUES)
        out["format"] = value
        return out, f"format={value!r}"
    if kind == "manifest":
        choice = turn % 3
        if choice == 0:
            return rng.choice((None, [], "manifest", 7, ("format", 1))), "not a mapping"
        if choice == 1:
            del out["arrays"]
            return out, "arrays deleted"
        value = rng.choice((None, [], {}, "x", 3, [spec]))
        out["arrays"] = value
        return out, f"arrays={value!r}"
    if kind == "name":
        value = rng.choice(("", 3, None, (1,), "renamed", name + "2"))
        arrays[value] = arrays.pop(name)
        return out, f"name {name!r}->{value!r}"
    if kind == "spec":
        choice = rng.randrange(3)
        if choice == 0:
            value = rng.choice((None, [], "spec", 3, [spec["shm"]]))
            arrays[name] = value
            return out, f"spec {name}={value!r}"
        if choice == 1:
            field = rng.choice(sorted(spec))
            del spec[field]
            return out, f"{name}.{field} deleted"
        spec[rng.choice(("extra", "offset", "Shape"))] = 1
        return out, f"{name} extra field"
    if kind == "shm":
        value = rng.choice((None, 5, "", ["x"], b"x", 1.5))
        spec["shm"] = value
        return out, f"{name}.shm={value!r}"
    if kind == "shape":
        if turn % 5 == 4:
            # A valid shape that asks for more bytes than the block holds.
            grown = list(spec["shape"])
            at = rng.randrange(len(grown))
            grown[at] = grown[at] * 4096 + 1
            spec["shape"] = grown
            return out, f"{name}.shape grown to {grown}"
        value = pick(BAD_SHAPES)
        spec["shape"] = copy.deepcopy(value)
        return out, f"{name}.shape={value!r}"
    if kind == "dtype":
        value = pick(BAD_DTYPES)
        spec["dtype"] = copy.deepcopy(value)
        return out, f"{name}.dtype={value!r}"
    # alias: a manifest that means the same arrays.
    choice = rng.randrange(3)
    if choice == 0:
        value = rng.choice(ALIASES[name])
        spec["dtype"] = value
        return out, f"{name}.dtype alias {value!r}"
    if choice == 1:
        order = sorted(arrays)
        rng.shuffle(order)
        out["arrays"] = {key: arrays[key] for key in order}
        return out, "reordered"
    return json.loads(json.dumps(out)), "json round trip"


def _owner_of(manifest: dict) -> dict[str, str]:
    """Block name -> the array name that block was created for."""
    return {spec["shm"]: name for name, spec in manifest["arrays"].items()}


class TestAttachSweep:
    MUTATIONS = 200

    def test_every_mutation_attaches_the_same_arrays_or_raises_value_error(self):
        attached = errors = 0
        labels = []
        with SharedParamStore.create(ARRAYS, prefix="test-sweep") as store:
            manifest = store.manifest()
            owner = _owner_of(manifest)
            for seed in range(self.MUTATIONS):
                mutated, label = _mutation(manifest, seed)
                labels.append(label)
                context = f"mutation {seed} ({label})"
                try:
                    twin = SharedParamStore.attach(mutated)
                except ValueError:
                    errors += 1
                    continue
                attached += 1
                try:
                    for name in twin.names():
                        source = ARRAYS[owner[mutated["arrays"][name]["shm"]]]
                        view = twin[name]
                        # Checked before any value is read: a view through
                        # an object dtype would dereference the block's
                        # bytes as pointers.
                        assert view.dtype.kind in "biufc", context
                        assert view.dtype == source.dtype, context
                        assert view.shape == source.shape, context
                        np.testing.assert_array_equal(view, source, err_msg=context)
                finally:
                    twin.close()
        # The sweep reached the cases it exists for, and both outcomes occur.
        joined = "\n".join(labels)
        for needle in ("'|O'", "'23'", "[2.7, 1]", "[True, 3]", "format=99", "not a mapping"):
            assert needle in joined, needle
        assert attached >= 10
        assert errors > self.MUTATIONS // 2


class TestAttachRefusals:
    @pytest.fixture
    def store(self):
        with SharedParamStore.create(ARRAYS, prefix="test-refuse") as store:
            yield store

    def _with(self, store, name, field, value):
        manifest = store.manifest()
        manifest["arrays"][name][field] = value
        return manifest

    @pytest.mark.parametrize("dtype", ["|O", "object", "S4", "V8", "M8[s]", "T"])
    def test_a_non_numeric_dtype_is_refused_naming_array_and_field(self, store, dtype):
        with pytest.raises(ValueError, match=r"array 'w'.*'dtype'"):
            SharedParamStore.attach(self._with(store, "w", "dtype", dtype))

    @pytest.mark.parametrize("shape", ["23", [2.7, 1], [True, 3], [-1], (2, 3)])
    def test_a_malformed_shape_is_refused_not_coerced(self, store, shape):
        with pytest.raises(ValueError, match=r"array 'w'.*'shape'"):
            SharedParamStore.attach(self._with(store, "w", "shape", shape))

    @pytest.mark.parametrize("order", ["K", "A", "c", "f", "", None, 1, ["F"]])
    def test_an_unknown_order_is_refused_naming_array_and_field(self, store, order):
        with pytest.raises(ValueError, match=r"array 'w'.*'order'"):
            SharedParamStore.attach(self._with(store, "w", "order", order))

    def test_a_shape_past_the_block_is_refused(self, store):
        with pytest.raises(ValueError, match=r"array 'b'.*holds 32 bytes"):
            SharedParamStore.attach(self._with(store, "b", "shape", [10**20]))

    @pytest.mark.parametrize("version", [99, 2, "1", 1.0, True, None])
    def test_only_format_1_is_known(self, store, version):
        manifest = store.manifest()
        manifest["format"] = version
        with pytest.raises(ValueError, match="'format'"):
            SharedParamStore.attach(manifest)

    def test_malformed_containers_are_value_errors(self, store):
        with pytest.raises(ValueError, match="not a mapping"):
            SharedParamStore.attach(["format", 1])
        manifest = store.manifest()
        del manifest["arrays"]["w"]["shm"]
        with pytest.raises(ValueError, match=r"array 'w'.*fields"):
            SharedParamStore.attach(manifest)
        with pytest.raises(ValueError, match=r"array 'w'.*'dtype'"):
            SharedParamStore.attach(self._with(store, "w", "dtype", 7))

    def test_nothing_is_mapped_when_a_later_spec_is_bad(self, store, monkeypatch):
        attached = []
        monkeypatch.setattr(
            store_module, "_attach_segment", lambda name: attached.append(name)
        )
        with pytest.raises(ValueError, match=r"array 'm'"):
            SharedParamStore.attach(self._with(store, "m", "dtype", "|O"))
        assert attached == []

    def test_blocks_attached_before_a_failure_are_closed(self, store, monkeypatch):
        segments = []
        real = store_module._attach_segment

        def spy(name):
            segments.append(real(name))
            return segments[-1]

        monkeypatch.setattr(store_module, "_attach_segment", spy)
        # The last array's shape passes parsing but needs more bytes than
        # its block holds, so the first two are already mapped.
        with pytest.raises(ValueError, match=r"array 'm'.*holds 5 bytes"):
            SharedParamStore.attach(self._with(store, "m", "shape", [6]))
        assert len(segments) == 3
        assert all(segment.buf is None for segment in segments)
