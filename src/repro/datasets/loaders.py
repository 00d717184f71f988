"""Loader for the Extreme Classification Repository file format.

The XC repository distributes Delicious-200K and Amazon-670K as text files
whose first line is a header ``num_examples num_features num_labels`` and
each subsequent line is::

    label1,label2,... feat1:val1 feat2:val2 ...

If the real files are available on disk this loader turns them into the same
:class:`~repro.types.SparseExample` lists the synthetic generator produces,
so every experiment in the harness can run on real data unchanged.  For the
full-size corpora the eager list-of-objects representation is too heavy;
:mod:`repro.data` builds on :func:`parse_xc_tokens` to stream the same format
into memory-mapped CSR shards instead.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.types import IntArray, FloatArray, SparseExample, SparseVector

__all__ = [
    "parse_xc_tokens",
    "parse_xc_line",
    "iter_xc_rows",
    "load_xc_file",
    "write_xc_file",
    "read_xc_header",
    "check_xc_count",
]

_INT64_MAX = int(np.iinfo(np.int64).max)
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def parse_xc_tokens(
    line: str, feature_dim: int
) -> tuple[IntArray, IntArray, FloatArray]:
    """Parse one XC-format line into ``(labels, feature_indices, values)``.

    Duplicate ``feat:val`` tokens are coalesced by summing their values (the
    CSR convention), and the returned feature indices are sorted and unique —
    the contract every downstream ``searchsorted``/CSR consumer assumes.
    A negative label, and a (summed) value that is NaN, infinite or past
    the float32 range, raise ``ValueError``: the model would index the last
    label with ``-1`` and train on the non-finite value without complaint.
    """
    line = line.strip()
    if not line:
        raise ValueError("cannot parse an empty line")
    parts = line.split(" ")
    label_part = parts[0]
    feature_parts = parts[1:]

    # A line may legitimately have no labels, in which case the first token is
    # already a feature:value pair.
    labels: list[int] = []
    if ":" in label_part:
        feature_parts = parts
    elif label_part:
        labels = [int(token) for token in label_part.split(",") if token != ""]
        for label in labels:
            if not 0 <= label <= _INT64_MAX:
                raise ValueError(f"label {label} is not a non-negative int64")

    indices: list[int] = []
    values: list[float] = []
    for token in feature_parts:
        if not token:
            continue
        feature, _, value = token.partition(":")
        idx = int(feature)
        if idx < 0 or idx >= feature_dim:
            raise ValueError(f"feature index {idx} out of range [0, {feature_dim})")
        indices.append(idx)
        values.append(float(value))

    index_array = np.asarray(indices, dtype=np.int64)
    value_array = np.asarray(values, dtype=np.float64)
    if index_array.size:
        order = np.argsort(index_array, kind="stable")
        index_array = index_array[order]
        value_array = value_array[order]
        unique, first = np.unique(index_array, return_index=True)
        if unique.size != index_array.size:
            # Coalesce duplicate features by summing their values.
            value_array = np.add.reduceat(value_array, first)
            index_array = unique
        # abs() <= max is False for NaN and the infinities too.
        bad = np.flatnonzero(~(np.abs(value_array) <= _FLOAT32_MAX))
        if bad.size:
            raise ValueError(
                f"feature {index_array[bad[0]]} has value {value_array[bad[0]]}, "
                "not a finite float32 number"
            )
    return np.asarray(labels, dtype=np.int64), index_array, value_array


def parse_xc_line(line: str, feature_dim: int) -> SparseExample:
    """Parse one example line of the XC repository format."""
    labels, indices, values = parse_xc_tokens(line, feature_dim)
    features = SparseVector(indices=indices, values=values, dimension=feature_dim)
    return SparseExample(features=features, labels=labels)


def read_xc_header(line: str) -> tuple[int, int, int]:
    """Parse the ``num_examples num_features num_labels`` header line."""
    header = line.strip().split()
    if len(header) != 3:
        raise ValueError(
            "line 1: expected header 'num_examples num_features num_labels', "
            f"got {header!r}"
        )
    try:
        num_examples, feature_dim, label_dim = (int(token) for token in header)
    except ValueError as exc:
        raise ValueError(f"line 1: malformed header: {exc}") from exc
    if feature_dim <= 0 or label_dim <= 0:
        raise ValueError("line 1: header dimensions must be positive")
    return num_examples, feature_dim, label_dim


def check_xc_count(num_examples: int, count: int) -> None:
    """Raise unless the header's example count matches the rows read."""
    if count != num_examples:
        raise ValueError(
            f"line 1: header promised {num_examples} examples but file "
            f"contains {count}"
        )


def iter_xc_rows(
    path: str | Path,
    feature_dim: int,
    label_dim: int,
    max_examples: int | None = None,
) -> Iterator[tuple[IntArray, IntArray, FloatArray]]:
    """Stream an XC file's body as parsed ``(labels, indices, values)`` rows.

    The single source of truth for the format's line discipline — blank
    lines are skipped, every parse error names its 1-based line, labels are
    range-checked — shared by the eager
    :func:`load_xc_file` and the streaming ingest (:mod:`repro.data.ingest`)
    so the two paths can never drift apart on what they accept.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    count = 0
    with path.open("r", encoding="utf-8") as handle:
        handle.readline()  # the header; callers parse it via read_xc_header
        for line_number, line in enumerate(handle):
            if max_examples is not None and count >= max_examples:
                return
            if not line.strip():
                continue
            try:
                labels, indices, values = parse_xc_tokens(line, feature_dim)
            except ValueError as exc:
                raise ValueError(
                    f"failed to parse line {line_number + 2}: {exc}"
                ) from exc
            if labels.size and labels.max() >= label_dim:
                raise ValueError(
                    f"label index {labels.max()} out of range on line {line_number + 2}"
                )
            count += 1
            yield labels, indices, values


def load_xc_file(path: str | Path, max_examples: int | None = None) -> tuple[list[SparseExample], int, int]:
    """Load an XC-format file.

    Returns ``(examples, feature_dim, label_dim)``.  ``max_examples`` truncates
    the file (useful for smoke tests on the very large original datasets).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with path.open("r", encoding="utf-8") as handle:
        num_examples, feature_dim, label_dim = read_xc_header(handle.readline())
    examples = [
        SparseExample(
            features=SparseVector(
                indices=indices, values=values, dimension=feature_dim
            ),
            labels=labels,
        )
        for labels, indices, values in iter_xc_rows(
            path, feature_dim, label_dim, max_examples
        )
    ]
    if max_examples is None:
        check_xc_count(num_examples, len(examples))
    return examples, feature_dim, label_dim


def write_xc_file(
    path: str | Path,
    examples: Sequence[SparseExample],
    feature_dim: int,
    label_dim: int,
) -> Path:
    """Write examples back out in the XC repository text format.

    The inverse of :func:`load_xc_file`, used to materialise synthetic
    datasets as real-format files for the ingest pipeline's benchmarks and
    round-trip tests.  An example with neither labels nor features has no
    representation in the format (its line would be blank, and the readers
    skip blank lines), so it is rejected rather than silently breaking the
    round trip.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"{len(examples)} {feature_dim} {label_dim}\n")
        for row, example in enumerate(examples):
            if not example.labels.size and not example.features.nnz:
                raise ValueError(
                    f"example {row} has no labels and no features; the XC text "
                    "format cannot represent a fully empty example"
                )
            labels = ",".join(str(int(label)) for label in example.labels)
            features = " ".join(
                f"{int(idx)}:{float(val):.17g}"
                for idx, val in zip(example.features.indices, example.features.values)
            )
            handle.write(f"{labels} {features}".strip() + "\n")
    return path
