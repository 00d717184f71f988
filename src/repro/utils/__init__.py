"""Small shared utilities: RNG helpers, sparse math, validation."""

from repro.utils.rng import derive_rng, spawn_rngs
from repro.utils.sparse import spans_all, take_rows
from repro.utils.topk import top_k_indices
from repro.utils.validation import (
    check_positive,
    check_probability,
    check_array_1d,
    check_in_range,
)

__all__ = [
    "derive_rng",
    "spawn_rngs",
    "spans_all",
    "take_rows",
    "top_k_indices",
    "check_positive",
    "check_probability",
    "check_array_1d",
    "check_in_range",
]
