"""Table 3 — wall-clock of hash-table insertion schemes (reservoir vs FIFO).

Mirrors Table 3 and extends it along the axis this repo optimises: each
policy row compares three maintenance styles on identical fingerprints —

* ``per_item_insert_s`` — the legacy maintenance pattern: one
  one-element call of the index's insertion helper per (neuron, table)
  with pre-packed keys;
* ``insertion_to_ht_s`` — the batched placement of the same pre-packed
  keys (one call of the same helper per table);
* ``full_insertion_s`` — hashing + key packing + batched placement (the
  cost of a cold ``build``);
* ``update_f*`` — the code-diff incremental ``update`` after re-drawing
  the weights of a fraction of the neurons, with the number of bucket
  moves actually applied, showing that incremental rebuild cost scales
  with the number of *changed* fingerprints.

(The paper inserts the 205,443 output neurons of Delicious-200K; the
configs here are scaled down but the relative ordering — reservoir
slightly cheaper than FIFO, both dwarfed by hashing — is preserved.)

``python -m repro.reports --run table3_insertion`` writes
``BENCH_table3_insertion.json`` at the repository root and fails if the
batched build drops below the speedup bar (5x at the full 50K-neuron
config, parity at the CI smoke config).
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import LSHConfig
from repro.harness.report import format_table
from repro.lsh.index import LSHIndex
from repro.reports.schema import CONFIG, NAT, POS, STR, rows
from repro.reports.spec import BenchSpec, MetricGate
from repro.utils.rng import derive_rng

UPDATE_FRACTIONS = (0.01, 0.1)

SPEC = BenchSpec(
    bench_id="table3_insertion",
    title="Hash-table insertion schemes: per-item vs batched vs code-diff update",
    paper_anchor="Table 3",
    schema={
        "type": "object",
        "required": ["config", "rows", "min_batched_speedup_vs_per_item"],
        "properties": {
            "config": CONFIG,
            "rows": rows(
                {
                    "policy": STR,
                    "num_neurons": NAT,
                    "hash_s": POS,
                    "per_item_insert_s": POS,
                    "insertion_to_ht_s": POS,
                    "full_insertion_s": POS,
                    "batched_items_per_s": POS,
                    "batched_speedup_vs_per_item": POS,
                },
                min_items=2,
            ),
            "min_batched_speedup_vs_per_item": POS,
        },
    },
    smoke_params={"num_neurons": 2000, "min_speedup": 1.0},
    full_params={"num_neurons": 50_000, "min_speedup": 5.0},
    measured=True,
    gates=(
        MetricGate("min_batched_speedup_vs_per_item", "higher", rel_tol=0.7),
        MetricGate("rows[policy=FIFO].batched_items_per_s", "higher", rel_tol=0.7),
    ),
)


def run(params: dict | None = None) -> dict:
    """Wall-clock of Reservoir vs FIFO table maintenance, three ways."""
    p = dict(params or {})
    num_neurons = int(p.get("num_neurons", 50_000))
    min_speedup = float(p.get("min_speedup", 5.0))
    dim = int(p.get("dim", 128))
    k = int(p.get("k", 6))
    l = int(p.get("l", 20))
    bucket_size = int(p.get("bucket_size", 64))
    seed = 0

    rng = derive_rng(seed)
    base_weights = rng.normal(size=(num_neurons, dim))
    item_ids = np.arange(num_neurons, dtype=np.int64)
    rows: list[dict[str, float | int | str]] = []
    for policy in ("reservoir", "fifo"):
        config = LSHConfig(
            hash_family="simhash", k=k, l=l, bucket_size=bucket_size, insertion_policy=policy
        )
        weights = base_weights.copy()

        # Shared preprocessing: one vectorised hash sweep + one key pack for
        # all tables (both insertion styles consume the same arrays).
        index = LSHIndex(dim, config, seed=seed)
        start = time.perf_counter()
        all_codes = index.hash_family.hash_matrix(weights)
        hash_seconds = time.perf_counter() - start
        start = time.perf_counter()
        all_keys = index._pack(all_codes)
        fingerprint_seconds = time.perf_counter() - start

        # Per-item placement (the legacy pattern).
        per_item_index = LSHIndex(dim, config, seed=seed)
        start = time.perf_counter()
        for neuron_id in range(num_neurons):
            item = item_ids[neuron_id : neuron_id + 1]
            for table_idx in range(l):
                per_item_index._insert(all_keys[neuron_id, table_idx : table_idx + 1], item)
        per_item_seconds = time.perf_counter() - start

        # Batched placement of the identical keys.
        start = time.perf_counter()
        for table_idx in range(l):
            index._insert(all_keys[:, table_idx], item_ids)
        batched_seconds = time.perf_counter() - start

        row: dict[str, float | int | str] = {
            "policy": "Reservoir Sampling" if policy == "reservoir" else "FIFO",
            "num_neurons": num_neurons,
            "hash_s": hash_seconds + fingerprint_seconds,
            "per_item_insert_s": per_item_seconds,
            "insertion_to_ht_s": batched_seconds,
            "full_insertion_s": hash_seconds + fingerprint_seconds + batched_seconds,
            "per_item_items_per_s": num_neurons / max(per_item_seconds, 1e-9),
            "batched_items_per_s": num_neurons / max(batched_seconds, 1e-9),
            "batched_speedup_vs_per_item": per_item_seconds / max(batched_seconds, 1e-9),
        }

        # Code-diff incremental updates at increasing dirty fractions.  The
        # proper index (its code matrix) is built once via the batched path,
        # then each fraction re-draws that many neuron weights.
        update_index = LSHIndex(dim, config, seed=seed)
        update_index.build(weights)
        for fraction in UPDATE_FRACTIONS:
            dirty = np.sort(
                rng.choice(
                    num_neurons, size=max(1, int(num_neurons * fraction)), replace=False
                )
            ).astype(np.int64)
            weights[dirty] = rng.normal(size=(dirty.size, dim))
            moved_before = update_index.num_moved_entries
            start = time.perf_counter()
            update_index.update(dirty, weights[dirty])
            update_seconds = time.perf_counter() - start
            moved = update_index.num_moved_entries - moved_before
            tag = f"update_f{fraction:g}"
            row[f"{tag}_s"] = update_seconds
            row[f"{tag}_dirty"] = int(dirty.size)
            row[f"{tag}_moved"] = int(moved)
            row[f"{tag}_items_per_s"] = dirty.size / max(update_seconds, 1e-9)
        rows.append(row)

    return {
        "config": {
            "num_neurons": num_neurons,
            "update_fractions": list(UPDATE_FRACTIONS),
            "min_speedup": min_speedup,
        },
        "rows": [
            {
                key: (round(value, 6) if isinstance(value, float) else value)
                for key, value in row.items()
            }
            for row in rows
        ],
        "min_batched_speedup_vs_per_item": round(
            min(row["batched_speedup_vs_per_item"] for row in rows), 2
        ),
    }


def check(payload: dict, smoke: bool) -> list[str]:
    """Batched placement beats the per-item loop at the declared bar.

    The paper's structural finding — bucket placement is dwarfed by hash
    computation, so the policy choice barely matters end to end — only
    holds for the *batched* placement; the per-item loop is exactly the
    overhead the flat tables remove.  Incremental update work must track
    the number of changed fingerprints.
    """
    min_speedup = float(payload["config"]["min_speedup"])
    problems: list[str] = []
    for row in payload["rows"]:
        policy = row["policy"]
        # (full_insertion_s = hash_s + insertion_to_ht_s by construction, so
        # only independently measured relations are asserted here.)
        if row["batched_speedup_vs_per_item"] < min_speedup:
            problems.append(
                f"{policy}: batched insertion is only "
                f"{row['batched_speedup_vs_per_item']:.2f}x the per-item loop "
                f"(bar: {min_speedup}x)"
            )
        small, large = UPDATE_FRACTIONS
        if not row[f"update_f{small:g}_moved"] < row[f"update_f{large:g}_moved"]:
            problems.append(f"{policy}: smaller dirty set did not move fewer entries")
    return problems


def print_report(payload: dict) -> None:
    print(
        format_table(
            payload["rows"], title="Table 3: time taken by hash table insertion schemes"
        )
    )
    print(
        "min batched/per-item speedup: "
        f"{payload['min_batched_speedup_vs_per_item']}x "
        f"(bar: {payload['config']['min_speedup']}x)"
    )
