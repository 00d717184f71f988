"""Figures 4 and 12 — per-query overhead of the three sampling strategies.

Reproduces the relative ordering of Figures 4 and 12: Vanilla is cheapest,
Hard-thresholding slightly more expensive, TopK clearly the most expensive
(it pays a frequency sort), with the gap widening as the number of indexed
neurons grows.
"""

import time
from collections import defaultdict

from repro.config import LSHConfig
from repro.harness.report import format_table
from repro.lsh.index import LSHIndex
from repro.reports.schema import CONFIG, NAT, POS, STR, rows
from repro.reports.spec import BenchSpec
from repro.sampling.strategies import HardThresholdSampling, TopKSampling, VanillaSampling
from repro.utils.rng import derive_rng

SPEC = BenchSpec(
    bench_id="fig4_sampling",
    title="Sampling-strategy retrieval overhead vs neuron count",
    paper_anchor="Fig 4 (and Fig 12)",
    schema={
        "type": "object",
        "required": ["config", "rows", "total_seconds_per_query"],
        "properties": {
            "config": CONFIG,
            "rows": rows(
                {
                    "num_neurons": NAT,
                    "strategy": STR,
                    "seconds_per_query": POS,
                    "mean_retrieved": POS,
                }
            ),
            "total_seconds_per_query": {
                "type": "object",
                "patternProperties": {".": POS},
            },
        },
    },
    smoke_params={"neuron_counts": [2000, 5000], "queries": 20},
    full_params={"neuron_counts": [2000, 3000, 4000, 5000, 6000, 7000], "queries": 20},
    measured=True,
    notes="Wall-clock micro-timing; ordering (TopK most expensive) is the claim.",
)


def run(params: dict | None = None) -> dict:
    """Time Vanilla / TopK / Hard-threshold retrieval vs neuron count."""
    p = dict(params or {})
    neuron_counts = tuple(p.get("neuron_counts", (2000, 3000, 4000, 5000, 6000, 7000)))
    queries = int(p.get("queries", 20))
    dim = int(p.get("dim", 128))
    seed = int(p.get("seed", 0))
    lsh = LSHConfig(
        hash_family="simhash", k=int(p.get("k", 6)), l=int(p.get("l", 20)), bucket_size=128
    )
    rng = derive_rng(seed)
    strategies = {
        "Vanilla Sampling": VanillaSampling(rng=derive_rng(seed, 1)),
        "TopK Sampling": TopKSampling(rng=derive_rng(seed, 2)),
        "Hard Thresholding": HardThresholdSampling(threshold=2, rng=derive_rng(seed, 3)),
    }
    timing_rows: list[dict[str, float | int | str]] = []
    totals: dict[str, float] = defaultdict(float)
    for num_neurons in neuron_counts:
        weights = rng.normal(size=(num_neurons, dim))
        index = LSHIndex(dim, lsh, seed=seed)
        index.build(weights)
        query_vectors = rng.normal(size=(queries + 1, dim))
        target = max(32, num_neurons // 20)
        # One query is the one-row probe of the per-sample path plus the
        # strategy's selection.  Strategies take turns query by query, after
        # one untimed query each, so none pays the warm-up or a drift alone.
        elapsed = dict.fromkeys(strategies, 0.0)
        retrieved = dict.fromkeys(strategies, 0)
        for q in [queries, *range(queries)]:
            for name, strategy in strategies.items():
                start = time.perf_counter()
                probe = index.query_batch_flat(query_vectors[q : q + 1])
                active = strategy.select_from_result(probe, 0, target)
                if q < queries:
                    elapsed[name] += time.perf_counter() - start
                    retrieved[name] += active.size
        for name in strategies:
            timing_rows.append(
                {
                    "num_neurons": num_neurons,
                    "strategy": name,
                    "seconds_per_query": elapsed[name] / queries,
                    "mean_retrieved": retrieved[name] / queries,
                }
            )
            totals[name] += elapsed[name] / queries
    return {
        "config": {"neuron_counts": list(neuron_counts), "queries": queries},
        "rows": timing_rows,
        "total_seconds_per_query": dict(totals),
    }


def check(payload: dict, smoke: bool) -> list[str]:
    """Invariant: TopK pays the frequency sort, so it costs more than Vanilla."""
    totals = payload["total_seconds_per_query"]
    problems = []
    if totals["TopK Sampling"] <= totals["Vanilla Sampling"]:
        problems.append(
            "TopK sampling should be the most expensive strategy "
            f"(TopK {totals['TopK Sampling']:.2e}s <= Vanilla "
            f"{totals['Vanilla Sampling']:.2e}s)"
        )
    return problems


def print_report(payload: dict) -> None:
    print(
        format_table(
            payload["rows"], title="Figure 4/12: sampling strategy time per query (seconds)"
        )
    )
