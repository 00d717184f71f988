"""Table 1 — dataset statistics (paper datasets vs synthetic stand-ins)."""

from repro.datasets.stats import PAPER_DATASET_STATS, compute_statistics
from repro.datasets.synthetic import (
    amazon_like_config,
    delicious_like_config,
    generate_synthetic_xc,
)
from repro.harness.report import format_table
from repro.reports.schema import CONFIG, NAT, POSITIVE_INT, STR, rows
from repro.reports.spec import BenchSpec

SPEC = BenchSpec(
    bench_id="table1_datasets",
    title="Dataset statistics: paper datasets vs synthetic stand-ins",
    paper_anchor="Table 1",
    schema={
        "type": "object",
        "required": ["config", "rows"],
        "properties": {
            "config": CONFIG,
            "rows": rows(
                {
                    "dataset": STR,
                    "feature_dim": POSITIVE_INT,
                    "label_dim": POSITIVE_INT,
                    "training_size": NAT,
                    "testing_size": NAT,
                    "source": {"enum": ["paper", "synthetic"]},
                },
                min_items=4,
            ),
        },
    },
    smoke_params={"scale": 1 / 1024},
    full_params={"scale": 1 / 1024},
    measured=True,
    notes="Paper rows restate Table 1; synthetic rows are measured from the "
    "generated stand-ins.  Smoke keeps the full 1/1024 scale (cheap, and "
    "the sparsity invariant needs a non-degenerate feature dimension).",
)


def run(params: dict | None = None) -> dict:
    """Paper datasets (as reported) next to the synthetic stand-ins (as measured)."""
    p = dict(params or {})
    scale = float(p.get("scale", 1.0 / 1024.0))
    seed = int(p.get("seed", 0))
    rows: list[dict[str, float | int | str]] = []
    for stats in PAPER_DATASET_STATS.values():
        row = stats.as_row()
        row["source"] = "paper"
        rows.append(row)

    for builder in (delicious_like_config, amazon_like_config):
        config = builder(scale=scale, seed=seed)
        dataset = generate_synthetic_xc(config)
        stats = compute_statistics(
            config.name,
            dataset.train,
            dataset.test,
            feature_dim=config.feature_dim,
            label_dim=config.label_dim,
        )
        row = stats.as_row()
        row["source"] = "synthetic"
        rows.append(row)
    return {"config": {"scale": scale, "seed": seed}, "rows": rows}


def check(payload: dict, smoke: bool) -> list[str]:
    """Synthetic stand-ins keep examples genuinely sparse.

    The absolute density cannot match the paper's 0.04-0.06 % because the
    feature dimension is scaled down by ~1000x while each example still
    needs enough non-zeros to be learnable; what must hold is that examples
    stay a small fraction of the feature space.
    """
    rows = payload["rows"]
    problems = []
    if len(rows) != 4:
        problems.append(f"expected 4 rows (2 paper + 2 synthetic), got {len(rows)}")
    synthetic = [r for r in rows if r["source"] == "synthetic"]
    for row in synthetic:
        if row["feature_sparsity_%"] >= 35.0:
            problems.append(
                f"{row['dataset']}: feature sparsity {row['feature_sparsity_%']:.1f}% "
                "should stay a small fraction of the feature space"
            )
    return problems


def print_report(payload: dict) -> None:
    print(format_table(payload["rows"], title="Table 1: Statistics of the datasets"))
