"""Ablation — hash family choice (SimHash vs DWTA vs WTA vs DOPH vs MinHash).

The paper uses SimHash for Delicious-200K and DWTA for Amazon-670K; this
ablation trains the same scaled network with each supported family and
reports final accuracy and the measured active-set size, confirming that the
pipeline works end to end with every family (DESIGN.md §5).
"""

from repro.harness.experiment import HeadToHeadExperiment, small_experiment_config
from repro.harness.report import format_table
from repro.reports.schema import CONFIG, FRACTION, POS, STR, rows
from repro.reports.spec import BenchSpec, MetricGate

FAMILIES = ("simhash", "dwta", "wta", "doph", "minhash")

SPEC = BenchSpec(
    bench_id="ablation_hash_families",
    title="Ablation: hash family choice (SimHash/DWTA/WTA/DOPH/MinHash)",
    paper_anchor="Ablation (paper §5.3 / DESIGN §5)",
    schema={
        "type": "object",
        "required": ["config", "rows"],
        "properties": {
            "config": CONFIG,
            "rows": rows(
                {
                    "hash_family": STR,
                    "final_accuracy": FRACTION,
                    "avg_active_output": POS,
                    "active_fraction": FRACTION,
                },
                min_items=2,
            ),
        },
    },
    smoke_params={"scale": 1 / 2048, "epochs": 1},
    full_params={"scale": 1 / 1024, "epochs": 2},
    measured=True,
    gates=(MetricGate("rows[hash_family=simhash].final_accuracy", "higher", 0.5, 0.1),),
    timeout_s=180.0,
)



def run(params: dict | None = None) -> dict:
    """Pure payload generator for the report registry."""
    p = dict(params or {})
    families = tuple(str(f) for f in p.get("families", FAMILIES))
    config = small_experiment_config(
        dataset="delicious",
        scale=float(p.get("scale", 1.0 / 1024.0)),
        epochs=int(p.get("epochs", 2)),
        seed=int(p.get("seed", 0)),
    )
    rows = []
    for family in families:
        experiment = HeadToHeadExperiment(config)
        run_result = experiment.run_slide(hash_family=family)
        rows.append(
            {
                "hash_family": family,
                "final_accuracy": run_result.final_accuracy,
                "avg_active_output": run_result.avg_active_output,
                "active_fraction": run_result.avg_active_output / config.dataset.label_dim,
            }
        )
    return {
        "config": {"families": list(families), "label_dim": config.dataset.label_dim},
        "rows": rows,
    }


def check(payload: dict, smoke: bool) -> list[str]:
    """Every family learns well above random while keeping the output sparse."""
    random_baseline = 1.0 / int(payload["config"]["label_dim"])
    problems = []
    for row in payload["rows"]:
        if row["final_accuracy"] <= 5 * random_baseline:
            problems.append(f"{row['hash_family']}: accuracy no better than random")
        if row["active_fraction"] >= 0.9:
            problems.append(f"{row['hash_family']}: output layer not kept sparse")
    return problems


def print_report(payload: dict) -> None:
    print(format_table(payload["rows"], title="Ablation: hash family choice"))
