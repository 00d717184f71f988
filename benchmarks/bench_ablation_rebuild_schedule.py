"""Ablation — hash-table rebuild schedule (exponential decay vs fixed period).

Section 4.2 motivates the exponentially decaying rebuild frequency: frequent
rebuilds early (weights move fast), rare rebuilds near convergence.  This
ablation compares the decayed schedule against a fixed-period schedule with
the same initial period, reporting accuracy and the number of rebuilds (the
overhead proxy).
"""

from dataclasses import replace

from repro.core.trainer import SlideTrainer
from repro.harness.experiment import HeadToHeadExperiment, small_experiment_config
from repro.harness.report import format_table
from repro.reports.schema import CONFIG, FRACTION, NAT, STR, rows
from repro.reports.spec import BenchSpec, MetricGate

SPEC = BenchSpec(
    bench_id="ablation_rebuild_schedule",
    title="Ablation: exponential-decay vs fixed-period rebuild schedule",
    paper_anchor="Ablation (paper §4.2)",
    schema={
        "type": "object",
        "required": ["config", "rows"],
        "properties": {
            "config": CONFIG,
            "rows": rows(
                {
                    "schedule": STR,
                    "final_accuracy": FRACTION,
                    "rebuilds": NAT,
                    "iterations": NAT,
                },
                min_items=2,
            ),
        },
    },
    # Smoke runs 8 iterations, so the first rebuild comes at iteration 2
    # instead of 20: both schedules rebuild, and apart.
    smoke_params={"scale": 1 / 2048, "epochs": 1, "initial_period": 2},
    full_params={"scale": 1 / 1024, "epochs": 2},
    measured=True,
    gates=(
        MetricGate("rows[schedule=exponential_decay].final_accuracy", "higher", 0.5, 0.1),
    ),
)


def run(params: dict | None = None) -> dict:
    """Pure payload generator for the report registry."""
    p = dict(params or {})
    config = replace(
        small_experiment_config(
            dataset="delicious",
            scale=float(p.get("scale", 1.0 / 1024.0)),
            epochs=int(p.get("epochs", 2)),
            seed=int(p.get("seed", 0)),
        ),
        rebuild_initial_period=int(p.get("initial_period", 20)),
    )
    rows = []
    for decay, label in ((0.5, "exponential_decay"), (0.0, "fixed_period")):
        experiment = HeadToHeadExperiment(config)
        network = experiment.build_slide_network(rebuild_decay=decay)
        trainer = SlideTrainer(network, experiment.training_config())
        trainer.train(experiment.dataset.train, experiment.dataset.test)
        rows.append(
            {
                "schedule": label,
                "final_accuracy": trainer.evaluate(experiment.dataset.test[:128]),
                "rebuilds": network.output_layer.num_rebuilds,
                "iterations": network.iteration,
            }
        )
    return {
        "config": {
            "decay": 0.5,
            "epochs": config.epochs,
            "initial_period": config.rebuild_initial_period,
        },
        "rows": rows,
    }


def check(payload: dict, smoke: bool) -> list[str]:
    """Both schedules rebuild; the decayed one does no more rebuilds without
    giving up accuracy."""
    by_schedule = {row["schedule"]: row for row in payload["rows"]}
    decayed, fixed = by_schedule["exponential_decay"], by_schedule["fixed_period"]
    problems = [
        f"{label} performed no rebuild in {row['iterations']} iterations"
        for label, row in by_schedule.items()
        if row["rebuilds"] < 1
    ]
    if decayed["rebuilds"] > fixed["rebuilds"]:
        problems.append(
            f"exponential decay performed {decayed['rebuilds']} rebuilds, more "
            f"than fixed period's {fixed['rebuilds']}"
        )
    if decayed["final_accuracy"] < fixed["final_accuracy"] - 0.1:
        problems.append("decayed schedule lost more than 0.1 precision@1 vs fixed period")
    return problems


def print_report(payload: dict) -> None:
    print(format_table(payload["rows"], title="Ablation: hash-table rebuild schedule"))
