"""Ablation — sampling strategy choice in end-to-end training.

Appendix C: "the difference between iteration wise convergence of the tasks
with TopK Thresholding and Vanilla Sampling are negligible", which is why the
cheap Vanilla strategy is the default.  This ablation verifies the accuracy
side of that claim (the overhead side is Figure 4's bench).
"""

from repro.harness.experiment import HeadToHeadExperiment, small_experiment_config
from repro.harness.report import format_table
from repro.reports.schema import CONFIG, FRACTION, POS, STR, rows
from repro.reports.spec import BenchSpec, MetricGate

STRATEGIES = ("vanilla", "topk", "hard_threshold")

SPEC = BenchSpec(
    bench_id="ablation_sampling_strategies",
    title="Ablation: sampling strategy accuracy (vanilla/topk/hard-threshold)",
    paper_anchor="Ablation (paper Appendix C)",
    schema={
        "type": "object",
        "required": ["config", "rows"],
        "properties": {
            "config": CONFIG,
            "rows": rows(
                {
                    "strategy": STR,
                    "final_accuracy": FRACTION,
                    "avg_active_output": POS,
                },
                min_items=3,
            ),
        },
    },
    smoke_params={"scale": 1 / 2048, "epochs": 1},
    full_params={"scale": 1 / 1024, "epochs": 2},
    measured=True,
    gates=(MetricGate("rows[strategy=vanilla].final_accuracy", "higher", 0.5, 0.1),),
    timeout_s=180.0,
)



def run(params: dict | None = None) -> dict:
    """Pure payload generator for the report registry."""
    p = dict(params or {})
    strategies = tuple(str(s) for s in p.get("strategies", STRATEGIES))
    config = small_experiment_config(
        dataset="delicious",
        scale=float(p.get("scale", 1.0 / 1024.0)),
        epochs=int(p.get("epochs", 2)),
        seed=int(p.get("seed", 0)),
    )
    rows = []
    for strategy in strategies:
        experiment = HeadToHeadExperiment(config)
        run_result = experiment.run_slide(sampling_strategy=strategy)
        rows.append(
            {
                "strategy": strategy,
                "final_accuracy": run_result.final_accuracy,
                "avg_active_output": run_result.avg_active_output,
            }
        )
    return {
        "config": {"strategies": list(strategies), "label_dim": config.dataset.label_dim},
        "rows": rows,
    }


def check(payload: dict, smoke: bool) -> list[str]:
    """Vanilla converges within a small margin of the expensive TopK."""
    accuracies = {row["strategy"]: row["final_accuracy"] for row in payload["rows"]}
    problems = []
    if "vanilla" in accuracies and "topk" in accuracies:
        if accuracies["vanilla"] < accuracies["topk"] - 0.1:
            problems.append("vanilla sampling lost more than 0.1 precision@1 vs topk")
    random_baseline = 5.0 / int(payload["config"]["label_dim"])
    for strategy, accuracy in accuracies.items():
        if accuracy <= random_baseline:
            problems.append(f"{strategy}: accuracy no better than random")
    return problems


def print_report(payload: dict) -> None:
    print(format_table(payload["rows"], title="Ablation: sampling strategy"))
