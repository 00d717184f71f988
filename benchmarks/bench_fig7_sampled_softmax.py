"""Figure 7 — SLIDE vs TF-GPU Sampled Softmax.

Paper finding: static sampled softmax (even with 20 % of all classes sampled,
40x more neurons than SLIDE's ~0.5 %) saturates at a visibly lower accuracy
than SLIDE's input-adaptive LSH sampling.
"""

from repro.harness.experiment import (
    ExperimentConfig,
    HeadToHeadExperiment,
    small_experiment_config,
)
from repro.harness.report import series_payload
from repro.reports.schema import CONFIG, FRACTION, NUM, series
from repro.reports.spec import BenchSpec, MetricGate

_PER_FRAMEWORK_FRACTION = {
    "type": "object",
    "required": ["slide", "sampled_softmax"],
    "properties": {"slide": FRACTION, "sampled_softmax": FRACTION},
}
_SIDE = {
    "type": "object",
    "required": ["final_accuracy", "active_fraction", "accuracy_advantage"],
    "properties": {
        "final_accuracy": _PER_FRAMEWORK_FRACTION,
        "active_fraction": _PER_FRAMEWORK_FRACTION,
        "accuracy_advantage": NUM,
        "iteration_series": series("iteration", "precision_at_1"),
    },
}

SPEC = BenchSpec(
    bench_id="fig7_sampled_softmax",
    title="SLIDE vs static sampled softmax",
    paper_anchor="Fig 7",
    schema={
        "type": "object",
        "required": ["config", "delicious", "amazon"],
        "properties": {"config": CONFIG, "delicious": _SIDE, "amazon": _SIDE},
    },
    smoke_params={"scale_delicious": 1 / 2048, "scale_amazon": 1 / 4096, "epochs": 1},
    full_params={"scale_delicious": 1 / 1024, "scale_amazon": 1 / 2048, "epochs": 2},
    measured=True,
    gates=(
        MetricGate("delicious.final_accuracy.slide", "higher", rel_tol=0.25, abs_tol=0.05),
        MetricGate("delicious.accuracy_advantage", "higher", rel_tol=0.5, abs_tol=0.05),
    ),
    notes="Final accuracies and active fractions are measured (deterministic "
    "seeded training); the x axis is training iterations.",
)


def figure7_sampled_softmax(config: ExperimentConfig) -> dict[str, object]:
    """SLIDE vs static sampled softmax, iteration-wise."""
    experiment = HeadToHeadExperiment(config)
    slide_run = experiment.run_slide()
    ssm_run = experiment.run_sampled_softmax()
    return {
        "iteration_series": {
            "SLIDE CPU": (slide_run.iterations, slide_run.accuracies),
            "TF-GPU SSM": (ssm_run.iterations, ssm_run.accuracies),
        },
        "final_accuracy": {
            "SLIDE CPU": slide_run.final_accuracy,
            "TF-GPU SSM": ssm_run.final_accuracy,
        },
        "active_fraction": {
            "SLIDE CPU": slide_run.avg_active_output / config.dataset.label_dim,
            "TF-GPU SSM": config.sampled_softmax_fraction,
        },
    }


def _side_run(name: str, scale: float, epochs: int, seed: int) -> dict:
    config = small_experiment_config(dataset=name, scale=scale, epochs=epochs, seed=seed)
    result = figure7_sampled_softmax(config)
    slide_acc = float(result["final_accuracy"]["SLIDE CPU"])
    ssm_acc = float(result["final_accuracy"]["TF-GPU SSM"])
    return {
        "final_accuracy": {"slide": slide_acc, "sampled_softmax": ssm_acc},
        "active_fraction": {
            "slide": float(result["active_fraction"]["SLIDE CPU"]),
            "sampled_softmax": float(result["active_fraction"]["TF-GPU SSM"]),
        },
        "accuracy_advantage": slide_acc - ssm_acc,
        "iteration_series": series_payload(
            result["iteration_series"], "iteration", "precision_at_1"
        ),
    }


def run(params: dict | None = None) -> dict:
    """Pure payload generator for the report registry."""
    p = dict(params or {})
    epochs = int(p.get("epochs", 2))
    seed = int(p.get("seed", 0))
    return {
        "config": {"epochs": epochs, "seed": seed},
        "delicious": _side_run(
            "delicious", float(p.get("scale_delicious", 1.0 / 1024.0)), epochs, seed
        ),
        "amazon": _side_run(
            "amazon", float(p.get("scale_amazon", 1.0 / 2048.0)), epochs, seed
        ),
    }


def check(payload: dict, smoke: bool) -> list[str]:
    """SLIDE beats static sampled softmax while sampling far fewer neurons."""
    problems = []
    for name in ("delicious", "amazon"):
        side = payload[name]
        if side["accuracy_advantage"] <= 0:
            problems.append(f"{name}: SLIDE should out-converge TF-GPU sampled softmax")
        if side["active_fraction"]["slide"] >= 1.0:
            problems.append(f"{name}: SLIDE active fraction should stay below 1.0")
    return problems


def print_report(payload: dict) -> None:
    for name in ("delicious", "amazon"):
        side = payload[name]
        print(
            f"{name}: SLIDE p@1 {side['final_accuracy']['slide']:.3f} vs "
            f"SSM {side['final_accuracy']['sampled_softmax']:.3f} "
            f"(advantage {side['accuracy_advantage']:+.3f}, "
            f"active fraction {side['active_fraction']['slide']:.3f})"
        )
