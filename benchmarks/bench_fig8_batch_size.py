"""Figure 8 — effect of batch size (SLIDE vs TF-GPU vs Sampled Softmax).

Paper finding: SLIDE outperforms TF-GPU at every batch size, and the gap
widens as the batch grows (SLIDE processes all samples of a batch in
parallel with asynchronous updates).
"""

from collections import defaultdict

from repro.harness.experiment import (
    AMAZON_PAPER_DIMS,
    ExperimentConfig,
    HeadToHeadExperiment,
    PaperScaleDims,
    project_run_to_paper_scale,
    small_experiment_config,
)
from repro.harness.report import format_table
from repro.perf.devices import SLIDE_CPU_PROFILE, TF_GPU_PROFILE
from repro.perf.simulator import WallClockSimulator
from repro.reports.schema import CONFIG, FRACTION, NAT, POS, STR, rows
from repro.reports.spec import BenchSpec

SPEC = BenchSpec(
    bench_id="fig8_batch_size",
    title="Batch-size effect on convergence time",
    paper_anchor="Fig 8",
    schema={
        "type": "object",
        "required": ["config", "rows"],
        "properties": {
            "config": CONFIG,
            "rows": rows(
                {
                    "batch_size": NAT,
                    "framework": STR,
                    "convergence_time_s": POS,
                    "final_accuracy": FRACTION,
                },
                min_items=3,
            ),
        },
    },
    smoke_params={"scale": 1 / 4096, "epochs": 1, "batch_sizes": [16, 32]},
    full_params={"scale": 1 / 2048, "epochs": 2, "batch_sizes": [16, 32, 64]},
    measured=False,
    notes="Convergence times are device-model projections at each batch size.",
)


def figure8_batch_size_effect(
    config: ExperimentConfig,
    batch_sizes: tuple[int, ...] = (16, 32, 64),
    cores: int = 44,
    paper_dims: PaperScaleDims | None = None,
) -> list[dict[str, float | int | str]]:
    """Convergence time of SLIDE / TF-GPU / SSM across batch sizes (Figure 8)."""
    rows: list[dict[str, float | int | str]] = []
    for batch_size in batch_sizes:
        experiment = HeadToHeadExperiment(config)
        slide_run = experiment.run_slide(batch_size=batch_size)
        dense_run = experiment.run_dense(batch_size=batch_size)
        ssm_run = experiment.run_sampled_softmax(batch_size=batch_size)
        if paper_dims is not None:
            slide_run = project_run_to_paper_scale(slide_run, paper_dims, batch_size=batch_size)
            dense_run = project_run_to_paper_scale(dense_run, paper_dims, batch_size=batch_size)
            ssm_run = project_run_to_paper_scale(ssm_run, paper_dims, batch_size=batch_size)

        slide_sim = slide_run.simulate(WallClockSimulator(SLIDE_CPU_PROFILE, cores=cores))
        gpu_sim = dense_run.simulate(WallClockSimulator(TF_GPU_PROFILE))
        ssm_sim = ssm_run.simulate(WallClockSimulator(TF_GPU_PROFILE))

        for name, sim in (
            ("SLIDE CPU", slide_sim),
            ("TF-GPU", gpu_sim),
            ("TF-GPU SSM", ssm_sim),
        ):
            rows.append(
                {
                    "batch_size": batch_size,
                    "framework": name,
                    "convergence_time_s": sim.convergence_time(),
                    "final_accuracy": sim.final_accuracy(),
                }
            )
    return rows


def run(params: dict | None = None) -> dict:
    """Pure payload generator for the report registry (MODELLED wall-clock)."""
    p = dict(params or {})
    batch_sizes = tuple(int(b) for b in p.get("batch_sizes", (16, 32, 64)))
    cores = int(p.get("cores", 44))
    config = small_experiment_config(
        dataset="amazon",
        scale=float(p.get("scale", 1.0 / 2048.0)),
        epochs=int(p.get("epochs", 2)),
        seed=int(p.get("seed", 0)),
    )
    rows = figure8_batch_size_effect(
        config, batch_sizes=batch_sizes, cores=cores, paper_dims=AMAZON_PAPER_DIMS
    )
    return {"config": {"batch_sizes": list(batch_sizes), "cores": cores}, "rows": rows}


def check(payload: dict, smoke: bool) -> list[str]:
    """SLIDE beats TF-GPU at every batch size (the paper's Fig 8 headline)."""
    by_batch: dict[int, dict[str, float]] = defaultdict(dict)
    for row in payload["rows"]:
        by_batch[int(row["batch_size"])][str(row["framework"])] = float(
            row["convergence_time_s"]
        )
    problems = []
    for batch_size, times in sorted(by_batch.items()):
        if times["SLIDE CPU"] >= times["TF-GPU"]:
            problems.append(
                f"batch={batch_size}: SLIDE ({times['SLIDE CPU']:.3g}s) should "
                f"converge before TF-GPU ({times['TF-GPU']:.3g}s)"
            )
    return problems


def print_report(payload: dict) -> None:
    print(format_table(payload["rows"], title="Figure 8: batch-size effect (Amazon-670K-like)"))
