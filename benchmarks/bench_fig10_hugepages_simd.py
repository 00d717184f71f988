"""Figure 10 — impact of Transparent Hugepages + SIMD optimisation.

Paper finding: the cache-optimised SLIDE is ~1.3x faster than plain SLIDE,
lifting the overall advantage over TF-GPU from 2.7x to 3.5x on Amazon-670K.

The cache optimisation is MODELLED: the generator applies the paper's
measured 1.3x Transparent-Hugepages+SIMD cost reduction rather than
measuring hugepage effects on this host, so the artifact is stamped
``measured: false`` and its metrics are excluded from trend gating.
"""

from repro.harness.experiment import (
    AMAZON_PAPER_DIMS,
    ExperimentConfig,
    HeadToHeadExperiment,
    PaperScaleDims,
    project_run_to_paper_scale,
    small_experiment_config,
)
from repro.harness.report import format_comparison, series_payload
from repro.perf.devices import SLIDE_CPU_PROFILE, TF_GPU_PROFILE
from repro.perf.memory import HUGEPAGES_SPEEDUP
from repro.perf.simulator import WallClockSimulator
from repro.reports.schema import CONFIG, MAYBE_NUM, POS, series
from repro.reports.spec import BenchSpec

SPEC = BenchSpec(
    bench_id="fig10_hugepages_simd",
    title="Hugepages + SIMD cache-optimisation effect",
    paper_anchor="Fig 10",
    schema={
        "type": "object",
        "required": ["config", "optimized_speedup", "expected_speedup", "speedup_vs_gpu"],
        "properties": {
            "config": CONFIG,
            "optimized_speedup": MAYBE_NUM,
            "expected_speedup": POS,
            "speedup_vs_gpu": MAYBE_NUM,
            "time_series": series("time_s", "precision_at_1"),
        },
    },
    smoke_params={"scale": 1 / 4096, "epochs": 1},
    full_params={"scale": 1 / 2048, "epochs": 2},
    measured=False,
    notes="MODELLED: assumes the paper's 1.3x cache-optimisation factor "
    "(repro.perf.memory.HUGEPAGES_SPEEDUP); no hugepages/SIMD measurement "
    "happens, so these metrics are excluded from trend gating.",
)


def figure10_hugepages_simd(
    config: ExperimentConfig,
    cores: int = 44,
    paper_dims: PaperScaleDims | None = None,
) -> dict[str, object]:
    """Plain SLIDE vs cache-optimised SLIDE vs TF-GPU (Figure 10)."""
    experiment = HeadToHeadExperiment(config)
    slide_run = experiment.run_slide()
    optimized_run = experiment.run_slide(optimized=True)
    dense_run = experiment.run_dense()
    if paper_dims is not None:
        slide_run = project_run_to_paper_scale(slide_run, paper_dims)
        optimized_run = project_run_to_paper_scale(optimized_run, paper_dims)
        dense_run = project_run_to_paper_scale(dense_run, paper_dims)

    slide_sim = slide_run.simulate(
        WallClockSimulator(SLIDE_CPU_PROFILE, cores=cores), "SLIDE-CPU"
    )
    optimized_sim = optimized_run.simulate(
        WallClockSimulator(SLIDE_CPU_PROFILE, cores=cores), "SLIDE-CPU Optimized"
    )
    gpu_sim = dense_run.simulate(WallClockSimulator(TF_GPU_PROFILE), "TF-GPU")

    plain = slide_sim.convergence_time()
    optimized = optimized_sim.convergence_time()
    return {
        "time_series": {
            "SLIDE-CPU": (slide_sim.cumulative_seconds, slide_sim.accuracies),
            "SLIDE-CPU Optimized": (
                optimized_sim.cumulative_seconds,
                optimized_sim.accuracies,
            ),
            "TF-GPU": (gpu_sim.cumulative_seconds, gpu_sim.accuracies),
        },
        "optimized_speedup": plain / optimized if optimized else float("nan"),
        "expected_speedup": HUGEPAGES_SPEEDUP,
        "speedup_vs_gpu": gpu_sim.convergence_time() / optimized if optimized else float("nan"),
    }


def run(params: dict | None = None) -> dict:
    """Pure payload generator for the report registry (MODELLED speed-up)."""
    p = dict(params or {})
    cores = int(p.get("cores", 44))
    config = small_experiment_config(
        dataset="amazon",
        scale=float(p.get("scale", 1.0 / 2048.0)),
        epochs=int(p.get("epochs", 2)),
        seed=int(p.get("seed", 0)),
    )
    result = figure10_hugepages_simd(config, cores=cores, paper_dims=AMAZON_PAPER_DIMS)
    return {
        "config": {"cores": cores, "dataset": "amazon-670k-like"},
        "optimized_speedup": result["optimized_speedup"],
        "expected_speedup": result["expected_speedup"],
        "speedup_vs_gpu": result["speedup_vs_gpu"],
        "time_series": series_payload(result["time_series"], "time_s", "precision_at_1"),
    }


def check(payload: dict, smoke: bool) -> list[str]:
    """End-to-end effect of the modelled 1.3x cost reduction lands near 1.3x."""
    problems = []
    speedup = payload["optimized_speedup"]
    if not (isinstance(speedup, (int, float)) and 1.2 < speedup < 1.4):
        problems.append(
            f"optimised-vs-plain speed-up {speedup!r} should land near the "
            "modelled 1.3x cache factor"
        )
    vs_gpu = payload["speedup_vs_gpu"]
    if not (isinstance(vs_gpu, (int, float)) and vs_gpu > 1.0):
        problems.append(f"optimised SLIDE should beat TF-GPU (got {vs_gpu!r})")
    return problems


def print_report(payload: dict) -> None:
    print(format_comparison(1.3, payload["optimized_speedup"], "optimised-vs-plain", "x"))
    print(format_comparison(3.5, payload["speedup_vs_gpu"], "optimised SLIDE vs TF-GPU", "x"))
