"""Shared head-to-head experiment machinery.

A :class:`HeadToHeadExperiment` trains SLIDE, the dense full-softmax baseline
and (optionally) the sampled-softmax baseline on the *same* synthetic
extreme-classification dataset with the same optimiser, records per-iteration
accuracy and the **measured** per-iteration work, and attributes wall-clock
time to each framework with the calibrated device profiles.  Every
time-vs-accuracy / scalability / batch-size figure in the paper is a view
over the :class:`MeasuredRun` objects this module produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.dense import DenseNetwork, DenseNetworkConfig
from repro.baselines.sampled_softmax import SampledSoftmaxConfig, SampledSoftmaxNetwork
from repro.config import (
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    RebuildScheduleConfig,
    SamplingConfig,
    SlideNetworkConfig,
    TrainingConfig,
)
from repro.core.inference import evaluate_precision_at_1
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.datasets.synthetic import SyntheticXCConfig, SyntheticXCDataset, generate_synthetic_xc
from repro.perf.cost_model import (
    WorkloadCounts,
    dense_iteration_work,
    sampled_softmax_iteration_work,
    slide_iteration_work,
)
from repro.perf.devices import SLIDE_CPU_PROFILE, TF_CPU_PROFILE, TF_GPU_PROFILE
from repro.perf.memory import HUGEPAGES_SPEEDUP
from repro.perf.simulator import SimulatedRun, WallClockSimulator
from repro.types import SparseBatch
from repro.utils.rng import derive_rng

__all__ = [
    "ExperimentConfig",
    "MeasuredRun",
    "HeadToHeadExperiment",
    "PaperScaleDims",
    "DELICIOUS_PAPER_DIMS",
    "AMAZON_PAPER_DIMS",
    "project_run_to_paper_scale",
    "small_experiment_config",
]


@dataclass(frozen=True)
class PaperScaleDims:
    """The paper's full-scale workload dimensions for one dataset.

    The synthetic stand-in datasets are necessarily much smaller than
    Delicious-200K / Amazon-670K, so the *accuracy curves* come from runs on
    the scaled data while the *work per iteration* (and hence the simulated
    wall clock of Figures 5, 7-10) is re-expressed at the paper's dimensions.
    ``avg_active_output`` is the active-neuron count the paper reports
    (~1000 for Delicious, ~3000 for Amazon — under 0.5 % of the output
    layer); the scaled runs confirm the same qualitative sparsity but cannot
    reach the same absolute fraction with only a few hundred labels.
    """

    name: str
    feature_nnz: float
    hidden_dim: int
    output_dim: int
    batch_size: int
    avg_active_output: float
    k: int
    l: int
    sampled_softmax_fraction: float = 0.2


DELICIOUS_PAPER_DIMS = PaperScaleDims(
    name="Delicious-200K",
    feature_nnz=75.0,
    hidden_dim=128,
    output_dim=205_443,
    batch_size=128,
    avg_active_output=1000.0,
    k=9,
    l=50,
)

AMAZON_PAPER_DIMS = PaperScaleDims(
    name="Amazon-670K",
    feature_nnz=75.0,
    hidden_dim=128,
    output_dim=670_091,
    batch_size=256,
    avg_active_output=3000.0,
    k=8,
    l=50,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale and hyper-parameters of one head-to-head experiment."""

    dataset: SyntheticXCConfig
    hidden_dim: int = 128
    batch_size: int = 64
    epochs: int = 2
    eval_every: int = 5
    eval_samples: int = 200
    learning_rate: float = 1e-3
    # LSH settings for the SLIDE output layer.
    hash_family: str = "simhash"
    k: int = 6
    l: int = 25
    bucket_size: int = 64
    target_active_fraction: float = 0.05
    rebuild_initial_period: int = 20
    sampled_softmax_fraction: float = 0.2
    # Depth of the background batch-assembly queue for SLIDE training runs
    # (0 = assemble batches inline; see repro.data.BatchPrefetcher).
    prefetch_depth: int = 0
    # Worker processes for SLIDE training runs (1 = single-process; > 1
    # trains through the shared-memory process-HOGWILD path, see
    # repro.parallel.sharedmem).
    num_processes: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden_dim <= 0 or self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("hidden_dim, batch_size and epochs must be positive")
        if not 0 < self.target_active_fraction <= 1:
            raise ValueError("target_active_fraction must lie in (0, 1]")
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be non-negative")
        if self.num_processes < 1:
            raise ValueError("num_processes must be positive")

    @property
    def target_active(self) -> int:
        return max(8, int(round(self.target_active_fraction * self.dataset.label_dim)))


@dataclass
class MeasuredRun:
    """Everything recorded while training one framework on one dataset."""

    framework: str
    iterations: np.ndarray
    accuracies: np.ndarray
    losses: np.ndarray
    per_iteration_work: list[WorkloadCounts]
    avg_active_output: float
    final_accuracy: float

    def simulate(self, simulator: WallClockSimulator, label: str | None = None) -> SimulatedRun:
        """Attribute wall-clock time with ``simulator``'s device profile."""
        return simulator.simulate(
            label or self.framework,
            self.per_iteration_work,
            list(self.accuracies),
            list(self.losses),
        )


class HeadToHeadExperiment:
    """Train SLIDE and the baselines on one synthetic dataset."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self.dataset: SyntheticXCDataset = generate_synthetic_xc(config.dataset)
        self._rng = derive_rng(config.seed, stream=91)
        self.avg_input_nnz = float(
            np.mean([ex.features.nnz for ex in self.dataset.train])
        )

    # ------------------------------------------------------------------
    # Model builders
    # ------------------------------------------------------------------
    def build_slide_network(
        self,
        sampling_strategy: str = "vanilla",
        hash_family: str | None = None,
        insertion_policy: str = "fifo",
        rebuild_decay: float = 0.3,
    ) -> SlideNetwork:
        cfg = self.config
        lsh = LSHConfig(
            hash_family=hash_family or cfg.hash_family,  # type: ignore[arg-type]
            k=cfg.k,
            l=cfg.l,
            bucket_size=cfg.bucket_size,
            insertion_policy=insertion_policy,  # type: ignore[arg-type]
        )
        layers = (
            LayerConfig(size=cfg.hidden_dim, activation="relu", lsh=None),
            LayerConfig(
                size=cfg.dataset.label_dim,
                activation="softmax",
                lsh=lsh,
                sampling=SamplingConfig(
                    strategy=sampling_strategy,  # type: ignore[arg-type]
                    target_active=cfg.target_active,
                    include_labels=True,
                ),
                rebuild=RebuildScheduleConfig(
                    initial_period=cfg.rebuild_initial_period, decay=rebuild_decay
                ),
            ),
        )
        network_cfg = SlideNetworkConfig(
            input_dim=cfg.dataset.feature_dim, layers=layers, seed=cfg.seed
        )
        return SlideNetwork(network_cfg)

    def training_config(self, batch_size: int | None = None) -> TrainingConfig:
        cfg = self.config
        return TrainingConfig(
            batch_size=batch_size or cfg.batch_size,
            epochs=cfg.epochs,
            optimizer=OptimizerConfig(name="adam", learning_rate=cfg.learning_rate),
            eval_every=cfg.eval_every,
            eval_samples=cfg.eval_samples,
            seed=cfg.seed,
        )

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def run_slide(
        self,
        batch_size: int | None = None,
        sampling_strategy: str = "vanilla",
        hash_family: str | None = None,
        insertion_policy: str = "fifo",
        optimized: bool = False,
    ) -> MeasuredRun:
        """Train SLIDE and record measured work per iteration.

        ``optimized=True`` applies the Hugepages + SIMD speed-up factor the
        paper measures in Section 5.4 (the work counts are identical; only
        the attributed per-operation cost shrinks), producing the
        "SLIDE-CPU Optimized" curve of Figure 10.
        """
        cfg = self.config
        network = self.build_slide_network(
            sampling_strategy=sampling_strategy,
            hash_family=hash_family,
            insertion_policy=insertion_policy,
        )
        trainer = SlideTrainer(
            network,
            self.training_config(batch_size),
            prefetch_depth=cfg.prefetch_depth,
            num_processes=cfg.num_processes,
        )
        history = trainer.train(self.dataset.train, self.dataset.test)

        batch = batch_size or cfg.batch_size
        works = []
        active_per_sample = []
        for record in history.records:
            avg_active = record.active_neurons / max(record.batch_size, 1) - cfg.hidden_dim
            avg_active = max(avg_active, 1.0)
            active_per_sample.append(avg_active)
            work = slide_iteration_work(
                batch_size=record.batch_size,
                avg_input_nnz=self.avg_input_nnz,
                hidden_dim=cfg.hidden_dim,
                avg_active_output=avg_active,
                k=cfg.k,
                l=cfg.l,
                output_dim=cfg.dataset.label_dim,
            )
            if optimized:
                work = work.scaled(1.0 / HUGEPAGES_SPEEDUP)
            works.append(work)

        accuracies = self._carry_forward_accuracies(history)
        label = "SLIDE-CPU Optimized" if optimized else "SLIDE-CPU"
        return MeasuredRun(
            framework=label,
            iterations=np.arange(1, len(history.records) + 1),
            accuracies=accuracies,
            losses=history.losses(),
            per_iteration_work=works,
            avg_active_output=float(np.mean(active_per_sample)) if active_per_sample else 0.0,
            final_accuracy=history.final_accuracy() or 0.0,
        )

    def run_dense(self, batch_size: int | None = None) -> MeasuredRun:
        """Train the full-softmax dense baseline ("TF")."""
        cfg = self.config
        network = DenseNetwork(
            DenseNetworkConfig(
                input_dim=cfg.dataset.feature_dim,
                hidden_dim=cfg.hidden_dim,
                output_dim=cfg.dataset.label_dim,
                optimizer=OptimizerConfig(name="adam", learning_rate=cfg.learning_rate),
                seed=cfg.seed,
            )
        )
        return self._run_baseline(network, "TF-dense", batch_size)

    def run_sampled_softmax(
        self, batch_size: int | None = None, sample_fraction: float | None = None
    ) -> MeasuredRun:
        """Train the static sampled-softmax baseline ("TF-GPU SSM")."""
        cfg = self.config
        network = SampledSoftmaxNetwork(
            SampledSoftmaxConfig(
                input_dim=cfg.dataset.feature_dim,
                hidden_dim=cfg.hidden_dim,
                output_dim=cfg.dataset.label_dim,
                sample_fraction=sample_fraction or cfg.sampled_softmax_fraction,
                optimizer=OptimizerConfig(name="adam", learning_rate=cfg.learning_rate),
                seed=cfg.seed,
            )
        )
        return self._run_baseline(network, "Sampled Softmax", batch_size)

    # ------------------------------------------------------------------
    # Simulation views
    # ------------------------------------------------------------------
    def simulate_standard_devices(
        self,
        slide_run: MeasuredRun,
        dense_run: MeasuredRun,
        cores: int = 44,
    ) -> dict[str, SimulatedRun]:
        """The Figure 5 trio: SLIDE on CPU, dense on V100, dense on CPU."""
        return {
            "SLIDE CPU": slide_run.simulate(
                WallClockSimulator(SLIDE_CPU_PROFILE, cores=cores), "SLIDE CPU"
            ),
            "TF-GPU": dense_run.simulate(WallClockSimulator(TF_GPU_PROFILE), "TF-GPU"),
            "TF-CPU": dense_run.simulate(
                WallClockSimulator(TF_CPU_PROFILE, cores=cores), "TF-CPU"
            ),
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _run_baseline(self, network, framework: str, batch_size: int | None) -> MeasuredRun:
        cfg = self.config
        training = self.training_config(batch_size)
        rng = derive_rng(cfg.seed, stream=92)
        examples = list(self.dataset.train)
        eval_pool = self.dataset.test[: cfg.eval_samples]

        iterations = []
        accuracies: list[float] = []
        losses = []
        works = []
        last_accuracy = 0.0
        iteration = 0
        for _epoch in range(training.epochs):
            order = np.arange(len(examples))
            if training.shuffle:
                rng.shuffle(order)
            for start in range(0, len(examples), training.batch_size):
                chunk = [examples[i] for i in order[start : start + training.batch_size]]
                if not chunk:
                    continue
                batch = SparseBatch.from_examples(
                    chunk,
                    feature_dim=cfg.dataset.feature_dim,
                    label_dim=cfg.dataset.label_dim,
                )
                metrics = network.train_batch(batch)
                iteration += 1
                if training.eval_every and iteration % training.eval_every == 0:
                    last_accuracy = evaluate_precision_at_1(network, eval_pool)
                iterations.append(iteration)
                accuracies.append(last_accuracy)
                losses.append(metrics["loss"])
                if framework == "Sampled Softmax":
                    works.append(
                        sampled_softmax_iteration_work(
                            batch_size=len(batch),
                            avg_input_nnz=self.avg_input_nnz,
                            hidden_dim=cfg.hidden_dim,
                            num_sampled=int(metrics.get("num_candidates", 1)),
                        )
                    )
                else:
                    works.append(
                        dense_iteration_work(
                            batch_size=len(batch),
                            avg_input_nnz=self.avg_input_nnz,
                            hidden_dim=cfg.hidden_dim,
                            output_dim=cfg.dataset.label_dim,
                        )
                    )
        final_accuracy = evaluate_precision_at_1(network, eval_pool)
        if accuracies:
            accuracies[-1] = max(accuracies[-1], final_accuracy)
        return MeasuredRun(
            framework=framework,
            iterations=np.asarray(iterations),
            accuracies=np.asarray(accuracies, dtype=np.float64),
            losses=np.asarray(losses, dtype=np.float64),
            per_iteration_work=works,
            avg_active_output=float(cfg.dataset.label_dim),
            final_accuracy=final_accuracy,
        )

    @staticmethod
    def _carry_forward_accuracies(history) -> np.ndarray:
        accuracies = []
        last = 0.0
        for record in history.records:
            if record.accuracy is not None:
                last = record.accuracy
            accuracies.append(last)
        if history.epoch_accuracy and accuracies:
            accuracies[-1] = max(accuracies[-1], history.epoch_accuracy[-1])
        return np.asarray(accuracies, dtype=np.float64)


def project_run_to_paper_scale(
    run: MeasuredRun,
    dims: PaperScaleDims,
    batch_size: int | None = None,
) -> MeasuredRun:
    """Re-express a measured run's per-iteration work at the paper's scale.

    The accuracy/loss/iteration series are kept verbatim (they come from real
    training on the scaled synthetic data); only the
    :class:`~repro.perf.cost_model.WorkloadCounts` are recomputed for the
    full-scale dimensions in ``dims``.  The framework is inferred from
    ``run.framework``: SLIDE runs get the sparse active-output workload,
    sampled-softmax runs get the 20 %-candidate workload, and everything else
    is charged the dense full-softmax workload.
    """
    batch = batch_size or dims.batch_size
    name = run.framework.lower()
    works: list[WorkloadCounts] = []
    for _ in run.per_iteration_work:
        if "slide" in name:
            work = slide_iteration_work(
                batch_size=batch,
                avg_input_nnz=dims.feature_nnz,
                hidden_dim=dims.hidden_dim,
                avg_active_output=dims.avg_active_output,
                k=dims.k,
                l=dims.l,
                output_dim=dims.output_dim,
            )
            if "optimized" in name:
                work = work.scaled(1.0 / HUGEPAGES_SPEEDUP)
        elif "sampled" in name or "ssm" in name:
            work = sampled_softmax_iteration_work(
                batch_size=batch,
                avg_input_nnz=dims.feature_nnz,
                hidden_dim=dims.hidden_dim,
                num_sampled=max(1, int(dims.sampled_softmax_fraction * dims.output_dim)),
            )
        else:
            work = dense_iteration_work(
                batch_size=batch,
                avg_input_nnz=dims.feature_nnz,
                hidden_dim=dims.hidden_dim,
                output_dim=dims.output_dim,
            )
        works.append(work)
    return MeasuredRun(
        framework=run.framework,
        iterations=run.iterations,
        accuracies=run.accuracies,
        losses=run.losses,
        per_iteration_work=works,
        avg_active_output=dims.avg_active_output if "slide" in name else run.avg_active_output,
        final_accuracy=run.final_accuracy,
    )


def small_experiment_config(
    dataset: str = "delicious",
    scale: float = 1.0 / 2048.0,
    epochs: int = 2,
    seed: int = 0,
) -> ExperimentConfig:
    """A laptop-scale experiment config for tests and quick benches.

    ``dataset`` selects the Delicious-like or Amazon-like synthetic profile;
    ``scale`` shrinks the dataset dimensions (see
    :func:`repro.datasets.synthetic.delicious_like_config`).
    """
    from repro.datasets.synthetic import amazon_like_config, delicious_like_config

    if dataset == "delicious":
        ds = delicious_like_config(scale=scale, seed=seed)
        hash_family, k = "simhash", 6
    elif dataset == "amazon":
        ds = amazon_like_config(scale=scale, seed=seed)
        hash_family, k = "dwta", 5
    else:
        raise ValueError("dataset must be 'delicious' or 'amazon'")
    return ExperimentConfig(
        dataset=ds,
        hidden_dim=64,
        batch_size=32,
        epochs=epochs,
        eval_every=4,
        eval_samples=128,
        hash_family=hash_family,
        k=k,
        l=20,
        bucket_size=64,
        target_active_fraction=0.08,
        seed=seed,
    )
