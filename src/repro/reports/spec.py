"""Declarative benchmark specifications for the report registry.

A :class:`BenchSpec` is the single source of truth for one figure/table/
ablation reproduction, and it lives in the file that produces the numbers:
``benchmarks/bench_<bench_id>.py`` exports ``SPEC`` (this dataclass: title,
paper anchor, payload JSON schema, smoke and full parameters, whether the
numbers are *measured* on this host or modelled (e.g. a closed form), and
which metrics :mod:`repro.reports.trend` gates against the committed
baseline) next to ``run(params) -> dict`` (pure: no I/O, no envelope — the
registry runner stamps and validates), ``check(payload, smoke) -> list[str]``
(the figure's invariants) and ``print_report(payload)``.  Everything else
about a bench — its module, its ``BENCH_<bench_id>.json`` artifact — follows
from ``bench_id``.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Any

__all__ = [
    "MetricGate",
    "BenchSpec",
    "BENCHMARKS_DIR",
    "REPO_ROOT",
    "load_bench_module",
]

REPO_ROOT = Path(__file__).resolve().parents[3]
BENCHMARKS_DIR = REPO_ROOT / "benchmarks"


@dataclass(frozen=True)
class MetricGate:
    """One trend-gated metric of a benchmark payload.

    ``path`` addresses a scalar inside the payload (see
    :func:`repro.reports.trend.extract_metric` for the path language, e.g.
    ``rows[mode=sparse_batched].samples_per_sec`` or
    ``qps_sweep[load_fraction=2].latency_ms.p99``).

    ``direction`` declares which way regressions point: ``"higher"`` means
    larger is better (throughput, precision), ``"lower"`` means smaller is
    better (latency, shed rate, precision gaps).

    A fresh value regresses when it falls outside
    ``committed * (1 ± rel_tol) ± abs_tol`` on the bad side.  Improvements
    never fail the gate.
    """

    path: str
    direction: str  # "higher" | "lower"
    rel_tol: float
    abs_tol: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ValueError(f"gate {self.path}: bad direction {self.direction!r}")
        if self.rel_tol < 0.0 or self.abs_tol < 0.0:
            raise ValueError(f"gate {self.path}: tolerances must be >= 0")

    def bound(self, committed: float) -> float:
        """The worst fresh value that still passes, given the baseline."""
        if self.direction == "higher":
            return committed * (1.0 - self.rel_tol) - self.abs_tol
        return committed * (1.0 + self.rel_tol) + self.abs_tol

    def passes(self, committed: float, fresh: float) -> bool:
        if self.direction == "higher":
            return fresh >= self.bound(committed)
        return fresh <= self.bound(committed)


@dataclass(frozen=True)
class BenchSpec:
    """One paper artifact's definition, exported as ``SPEC`` by its bench file."""

    bench_id: str  # names benchmarks/bench_<bench_id>.py and BENCH_<bench_id>.json
    title: str
    paper_anchor: str  # e.g. "Fig 7", "Table 2", "Ablation", "beyond-paper"
    schema: dict[str, Any]  # JSON schema for the *payload* (envelope is shared)
    smoke_params: dict[str, Any] = field(default_factory=dict)
    full_params: dict[str, Any] = field(default_factory=dict)
    measured: bool = True  # False: modelled (e.g. a closed form), never trend-gated
    gates: tuple[MetricGate, ...] = ()
    timeout_s: float = 120.0  # per-generator smoke budget (tests enforce it)
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.bench_id:
            raise ValueError("bench_id must be non-empty")
        if self.gates and not self.measured:
            raise ValueError(
                f"{self.bench_id}: modelled benchmarks must not declare trend "
                "gates — modelled metrics are excluded from regression gating"
            )

    @property
    def artifact(self) -> str:
        """Artifact file name at the repo root."""
        return f"BENCH_{self.bench_id}.json"

    def params_for(self, smoke: bool) -> dict[str, Any]:
        return dict(self.smoke_params if smoke else self.full_params)

    def artifact_path(self, root: Path | None = None) -> Path:
        return (root or REPO_ROOT) / self.artifact

    def load_module(self) -> ModuleType:
        return load_bench_module(f"bench_{self.bench_id}")


def load_bench_module(module: str) -> ModuleType:
    """Import ``benchmarks/<module>.py`` by path (benchmarks is not a package)."""
    qualname = f"repro_bench.{module}"
    cached = sys.modules.get(qualname)
    if cached is not None:
        return cached
    path = BENCHMARKS_DIR / f"{module}.py"
    if not path.is_file():
        raise FileNotFoundError(f"bench module not found: {path}")
    spec = importlib.util.spec_from_file_location(qualname, path)
    if spec is None or spec.loader is None:  # pragma: no cover - importlib contract
        raise ImportError(f"cannot load bench module {path}")
    loaded = importlib.util.module_from_spec(spec)
    sys.modules[qualname] = loaded
    try:
        spec.loader.exec_module(loaded)
    except BaseException:
        sys.modules.pop(qualname, None)
        raise
    return loaded
