"""repro.reports — the benchmark/report factory.

Each figure, table and ablation the repo reproduces is one file,
``benchmarks/bench_<id>.py``, exporting ``SPEC`` (a
:class:`~repro.reports.spec.BenchSpec`: title, paper anchor, payload JSON
schema, smoke vs full parameters, a measured/modelled flag, per-metric
regression tolerances) next to ``run``, ``check`` and ``print_report``.
:mod:`repro.reports.registry` discovers those files; adding a figure is
adding one file, then ``--sync-docs``.

Drive it with::

    python -m repro.reports --list
    python -m repro.reports --run train_throughput --smoke
    python -m repro.reports --all --smoke --check   # regenerate + trend-gate

Artifacts carry a common envelope (bench id, schema version, measured flag,
run mode, host, git revision) and are schema-validated at write time
(:mod:`repro.reports.artifacts`).  :mod:`repro.reports.trend` diffs fresh
smoke artifacts against the committed baselines and fails, naming the
metric, when a gated metric (samples/sec, p99, precision@1, recovery
latency, shed rate, ...) regresses beyond its declared tolerance.
"""

from repro.reports.artifacts import (
    ENVELOPE_SCHEMA,
    SCHEMA_VERSION,
    ArtifactError,
    read_artifact,
    validate_artifact,
    write_artifact,
)
from repro.reports.registry import REGISTRY, all_specs, bench_ids, get_spec
from repro.reports.schema import SchemaError, validate
from repro.reports.spec import BenchSpec, MetricGate
from repro.reports.trend import TrendReport, check_trend, compare_documents, extract_metric

__all__ = [
    "REGISTRY",
    "BenchSpec",
    "MetricGate",
    "get_spec",
    "all_specs",
    "bench_ids",
    "SCHEMA_VERSION",
    "ENVELOPE_SCHEMA",
    "SchemaError",
    "ArtifactError",
    "validate",
    "read_artifact",
    "write_artifact",
    "validate_artifact",
    "TrendReport",
    "check_trend",
    "compare_documents",
    "extract_metric",
]
