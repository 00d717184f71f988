"""The benchmark registry: every ``benchmarks/bench_<id>.py`` and its ``SPEC``.

Discovery, not a table: a figure is defined in exactly one file, and adding
that file registers it.  ``python -m repro.reports --all --smoke --check``
regenerates every artifact from the declared smoke parameters, validates
each payload against its schema, runs the bench's own ``check`` and gates
every declared metric against the committed baseline.

Conventions for a ``SPEC``
--------------------------
* ``smoke_params`` are CI-scale: the committed ``BENCH_*.json`` baselines
  are generated in smoke mode so trend comparisons are like-for-like.
* ``measured=False`` marks benchmarks whose numbers do not measure this host
  (fig 11 plots the closed form of Eq. 3); they are stamped as modelled in
  the envelope and excluded from trend gating.
* Deterministic metrics (precision with a fixed seed) get tight tolerances;
  wall-clock metrics get loose ones — CI containers are noisy neighbours.
"""

from __future__ import annotations

from repro.reports.spec import BENCHMARKS_DIR, BenchSpec, load_bench_module

__all__ = ["REGISTRY", "get_spec", "all_specs", "bench_ids"]


def _discover() -> dict[str, BenchSpec]:
    registry: dict[str, BenchSpec] = {}
    for stem in sorted(path.stem for path in BENCHMARKS_DIR.glob("bench_*.py")):
        spec = load_bench_module(stem).SPEC
        # File name and id name each other (spec.load_module and the artifact
        # name rely on it), which also makes a duplicate id impossible.
        if stem != f"bench_{spec.bench_id}":
            raise RuntimeError(f"benchmarks/{stem}.py declares bench_id {spec.bench_id!r}")
        registry[spec.bench_id] = spec
    return registry


REGISTRY: dict[str, BenchSpec] = _discover()


def get_spec(bench_id: str) -> BenchSpec:
    try:
        return REGISTRY[bench_id]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown bench id {bench_id!r}; known: {known}") from None


def all_specs() -> list[BenchSpec]:
    return list(REGISTRY.values())


def bench_ids() -> list[str]:
    return list(REGISTRY)
