"""Registry completeness: every bench file is one complete definition,
discovered as the parent's table declared it, importable, and runnable in
smoke mode under its declared timeout; every bench id is documented in
docs/paper_map.md.
"""

from __future__ import annotations

import ast
import dataclasses
import json
from pathlib import Path

import pytest

from repro.reports.artifacts import read_artifact
from repro.reports.cli import _run_isolated
from repro.reports.docs_sync import check_paper_map
from repro.reports.registry import all_specs, bench_ids, get_spec
from repro.reports.spec import BENCHMARKS_DIR, BenchSpec, MetricGate, REPO_ROOT

SPECS = all_specs()
SPEC_IDS = [spec.bench_id for spec in SPECS]

# Generating every smoke artifact in tier-1 would double the suite's wall
# time; the per-bench smoke sweep runs as CI's bench-regression job
# (`python -m repro.reports --all --smoke --check`).  Tier-1 keeps the
# structural checks plus a smoke run of the cheapest generators, which
# exercises the isolated-runner path end to end.
TIER1_SMOKE_IDS = ["fig4_sampling", "fig11_hard_threshold", "table1_datasets"]


# ----------------------------------------------------------------------
# One file per figure: benchmarks/bench_<id>.py is the whole definition
# ----------------------------------------------------------------------
def test_every_bench_file_is_one_complete_definition():
    paths = sorted(BENCHMARKS_DIR.glob("bench_*.py"))
    assert {path.stem for path in paths} == {f"bench_{bench_id}" for bench_id in bench_ids()}
    assert sorted(p.name for p in BENCHMARKS_DIR.glob("*.py")) == [p.name for p in paths], (
        "benchmarks/ holds bench files only (no conftest, no shared module)"
    )
    for path in paths:
        module = get_spec(path.stem.removeprefix("bench_")).load_module()
        assert isinstance(module.SPEC, BenchSpec)
        assert path.name == f"bench_{module.SPEC.bench_id}.py"
        for name in ("run", "check", "print_report"):
            assert callable(getattr(module, name, None)), f"{path.name} must export {name}()"
        # Run through `python -m repro.reports --run <id>` only: no pytest
        # twin, no main() shim, no script entry point.
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                assert node.name != "main" and not node.name.startswith("test_"), (
                    f"{path.name} defines {node.name}()"
                )
            assert not (
                isinstance(node, ast.If) and "__name__" in ast.unparse(node.test)
            ), f"{path.name} has an `if __name__` block"


def test_discovered_registry_equals_the_parent_table():
    # tests/data/parent_registry.json is the hand-kept registry table (plus
    # reports/schemas.py) of the commit before the registry became discovery,
    # dumped field for field.  When a SPEC changes on purpose, change its
    # entry here too; a bench added later has no entry and is not compared.
    parent = json.loads((Path(__file__).parent / "data" / "parent_registry.json").read_text())
    assert set(parent) <= set(bench_ids())
    for bench_id, expected in parent.items():
        spec = get_spec(bench_id)
        discovered = {
            field: getattr(spec, field) for field in expected if field != "gates"
        }
        discovered["gates"] = [dataclasses.asdict(gate) for gate in spec.gates]
        assert discovered == expected, bench_id
        assert spec.artifact == f"BENCH_{bench_id}.json"
    assert len(dataclasses.fields(BenchSpec)) == 10


def test_bench_ids_are_unique_and_artifacts_distinct():
    ids = bench_ids()
    assert len(ids) == len(set(ids))
    artifacts = [spec.artifact for spec in SPECS]
    assert len(artifacts) == len(set(artifacts))
    # A deleted bench must not leave its baseline behind.
    committed = {path.name for path in REPO_ROOT.glob("BENCH_*.json")}
    assert committed == set(artifacts)


def test_unknown_bench_id_raises_with_known_ids():
    with pytest.raises(KeyError, match="unknown bench id"):
        get_spec("fig99_imaginary")


# ----------------------------------------------------------------------
# Every generator resolves: run(), check()
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_generator_and_checker_resolve(spec):
    module = spec.load_module()
    assert callable(module.run)
    assert callable(module.check)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_spec_declares_sane_metadata(spec):
    assert spec.title and spec.paper_anchor
    assert spec.timeout_s > 0
    assert isinstance(spec.schema, dict) and spec.schema.get("type") == "object"
    for gate in spec.gates:
        assert gate.direction in ("higher", "lower")


def test_modelled_specs_never_declare_gates():
    # Satellite of the trend design: modelled payloads are not host
    # measurements, so "regressions" there would only measure a formula.
    modelled = [spec.bench_id for spec in SPECS if not spec.measured]
    assert "fig11_hard_threshold" in modelled
    for spec in SPECS:
        if not spec.measured:
            assert spec.gates == (), f"{spec.bench_id} is modelled but declares gates"


def test_bench_spec_rejects_gates_on_modelled_entries():
    with pytest.raises(ValueError, match="modelled benchmarks must not declare"):
        BenchSpec(
            bench_id="x",
            title="x",
            paper_anchor="Fig 0",
            schema={"type": "object"},
            measured=False,
            gates=(MetricGate("y", "higher", 0.1),),
        )


# ----------------------------------------------------------------------
# Smoke-mode execution under the per-spec timeout (isolated runner)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bench_id", TIER1_SMOKE_IDS)
def test_generator_runs_in_smoke_mode_under_timeout(bench_id, tmp_path):
    # The child runs single-thread BLAS (``_run_isolated`` pins it): with a
    # multi-threaded GEMM, a busy second core stalls one of fig4's timing
    # windows.
    spec = get_spec(bench_id)
    failures = _run_isolated(spec, smoke=True, out_dir=tmp_path, overrides={})
    assert failures == []
    document = read_artifact(spec, tmp_path / spec.artifact)
    assert document["envelope"]["mode"] == "smoke"


# ----------------------------------------------------------------------
# Docs coverage: every bench id appears in docs/paper_map.md
# ----------------------------------------------------------------------
def test_every_bench_id_documented_in_paper_map():
    text = (REPO_ROOT / "docs" / "paper_map.md").read_text()
    missing = [spec.bench_id for spec in SPECS if spec.bench_id not in text]
    assert not missing, f"docs/paper_map.md does not mention: {missing}"


def test_paper_map_status_table_in_sync_with_registry():
    assert check_paper_map() == []
