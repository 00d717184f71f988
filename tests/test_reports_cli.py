"""CLI tests for ``python -m repro.reports``.

These stick to the cheapest registered generators (fig4/fig11 run in well
under a second) so tier-1 exercises the real end-to-end path — generate,
stamp, validate, write, trend-check — without paying for the full sweep.
"""

from __future__ import annotations

import json

import pytest

import repro.reports.cli as cli
from repro.reports.artifacts import read_artifact
from repro.reports.cli import main, run_bench
from repro.reports.registry import bench_ids, get_spec
from repro.reports.trend import TrendReport


def test_list_mentions_every_bench_id(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for bench_id in bench_ids():
        assert bench_id in out
    assert "modelled" in out and "measured" in out


def test_no_arguments_prints_help_and_exits_2(capsys):
    assert main([]) == 2
    assert "--run" in capsys.readouterr().out


def test_run_writes_validated_smoke_artifact(tmp_path, capsys):
    rc = main(
        ["--run", "fig11_hard_threshold", "--smoke", "--in-process", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    assert "[ok] fig11_hard_threshold" in capsys.readouterr().out
    spec = get_spec("fig11_hard_threshold")
    document = read_artifact(spec, tmp_path / spec.artifact)
    assert document["envelope"]["mode"] == "smoke"
    assert document["envelope"]["measured"] is False


def test_run_with_check_skips_modelled_and_passes(tmp_path, capsys):
    rc = main(
        [
            "--run",
            "fig11_hard_threshold",
            "--check",
            "--smoke",
            "--in-process",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "[skipped] fig11_hard_threshold: modelled artifact" in out
    assert "0 regression(s)" in out


def test_unknown_bench_id_raises_key_error():
    with pytest.raises(KeyError, match="unknown bench id"):
        main(["--run", "fig99_imaginary"])


def test_trend_failure_turns_into_exit_code_1(monkeypatch, tmp_path, capsys):
    # Plumbing test: when the trend checker reports a problem, the CLI must
    # exit non-zero and say why (the gate math itself is covered in
    # test_reports_trend.py).
    def fake_run(spec, smoke, out_dir, overrides):
        return []

    failing = TrendReport()
    failing.errors.append("baseline: synthetic failure for the test")
    monkeypatch.setattr(cli, "_run_one", fake_run)
    monkeypatch.setattr(cli, "check_trend", lambda specs, fresh_dir: failing)
    rc = main(
        ["--run", "fig4_sampling", "--check", "--in-process", "--out-dir", str(tmp_path)]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert "trend gating failed" in captured.err
    assert "synthetic failure" in captured.out


def test_checker_problems_fail_the_run(monkeypatch, tmp_path, capsys):
    spec = get_spec("fig4_sampling")
    monkeypatch.setattr(
        cli,
        "run_bench",
        lambda *a, **k: ({"rows": []}, tmp_path / spec.artifact, ["bad invariant"]),
    )
    rc = main(["--run", "fig4_sampling", "--in-process", "--out-dir", str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "CHECK-FAILED" in captured.out
    assert "bad invariant" in captured.err


def test_run_bench_applies_param_overrides(tmp_path):
    spec = get_spec("fig11_hard_threshold")
    payload, written, problems = run_bench(
        spec,
        smoke=True,
        out_dir=tmp_path,
        param_overrides={"thresholds": [1, 3], "num_points": 5},
    )
    assert problems == []
    assert payload["config"]["thresholds"] == [1, 3]
    assert payload["config"]["num_points"] == 5
    assert written == tmp_path / spec.artifact
    document = json.loads(written.read_text())
    assert document["envelope"]["bench_id"] == "fig11_hard_threshold"


def test_run_with_params_prints_report_and_writes_artifact(tmp_path, capsys):
    rc = main(
        ["--run", "fig11_hard_threshold", "--in-process", "--smoke", "--out-dir", str(tmp_path)]
        + ["--param", "num_points=5", "--param", "thresholds=[1, 3]"]
    )
    assert rc == 0
    written = tmp_path / "BENCH_fig11_hard_threshold.json"
    document = json.loads(written.read_text())
    assert document["payload"]["config"] == {
        "k": 1, "l": 10, "thresholds": [1, 3], "num_points": 5
    }
    out = capsys.readouterr().out
    assert "Figure 11: selection probability" in out  # the bench's print_report table
    assert f"-> {written}" in out


def test_params_are_forwarded_to_the_isolated_child(tmp_path):
    rc = main(
        ["--run", "fig11_hard_threshold", "--smoke", "--param", "num_points=5"]
        + ["--out-dir", str(tmp_path)]
    )
    assert rc == 0
    document = json.loads((tmp_path / "BENCH_fig11_hard_threshold.json").read_text())
    assert document["payload"]["config"]["num_points"] == 5


def test_isolated_child_runs_single_thread_blas(monkeypatch, tmp_path):
    """Whatever the caller's environment says, the child's BLAS gets one
    thread: a multi-threaded GEMM spills onto other cores and fails the
    core-utilisation and timing checks."""
    seen = {}

    def fake_run(argv, **kwargs):
        seen.update(kwargs["env"])
        return cli.subprocess.CompletedProcess(argv, 0, stdout="", stderr="")

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setattr(cli.subprocess, "run", fake_run)
    spec = get_spec("fig11_hard_threshold")
    assert cli._run_isolated(spec, smoke=True, out_dir=tmp_path, overrides={}) == []
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert seen[variable] == "1"
    assert seen["PYTHONPATH"]


@pytest.mark.parametrize(
    "selection", [["--run", "fig4_sampling", "--run", "fig11_hard_threshold"], ["--all"]]
)
def test_param_needs_exactly_one_run(selection, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*selection, "--param", "queries=2"])
    assert excinfo.value.code == 2
    assert "--param needs exactly one --run" in capsys.readouterr().err


def test_run_reports_checker_failures_but_still_writes_under_out_dir(
    monkeypatch, tmp_path, capsys
):
    spec = get_spec("fig11_hard_threshold")
    monkeypatch.setattr(spec.load_module(), "check", lambda payload, smoke: ["broken"])
    rc = main(
        ["--run", "fig11_hard_threshold", "--in-process", "--smoke", "--param", "num_points=5"]
        + ["--out-dir", str(tmp_path)]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert "CHECK-FAILED" in captured.out
    assert "broken" in captured.err
    # CI uploads failing artifacts from --out-dir, so the write is unconditional.
    assert (tmp_path / spec.artifact).is_file()


def test_failed_check_never_replaces_the_committed_baseline(monkeypatch, capsys):
    # Regression: the artifact used to be written *before* the bench's own
    # check ran, so one flaky plain `--run ID` silently replaced the committed
    # baseline with a payload that failed its invariants.
    spec = get_spec("fig11_hard_threshold")
    baseline = spec.artifact_path()
    before = baseline.read_bytes()
    monkeypatch.setattr(spec.load_module(), "check", lambda payload, smoke: ["broken"])
    rc = main(["--run", "fig11_hard_threshold", "--in-process", "--smoke"])
    assert rc == 1
    assert baseline.read_bytes() == before
    captured = capsys.readouterr()
    assert "broken" in captured.err
    assert "left untouched" in captured.out


def test_sync_docs_roundtrip(capsys):
    # --check-docs is clean right after --sync-docs (exercised against the
    # real docs/paper_map.md; sync is idempotent so the tree is unchanged).
    assert main(["--sync-docs"]) in (0,)
    capsys.readouterr()
    assert main(["--check-docs"]) == 0
    assert "docs check OK" in capsys.readouterr().out
