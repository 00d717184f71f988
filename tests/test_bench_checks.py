"""Acceptance checks and report renderers of the benches, on payloads.

Each ``benchmarks/bench_<id>.py`` ships a ``check(payload, smoke)`` that the
registry runs after every generation and a ``print_report(payload)`` that
renders the same payload for the bench log.  Both are pure functions of the
payload, so they are exercised here on the committed baselines and on
hand-edited copies of them, without training anything: an edit that breaks
an acceptance bar must surface as a named problem, and every committed
payload must still render.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.reports.registry import all_specs, get_spec

SPECS = all_specs()
SPEC_IDS = [spec.bench_id for spec in SPECS]


def bench(bench_id: str):
    """The ``benchmarks/bench_<bench_id>.py`` module."""
    return get_spec(bench_id).load_module()


def golden_payload(bench_id: str) -> dict:
    """A private copy of the committed baseline's payload."""
    document = json.loads(get_spec(bench_id).artifact_path().read_text())
    return copy.deepcopy(document["payload"])


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_print_report_renders_the_committed_payload(spec, capsys):
    spec.load_module().print_report(golden_payload(spec.bench_id))
    assert capsys.readouterr().out.strip()


# ----------------------------------------------------------------------
# fig9_scalability: precision parity always, speedup only where possible
# ----------------------------------------------------------------------
def scaling_payload(
    cores: int, rows: list[tuple[int, float, float]], baseline: float = 0.5
) -> dict:
    """A fig9 payload from ``(processes, precision_at_1, speedup_vs_1)``."""
    measured = {
        "available_cores": cores,
        "baseline_precision_at_1": baseline,
        "rows": [
            {"processes": p, "precision_at_1": acc, "speedup_vs_1": speedup}
            for p, acc, speedup in rows
        ],
    }
    return {"measured": measured}


class TestFig9Check:
    def test_committed_baseline_passes(self):
        fig9 = bench("fig9_scalability")
        assert fig9.check(golden_payload("fig9_scalability"), smoke=True) == []

    def test_precision_gaps_are_absolute_and_skip_the_baseline(self):
        fig9 = bench("fig9_scalability")
        measured = scaling_payload(2, [(1, 0.5, 1.0), (2, 0.53, 1.4), (4, 0.46, 1.2)])
        gaps = fig9._precision_gaps(measured["measured"])
        assert set(gaps) == {2, 4}
        assert gaps[2] == pytest.approx(0.03)
        assert gaps[4] == pytest.approx(0.04)

    def test_smoke_flags_a_divergent_worker_run(self):
        fig9 = bench("fig9_scalability")
        payload = scaling_payload(2, [(1, 0.5, 1.0), (2, 0.2, 1.5)])
        problems = fig9.check(payload, smoke=True)
        assert len(problems) == 1
        assert "2-process precision@1 deviates 0.3000" in problems[0]

    def test_full_mode_holds_precision_to_the_tighter_tolerance(self):
        fig9 = bench("fig9_scalability")
        # 0.03 is inside the smoke bar (0.05) but outside the full one (0.01).
        payload = scaling_payload(2, [(1, 0.5, 1.0), (2, 0.47, 1.5)])
        assert fig9.check(payload, smoke=True) == []
        problems = fig9.check(payload, smoke=False)
        assert any("tolerance 0.01" in p for p in problems)

    def test_smoke_never_applies_a_speedup_bar(self):
        fig9 = bench("fig9_scalability")
        payload = scaling_payload(8, [(1, 0.5, 1.0), (2, 0.5, 0.3), (4, 0.5, 0.2)])
        assert fig9.check(payload, smoke=True) == []

    def test_full_mode_demands_the_4_process_bar_on_4_cores(self):
        fig9 = bench("fig9_scalability")
        slow = scaling_payload(4, [(1, 0.5, 1.0), (2, 0.5, 1.8), (4, 0.5, 1.2)])
        problems = fig9.check(slow, smoke=False)
        assert problems == [
            "4-process speedup 1.20x below the 1.5x bar on a 4-core machine"
        ]
        fast = scaling_payload(4, [(1, 0.5, 1.0), (2, 0.5, 1.8), (4, 0.5, 2.9)])
        assert fig9.check(fast, smoke=False) == []

    def test_full_mode_falls_back_to_the_2_process_bar_on_2_cores(self):
        fig9 = bench("fig9_scalability")
        # A 4-process row exists, but 2 cores cannot run it faster than 2.
        slow = scaling_payload(2, [(1, 0.5, 1.0), (2, 0.5, 1.1), (4, 0.5, 0.9)])
        assert fig9.check(slow, smoke=False) == [
            "2-process speedup 1.10x below 1.2x on a 2-core machine"
        ]
        fast = scaling_payload(2, [(1, 0.5, 1.0), (2, 0.5, 1.6), (4, 0.5, 0.9)])
        assert fig9.check(fast, smoke=False) == []

    def test_one_core_machine_gets_no_speedup_bar(self):
        fig9 = bench("fig9_scalability")
        payload = scaling_payload(1, [(1, 0.5, 1.0), (2, 0.5, 0.6), (4, 0.5, 0.4)])
        assert fig9.check(payload, smoke=False) == []


# ----------------------------------------------------------------------
# table2_core_utilization: rusage accounting works, values are fractions
# ----------------------------------------------------------------------
def utilization_payload(values: list[float]) -> dict:
    return {
        "measured": {
            "available_cores": 2,
            "rows": [
                {"processes": p, "SLIDE_utilization_measured": u}
                for p, u in zip((1, 2, 4), values)
            ],
        }
    }


class TestTable2Check:
    def test_committed_baseline_passes(self):
        table2 = bench("table2_core_utilization")
        assert table2.check(golden_payload("table2_core_utilization"), smoke=True) == []

    def test_zero_baseline_utilisation_means_broken_accounting(self):
        table2 = bench("table2_core_utilization")
        problems = table2.check(utilization_payload([0.0, 0.8]), smoke=True)
        assert "measured utilisation was zero — rusage accounting broke" in problems
        assert any("1-process utilisation 0.0 is not a core fraction" in p for p in problems)

    def test_utilisation_above_one_core_is_flagged(self):
        table2 = bench("table2_core_utilization")
        problems = table2.check(utilization_payload([0.9, 1.5, 1.05]), smoke=False)
        assert problems == ["2-process utilisation 1.5 is not a core fraction"]

    def test_paper_reference_is_kept_verbatim(self):
        table2 = bench("table2_core_utilization")
        assert golden_payload("table2_core_utilization")["paper_table2"] == {
            str(k): v for k, v in table2.PAPER_TABLE2.items()
        }


# ----------------------------------------------------------------------
# fig7_sampled_softmax: SLIDE out-converges static sampled softmax
# ----------------------------------------------------------------------
class TestFig7Check:
    def test_committed_baseline_passes(self):
        fig7 = bench("fig7_sampled_softmax")
        assert fig7.check(golden_payload("fig7_sampled_softmax"), smoke=True) == []

    def test_lost_accuracy_advantage_is_flagged_per_dataset(self):
        fig7 = bench("fig7_sampled_softmax")
        payload = golden_payload("fig7_sampled_softmax")
        payload["amazon"]["accuracy_advantage"] = 0.0
        assert fig7.check(payload, smoke=True) == [
            "amazon: SLIDE should out-converge TF-GPU sampled softmax"
        ]

    def test_dense_slide_activation_is_flagged(self):
        fig7 = bench("fig7_sampled_softmax")
        payload = golden_payload("fig7_sampled_softmax")
        payload["delicious"]["active_fraction"]["slide"] = 1.0
        assert fig7.check(payload, smoke=True) == [
            "delicious: SLIDE active fraction should stay below 1.0"
        ]

    def test_committed_advantage_is_the_accuracy_difference(self):
        payload = golden_payload("fig7_sampled_softmax")
        for name in ("delicious", "amazon"):
            side = payload[name]
            final = side["final_accuracy"]
            assert side["accuracy_advantage"] == pytest.approx(
                final["slide"] - final["sampled_softmax"]
            )


# ----------------------------------------------------------------------
# ablation_rebuild_schedule: both schedules rebuild, the decayed one less
# ----------------------------------------------------------------------
class TestRebuildScheduleCheck:
    def test_committed_baseline_passes(self):
        ablation = bench("ablation_rebuild_schedule")
        assert ablation.check(golden_payload("ablation_rebuild_schedule"), smoke=True) == []

    @pytest.mark.parametrize("row", [0, 1])
    def test_a_row_without_a_rebuild_is_flagged(self, row):
        ablation = bench("ablation_rebuild_schedule")
        payload = golden_payload("ablation_rebuild_schedule")
        payload["rows"][row]["rebuilds"] = 0
        schedule = payload["rows"][row]["schedule"]
        assert f"{schedule} performed no rebuild in 8 iterations" in ablation.check(
            payload, smoke=True
        )


# ----------------------------------------------------------------------
# fig11_hard_threshold: the closed form of Eq. 3
# ----------------------------------------------------------------------
class TestFig11:
    def test_run_honours_thresholds_and_grid(self):
        fig11 = bench("fig11_hard_threshold")
        payload = fig11.run({"k": 2, "l": 6, "thresholds": [2, 4], "num_points": 5})
        assert payload["config"] == {"k": 2, "l": 6, "thresholds": [2, 4], "num_points": 5}
        assert set(payload["series"]) == {"m=2", "m=4"}
        for curve in payload["series"].values():
            assert curve["collision_p"] == pytest.approx([0.1, 0.3, 0.5, 0.7, 0.9])
            assert len(curve["selection_p"]) == 5

    def test_run_reproduces_the_committed_curves(self):
        fig11 = bench("fig11_hard_threshold")
        fresh = fig11.run(dict(get_spec("fig11_hard_threshold").smoke_params))
        golden = golden_payload("fig11_hard_threshold")
        assert fresh["config"] == golden["config"]
        assert set(fresh["series"]) == set(golden["series"])
        for name, curve in golden["series"].items():
            for key in ("collision_p", "selection_p"):
                # Closed form: equal up to the last bits of libm's pow.
                np.testing.assert_allclose(fresh["series"][name][key], curve[key], rtol=1e-12)

    def test_m1_curve_is_the_any_table_collision_probability(self):
        fig11 = bench("fig11_hard_threshold")
        curve = fig11.run({"k": 1, "l": 10, "thresholds": [1]})["series"]["m=1"]
        p = np.asarray(curve["collision_p"])
        np.testing.assert_allclose(curve["selection_p"], 1.0 - (1.0 - p) ** 10)

    def test_check_flags_a_curve_that_does_not_dominate(self):
        fig11 = bench("fig11_hard_threshold")
        payload = golden_payload("fig11_hard_threshold")
        payload["series"]["m=3"]["selection_p"][4] = 0.0
        assert fig11.check(payload, smoke=True) == [
            "selection curve m=3 should dominate m=5"
        ]
