"""Figure 11 — hard-thresholding selection probability trade-off (exact).

This figure is a closed-form plot of Equation (3); the reproduction is exact,
not approximate: with ``L=10`` tables, higher frequency thresholds ``m``
suppress low-collision (bad) neurons but also lose some high-collision (good)
ones.
"""

import numpy as np

from repro.harness.report import format_series
from repro.reports.schema import CONFIG, FRACTION
from repro.reports.spec import BenchSpec
from repro.sampling.probability import hard_threshold_curve

_CURVE = {"type": "array", "items": FRACTION, "minItems": 2}

SPEC = BenchSpec(
    bench_id="fig11_hard_threshold",
    title="Hard-thresholding selection/collision trade-off",
    paper_anchor="Fig 11",
    schema={
        "type": "object",
        "required": ["config", "series"],
        "properties": {
            "config": CONFIG,
            "series": {
                "type": "object",
                "patternProperties": {
                    "^m=": {
                        "type": "object",
                        "required": ["collision_p", "selection_p"],
                        "properties": {"collision_p": _CURVE, "selection_p": _CURVE},
                    }
                },
            },
        },
    },
    smoke_params={"k": 1, "l": 10, "thresholds": [1, 3, 5, 7, 9], "num_points": 17},
    full_params={"k": 1, "l": 10, "thresholds": [1, 3, 5, 7, 9], "num_points": 33},
    measured=False,
    notes="Closed-form plot of Equation (3): exact, host-independent.",
)


def run(params: dict | None = None) -> dict:
    """Selection probability vs collision probability for several ``m`` values."""
    p = dict(params or {})
    k = int(p.get("k", 1))
    l = int(p.get("l", 10))
    thresholds = tuple(int(m) for m in p.get("thresholds", (1, 3, 5, 7, 9)))
    num_points = int(p.get("num_points", 17))
    probabilities = np.linspace(0.1, 0.9, num_points)
    series = {}
    for m in thresholds:
        p_values, selected = hard_threshold_curve(k, l, m, probabilities)
        series[f"m={m}"] = {
            "collision_p": [float(x) for x in p_values],
            "selection_p": [float(y) for y in selected],
        }
    return {
        "config": {"k": k, "l": l, "thresholds": list(thresholds), "num_points": num_points},
        "series": series,
    }


def check(payload: dict, smoke: bool) -> list[str]:
    """Curves are ordered: lower thresholds always select at least as often."""
    series = payload["series"]
    problems = []
    ms = sorted(int(name.split("=")[1]) for name in series)
    for low, high in zip(ms, ms[1:]):
        a = np.asarray(series[f"m={low}"]["selection_p"])
        b = np.asarray(series[f"m={high}"]["selection_p"])
        if not np.all(a >= b - 1e-12):
            problems.append(f"selection curve m={low} should dominate m={high}")
    return problems


def print_report(payload: dict) -> None:
    print(
        format_series(
            "collision_p",
            "Pr(selected)",
            {
                name: (curve["collision_p"], curve["selection_p"])
                for name, curve in payload["series"].items()
            },
            title="Figure 11: selection probability vs collision probability",
        )
    )
