"""Serving under sustained load: QPS sweep, load shedding, hot-reload blip.

Not a paper figure — the deployment-side evidence for the paper's thesis
that CPU SLIDE is *servable*, not just trainable.  The bench trains a SLIDE
network, publishes it into a :class:`CheckpointStore`, and drives an
:class:`~repro.serving.runtime.OnlineRuntime` with the open-loop generator
from :mod:`repro.serving.loadgen`:

1. **Capacity probe** — flood the runtime (shed admission) and take the
   achieved completion rate as its sustainable capacity.
2. **Sustained-QPS sweep** — offered load from a fraction of capacity to
   2x beyond it.  The overload contract under test: shed rate rises with
   offered load while the p99 of *admitted* requests stays bounded by the
   deadline (graceful degradation, not collapse).
3. **Hot reload under live traffic** — while the generator runs, the
   trainer publishes two more checkpoint versions (auto-pruned via
   ``keep_last``); each is hot-swapped in through the incremental LSH
   ``update(dirty)`` path.  Asserted: zero failed non-shed requests, every
   swap incremental (no full rebuild), and the write-lock hold time — the
   reload "blip" — measured per swap.
4. **Parity** — after both swaps the resident engine's top-k must be
   *bitwise* identical to a cold load of the same checkpoint.

``python -m repro.reports --run serving_latency`` writes
``BENCH_serving_latency.json``.
"""

from __future__ import annotations

import threading
import time
from tempfile import TemporaryDirectory

import numpy as np

from repro.config import ServingConfig
from repro.core.network import SlideNetwork
from repro.harness.report import format_table
from repro.harness.serving_sweep import train_serving_network
from repro.reports.schema import BOOL, CONFIG, FRACTION, NAT, POS, STR, rows
from repro.reports.spec import BenchSpec, MetricGate
from repro.serving import OnlineRuntime, SparseInferenceEngine, run_open_loop
from repro.state import CheckpointStore

# Per-request deadline for the sweep: the bound "graceful degradation" is
# measured against — admitted requests must finish within it plus compute.
DEADLINE_MS = 250.0

# Upper bound on the hot-reload traffic window; the window really closes
# when the last swap has landed plus a tail (see ``_SendUntil``).
_MAX_RELOAD_WINDOW_S = 120.0


class _SendUntil:
    """Forwards ``submit`` to a runtime until ``closed`` is set.

    After that ``submit`` raises ``RuntimeError``, which
    :func:`~repro.serving.loadgen.run_open_loop` reads as the runtime going
    away: it stops sending and settles what is in flight.
    """

    def __init__(self, runtime: OnlineRuntime, closed: threading.Event) -> None:
        self.runtime = runtime
        self.closed = closed

    def submit(self, example, k=None):
        if self.closed.is_set():
            raise RuntimeError("reload traffic window closed")
        return self.runtime.submit(example, k=k)


_LATENCY = {
    "type": "object",
    "required": ["p50", "p99", "p999", "mean", "max"],
    "properties": {"p50": POS, "p99": POS, "p999": POS, "mean": POS, "max": POS},
}

SPEC = BenchSpec(
    bench_id="serving_latency",
    title="Serving under sustained load + zero-downtime hot reload",
    paper_anchor="beyond-paper (serving runtime)",
    schema={
        "type": "object",
        "required": ["config", "capacity", "qps_sweep", "hot_reload", "parity"],
        "properties": {
            "config": CONFIG,
            "capacity": {
                "type": "object",
                "required": ["sustained_qps"],
                "properties": {"sustained_qps": POS, "probe_shed_rate": FRACTION},
            },
            "qps_sweep": rows(
                {
                    "offered_qps": POS,
                    "achieved_qps": POS,
                    "sent": NAT,
                    "completed": NAT,
                    "errors": NAT,
                    "shed_rate": FRACTION,
                    "latency_ms": _LATENCY,
                    "load_fraction": POS,
                },
                min_items=2,
            ),
            "hot_reload": {
                "type": "object",
                "required": ["num_swaps", "swaps", "incremental_swaps"],
                "properties": {
                    "num_swaps": NAT,
                    "incremental_swaps": NAT,
                    "swaps": rows(
                        {"blip_ms": POS, "full_rebuild": BOOL, "version": STR},
                        min_items=1,
                    ),
                },
            },
            "parity": {
                "type": "object",
                "required": ["bitwise_topk_equal_to_cold_load"],
                "properties": {"bitwise_topk_equal_to_cold_load": BOOL},
            },
        },
    },
    smoke_params={"smoke": True},
    full_params={"smoke": False},
    measured=True,
    gates=(
        MetricGate("capacity.sustained_qps", "higher", rel_tol=0.6),
        MetricGate(
            "qps_sweep[load_fraction=2].latency_ms.p99", "lower", rel_tol=0.75, abs_tol=5.0
        ),
        MetricGate(
            "qps_sweep[load_fraction=2].shed_rate", "lower", rel_tol=0.75, abs_tol=0.15
        ),
    ),
    timeout_s=240.0,
)


def run(params: dict | None = None) -> dict:
    """Capacity probe, QPS sweep, hot reload under traffic, post-swap parity."""
    p = dict(params or {})
    if p.get("smoke", False):
        # The 2x point stays in the smoke sweep: the committed baseline's
        # overload p99 / shed rate are the trend-gated metrics.
        scale, probe_s, sweep_s, tail_s = 1.0 / 2048.0, 0.8, 1.0, 0.5
        load_fractions = (0.5, 1.0, 2.0)
    else:
        scale, probe_s, sweep_s, tail_s = 1.0 / 1024.0, 2.0, 3.0, 1.0
        load_fractions = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
    scale = float(p.get("scale", scale))
    num_swaps = 2
    network, dataset, trainer, _ = train_serving_network(scale=scale)
    budget = max(16, int(0.15 * network.output_dim))
    examples = list(dataset.test)

    with TemporaryDirectory(prefix="bench-serving-store-") as tmp:
        store = CheckpointStore(tmp)
        store.save(network, trainer.optimizer, keep_last=3)
        config = ServingConfig(
            engine="sparse",
            active_budget=budget,
            top_k=5,
            max_batch_size=16,
            max_wait_ms=1.0,
            num_workers=2,
            queue_capacity=256,
            deadline_ms=DEADLINE_MS,
            reload_poll_s=3600.0,  # swaps are driven synchronously below
        )
        runtime = OnlineRuntime(store, config).start()
        try:
            # ------------------------------------------------------ phase 1
            # The probe rate must exceed what the runtime can sustain or
            # "capacity" is just the probe rate echoed back; 10k/s is past
            # what the single-threaded generator + queue can clear here.
            probe = run_open_loop(runtime, examples, qps=10_000.0, duration_s=probe_s, k=5)
            capacity = max(probe.achieved_qps, 1.0)

            # ------------------------------------------------------ phase 2
            sweep_rows = []
            for fraction in load_fractions:
                time.sleep(0.3)  # let the previous point's backlog drain
                report = run_open_loop(
                    runtime,
                    examples,
                    qps=max(fraction * capacity, 1.0),
                    duration_s=sweep_s,
                    k=5,
                )
                row = report.to_dict()
                row["load_fraction"] = fraction
                sweep_rows.append(row)

            # ------------------------------------------------------ phase 3
            time.sleep(0.3)
            reload_qps = max(0.6 * capacity, 1.0)
            # The traffic window ends on swap completion, not on a clock
            # set in advance: each publish retrains an epoch while sharing
            # the GIL with live traffic, so its duration is unknown until it
            # lands.  The generator keeps sending until the last swap is in
            # plus a tail, so the final generation carries live traffic.
            window_closed = threading.Event()
            reload_reports: list[dict] = []
            loadgen_result: list = []

            def client() -> None:
                loadgen_result.append(
                    run_open_loop(
                        _SendUntil(runtime, window_closed),
                        examples,
                        qps=reload_qps,
                        duration_s=_MAX_RELOAD_WINDOW_S,
                        k=5,
                    )
                )

            window_start = time.monotonic()
            thread = threading.Thread(target=client, daemon=True)
            thread.start()
            for _ in range(num_swaps):
                time.sleep(0.4)
                trainer.train(dataset.train)
                store.save(network, trainer.optimizer, keep_last=3)
                swap = runtime.watcher.poll_once()
                assert swap is not None, "watcher must pick up the new version"
                reload_reports.append(
                    {
                        "version": swap.version,
                        "blip_ms": swap.duration_s * 1e3,
                        "changed_rows": swap.changed_rows,
                        "update_items": swap.update_items,
                        "moved_entries": swap.moved_entries,
                        "full_rebuild": swap.full_rebuild,
                        "generation": swap.generation,
                    }
                )
            time.sleep(tail_s)
            window_closed.set()
            reload_window_s = time.monotonic() - window_start
            thread.join(timeout=120.0)
            traffic = loadgen_result[0]
            # The nominal duration was only a cap; rates are per real window.
            traffic.duration_s = reload_window_s
            reload_traffic = traffic.to_dict()

            # ------------------------------------------------------ phase 4
            latest = store.latest()
            cold = SparseInferenceEngine(
                SlideNetwork.from_checkpoint(latest),
                active_budget=budget,
            )
            resident = runtime.engine
            swapped_preds = resident.predict_batch(examples, k=5)
            cold_preds = cold.predict_batch(examples, k=5)
            parity = all(
                np.array_equal(a.class_ids, b.class_ids)
                and np.array_equal(a.scores, b.scores)
                for a, b in zip(swapped_preds, cold_preds)
            )
            stats = runtime.stats()
        finally:
            runtime.stop()

    return {
        "config": {
            "scale": scale,
            "active_budget": budget,
            "num_workers": config.num_workers,
            "queue_capacity": config.queue_capacity,
            "deadline_ms": DEADLINE_MS,
            "input_dim": network.input_dim,
            "output_dim": network.output_dim,
            "sweep_duration_s": sweep_s,
        },
        "capacity": {
            "probe_offered_qps": probe.offered_qps,
            "sustained_qps": capacity,
            "probe_shed_rate": probe.shed_rate,
        },
        "qps_sweep": sweep_rows,
        "hot_reload": {
            "num_swaps": num_swaps,
            "window_s": reload_window_s,
            "swaps": reload_reports,
            "incremental_swaps": sum(1 for r in reload_reports if not r["full_rebuild"]),
            "traffic": reload_traffic,
            "reloads_recorded": stats["reloads"],
            "reload_failures": stats["reload_failures"],
        },
        "parity": {
            "bitwise_topk_equal_to_cold_load": bool(parity),
            "checkpoint_version": latest.name,
            "requests_compared": len(examples),
        },
    }


def check(payload: dict, smoke: bool) -> list[str]:
    """Graceful-degradation + hot-reload acceptance invariants."""
    failures: list[str] = []
    sweep = payload["qps_sweep"]
    hot = payload["hot_reload"]
    bound_ms = payload["config"]["deadline_ms"] + 500.0

    for row in sweep:
        if row["errors"]:
            failures.append(f"{row['errors']} hard errors at {row['offered_qps']:.0f} qps")
        # Graceful degradation: admitted requests stay bounded by the
        # deadline (+compute/settle slack) even at 2x overload.
        if row["completed"] and row["latency_ms"]["p99"] > bound_ms:
            failures.append(
                f"admitted p99 {row['latency_ms']['p99']:.0f}ms exceeds "
                f"{bound_ms:.0f}ms at {row['load_fraction']}x load"
            )
    # Overload must actually shed, and shedding must grow with offered load.
    if sweep[-1]["shed_rate"] < sweep[0]["shed_rate"]:
        failures.append("shed rate did not rise with offered load")
    if sweep[-1]["load_fraction"] >= 1.5 and sweep[-1]["shed_rate"] == 0.0:
        failures.append("no shedding at overload — admission control inert")

    if hot["traffic"]["errors"]:
        failures.append(f"hot reload failed {hot['traffic']['errors']} live requests")
    if hot["incremental_swaps"] < 1:
        failures.append("no incremental (non-full-rebuild) LSH patch recorded")
    if any(r["full_rebuild"] for r in hot["swaps"]):
        failures.append("a swap fell back to a full table rebuild")
    if len(hot["traffic"]["generations"]) < hot["num_swaps"] + 1:
        failures.append(
            f"traffic spanned {len(hot['traffic']['generations'])} weight "
            f"generations, expected {hot['num_swaps'] + 1} (every swap under load)"
        )
    last = str(hot["swaps"][-1]["generation"])
    if not hot["traffic"]["generations"].get(last):
        failures.append(f"no live traffic after the last swap (generation {last})")
    if not payload["parity"]["bitwise_topk_equal_to_cold_load"]:
        failures.append("post-swap engine diverges from cold-loaded checkpoint")
    return failures


def print_report(payload: dict) -> None:
    rows = [
        {
            "load": f"{row['load_fraction']}x",
            "offered_qps": round(row["offered_qps"], 1),
            "achieved_qps": round(row["achieved_qps"], 1),
            "p50_ms": round(row["latency_ms"]["p50"], 2),
            "p99_ms": round(row["latency_ms"]["p99"], 2),
            "p999_ms": round(row["latency_ms"]["p999"], 2),
            "shed_rate": round(row["shed_rate"], 3),
            "errors": row["errors"],
        }
        for row in payload["qps_sweep"]
    ]
    print(
        format_table(
            rows,
            title=(
                f"Sustained-QPS sweep (capacity "
                f"{payload['capacity']['sustained_qps']:.0f} rps, "
                f"deadline {payload['config']['deadline_ms']:.0f}ms)"
            ),
        )
    )
    print()
    swap_rows = [
        {
            "version": r["version"],
            "blip_ms": round(r["blip_ms"], 2),
            "changed_rows": r["changed_rows"],
            "moved_entries": r["moved_entries"],
            "full_rebuild": r["full_rebuild"],
        }
        for r in payload["hot_reload"]["swaps"]
    ]
    print(format_table(swap_rows, title="Hot reload under live traffic"))
    traffic = payload["hot_reload"]["traffic"]
    print(
        f"reload-phase traffic: {traffic['completed']} completed, "
        f"{traffic['errors']} errors, shed rate {traffic['shed_rate']:.3f}, "
        f"generations {sorted(traffic['generations'])}"
    )
    print(
        "parity (post-swap vs cold load): "
        f"{payload['parity']['bitwise_topk_equal_to_cold_load']}"
    )
