"""Router resilience under chaos: failover, availability, degradation ladder.

Not a paper figure — the robustness evidence for serving the paper's CPU
SLIDE models in production shape.  The bench trains a SLIDE network,
publishes it into a shared :class:`CheckpointStore`, and fronts two
:class:`~repro.serving.runtime.OnlineRuntime` replicas with the
:class:`~repro.serving.router.ReplicaRouter`:

1. **Capacity probe + baseline** — flood the router to find its sustainable
   completion rate, then run an open-loop load at half capacity with both
   replicas healthy.  Contract: zero hard errors.
2. **Failover under replica kill** — sustained load, then ``kill_replica``
   mid-run (no drain: in-flight futures cancel).  Measured: *detection
   latency* (kill timestamp to the health checker's ``live: True → False``
   transition), *availability* (non-shed success rate across the whole
   window, kill included), and where the surviving traffic landed.
3. **Degradation ladder** — force each level of the quality ladder
   (budget steps → rerank off → shed-armed) and measure closed-loop
   precision@1 and latency per level: the quality-for-availability trade
   the router makes under pressure, quantified.
4. **Chaos faults** — a deterministic ``predict_crash`` injector pinned to
   one replica for the whole run.  Contract: the crashing replica's
   breaker opens, every request fails over, and the client sees zero
   errors.

``python -m repro.reports --run router_failover`` writes
``BENCH_router_failover.json``.
"""

from __future__ import annotations

import threading
import time
from tempfile import TemporaryDirectory

from repro.config import RouterConfig, ServingConfig
from repro.faults import ServingFaultPlan, ServingFaultSpec
from repro.harness.report import format_table
from repro.harness.serving_sweep import train_serving_network
from repro.reports.schema import CONFIG, FRACTION, NAT, POS, STR, rows
from repro.reports.spec import BenchSpec, MetricGate
from repro.serving import ReplicaRouter, run_open_loop
from repro.serving.router import DEGRADATION_BUDGET_STEPS
from repro.state import CheckpointStore

# Availability floor under a replica kill: non-shed requests that completed
# over the whole failover window, the kill and its cancelled in-flight
# futures included.  Sheds are admission control doing its job, not outages.
AVAILABILITY_FLOOR = 0.99

SPEC = BenchSpec(
    bench_id="router_failover",
    title="Multi-replica router chaos: failover, degradation ladder, breakers",
    paper_anchor="beyond-paper (serving resilience)",
    schema={
        "type": "object",
        "required": ["config", "capacity", "baseline", "failover", "degradation_ladder", "chaos"],
        "properties": {
            "config": CONFIG,
            "capacity": {"type": "object"},
            "baseline": {
                "type": "object",
                "required": ["availability"],
                "properties": {
                    "availability": FRACTION,
                    "traffic": {
                        "type": "object",
                        "required": ["completed", "errors"],
                        "properties": {"completed": NAT, "errors": NAT},
                    },
                },
            },
            "failover": {
                "type": "object",
                "required": ["availability", "detection_ms", "killed_replica"],
                "properties": {
                    "availability": FRACTION,
                    "detection_ms": POS,
                    "killed_replica": STR,
                },
            },
            "degradation_ladder": rows(
                {
                    "level": NAT,
                    "precision_at_1": FRACTION,
                    "p99_ms": POS,
                    "mean_candidates_scored": POS,
                },
                min_items=2,
            ),
            "chaos": {
                "type": "object",
                "required": ["availability", "injections_fired"],
                "properties": {"availability": FRACTION, "injections_fired": NAT},
            },
        },
    },
    smoke_params={"smoke": True},
    full_params={"smoke": False},
    measured=True,
    gates=(
        MetricGate("failover.availability", "higher", rel_tol=0.0, abs_tol=0.01),
        MetricGate("failover.detection_ms", "lower", rel_tol=1.5, abs_tol=150.0),
        MetricGate(
            "degradation_ladder[level=0].precision_at_1", "higher", rel_tol=0.2, abs_tol=0.1
        ),
        MetricGate("chaos.availability", "higher", rel_tol=0.0, abs_tol=0.01),
    ),
    timeout_s=240.0,
)


def _serving_config(budget: int) -> ServingConfig:
    return ServingConfig(
        engine="sparse",
        active_budget=budget,
        top_k=5,
        max_batch_size=16,
        max_wait_ms=1.0,
        num_workers=2,
        queue_capacity=256,
        deadline_ms=250.0,
        reload_poll_s=3600.0,  # no publishes during the bench
    )


def _router_config() -> RouterConfig:
    return RouterConfig(
        num_replicas=2,
        health_interval_s=0.1,
        probe_timeout_s=0.5,
        retry_max_attempts=3,
        attempt_timeout_s=0.5,
        request_deadline_s=2.0,
        breaker_failure_threshold=5,
        breaker_recovery_s=0.5,
    )


def _detection_bound_s(config: RouterConfig) -> float:
    # Worst case: a probe launched just before the kill must first time out
    # (or cancel), then the next scheduled check flags the replica.
    return 2 * config.health_interval_s + config.probe_timeout_s + 0.5


def _availability(traffic: dict) -> float:
    denom = traffic["completed"] + traffic["errors"]
    return traffic["completed"] / denom if denom else 1.0


def _measure_failover(router, examples, qps, duration_s, kill_after_s):
    """Open-loop load with a mid-run replica kill; returns (traffic, kill_record)."""
    result: list = []

    def client() -> None:
        result.append(
            run_open_loop(router, examples, qps=qps, duration_s=duration_s, k=5)
        )

    thread = threading.Thread(target=client, daemon=True)
    thread.start()
    time.sleep(kill_after_s)
    killed_at = time.monotonic()
    router.kill_replica("r0")
    thread.join(timeout=duration_s + 60.0)
    traffic = result[0]

    detection_s = None
    for record in router.metrics.transitions(kind="live", replica="r0"):
        if record["new"] is False and record["at"] >= killed_at:
            detection_s = record["at"] - killed_at
            break
    return traffic, {
        "kill_after_s": kill_after_s,
        "detection_s": detection_s,
        "killed_replica": "r0",
    }


def _measure_ladder(router, examples, k: int = 5):
    """Closed-loop precision@1 + latency at every forced degradation level."""
    rows = []
    for level in range(router.degradation.max_level + 1):
        router.degradation.set_level(level)
        latencies = []
        hits = 0
        modes: dict[str, int] = {}
        candidates = 0
        for example in examples:
            t0 = time.monotonic()
            prediction = router.predict(example, k=k)
            latencies.append(time.monotonic() - t0)
            assert prediction.degradation == level
            modes[prediction.mode] = modes.get(prediction.mode, 0) + 1
            candidates += prediction.candidates_scored
            if prediction.class_ids.size and prediction.class_ids[0] in example.labels:
                hits += 1
        ordered = sorted(latencies)
        rows.append(
            {
                "level": level,
                "precision_at_1": hits / len(examples),
                "p50_ms": ordered[len(ordered) // 2] * 1e3,
                "p99_ms": ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))] * 1e3,
                "mean_candidates_scored": candidates / len(examples),
                "modes": modes,
            }
        )
    router.degradation.set_level(0)
    return rows


def run(params: dict | None = None) -> dict:
    """Baseline, failover under a replica kill, degradation ladder, chaos."""
    p = dict(params or {})
    if p.get("smoke", False):
        scale, eval_n = 1.0 / 2048.0, 32
        probe_s, baseline_s, failover_s, chaos_s = 0.8, 1.0, 2.5, 1.2
    else:
        scale, eval_n = 1.0 / 1024.0, 64
        probe_s, baseline_s, failover_s, chaos_s = 1.5, 2.0, 4.0, 2.0
    scale = float(p.get("scale", scale))
    network, dataset, trainer, _train_s = train_serving_network(scale=scale)
    budget = max(16, int(0.15 * network.output_dim))
    examples = list(dataset.test)
    eval_examples = examples[: min(eval_n, len(examples))]
    serving_config = _serving_config(budget)
    router_config = _router_config()

    with TemporaryDirectory(prefix="bench-router-store-") as tmp:
        store = CheckpointStore(tmp)
        store.save(network, trainer.optimizer, keep_last=3)

        # -------------------------------------------------- phase 1: baseline
        with ReplicaRouter(store, serving_config, router_config) as router:
            probe = run_open_loop(router, examples, qps=2_000.0, duration_s=probe_s, k=5)
            capacity = max(probe.achieved_qps, 1.0)
            load_qps = max(0.5 * capacity, 1.0)
            time.sleep(0.3)
            baseline = run_open_loop(
                router, examples, qps=load_qps, duration_s=baseline_s, k=5
            )
            baseline_stats = router.stats()

        # -------------------------------------------------- phase 2: failover
        with ReplicaRouter(store, serving_config, router_config) as router:
            failover_traffic, kill = _measure_failover(
                router,
                examples,
                qps=load_qps,
                duration_s=failover_s,
                kill_after_s=failover_s / 3,
            )
            failover_stats = router.stats()

        # ------------------------------------------- phase 3: degradation ladder
        with ReplicaRouter(store, serving_config, router_config) as router:
            ladder = _measure_ladder(router, eval_examples)

        # -------------------------------------------------- phase 4: chaos
        plan = ServingFaultPlan.of(
            ServingFaultSpec(
                kind="predict_crash", replica="r0", at_request=0, count=10_000_000
            )
        )
        with ReplicaRouter(store, serving_config, router_config, fault_plan=plan) as router:
            chaos_traffic = run_open_loop(
                router, examples, qps=max(0.3 * capacity, 1.0), duration_s=chaos_s, k=5
            )
            chaos_stats = router.stats()
            chaos_fired = len(router.replica("r0").runtime.engine.fault_injector.fired)

    return {
        "config": {
            "scale": scale,
            "active_budget": budget,
            "num_replicas": router_config.num_replicas,
            "workers_per_replica": serving_config.num_workers,
            "health_interval_s": router_config.health_interval_s,
            "probe_timeout_s": router_config.probe_timeout_s,
            "retry_max_attempts": router_config.retry_max_attempts,
            "degradation_budget_steps": list(DEGRADATION_BUDGET_STEPS),
            "detection_bound_s": _detection_bound_s(router_config),
            "availability_floor": AVAILABILITY_FLOOR,
            "input_dim": network.input_dim,
            "output_dim": network.output_dim,
        },
        "capacity": {
            "probe_offered_qps": probe.offered_qps,
            "sustained_qps": capacity,
            "load_qps": load_qps,
        },
        "baseline": {
            "traffic": baseline.to_dict(),
            "availability": _availability(baseline.to_dict()),
            "outcomes": baseline_stats["outcomes"],
        },
        "failover": {
            **kill,
            "detection_ms": (
                kill["detection_s"] * 1e3 if kill["detection_s"] is not None else None
            ),
            "traffic": failover_traffic.to_dict(),
            "availability": _availability(failover_traffic.to_dict()),
            "failovers": failover_stats["failovers"],
            "retries": failover_stats["retries"],
            "replica_states": {
                name: {"live": info["live"], "killed": info["killed"]}
                for name, info in failover_stats["replicas"].items()
            },
        },
        "degradation_ladder": ladder,
        "chaos": {
            "fault": "predict_crash pinned to r0 for the whole run",
            "injections_fired": chaos_fired,
            "traffic": chaos_traffic.to_dict(),
            "availability": _availability(chaos_traffic.to_dict()),
            "failovers": chaos_stats["failovers"],
            "r0_breaker": chaos_stats["replicas"]["r0"]["breaker"],
            "attempt_failures": chaos_stats["attempt_failures"],
        },
    }


def check(payload: dict, smoke: bool) -> list[str]:
    """Failover/degradation/chaos acceptance invariants."""
    failures: list[str] = []
    baseline = payload["baseline"]
    failover = payload["failover"]
    chaos = payload["chaos"]

    if baseline["traffic"]["errors"]:
        failures.append(
            f"baseline saw {baseline['traffic']['errors']} hard errors with "
            "both replicas healthy"
        )

    if failover["detection_ms"] is None:
        failures.append("health checker never recorded the kill (no live flip)")
    else:
        bound_ms = payload["config"]["detection_bound_s"] * 1e3
        if failover["detection_ms"] > bound_ms:
            failures.append(
                f"failover detection took {failover['detection_ms']:.0f}ms, "
                f"bound {bound_ms:.0f}ms"
            )
    if failover["availability"] < payload["config"]["availability_floor"]:
        failures.append(
            f"availability {failover['availability']:.4f} under replica kill "
            f"below floor {payload['config']['availability_floor']}"
        )
    survivors = failover["traffic"]["replicas"]
    if survivors.get("r1", 0) == 0:
        failures.append("no traffic reached the surviving replica after the kill")

    ladder = payload["degradation_ladder"]
    steps = payload["config"]["degradation_budget_steps"]
    full = ladder[0]
    deepest_budget = ladder[len(steps)]
    if deepest_budget["mean_candidates_scored"] >= full["mean_candidates_scored"]:
        failures.append(
            "budget degradation did not shrink the candidate set "
            f"({deepest_budget['mean_candidates_scored']:.1f} vs "
            f"{full['mean_candidates_scored']:.1f})"
        )
    for row in ladder[len(steps) + 1 :]:
        if "sparse_norerank" not in row["modes"]:
            failures.append(
                f"level {row['level']} should rank by collision counts, "
                f"saw modes {row['modes']}"
            )

    if chaos["traffic"]["errors"]:
        failures.append(
            f"chaos run leaked {chaos['traffic']['errors']} errors to clients "
            "(retries should absorb a crashing replica)"
        )
    if chaos["injections_fired"] == 0:
        failures.append("chaos fault injector never fired — the run proved nothing")
    if chaos["failovers"] == 0 and chaos["traffic"]["replicas"].get("r0", 0) > 0:
        failures.append("requests hit the crashing replica but never failed over")
    return failures


def print_report(payload: dict) -> None:
    failover = payload["failover"]
    detection = (
        f"{failover['detection_ms']:.0f}ms"
        if failover["detection_ms"] is not None
        else "not detected"
    )
    print(
        f"capacity {payload['capacity']['sustained_qps']:.0f} rps, "
        f"load {payload['capacity']['load_qps']:.0f} rps"
    )
    print(
        f"baseline: availability {payload['baseline']['availability']:.4f}, "
        f"errors {payload['baseline']['traffic']['errors']}"
    )
    print(
        f"failover: kill r0 at t+{failover['kill_after_s']:.1f}s, "
        f"detected in {detection}, availability {failover['availability']:.4f}, "
        f"failovers {failover['failovers']:.0f}, "
        f"survivor share {failover['traffic']['replicas']}"
    )
    rows = [
        {
            "level": row["level"],
            "p_at_1": round(row["precision_at_1"], 3),
            "p50_ms": round(row["p50_ms"], 2),
            "p99_ms": round(row["p99_ms"], 2),
            "candidates": round(row["mean_candidates_scored"], 1),
            "modes": ",".join(sorted(row["modes"])),
        }
        for row in payload["degradation_ladder"]
    ]
    print()
    print(format_table(rows, title="Degradation ladder (precision/latency per level)"))
    chaos = payload["chaos"]
    print(
        f"chaos: {chaos['injections_fired']} crashes injected on r0, "
        f"client errors {chaos['traffic']['errors']}, "
        f"failovers {chaos['failovers']:.0f}, r0 breaker {chaos['r0_breaker']}"
    )
