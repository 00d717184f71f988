"""The online train-to-serve loop: hot reload.

A trainer keeps publishing checkpoint versions into a
:class:`~repro.state.CheckpointStore`, and a running
:class:`OnlineRuntime` picks each one up *without restarting* — no second
process, no connection draining, no cold LSH rebuild:

* :class:`CheckpointWatcher` polls the store; when a new version appears it
  pins the version (so a concurrent ``prune`` cannot delete it mid-read),
  loads it, and hands the network to
  :meth:`~repro.serving.engine.InferenceEngine.hot_swap`, which diffs the
  incoming weights against the resident ones and patches the LSH tables
  through the incremental ``update(dirty)`` path.  In-flight batches finish
  on the old generation; requests admitted afterwards see the new one.
* :class:`OnlineRuntime` wires the watcher behind the same
  ``submit``/``predict`` surface as :class:`~repro.serving.pool.ServingRuntime`,
  whose fixed-size worker pool it shares.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.config import ServingConfig
from repro.faults import InjectedFault
from repro.core.network import SlideNetwork
from repro.serving.engine import InferenceEngine, SwapReport
from repro.serving.metrics import ServingMetrics
from repro.serving.pool import ServingRuntime, build_engine
from repro.state import CheckpointError, CheckpointStore

__all__ = ["CheckpointWatcher", "OnlineRuntime"]


class CheckpointWatcher:
    """Polls a :class:`CheckpointStore` and hot-swaps new versions in.

    The watcher pins the version directory for the duration of the load, so
    a trainer pruning old versions in another process cannot delete the one
    being read.  A version that fails to load (corrupt, shape-mismatched)
    is counted as a reload failure — by cause — and the engine keeps serving
    the resident weights; a bad publish never takes the server down.

    Failures are retried with exponential backoff (``retry_backoff_s``
    doubling per attempt): a version still mid-write when first seen gets
    another chance, but a persistently bad one is *quarantined* after
    ``max_load_attempts`` attempts and never touched again — without
    backoff, a torn final version would otherwise be re-read (and re-hashed
    against its checksum) on every poll, forever.
    """

    # Ceiling on the per-version retry delay, whatever the attempt count.
    MAX_RETRY_BACKOFF_S = 60.0

    def __init__(
        self,
        store: CheckpointStore,
        engine: InferenceEngine,
        metrics: ServingMetrics | None = None,
        poll_s: float = 1.0,
        current_version: str | None = None,
        max_load_attempts: int = 3,
        retry_backoff_s: float = 0.5,
    ) -> None:
        if poll_s <= 0:
            raise ValueError("poll_s must be positive")
        if max_load_attempts < 1:
            raise ValueError("max_load_attempts must be at least 1")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        self.store = store
        self.engine = engine
        self.metrics = metrics
        self.poll_s = float(poll_s)
        self.current_version = current_version
        self.max_load_attempts = int(max_load_attempts)
        self.retry_backoff_s = float(retry_backoff_s)
        self.last_report: SwapReport | None = None
        self._load_attempts: dict[str, int] = {}
        self._retry_at: dict[str, float] = {}
        self._quarantined: set[str] = set()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def quarantined_versions(self) -> frozenset[str]:
        """Version names given up on after ``max_load_attempts`` failures."""
        return frozenset(self._quarantined)

    @staticmethod
    def _classify_failure(exc: Exception) -> str:
        # CheckpointError subclasses OSError-adjacent causes are checked
        # most-specific first; the cause keys feed the per-cause reload
        # failure counters in ServingMetrics.
        if isinstance(exc, InjectedFault):
            return "injected"
        if isinstance(exc, CheckpointError):
            return "corrupt"
        if isinstance(exc, ValueError):
            return "shape_mismatch"
        if isinstance(exc, OSError):
            return "io"
        return "unknown"  # pragma: no cover - defensive

    def _record_failure(self, version: str, exc: Exception) -> None:
        attempts = self._load_attempts.get(version, 0) + 1
        self._load_attempts[version] = attempts
        if self.metrics is not None:
            self.metrics.record_reload_failure(cause=self._classify_failure(exc))
        if attempts >= self.max_load_attempts:
            self._quarantined.add(version)
            self._retry_at.pop(version, None)
        else:
            delay = min(
                self.retry_backoff_s * 2 ** (attempts - 1),
                self.MAX_RETRY_BACKOFF_S,
            )
            self._retry_at[version] = time.monotonic() + delay

    def poll_once(self) -> SwapReport | None:
        """Check the store once; swap if a new version exists.

        Returns the :class:`~repro.serving.engine.SwapReport` when a swap
        happened, ``None`` otherwise (no versions, already current, version
        quarantined or backing off, or the load failed).  Synchronous —
        tests and the bench call this directly instead of racing the poll
        thread.
        """
        try:
            latest = self.store.latest()
        except CheckpointError:
            return None
        if latest.name == self.current_version:
            return None
        if latest.name in self._quarantined:
            return None
        retry_at = self._retry_at.get(latest.name)
        if retry_at is not None and time.monotonic() < retry_at:
            return None
        try:
            injector = getattr(self.engine, "fault_injector", None)
            if injector is not None:
                injector.on_checkpoint_load(latest.name)
            with self.store.pin(latest):
                network = SlideNetwork.from_checkpoint(latest)
                report = self.engine.hot_swap(network, version=latest.name)
        except (InjectedFault, CheckpointError, ValueError, OSError) as exc:
            self._record_failure(latest.name, exc)
            return None
        self._load_attempts.pop(latest.name, None)
        self._retry_at.pop(latest.name, None)
        self.current_version = latest.name
        self.last_report = report
        if self.metrics is not None:
            self.metrics.record_reload(
                version=latest.name,
                duration_s=report.duration_s,
                moved_entries=report.moved_entries,
                changed_rows=report.changed_rows,
                full_rebuild=report.full_rebuild,
                evictions=report.evictions,
            )
        return report

    # ------------------------------------------------------------------
    # Poll thread
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            # repro: allow[exc] lifecycle misuse, never reaches a client
            raise RuntimeError("watcher already started")
        self._thread = threading.Thread(
            target=self._run, name="serving-ckpt-watcher", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def _run(self) -> None:
        while not self._stop_event.wait(self.poll_s):
            self.poll_once()


class OnlineRuntime(ServingRuntime):
    """A :class:`ServingRuntime` wired into the train-to-serve loop.

    Boots from ``store.latest()``, then keeps itself current: the watcher
    hot-swaps each new version the trainer publishes.
    """

    def __init__(
        self,
        store: CheckpointStore | str | Path,
        config: ServingConfig | None = None,
    ) -> None:
        if not isinstance(store, CheckpointStore):
            store = CheckpointStore(store)
        self.store = store
        config = config or ServingConfig()
        latest = store.latest()
        with store.pin(latest):
            network = SlideNetwork.from_checkpoint(latest)
        engine = build_engine(network, config)
        super().__init__(engine, config)
        self.watcher = CheckpointWatcher(
            store,
            engine,
            metrics=self.metrics,
            poll_s=config.reload_poll_s,
            current_version=latest.name,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "OnlineRuntime":
        super().start()
        self.watcher.start()
        return self

    def stop(self, drain: bool = True) -> None:
        # Watcher first: a watcher mid-swap finishes (stop() joins it), then
        # the pool drains on the settled weights.
        self.watcher.stop()
        super().stop(drain=drain)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @staticmethod
    def _version_number(name: str | None) -> int | None:
        if name is None:
            return None
        match = CheckpointStore._VERSION_RE.match(name)
        return int(match.group(1)) if match else None

    def checkpoint_lag(self) -> int:
        """How many versions the resident weights trail the store's latest.

        0 means current (or the store is empty / unparsable — absence of a
        newer checkpoint is not staleness).  A positive lag means the
        watcher has seen-but-not-loaded newer publishes: quarantined bad
        versions or loads still backing off.
        """
        try:
            latest = self.store.latest().name
        except CheckpointError:
            return 0
        current = self._version_number(self.watcher.current_version)
        newest = self._version_number(latest)
        if current is None or newest is None:
            return 0
        return max(0, newest - current)

    def readiness(self, max_staleness: int | None = None) -> tuple[bool, str]:
        """Readiness with checkpoint-freshness on top of the worker check.

        ``max_staleness`` bounds :meth:`checkpoint_lag`; beyond it the
        replica keeps serving (stale answers beat no answers) but reports
        not-ready so a router can drain it while the watcher recovers.
        """
        ready, detail = super().readiness()
        if not ready:
            return ready, detail
        quarantined = self.watcher.quarantined_versions
        if quarantined:
            versions = [path.name for path in self.store.versions()]
            if versions and all(name in quarantined for name in versions):
                # Every checkpoint the store still holds failed to load:
                # the resident weights are an orphan a restart could not
                # reproduce, so report unready and let the router drain us.
                return False, "all store checkpoints quarantined"
        if max_staleness is not None:
            lag = self.checkpoint_lag()
            if lag > max_staleness:
                return False, (
                    f"checkpoint {lag} versions stale "
                    f"(bound {max_staleness})"
                )
        return True, "ok"

    def stats(self) -> dict[str, object]:
        snapshot = super().stats()
        snapshot["checkpoint_version"] = self.watcher.current_version
        snapshot["checkpoint_lag"] = float(self.checkpoint_lag())
        return snapshot
