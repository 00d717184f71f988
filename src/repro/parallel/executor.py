"""Long-lived worker threads for the serving path.

**Scope: thread-based, GIL-bound.**  Only the time spent inside GIL-releasing
NumPy kernels overlaps; per-request Python bookkeeping serialises on the
interpreter lock.  Measured multi-core *training* scaling (real wall-clock,
Figure 9 / Table 2) comes from the process-level trainer in
:mod:`repro.parallel.sharedmem`.
"""

from __future__ import annotations

import threading
from typing import Callable

__all__ = ["WorkerPool"]


class WorkerPool:
    """A pool of named, long-lived worker threads.

    The serving path needs ``N`` workers that each run a loop for the
    lifetime of the server (pull micro-batch, run inference, repeat).  This
    class owns those threads: it starts ``num_workers`` copies of a loop
    function, tracks liveness, and joins them on shutdown.  NumPy kernels
    release the GIL, so worker loops dominated by matrix work genuinely
    overlap.

    A worker loop that raises does not die silently: the pool records the
    first exception (thread start order breaks ties) and re-raises it from
    :meth:`join`, so a crashed worker surfaces at shutdown instead of
    leaving a dead thread behind an apparently healthy pool.
    """

    def __init__(self, num_workers: int, name: str = "worker") -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.num_workers = int(num_workers)
        self.name = name
        self._threads: list[threading.Thread] = []
        self._error: BaseException | None = None
        self._error_lock = threading.Lock()

    def start(self, loop: Callable[[int], None]) -> None:
        """Spawn ``num_workers`` threads, each running ``loop(worker_index)``."""
        if self._threads:
            raise RuntimeError("pool already started")

        def guarded(index: int) -> None:
            try:
                loop(index)
            except BaseException as exc:  # noqa: BLE001 - re-raised from join()
                with self._error_lock:
                    if self._error is None:
                        self._error = exc

        for index in range(self.num_workers):
            thread = threading.Thread(
                target=guarded,
                args=(index,),
                name=f"{self.name}-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def join(self, timeout: float | None = None) -> None:
        """Wait (up to ``timeout`` seconds per thread) for every worker.

        Re-raises the first exception any worker loop raised (clearing it,
        so a subsequent ``join`` does not raise again).
        """
        for thread in self._threads:
            thread.join(timeout=timeout)
        with self._error_lock:
            error, self._error = self._error, None
        if error is not None:
            raise error

    @property
    def started(self) -> bool:
        return bool(self._threads)

    def alive_count(self) -> int:
        """Number of worker threads still running."""
        return sum(1 for thread in self._threads if thread.is_alive())
