"""The wide output layer's optimiser step, run by a helper process.

The synchronous trainer (:class:`~repro.core.trainer.SlideTrainer` with
``hogwild=False``) hands each optimiser step of the network's LSH output
layer to a :class:`StepHelper`: a forked process on another core that runs
the layer's ``sparse_step`` pair while the training thread goes on with the
hidden layers' backward pass and the next batch's probe and selection.  The
training thread waits for the step (a *join*) before anything reads the
layer's weights again: the next gather of its rows, a table rebuild, an
evaluation or checkpoint, and the end of the training loop.

Threads cannot do this: the optimiser walks the block in chunks of 16,384
elements, and on two cores two Python threads running those ufuncs together
ran at 0.51x the speed of one.

Nothing is copied.  Where :func:`helper_can_run` holds, the layer's
weights, biases and optimiser state live in anonymous shared mappings from
construction (``SlideNetwork``); at start the helper allocates shared
buffers for a step's ids and bias gradient, and makes the workspace buffer
that the weight-gradient GEMM writes into a shared one, so the fork shares
all of them.  Per step the training thread
writes the ids and the bias gradient, sends ``(step_count, n_rows, n_cols)``
and the helper answers ``(error, busy_ms)`` once the step has landed.  An
exception in the helper is raised at the next join; a helper that dies
makes the join raise, and a parent that dies reaches the helper as the end
of its pipe.

The helper must be forked: the fork is what shares the mappings.  It runs
its pipe, numpy ufuncs and whatever wraps the optimiser's ``sparse_step``.
Unwrapped, it takes no lock, so a lock that another thread of the parent (a
batch prefetcher) held at the fork cannot block it.  A wrapper does run in
the helper: a tracer wrapped around ``sparse_step`` (perfbench's) records
the output layer's steps in the helper's copy of the tracer, which the
parent never reads; perfbench forks the helper during its set-up, when that
copy counts nothing, but a tracer that counts takes its copy's lock in the
helper.  The join has no timeout: a helper that dies closes its end of the
pipe and the join raises, but one blocked on a lock inherited in the held
state would block the join too.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np

from repro.config import LayerConfig
from repro.kernels.fused import Workspace, weight_grad_name
from repro.optim.base import Optimizer
from repro.perf.phases import PhaseTimer
from repro.types import FloatArray, IntArray
from repro.utils.shared import is_shared, shared_zeros

__all__ = ["MIN_OFFLOAD_WEIGHTS", "StepHelper", "helper_can_run", "offload_pays"]

# Weights (rows x fan-in) of the smallest output layer whose step goes to a
# helper.  A step costs the helper's round trip (send, wake-up, answer) of
# ~0.1-0.2 ms plus, once, the fork; the optimiser walk it takes off the
# training thread grows with the union block (9 ms for the ~8,300 x 128 block
# of a 32,768 x 128 layer at batch 64).  Measured on a 2-core Xeon, batch 64,
# 8,192 inputs -> 128 relu -> N softmax, one BLAS thread, ms a step with and
# without a helper: N = 2,048 a wash (17.0 / 12.2 / 18.1 against 16.1 /
# 13.1 / 18.9), N = 4,096 inside the host's noise (19.5 / 18.0 / 13.0
# against 18.7 / 20.3 / 19.8), N = 32,768 a gain (24.8 / 28.2 against
# 34.7 / 35.7).  The bound sits at 8,192 rows of 128, clear of both.
MIN_OFFLOAD_WEIGHTS = 8192 * 128


def _cores() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def _arrays(layer, optimizer: Optimizer) -> tuple[FloatArray, ...]:
    """Everything a step of ``layer`` writes: parameters, then optimiser state."""
    return (
        layer.weights,
        layer.biases,
        *optimizer.state_of(f"{layer.name}.weights").values(),
        *optimizer.state_of(f"{layer.name}.biases").values(),
    )


def _blas_pinned() -> bool:
    """Whether OpenBLAS and MKL were each told to run one thread.

    Each library reads its own variable first, then ``OMP_NUM_THREADS``;
    perfbench and ``repro.reports`` set all three to 1 before numpy loads.
    At the BLAS's default thread count its second thread competes for the
    core the helper needs: at the perfbench shape a step took 32.5 ms with
    the helper and 32.4 ms without, against 24.8-28.2 and 34.7-35.7 ms with
    one BLAS thread.
    """
    omp = os.environ.get("OMP_NUM_THREADS")
    return all(
        os.environ.get(variable, omp) == "1"
        for variable in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    )


def helper_can_run(fan_in: int, config: LayerConfig) -> bool:
    """Whether a helper process can take an output layer's steps and gain by it.

    It needs an LSH layer of at least :data:`MIN_OFFLOAD_WEIGHTS` weights, a
    second core, ``fork`` and a BLAS pinned to one thread.  ``SlideNetwork``
    asks this to place the output layer's arrays in shared mappings, so a
    layer no helper can step keeps private, huge-page-backed memory.
    """
    return (
        config.uses_lsh
        and config.size * fan_in >= MIN_OFFLOAD_WEIGHTS
        and _cores() >= 2
        and "fork" in multiprocessing.get_all_start_methods()
        and _blas_pinned()
    )


def offload_pays(layer, optimizer: Optimizer) -> bool:
    """Whether a helper process can take the output ``layer``'s steps now.

    Beyond :func:`helper_can_run`, every array a step writes must sit in a
    shared mapping: a forked copy of a private array would take the writes.
    """
    return helper_can_run(layer.fan_in, layer.config) and all(
        is_shared(array) for array in _arrays(layer, optimizer)
    )


class StepHelper:
    """A forked process that applies one layer's optimiser steps in place."""

    def __init__(
        self, layer, optimizer: Optimizer, workspace: Workspace, timer: PhaseTimer
    ) -> None:
        self.layer = layer
        self._bound = _arrays(layer, optimizer)
        self._timer = timer
        self._ids = shared_zeros((layer.size + layer.fan_in,), dtype=np.int64)
        self._bias_grad = shared_zeros((layer.size,))
        self._weight_grad = workspace.share(
            weight_grad_name(layer), (layer.size, layer.fan_in)
        )
        self._pending = False
        self._broken = False
        context = multiprocessing.get_context("fork")
        self._conn, child = context.Pipe()
        self._process = context.Process(
            target=_serve,
            args=(
                child,
                self._conn,
                layer,
                optimizer,
                self._ids,
                self._bias_grad,
                self._weight_grad,
            ),
            name=f"step-helper-{layer.name}",
            daemon=True,
        )
        self._process.start()
        child.close()

    def bound_to(self, layer, optimizer: Optimizer) -> bool:
        """Whether the helper was forked with ``layer``'s current arrays."""
        current = _arrays(layer, optimizer)
        return layer is self.layer and len(current) == len(self._bound) and all(
            a is b for a, b in zip(current, self._bound)
        )

    def submit(
        self,
        step_count: int,
        rows: IntArray,
        cols: IntArray,
        bias_grad: FloatArray,
    ) -> None:
        """Start the step of block ``(rows, cols)`` and return at once.

        The helper reads the weight gradient where the GEMM wrote it: the
        ``(rows, cols)`` corner of the workspace's shared buffer.
        """
        self.join()
        if self._broken:
            raise RuntimeError("the optimiser helper process has exited")
        n_rows, n_cols = rows.size, cols.size
        self._ids[:n_rows] = rows
        self._ids[n_rows : n_rows + n_cols] = cols
        self._bias_grad[:n_rows] = bias_grad
        self._conn.send((step_count, n_rows, n_cols))
        self._pending = True

    def join(self) -> None:
        """Wait for the step in flight; raise what the helper raised."""
        if not self._pending:
            return
        start = time.perf_counter()
        try:
            error, busy_ms = self._conn.recv()
        except (EOFError, OSError) as exc:
            self._pending = False
            self._broken = True
            raise RuntimeError("the optimiser helper process exited mid-step") from exc
        finally:
            self._timer.add("optimiser_wait", time.perf_counter() - start)
        self._pending = False
        self._timer.offload("optimiser", busy_ms / 1e3)
        if error is not None:
            raise error

    def close(self) -> None:
        """Let the step in flight land, then stop the process."""
        try:
            self.layer.settle()
        finally:
            try:
                self._conn.send(None)
            except OSError:
                pass
            self._conn.close()
            self._process.join(timeout=1.0)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()


def _serve(conn, parent_end, layer, optimizer: Optimizer, ids, bias_grad, weight_grad):
    """The helper's loop: one step per message until ``None`` or end of pipe."""
    # The parent's end is closed here, so that the parent's death is an EOF.
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        step_count, n_rows, n_cols = message
        start = time.perf_counter()
        error = None
        try:
            optimizer.step_count = step_count
            layer.step_block(
                optimizer,
                ids[:n_rows],
                ids[n_rows : n_rows + n_cols],
                weight_grad[:n_rows, :n_cols],
                bias_grad[:n_rows],
            )
        except Exception as exc:  # raised again at the parent's join
            error = exc
        busy_ms = (time.perf_counter() - start) * 1e3
        try:
            conn.send((error, busy_ms))
        except OSError:
            return
        except Exception:
            # An exception that does not pickle goes back as its repr.
            try:
                conn.send((RuntimeError(f"optimiser helper failed: {error!r}"), busy_ms))
            except OSError:
                return
