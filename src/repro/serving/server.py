"""Stdlib HTTP/JSON front-end for a serving runtime.

A deliberately small, dependency-free server (``http.server`` +
``ThreadingHTTPServer``): each connection thread parses JSON, submits the
request to the shared :class:`~repro.serving.pool.ServingRuntime` (where the
micro-batcher coalesces it with concurrent requests), and blocks on the
future.  Endpoints:

``POST /v1/predict``
    Body ``{"indices": [...], "values": [...], "k": 5}`` → top-k ids/scores.
``GET /healthz``
    Liveness only: 200 whenever the HTTP loop answers.  A live process
    with a broken runtime should be *drained*, not restarted — that
    distinction is the readiness endpoint's job.
``GET /healthz/ready``
    Readiness: 200 when the runtime can actually serve, 503 (with a
    ``detail``) when it cannot — no alive pool workers, runtime stopped,
    or (online runtime) every checkpoint in the store quarantined.  This
    is what the replica router and external load balancers gate on.
``GET /v1/stats``
    The runtime's metrics snapshot (latency quantiles, throughput, modes).

Request bodies are bounded by ``ServingConfig.max_body_bytes``: a declared
``Content-Length`` over the limit is refused with HTTP 413 before reading a
single body byte, and a missing/non-integer/negative length is a 400.  A
predict body is checked element by element — ``indices`` integers in
``[0, input_dim)``, ``values`` finite float32 numbers, ``k`` an integer
(JSON ``true`` is none of these) — and anything else is a 400 naming the
field.
"""

from __future__ import annotations

import json
from concurrent.futures import CancelledError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

import numpy as np

from repro.serving.errors import (
    PayloadTooLargeError,
    RejectedError,
    ServingError,
)
from repro.serving.pool import ServingRuntime
from repro.types import SparseExample, SparseVector

__all__ = ["ModelServer", "build_server"]

_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _is_int(item: object) -> bool:
    # bool is an int subclass, but true is not an index or a k.
    return isinstance(item, int) and not isinstance(item, bool)


def _json_array(
    payload: dict, name: str, valid: Callable[[object], bool], expected: str
) -> list:
    """``payload[name]`` as a list whose every element passes ``valid``."""
    if name not in payload:
        raise ValueError(f"missing field {name!r}")
    items = payload[name]
    if not isinstance(items, list):
        raise ValueError(f"{name!r} must be a JSON array, got {items!r}")
    for position, item in enumerate(items):
        if not valid(item):
            raise ValueError(f"{name}[{position}] must be {expected}, got {item!r}")
    return items


class _Handler(BaseHTTPRequestHandler):
    # Set by build_server on the server class; typed here for clarity.
    runtime: ServingRuntime
    input_dim: int
    quiet: bool = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        declared = self.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except (TypeError, ValueError):
            raise ValueError(f"invalid Content-Length: {declared!r}") from None
        if length < 0:
            # A negative length would make rfile.read() block until the
            # client hangs up — refuse it before touching the body.
            raise ValueError(f"invalid Content-Length: {declared!r}")
        if length == 0:
            raise ValueError("empty request body")
        limit = self.runtime.config.max_body_bytes
        if length > limit:
            raise PayloadTooLargeError(declared_bytes=length, limit_bytes=limit)
        try:
            payload = json.loads(self.rfile.read(length))
        except RecursionError:
            raise ValueError("request body is nested too deeply") from None
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            # Pure liveness: answering at all is the proof.
            self._send_json(
                200, {"status": "ok", "workers": self.runtime.alive_workers()}
            )
        elif self.path == "/healthz/ready":
            ready, detail = self.runtime.readiness()
            self._send_json(
                200 if ready else 503,
                {
                    "status": "ready" if ready else "unready",
                    "detail": detail,
                    "workers": self.runtime.alive_workers(),
                },
            )
        elif self.path == "/v1/stats":
            self._send_json(200, self.runtime.stats())
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/v1/predict":
            self._send_json(404, {"error": f"unknown path {self.path}"})
            return
        try:
            payload = self._read_json()
            example = self._parse_example(payload)
            k = payload.get("k", self.runtime.config.top_k)
            if not _is_int(k):
                raise ValueError(f"'k' must be an integer, got {k!r}")
            prediction = self.runtime.predict(example, k=k)
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except RejectedError as exc:
            # Load shed at admission: 429 with a Retry-After derived from
            # the backlog, so clients back off proportionally.
            self.send_response(exc.http_status)
            body = json.dumps(
                {
                    "error": str(exc),
                    "cause": exc.cause,
                    "retry_after_s": exc.retry_after_s,
                    "pending": exc.pending,
                }
            ).encode("utf-8")
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Retry-After", f"{exc.retry_after_s:.3f}")
            self.end_headers()
            self.wfile.write(body)
            return
        except ServingError as exc:
            # Deadline expiry (504) and any future typed serving failure.
            self._send_json(exc.http_status, {"error": str(exc), "cause": exc.cause})
            return
        except CancelledError:
            # The pool cancelled the request mid-shutdown; CancelledError is
            # a BaseException, so without this branch the connection would
            # be dropped with no status line at all.
            self._send_json(503, {"error": "server is shutting down"})
            return
        except Exception as exc:  # noqa: BLE001 - surface engine errors as 500s
            self._send_json(500, {"error": str(exc)})
            return
        self._send_json(
            200,
            {
                "class_ids": [int(i) for i in prediction.class_ids],
                "scores": [float(s) for s in prediction.scores],
                "mode": prediction.mode,
                "candidates_scored": prediction.candidates_scored,
                "generation": prediction.generation,
            },
        )

    def _parse_example(self, payload: dict) -> SparseExample:
        # Every element is checked before numpy sees it: np.asarray would
        # truncate 1.9 to 1, read true as 1, parse "0.5", and overflow on
        # an index past int64; NaN / Infinity would reach the scores and
        # make the response invalid JSON.
        indices = np.asarray(
            _json_array(
                payload,
                "indices",
                lambda item: _is_int(item) and 0 <= item < self.input_dim,
                f"an integer in [0, {self.input_dim})",
            ),
            dtype=np.int64,
        )
        values = np.asarray(
            _json_array(
                payload,
                "values",
                # abs() <= max is False for NaN and the infinities too.
                lambda item: (
                    isinstance(item, (int, float))
                    and not isinstance(item, bool)
                    and abs(item) <= _FLOAT32_MAX
                ),
                "a finite float32 number",
            ),
            dtype=np.float64,
        )
        features = SparseVector(
            indices=indices, values=values, dimension=self.input_dim
        )
        # A repeated index is summed by the sparse first layer and keeps its
        # last value when densified, so the two engines would answer the
        # same body differently: refuse it here, where outside input enters.
        _, first = np.unique(indices, return_index=True)
        if first.size != indices.size:
            again = np.delete(np.arange(indices.size), first)[0]
            raise ValueError(f"indices must be unique: {indices[again]} is repeated")
        return SparseExample(features=features, labels=np.zeros(0, dtype=np.int64))


class ModelServer:
    """A :class:`ThreadingHTTPServer` bound to one serving runtime."""

    def __init__(
        self,
        runtime: ServingRuntime,
        host: str | None = None,
        port: int | None = None,
        quiet: bool = True,
    ) -> None:
        self.runtime = runtime
        config = runtime.config
        handler = type(
            "BoundHandler",
            (_Handler,),
            {
                "runtime": runtime,
                # ServingRuntime and ReplicaRouter both expose input_dim —
                # the handler must not reach for runtime.engine, which a
                # multi-replica router does not have.
                "input_dim": runtime.input_dim,
                "quiet": quiet,
            },
        )
        self.httpd = ThreadingHTTPServer(
            (host if host is not None else config.host,
             port if port is not None else config.port),
            handler,
        )
        # Connection threads must not keep the process alive after shutdown.
        self.httpd.daemon_threads = True

    @property
    def address(self) -> tuple[str, int]:
        """The actually bound (host, port) — port 0 resolves to a free port."""
        return self.httpd.server_address[:2]

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` (or Ctrl-C)."""
        self.httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop the HTTP loop and the runtime's worker pool."""
        self.httpd.shutdown()
        self.httpd.server_close()
        self.runtime.stop()


def build_server(
    runtime: ServingRuntime,
    host: str | None = None,
    port: int | None = None,
    quiet: bool = True,
) -> ModelServer:
    """Bind a :class:`ModelServer` for ``runtime`` (``port=0`` picks a free one)."""
    return ModelServer(runtime, host=host, port=port, quiet=quiet)
