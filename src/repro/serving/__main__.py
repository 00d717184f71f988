"""CLI entry point: ``python -m repro.serving`` / ``repro-serve``.

Loads a checkpoint, assembles the serving runtime described by the command
line, and serves HTTP until interrupted::

    repro-serve /path/to/checkpoint --port 8080 --engine sparse \
        --budget 256 --workers 4 --max-batch-size 32 --max-wait-ms 2

Point it at a checkpoint directory written by
:func:`repro.state.save_checkpoint`, or at a
:class:`~repro.state.CheckpointStore` root (the newest version
is served).

Configuration can come from a JSON file instead of flags::

    repro-serve /path/to/store --config serving.json --watch

``serving.json`` is read by :func:`repro.config.load_config`, the same strict
codec that reads checkpoint manifests: its keys are the fields of
:class:`~repro.config.ServingConfig` (any subset; the rest keep their
defaults), and an unknown key, a wrongly typed value or an out-of-range one
is rejected with an error naming the file and the offending field.  Explicit
command-line flags override the file.  ``--watch`` (requires a store root)
runs the :class:`~repro.serving.runtime.OnlineRuntime`: new checkpoint
versions published into the store are hot-swapped in with zero downtime.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.config import ServingConfig, load_config
from repro.core.network import SlideNetwork
from repro.serving.pool import ServingRuntime, build_engine
from repro.serving.runtime import OnlineRuntime
from repro.serving.server import build_server
from repro.state import CheckpointError, CheckpointStore

__all__ = ["main"]


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve a checkpointed SLIDE network over HTTP/JSON.",
    )
    parser.add_argument(
        "checkpoint",
        type=Path,
        help="checkpoint directory, or a CheckpointStore root (newest version wins)",
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        help="JSON file of ServingConfig fields; explicit flags override it",
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="hot-reload new checkpoint versions (checkpoint must be a store root)",
    )
    # Flags default to None so "explicitly given" is distinguishable from
    # "absent": only given flags override --config / ServingConfig defaults.
    parser.add_argument("--host", default=None, help="default 127.0.0.1")
    parser.add_argument("--port", type=int, default=None, help="default 8080")
    parser.add_argument(
        "--engine",
        choices=("sparse", "dense"),
        default=None,
        help="sparse = LSH-budgeted engine (default), dense = exact forward pass",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="max output neurons scored per request (sparse engine only)",
    )
    parser.add_argument("--top-k", type=int, default=None, help="default 5")
    parser.add_argument("--workers", type=int, default=None, help="default 2")
    parser.add_argument("--max-batch-size", type=int, default=None, help="default 32")
    parser.add_argument("--max-wait-ms", type=float, default=None, help="default 2.0")
    parser.add_argument(
        "--verbose", action="store_true", help="log each HTTP request"
    )
    return parser.parse_args(argv)


def _resolve_checkpoint(path: Path) -> Path:
    """Accept either a checkpoint directory or a versioned store root."""
    if (path / "manifest.json").is_file():
        return path
    return CheckpointStore(path).latest()


def _build_config(args: argparse.Namespace, output_dim: int) -> ServingConfig:
    """File config (if any) + explicit flag overrides, validated once."""
    config = (
        load_config(ServingConfig, args.config)
        if args.config is not None
        else ServingConfig()
    )
    overrides: dict[str, object] = {}
    for flag, field_name in (
        ("host", "host"),
        ("port", "port"),
        ("engine", "engine"),
        ("budget", "active_budget"),
        ("top_k", "top_k"),
        ("workers", "num_workers"),
        ("max_batch_size", "max_batch_size"),
        ("max_wait_ms", "max_wait_ms"),
    ):
        value = getattr(args, flag)
        if value is not None:
            overrides[field_name] = value
    if overrides:
        config = replace(config, **overrides)
    # A default top_k wider than the model would 400 every default request;
    # the mismatch is knowable now, so clamp at startup.
    if config.top_k > output_dim:
        print(
            f"note: top_k clamped from {config.top_k} to the model's "
            f"{output_dim} output classes"
        )
        config = replace(config, top_k=output_dim)
    return config


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if args.watch and (args.checkpoint / "manifest.json").is_file():
        print(
            "error: --watch needs a CheckpointStore root, not a single "
            "checkpoint directory",
            file=sys.stderr,
        )
        return 2
    try:
        checkpoint_path = _resolve_checkpoint(args.checkpoint)
        network = SlideNetwork.from_checkpoint(checkpoint_path)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        config = _build_config(args, network.output_dim)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.watch:
        runtime: ServingRuntime = OnlineRuntime(args.checkpoint, config).start()
    else:
        runtime = ServingRuntime(build_engine(network, config), config).start()
    server = build_server(runtime, quiet=not args.verbose)
    host, port = server.address
    mode = " watch=on" if args.watch else ""
    print(
        f"serving {checkpoint_path} "
        f"({network.input_dim} features -> {network.output_dim} classes, "
        f"engine={runtime.engine.name}, workers={config.num_workers}{mode}) "
        f"on http://{host}:{port}"
    )
    print("endpoints: POST /v1/predict, GET /healthz, GET /v1/stats")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
