"""Configuration dataclasses for SLIDE networks and experiments.

These configs mirror the tunable parameters called out in the paper:

* ``(K, L)`` — number of hash bits per table and number of tables
  (Section 3.2).
* bucket size limit and insertion policy (Section 4.2, Table 3).
* rebuild schedule ``N0``/``lambda`` — exponential decay of the hash-table
  update frequency (Section 4.2).
* sampling strategy and target active-set size ``beta`` (Section 4.1).

Beyond training, :class:`ServingConfig`, :class:`RouterConfig` and
:class:`FaultToleranceConfig` describe the serving and supervision side.

Every config reaches checkpoints, HOGWILD worker payloads and
``repro-serve --config`` files through one codec at the bottom of this
module: :func:`to_dict`, :func:`from_dict` and :func:`load_config` read
the dataclass fields and their type annotations, so adding a knob means
adding the annotated field and nothing else.  ``from_dict`` is strict for
every class at every nesting depth: unknown keys, missing required keys
and wrongly typed values raise ``ValueError`` naming the field
(``layers[1].lsh.k``).
"""

from __future__ import annotations

import json
import re
import types
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import (
    Any,
    Literal,
    Mapping,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

__all__ = [
    "HashFamilyName",
    "SamplingStrategyName",
    "InsertionPolicyName",
    "LSHConfig",
    "RebuildScheduleConfig",
    "SamplingConfig",
    "LayerConfig",
    "SlideNetworkConfig",
    "OptimizerConfig",
    "TrainingConfig",
    "ServingConfig",
    "RouterConfig",
    "FaultToleranceConfig",
    "to_dict",
    "from_dict",
    "load_config",
]

HashFamilyName = Literal["simhash", "wta", "dwta", "doph", "minhash"]
SamplingStrategyName = Literal["vanilla", "topk", "hard_threshold"]
InsertionPolicyName = Literal["fifo", "reservoir"]


@dataclass(frozen=True)
class LSHConfig:
    """Parameters of the per-layer LSH index.

    Attributes
    ----------
    hash_family:
        One of ``simhash``, ``wta``, ``dwta``, ``doph``, ``minhash``.
    k:
        Number of elementary hash functions concatenated per table
        (``K`` in the paper).
    l:
        Number of hash tables (``L`` in the paper).
    bucket_size:
        Maximum number of neuron ids stored per bucket.
    insertion_policy:
        ``fifo`` or ``reservoir`` replacement when a bucket is full.
    simhash_sparsity:
        Fraction of non-zero coordinates in SimHash projection vectors
        (the paper uses 1/3 sparse random projections).
    wta_bin_size:
        ``m`` -- the number of coordinates per permutation bin for
        WTA/DWTA hashing.
    doph_top_k:
        Number of top coordinates kept when binarising dense inputs for
        DOPH/MinHash.
    """

    hash_family: HashFamilyName = "simhash"
    k: int = 6
    l: int = 20
    bucket_size: int = 128
    insertion_policy: InsertionPolicyName = "fifo"
    simhash_sparsity: float = 1.0 / 3.0
    wta_bin_size: int = 8
    doph_top_k: int = 32

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.l <= 0:
            raise ValueError("l must be positive")
        if self.bucket_size <= 0:
            raise ValueError("bucket_size must be positive")
        if not 0.0 < self.simhash_sparsity <= 1.0:
            raise ValueError("simhash_sparsity must be in (0, 1]")
        if self.wta_bin_size < 2:
            raise ValueError("wta_bin_size must be at least 2")
        if self.doph_top_k <= 0:
            raise ValueError("doph_top_k must be positive")


@dataclass(frozen=True)
class RebuildScheduleConfig:
    """Exponential-decay schedule for hash-table rebuilds (Section 4.2).

    The ``t``-th rebuild happens ``N0 * exp(lambda * (t-1))`` iterations after
    the ``(t-1)``-th one, i.e. rebuilds become progressively rarer as training
    approaches convergence.
    """

    initial_period: int = 50
    decay: float = 0.1
    max_period: int = 10_000

    def __post_init__(self) -> None:
        if self.initial_period <= 0:
            raise ValueError("initial_period must be positive")
        if self.decay < 0:
            raise ValueError("decay must be non-negative")
        if self.max_period < self.initial_period:
            raise ValueError("max_period must be >= initial_period")


@dataclass(frozen=True)
class SamplingConfig:
    """Active-neuron sampling parameters (Section 4.1)."""

    strategy: SamplingStrategyName = "vanilla"
    # Target number of active neurons to retrieve (``beta`` in the paper).
    # ``None`` means "whatever the buckets return".
    target_active: int | None = None
    # Minimum frequency for hard-thresholding.
    hard_threshold: int = 2
    # Always include ground-truth label neurons in the output layer's active
    # set during training (the reference implementation does this).
    include_labels: bool = True
    # Fall back to a uniformly random set of this size when the hash tables
    # return nothing (prevents dead iterations early in training).
    min_active: int = 16

    def __post_init__(self) -> None:
        if self.target_active is not None and self.target_active <= 0:
            raise ValueError("target_active must be positive when provided")
        if self.hard_threshold <= 0:
            raise ValueError("hard_threshold must be positive")
        if self.min_active < 0:
            raise ValueError("min_active must be non-negative")


@dataclass(frozen=True)
class LayerConfig:
    """Configuration for a single fully connected SLIDE layer."""

    size: int
    activation: Literal["relu", "softmax", "linear"] = "relu"
    # ``None`` disables LSH sampling (the layer is computed densely).
    lsh: LSHConfig | None = None
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    rebuild: RebuildScheduleConfig = field(default_factory=RebuildScheduleConfig)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("layer size must be positive")

    @property
    def uses_lsh(self) -> bool:
        return self.lsh is not None


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimiser hyper-parameters (the paper uses Adam throughout).

    ``update_clip`` bounds every Adam parameter change to
    ``update_clip * learning_rate`` per element per step.  ``None``
    (default) is exact, unclipped Adam.  The clip exists for lock-free
    multi-process training (:mod:`repro.parallel.trainer`): concurrent
    block updates can tear the shared first/second-moment buffers out of
    sync (large ``m`` paired with a raced-away ``v``), and an unbounded
    ``m_hat / sqrt(v_hat)`` then produces arbitrarily large steps.  The
    clip turns that worst case into bounded HOGWILD noise.
    """

    name: Literal["adam", "sgd"] = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    momentum: float = 0.0
    update_clip: float | None = None

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ValueError("beta1/beta2 must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.update_clip is not None and self.update_clip <= 0:
            raise ValueError("update_clip must be positive when provided")


@dataclass(frozen=True)
class SlideNetworkConfig:
    """Full network architecture specification."""

    input_dim: int
    layers: tuple[LayerConfig, ...]
    # The seed regenerates the hash functions that a checkpoint's stored LSH
    # codes were computed with, so the dict form must always carry it.
    seed: int = field(default=0, metadata={"required_in_dict": True})

    def __post_init__(self) -> None:
        if self.input_dim <= 0:
            raise ValueError("input_dim must be positive")
        if not self.layers:
            raise ValueError("at least one layer is required")
        if self.layers[-1].activation != "softmax":
            raise ValueError("the final layer must use softmax activation")

    @property
    def output_dim(self) -> int:
        return self.layers[-1].size


@dataclass(frozen=True)
class TrainingConfig:
    """Training-loop parameters."""

    batch_size: int = 128
    epochs: int = 1
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    shuffle: bool = True
    seed: int = 0
    # Evaluate precision@1 on held-out data every this many iterations
    # (0 disables periodic evaluation).
    eval_every: int = 0
    eval_samples: int = 512

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.eval_every < 0:
            raise ValueError("eval_every must be non-negative")
        if self.eval_samples <= 0:
            raise ValueError("eval_samples must be positive")


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Supervision and checkpoint/resume knobs for the training runtime.

    Consumed by :class:`repro.parallel.trainer.ProcessHogwildTrainer`
    (worker supervision + periodic mid-run checkpoints) and by
    :class:`repro.core.trainer.SlideTrainer` (inline checkpoint cadence).

    Attributes
    ----------
    heartbeat_timeout_s:
        A live worker whose shared-memory heartbeat has not advanced for
        this long is declared hung, killed, and handled like a crash.
        ``0`` disables hang detection (death-by-exitcode still applies).
    poll_interval_s:
        Upper bound on the supervisor's wait between liveness checks; death
        and result messages wake it immediately regardless.
    max_restarts:
        Restarts allowed *per worker* before it is written off and its
        remaining work is reassigned to the survivors.
    backoff_base_s / backoff_max_s:
        Exponential restart backoff: attempt ``k`` waits
        ``min(base * 2**(k-1), max)`` seconds before relaunching.
    checkpoint_every_s:
        Supervisor-side cadence for mid-run training checkpoints in
        multi-process runs (``0`` disables periodic saves).
    checkpoint_every_batches:
        Inline-trainer cadence: save a resumable checkpoint every this many
        batches (``0`` = only at epoch boundaries when a checkpoint
        directory is configured).
    checkpoint_keep_last:
        Versions retained by the auto-pruning checkpoint store.
    """

    heartbeat_timeout_s: float = 30.0
    poll_interval_s: float = 0.2
    max_restarts: int = 2
    backoff_base_s: float = 0.1
    backoff_max_s: float = 5.0
    checkpoint_every_s: float = 0.0
    checkpoint_every_batches: int = 0
    checkpoint_keep_last: int = 3

    def __post_init__(self) -> None:
        if self.heartbeat_timeout_s < 0:
            raise ValueError("heartbeat_timeout_s must be non-negative")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.backoff_max_s < self.backoff_base_s:
            raise ValueError("backoff_max_s must be >= backoff_base_s")
        if self.checkpoint_every_s < 0:
            raise ValueError("checkpoint_every_s must be non-negative")
        if self.checkpoint_every_batches < 0:
            raise ValueError("checkpoint_every_batches must be non-negative")
        if self.checkpoint_keep_last < 1:
            raise ValueError("checkpoint_keep_last must be at least 1")

    def restart_backoff_s(self, attempt: int) -> float:
        """Backoff before restart ``attempt`` (1-based), capped."""
        if attempt <= 0:
            raise ValueError("attempt must be positive")
        return min(self.backoff_base_s * 2 ** (attempt - 1), self.backoff_max_s)


@dataclass(frozen=True)
class ServingConfig:
    """Parameters of the :mod:`repro.serving` model server.

    Attributes
    ----------
    engine:
        ``sparse`` routes requests through the LSH-accelerated engine;
        ``dense`` always runs the exact full forward pass.
    active_budget:
        Maximum number of output neurons the sparse engine scores per
        request (the accuracy/latency knob).  ``None`` scores every
        candidate the hash tables return.
    top_k:
        Default number of predictions returned per request.
    max_batch_size / max_wait_ms:
        Micro-batching knobs: a worker dispatches as soon as it has
        ``max_batch_size`` requests, or ``max_wait_ms`` milliseconds after
        it picked up the batch's first request (time that request spent
        queued before the pick-up does not count).  ``max_wait_ms`` is the
        longest a batch is held open, and it is held only when requests
        are queued behind its first: a lone request is dispatched at once.
    num_workers:
        Size of the engine worker pool, fixed for the runtime's lifetime.
    queue_capacity:
        Bound on the number of queued (not yet dispatched) requests.  A
        submission that finds the queue full is shed with a typed
        :class:`~repro.serving.errors.RejectedError` (HTTP 429 with a
        retry-after derived from queue depth).
    deadline_ms:
        Per-request time budget measured from submission.  Requests still
        queued past it are dropped *before* compute with a typed
        :class:`~repro.serving.errors.DeadlineExceededError`.  ``None``
        disables deadlines.
    reload_poll_s:
        How often the :class:`~repro.serving.runtime.CheckpointWatcher`
        polls the checkpoint store for a new version.
    host / port:
        Bind address of the HTTP front-end (:mod:`repro.serving.server`);
        port 0 binds an OS-assigned free port.
    max_body_bytes:
        Largest request body the HTTP front-end accepts.  A declared
        ``Content-Length`` beyond it is refused with HTTP 413 before any
        byte of the body is read, so one oversized client cannot tie a
        connection thread to an unbounded read.
    """

    engine: Literal["sparse", "dense"] = "sparse"
    active_budget: int | None = None
    top_k: int = 5
    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    num_workers: int = 2
    queue_capacity: int = 1024
    deadline_ms: float | None = None
    reload_poll_s: float = 1.0
    host: str = "127.0.0.1"
    port: int = 8080
    max_body_bytes: int = 1_048_576

    def __post_init__(self) -> None:
        if self.engine not in ("sparse", "dense"):
            raise ValueError("engine must be 'sparse' or 'dense'")
        if self.active_budget is not None and self.active_budget <= 0:
            raise ValueError("active_budget must be positive when provided")
        if self.top_k <= 0:
            raise ValueError("top_k must be positive")
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive when provided")
        if self.reload_poll_s <= 0:
            raise ValueError("reload_poll_s must be positive")
        if not 0 <= self.port < 65536:
            raise ValueError("port must lie in [0, 65536)")
        if self.max_body_bytes <= 0:
            raise ValueError("max_body_bytes must be positive")


@dataclass(frozen=True)
class RouterConfig:
    """Parameters of the :class:`repro.serving.router.ReplicaRouter`.

    The retry backoff, half-open probe quota, readiness staleness bound,
    degradation ladder and routing seed are constants in
    :mod:`repro.serving.router`.

    Attributes
    ----------
    num_replicas:
        How many in-process :class:`~repro.serving.runtime.OnlineRuntime`
        replicas the router builds over one shared checkpoint store.
    health_interval_s:
        Period of the active health-check loop.  Failover detection is
        bounded by twice this interval (one check may already be in
        flight when a replica dies).
    probe_timeout_s:
        Budget for the active liveness probe (a real 1-example predict):
        a replica that does not answer within it is marked not live.
    retry_max_attempts:
        Total tries per predict request (first attempt included), each on
        a different replica when one is available.
    request_deadline_s:
        Total time budget per routed request across all attempts and
        backoff waits; once spent, the last failure is surfaced.
    attempt_timeout_s:
        Per-attempt bound: an attempt that has not resolved within it is
        abandoned (counted as a replica failure — how hung replicas are
        detected mid-request) and the request retries elsewhere.
    breaker_failure_threshold:
        Consecutive failures that trip a replica's circuit breaker open.
    breaker_recovery_s:
        How long an open breaker waits before letting probe requests
        through (half-open state), and how long a half-open breaker whose
        probes all went out waits for a verdict before issuing new ones.
    """

    num_replicas: int = 2
    health_interval_s: float = 0.25
    probe_timeout_s: float = 1.0
    retry_max_attempts: int = 3
    request_deadline_s: float = 2.0
    attempt_timeout_s: float = 1.0
    breaker_failure_threshold: int = 5
    breaker_recovery_s: float = 1.0

    def __post_init__(self) -> None:
        if self.num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if self.health_interval_s <= 0:
            raise ValueError("health_interval_s must be positive")
        if self.probe_timeout_s <= 0:
            raise ValueError("probe_timeout_s must be positive")
        if self.retry_max_attempts <= 0:
            raise ValueError("retry_max_attempts must be positive")
        if self.request_deadline_s <= 0:
            raise ValueError("request_deadline_s must be positive")
        if self.attempt_timeout_s <= 0:
            raise ValueError("attempt_timeout_s must be positive")
        if self.breaker_failure_threshold <= 0:
            raise ValueError("breaker_failure_threshold must be positive")
        if self.breaker_recovery_s < 0:
            raise ValueError("breaker_recovery_s must be non-negative")


# ----------------------------------------------------------------------
# The codec: one strict, annotation-driven dict form for every dataclass
# ----------------------------------------------------------------------
T = TypeVar("T")


def to_dict(config: Any) -> dict[str, Any]:
    """The JSON-ready dict form of a config dataclass instance.

    One key per field; nested dataclasses become dicts and tuples lists,
    so ``json.dumps`` takes the result as is.
    """
    if not is_dataclass(config) or isinstance(config, type):
        raise TypeError(f"to_dict needs a dataclass instance, got {config!r}")
    return _encode(config)


def _encode(value: Any) -> Any:
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    return value


def from_dict(cls: type[T], data: Any) -> T:
    """Rebuild a ``cls`` instance from its dict form, strictly.

    Driven by ``cls``'s field annotations: ``int`` rejects ``bool`` and
    floats, ``float`` accepts ``int``, ``Literal`` checks membership, and
    ``X | None``, ``tuple[X, ...]`` (from a list), ``dict[str, X]`` (from
    a JSON object) and nested dataclasses recurse; ``Any`` takes the value
    unchecked.  A missing key takes the field's default, unless the field
    has none or is marked ``metadata={"required_in_dict": True}``.  A
    non-mapping, an unknown key, a missing required key, a wrongly typed
    value or a range error out of ``__post_init__`` raises ``ValueError``
    naming the field by its path from ``cls``; an annotation the codec does
    not understand raises ``TypeError``.
    """
    # "FaultToleranceConfig" -> "fault tolerance config", "LSHConfig" -> "lsh config"
    words = re.sub(r"(?<=[a-z])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])", " ", cls.__name__)
    return _decode(cls, data, words.lower(), "")


def load_config(cls: type[T], path: str | Path) -> T:
    """Read the JSON file at ``path`` into a ``cls`` (see :func:`from_dict`)."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return from_dict(cls, data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _decode(tp: Any, value: Any, label: str, path: str) -> Any:
    """Check ``value`` against annotation ``tp`` and return the typed form."""
    if is_dataclass(tp):
        return _decode_dataclass(tp, value, label, path)
    if tp is Any:
        return value
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, types.UnionType) and len(args) == 2 and args[1] is type(None):
        return None if value is None else _decode(args[0], value, label, path)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        if not isinstance(value, (list, tuple)):
            raise _invalid(label, path, value)
        return tuple(
            _decode(args[0], item, label, f"{path}[{i}]")
            for i, item in enumerate(value)
        )
    if origin is dict and args[0] is str:
        if not isinstance(value, Mapping) or not all(isinstance(k, str) for k in value):
            raise _invalid(label, path, value)
        return {
            key: _decode(args[1], item, label, f"{path}[{key}]")
            for key, item in value.items()
        }
    if origin is Literal:
        ok = any(type(value) is type(arg) and value == arg for arg in args)
    elif tp is int or tp is float:
        # bool is an int subclass; "true" is never a worker count.
        numeric = int if tp is int else (int, float)
        ok = isinstance(value, numeric) and not isinstance(value, bool)
    elif tp is bool or tp is str:
        ok = isinstance(value, tp)
    else:
        raise TypeError(f"{label} field {path!r}: the codec does not support {tp!r}")
    if not ok:
        raise _invalid(label, path, value)
    return float(value) if tp is float else value


def _decode_dataclass(cls: type[T], data: Any, label: str, path: str) -> T:
    if not isinstance(data, Mapping):
        if path:
            raise _invalid(label, path, data)
        raise ValueError(f"{label} must be a JSON object, got {data!r}")
    prefix = f"{path}." if path else ""
    valid = [f.name for f in fields(cls)]
    unknown = [key for key in data if key not in valid]
    if unknown:
        names = ", ".join(repr(f"{prefix}{key}") for key in unknown)
        raise ValueError(
            f"unknown {label} field{'s' if len(unknown) > 1 else ''} {names}; "
            f"valid fields: {', '.join(sorted(valid))}"
        )
    hints = get_type_hints(cls)
    kwargs: dict[str, Any] = {}
    for f in fields(cls):
        name = prefix + f.name
        if f.name in data:
            kwargs[f.name] = _decode(hints[f.name], data[f.name], label, name)
        elif (
            f.default is MISSING and f.default_factory is MISSING
        ) or f.metadata.get("required_in_dict"):
            raise ValueError(f"{label} field {name!r} is required")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # __post_init__ messages already name the field ("top_k must be
        # positive"); add which config (and which nested part) they are in.
        where = f"{label} field {path!r}" if path else label
        raise ValueError(f"invalid {where}: {exc}") from exc


def _invalid(label: str, path: str, value: Any) -> ValueError:
    return ValueError(f"{label} field {path!r}: invalid value {value!r}")
