"""ClusterSpec — the declarative description of one EMLIO deployment.

A :class:`ClusterSpec` is a frozen dataclass tree covering everything the
service layer needs: the dataset, the pipeline tunables, the storage-daemon
topology, the compute nodes, link emulation, the fault-tolerance policy,
and energy modeling.  Where a core config already declares a section's
knobs, the section is that config: ``[elastic]`` is a
:class:`~repro.core.placement.ElasticPolicy` and ``[recovery]`` a
:class:`~repro.core.recovery.RecoveryConfig`.  It is the unit that
topologies, CLIs, CI scenario files, and tests share — build one in code,
or load it from JSON/TOML:

    spec = ClusterSpec.from_file("cluster.toml")
    with EMLIO.deploy(spec) as deployment:
        for tensors, labels in deployment.epoch(0):
            ...

Specs serialize losslessly: ``ClusterSpec.from_file(p)`` after
``spec.to_file(p)`` compares equal for both formats.  Every field is
validated on construction; one loader, driven by the dataclasses' type
hints, reads every section and rejects unknown keys loudly, so a typo in
a scenario file fails the dry-run instead of silently deploying a
default.  Component *names* (codec, network profile, power models) are
string references resolved against :mod:`repro.api.registry` at deploy
time — validation of those happens when deploying, not when parsing, so
specs can name components registered later.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.core.config import EMLIOConfig
from repro.core.placement import ElasticPolicy
from repro.core.recovery import RecoveryConfig


class SpecError(ValueError):
    """A deployment spec is invalid (bad value, unknown key, bad file)."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecError(message)


# -- the loader ----------------------------------------------------------------


def _load(cls, data: Any, where: str = ""):
    """Build the dataclass ``cls`` from ``data``, a parsed JSON/TOML table.

    Each value is checked against ``cls``'s type hints: nested dataclasses
    and tuples of them are loaded in turn, lists become tuples, and a
    scalar must be an instance of its type (an int passes for a float, a
    bool never for an int).  Unknown keys, type mismatches and the
    constructor's own ``TypeError``/``ValueError`` all raise
    :class:`SpecError` naming the offending path.
    """
    label = where or "cluster spec"
    if not isinstance(data, dict):
        raise SpecError(f"{label} must be a table/object, got {type(data).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise SpecError(f"unknown key(s) {unknown} in {label}; allowed: {sorted(allowed)}")
    hints = typing.get_type_hints(cls)
    kwargs = {
        k: _convert(hints[k], v, f"{where}.{k}" if where else k) for k, v in data.items()
    }
    try:
        return cls(**kwargs)
    except SpecError:
        raise
    except (TypeError, ValueError) as err:
        raise SpecError(f"invalid {label}: {err}") from None


def _convert(tp, value: Any, where: str) -> Any:
    """``value`` loaded as the hinted type ``tp`` (see :func:`_load`)."""
    if dataclasses.is_dataclass(tp):
        return _load(tp, value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        for arm in args:
            try:
                return _convert(arm, value, where)
            except SpecError:
                pass
        raise SpecError(f"{where} must be {tp}, got {value!r}")
    if origin is tuple:
        if args == (int, int):
            if not (isinstance(value, (list, tuple)) and len(value) == 2
                    and all(_is(int, v) for v in value)):
                raise SpecError(f"{where} must be a pair of ints, got {value!r}")
            return tuple(value)
        if not isinstance(value, (list, tuple)):
            raise SpecError(f"{where} must be a list, got {value!r}")
        return tuple(_convert(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if not _is(tp, value):
        raise SpecError(f"{where} must be {tp.__name__}, got {value!r}")
    return value


def _is(tp: type, value: Any) -> bool:
    if tp is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, tp)


# -- sections ------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSpec:
    """What the deployment serves.

    ``kind="existing"`` opens an already-sharded TFRecord dataset at
    ``root``; the synthetic kinds (``imagenet``, ``coco``, ``synthetic``,
    ``tokens``) generate one at deploy time — under ``root`` when set,
    else a temporary directory owned by the deployment.
    """

    KINDS = ("existing", "imagenet", "coco", "synthetic", "tokens")

    kind: str = "imagenet"
    root: str | None = None
    n: int = 64
    records_per_shard: int = 16
    seed: int = 0
    image_hw: tuple[int, int] = (32, 32)
    num_classes: int = 10
    sample_bytes: int = 4096
    context_len: int = 512
    vocab_size: int = 32_000

    def __post_init__(self) -> None:
        _require(self.kind in self.KINDS, f"dataset.kind must be one of {self.KINDS}, got {self.kind!r}")
        _require(self.kind != "existing" or bool(self.root),
                 "dataset.kind='existing' requires dataset.root")
        _require(self.n >= 1, f"dataset.n must be >= 1, got {self.n}")
        _require(self.records_per_shard >= 1,
                 f"dataset.records_per_shard must be >= 1, got {self.records_per_shard}")
        _require(self.sample_bytes >= 1,
                 f"dataset.sample_bytes must be >= 1, got {self.sample_bytes}")
        _require(self.context_len >= 2,
                 f"dataset.context_len must be >= 2, got {self.context_len}")
        _require(self.vocab_size >= 2,
                 f"dataset.vocab_size must be >= 2, got {self.vocab_size}")
        _require(self.num_classes >= 1,
                 f"dataset.num_classes must be >= 1, got {self.num_classes}")


@dataclass(frozen=True)
class PipelineSpec:
    """Pipeline tunables — mirrors :class:`~repro.core.config.EMLIOConfig`
    plus the ``codec`` registry name resolving the batch preprocessor."""

    batch_size: int = 32
    epochs: int = 1
    hwm: int = 16
    daemon_threads: int = 1
    streams_per_node: int = 2
    prefetch: int = 2
    workers: int = 1
    output_hw: tuple[int, int] = (64, 64)
    coverage: str = "partition"
    seed: int = 0
    codec: str = "auto"

    def __post_init__(self) -> None:
        _require(bool(self.codec) and isinstance(self.codec, str),
                 f"pipeline.codec must be a non-empty string, got {self.codec!r}")
        try:
            self.to_config()
        except ValueError as err:
            raise SpecError(f"invalid pipeline spec: {err}") from None

    def to_config(self) -> EMLIOConfig:
        """The resolved :class:`EMLIOConfig` (validates every tunable)."""
        return EMLIOConfig(
            batch_size=self.batch_size,
            epochs=self.epochs,
            hwm=self.hwm,
            daemon_threads=self.daemon_threads,
            streams_per_node=self.streams_per_node,
            prefetch=self.prefetch,
            workers=self.workers,
            output_hw=self.output_hw,
            coverage=self.coverage,
            seed=self.seed,
        )


@dataclass(frozen=True)
class DaemonSpec:
    """One storage daemon: its root directory and (optionally) the shard
    names it owns.  ``shards=None`` means every shard in the plan."""

    root: str
    shards: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        _require(bool(self.root), "storage daemon root must be non-empty")
        if self.shards is not None:
            _require(len(self.shards) > 0,
                     f"daemon {self.root!r}: shards must be None (all) or non-empty")
            _require(len(set(self.shards)) == len(self.shards),
                     f"daemon {self.root!r}: duplicate shard names")


@dataclass(frozen=True)
class StorageSpec:
    """Storage-daemon topology.

    Either ``num_daemons`` (> 1 splits the dataset's shards evenly across
    that many daemons at deploy time — the paper's fully-sharded Scenario
    2 without naming shards up front), or an explicit ``daemons`` tuple
    with per-root shard ownership.  ``backend`` names a
    :data:`~repro.api.registry.STORAGE_BACKENDS` entry — the seam for
    non-local storage layers.

    ``cache_bytes`` > 0 wraps each daemon's backend in a plan-informed
    hot-set cache of that capacity (block-granular, Belady eviction by
    next planned use, a fetch window running ahead of the serve path).
    ``latency_ms`` emulates per-request round-trip latency on the
    ``objectstore`` backend — the knob that makes a local directory
    behave like a remote range-GET store.

    ``verify_reads`` sets the daemons' CRC policy: ``True`` checks every
    record as it is read (the default) — with ``cache_bytes`` > 0, every
    record's CRC on its block's first fetch from the tier, each later
    fetch by SHA-256 equality with the seal kept from that walk, and
    every cache hit against the seal its block was admitted with;
    ``"open"`` walks the whole shard's CRCs once at open (a cache: each
    fetch, as above) and trusts the mapping or the cached copy
    afterwards; ``False`` skips verification entirely.
    """

    num_daemons: int = 1
    daemons: tuple[DaemonSpec, ...] = ()
    backend: str = "localfs"
    cache_bytes: int = 0
    latency_ms: float = 0.0
    verify_reads: bool | str = True

    def __post_init__(self) -> None:
        _require(self.num_daemons >= 1,
                 f"storage.num_daemons must be >= 1, got {self.num_daemons}")
        _require(isinstance(self.verify_reads, bool) or self.verify_reads == "open",
                 "storage.verify_reads must be true, false, or 'open', "
                 f"got {self.verify_reads!r}")
        _require(bool(self.backend), "storage.backend must be non-empty")
        _require(self.cache_bytes >= 0,
                 f"storage.cache_bytes must be >= 0, got {self.cache_bytes}")
        _require(self.latency_ms >= 0,
                 f"storage.latency_ms must be >= 0, got {self.latency_ms}")
        _require(self.latency_ms == 0 or self.backend == "objectstore",
                 "storage.latency_ms is only meaningful with "
                 f"backend = 'objectstore', got backend = {self.backend!r}")
        if self.daemons:
            _require(self.num_daemons == 1,
                     "set storage.num_daemons or storage.daemons, not both")
            roots = [d.root for d in self.daemons]
            _require(len(set(roots)) == len(roots),
                     f"duplicate storage daemon roots: {sorted(roots)}")
            shard_sets = [d.shards for d in self.daemons]
            if len(self.daemons) > 1:
                _require(all(s is not None for s in shard_sets),
                         "multiple explicit daemons need per-daemon shard lists")
                claimed: set[str] = set()
                for d in self.daemons:
                    overlap = claimed & set(d.shards or ())
                    _require(not overlap,
                             f"shards owned by two daemons: {sorted(overlap)[:3]}")
                    claimed |= set(d.shards or ())


@dataclass(frozen=True)
class ReceiverSpec:
    """Compute nodes consuming the stream."""

    num_nodes: int = 1
    stall_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        _require(self.num_nodes >= 1,
                 f"receivers.num_nodes must be >= 1, got {self.num_nodes}")
        _require(self.stall_timeout_s > 0,
                 f"receivers.stall_timeout_s must be > 0, got {self.stall_timeout_s}")


@dataclass(frozen=True)
class NetworkSpec:
    """Link emulation between daemons and receivers.

    Name a registered profile (``profile="wan-30ms"``) *or* describe the
    link inline (``rtt_ms``, optional ``bandwidth_gbps``); all fields
    ``None`` disables emulation (bare loopback).

    ``transport`` picks the daemon→receiver data path: ``"tcp"`` (default,
    the credit-based MQ sockets), ``"shm"`` (force the shared-memory ring
    of :mod:`repro.net.shm`, TCP fallback only if attach fails), or
    ``"auto"`` (shm when the pair is co-located and the link unshaped,
    TCP otherwise).  ``profile="shm"`` implies ``transport="shm"``.
    """

    TRANSPORTS = ("tcp", "shm", "auto")

    profile: str | None = None
    rtt_ms: float | None = None
    bandwidth_gbps: float | None = None
    transport: str = "tcp"
    shm_ring_bytes: int = 8 * 1024 * 1024

    def __post_init__(self) -> None:
        inline = self.rtt_ms is not None or self.bandwidth_gbps is not None
        _require(not (self.profile is not None and inline),
                 "set network.profile or inline rtt_ms/bandwidth_gbps, not both")
        if self.rtt_ms is not None:
            _require(self.rtt_ms >= 0, f"network.rtt_ms must be >= 0, got {self.rtt_ms}")
        if self.bandwidth_gbps is not None:
            _require(self.bandwidth_gbps > 0,
                     f"network.bandwidth_gbps must be > 0, got {self.bandwidth_gbps}")
            _require(self.rtt_ms is not None,
                     "network.bandwidth_gbps needs network.rtt_ms too")
        _require(self.transport in self.TRANSPORTS,
                 f"network.transport must be one of {self.TRANSPORTS}, "
                 f"got {self.transport!r}")
        _require(isinstance(self.shm_ring_bytes, int) and self.shm_ring_bytes >= 64 * 1024,
                 f"network.shm_ring_bytes must be an int >= 65536, "
                 f"got {self.shm_ring_bytes!r}")

    @property
    def emulated(self) -> bool:
        """Whether this spec asks for any link shaping at all."""
        return self.profile is not None or self.rtt_ms is not None

    @property
    def effective_transport(self) -> str:
        """The transport after folding in ``profile="shm"``."""
        return "shm" if self.profile == "shm" else self.transport


@dataclass(frozen=True)
class RecoverySpec(RecoveryConfig):
    """The ``[recovery]`` section: a
    :class:`~repro.core.recovery.RecoveryConfig` — its ``reconnect`` and
    ``membership`` policies are the nested ``[recovery.reconnect]`` and
    ``[recovery.membership]`` tables — plus ``enabled``.  ``enabled=False``
    keeps the original fail-fast pipeline; otherwise the spec itself is
    the service's recovery config."""

    enabled: bool = False


@dataclass(frozen=True)
class ChaosEventSpec:
    """One scheduled fault/join — a ``[[chaos]]`` table: ``at_s`` seconds
    after the first epoch starts, apply ``action`` to ``target``.

    Keeps drill scripts in scenario files: each event fires once, errors
    logged (a drill must never wedge the run it is drilling).

    Targets: ``kill`` takes ``daemon:<index>`` or ``receiver:<index>``;
    ``hang`` takes ``daemon:<index>``; ``join`` takes ``receiver`` (a new
    compute node) or ``daemon:<root>`` (a new storage root).
    """

    ACTIONS = ("kill", "hang", "join")

    at_s: float
    action: str
    target: str

    def __post_init__(self) -> None:
        _require(self.at_s >= 0, f"chaos event at_s must be >= 0, got {self.at_s}")
        _require(self.action in self.ACTIONS,
                 f"chaos action must be one of {self.ACTIONS}, got {self.action!r}")
        _require(bool(self.target) and isinstance(self.target, str),
                 f"chaos target must be a non-empty string, got {self.target!r}")
        kind, _, arg = self.target.partition(":")
        if self.action in ("kill", "hang"):
            allowed = ("daemon", "receiver") if self.action == "kill" else ("daemon",)
            _require(kind in allowed and arg.isdigit(),
                     f"chaos {self.action} target must be "
                     f"{' or '.join(f'{k}:<index>' for k in allowed)}, "
                     f"got {self.target!r}")
        else:  # join
            _require(self.target == "receiver" or (kind == "daemon" and bool(arg)),
                     f"chaos join target must be 'receiver' or 'daemon:<root>', "
                     f"got {self.target!r}")


@dataclass(frozen=True)
class EnergySpec:
    """Energy monitoring: power-model registry names + sampling period."""

    enabled: bool = False
    cpu_model: str = "xeon-gold-6126"
    gpu_model: str | None = "quadro-rtx-6000"
    interval_s: float = 0.1

    def __post_init__(self) -> None:
        _require(bool(self.cpu_model), "energy.cpu_model must be non-empty")
        _require(self.interval_s > 0,
                 f"energy.interval_s must be > 0, got {self.interval_s}")


@dataclass(frozen=True)
class ObservabilitySpec:
    """Telemetry plane: metrics scrape endpoint and per-batch tracing.

    ``metrics_port`` exposes the deployment's metric registry over HTTP
    (``/metrics`` Prometheus text, ``/metrics.json``, ``/healthz``);
    ``None`` disables the exporter and ``0`` binds an ephemeral port
    (read it back from ``Deployment.status()["telemetry"]``).
    ``trace_sample`` is the fraction of batches traced end-to-end
    (read → encode → send → recv → decode → preprocess → consume);
    sampled spans are appended as JSONL under ``trace_dir`` and read
    back with ``python -m repro.tools.trace``.
    """

    metrics_port: int | None = None
    trace_dir: str | None = None
    trace_sample: float = 0.0

    def __post_init__(self) -> None:
        _require(self.metrics_port is None
                 or (isinstance(self.metrics_port, int)
                     and not isinstance(self.metrics_port, bool)
                     and 0 <= self.metrics_port <= 65535),
                 f"observability.metrics_port must be 0..65535 or omitted, "
                 f"got {self.metrics_port!r}")
        _require(isinstance(self.trace_sample, (int, float))
                 and not isinstance(self.trace_sample, bool)
                 and 0.0 <= self.trace_sample <= 1.0,
                 f"observability.trace_sample must be in [0, 1], "
                 f"got {self.trace_sample!r}")
        _require(self.trace_sample == 0 or self.trace_dir is not None,
                 "observability.trace_sample > 0 requires observability.trace_dir")


# -- the top-level spec --------------------------------------------------------


@dataclass(frozen=True)
class ClusterSpec:
    """One deployable EMLIO cluster, declaratively."""

    name: str = "emlio"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    pipeline: PipelineSpec = field(default_factory=PipelineSpec)
    storage: StorageSpec = field(default_factory=StorageSpec)
    receivers: ReceiverSpec = field(default_factory=ReceiverSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    recovery: RecoverySpec = field(default_factory=RecoverySpec)
    energy: EnergySpec = field(default_factory=EnergySpec)
    elastic: ElasticPolicy = field(default_factory=ElasticPolicy)
    chaos: tuple[ChaosEventSpec, ...] = ()
    observability: ObservabilitySpec = field(default_factory=ObservabilitySpec)

    def __post_init__(self) -> None:
        _require(bool(self.name) and isinstance(self.name, str),
                 f"spec name must be a non-empty string, got {self.name!r}")
        _require(self.receivers.num_nodes >= self.elastic.min_members,
                 f"receivers.num_nodes ({self.receivers.num_nodes}) is below "
                 f"elastic.min_members ({self.elastic.min_members})")
        _require(not self.elastic.max_members
                 or self.receivers.num_nodes <= self.elastic.max_members,
                 f"receivers.num_nodes ({self.receivers.num_nodes}) exceeds "
                 f"elastic.max_members ({self.elastic.max_members})")
        join_events = [e for e in self.chaos if e.action == "join"]
        _require(not join_events or self.recovery.enabled,
                 "chaos join events need recovery.enabled = true "
                 "(elastic scale-out runs on the control plane)")

    # -- dict form -------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain nested dict (JSON/TOML-ready; tuples become lists)."""
        def plain(obj):
            if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                return {f.name: plain(getattr(obj, f.name)) for f in fields(obj)}
            if isinstance(obj, tuple):
                return [plain(v) for v in obj]
            return obj

        return plain(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSpec":
        """Load a spec from plain nested dicts (parsed JSON or TOML)."""
        return _load(cls, data)

    # -- JSON ------------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ClusterSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise SpecError(f"not valid JSON: {err}") from None
        return cls.from_dict(data)

    # -- TOML ------------------------------------------------------------------

    def to_toml(self) -> str:
        """Serialize as TOML: sections are ``[tables]``, nested configs
        ``[sub.tables]`` and tuples of them ``[[arrays of tables]]``.
        ``None`` values are omitted (TOML has no null) and restored by
        :meth:`from_dict` as their defaults, so the round trip is identity;
        a ``None`` whose default is not ``None`` raises :class:`SpecError`."""
        out: list[str] = []
        _toml_table(self, "", out)
        return "\n".join(out).rstrip("\n") + "\n"

    @classmethod
    def from_toml(cls, text: str) -> "ClusterSpec":
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as err:
            raise SpecError(f"not valid TOML: {err}") from None
        return cls.from_dict(data)

    # -- files -----------------------------------------------------------------

    def to_file(self, path: str | Path) -> Path:
        """Write the spec to ``path``; format chosen by suffix (.json/.toml)."""
        path = Path(path)
        if path.suffix == ".json":
            path.write_text(self.to_json())
        elif path.suffix == ".toml":
            path.write_text(self.to_toml())
        else:
            raise SpecError(f"unsupported spec format {path.suffix!r} (use .json or .toml)")
        return path

    @classmethod
    def from_file(cls, path: str | Path) -> "ClusterSpec":
        """Load a spec from a .json or .toml file."""
        path = Path(path)
        if not path.is_file():
            raise SpecError(f"spec file not found: {path}")
        if path.suffix == ".json":
            return cls.from_json(path.read_text())
        if path.suffix == ".toml":
            return cls.from_toml(path.read_text())
        raise SpecError(f"unsupported spec format {path.suffix!r} (use .json or .toml)")


def _toml_table(obj, key: str, out: list[str], array: bool = False) -> None:
    """Append the dataclass ``obj`` as the TOML table ``key`` (an element
    of the array of tables ``key`` when ``array``): its plain values, then
    its nested tables in field order."""
    body, nested = [], []
    for f in fields(obj):
        v = getattr(obj, f.name)
        path = f"{key}.{f.name}" if key else f.name
        if dataclasses.is_dataclass(v):
            nested.append((v, path, False))
        elif isinstance(v, tuple) and v and dataclasses.is_dataclass(v[0]):
            nested.extend((row, path, True) for row in v)
        elif v == () == f.default:
            continue  # an empty array of tables, restored as the default
        elif v is not None:
            body.append(f"{f.name} = {_toml_value(v)}")
        elif f.default is not None:
            raise SpecError(f"{path} = None cannot be written as TOML (no null); use JSON")
    if array or (key and body):
        out.append(f"[[{key}]]" if array else f"[{key}]")
    if array or body:
        out.extend(body + [""])
    for v, path, is_row in nested:
        _toml_table(v, path, out, is_row)


def _toml_value(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, str):
        # A JSON string is a TOML basic string, except that TOML escapes DEL.
        return json.dumps(v, ensure_ascii=False).replace("\x7f", "\\u007f")
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_toml_value(x) for x in v) + "]"
    raise SpecError(f"cannot serialize {v!r} to TOML")


__all__ = [
    "ChaosEventSpec",
    "ClusterSpec",
    "DaemonSpec",
    "DatasetSpec",
    "EnergySpec",
    "NetworkSpec",
    "ObservabilitySpec",
    "PipelineSpec",
    "ReceiverSpec",
    "RecoverySpec",
    "SpecError",
    "StorageSpec",
]
