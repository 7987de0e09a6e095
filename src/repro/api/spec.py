"""ClusterSpec — the declarative description of one EMLIO deployment.

A :class:`ClusterSpec` is a frozen dataclass tree covering everything the
service layer needs: the dataset, the pipeline tunables, the storage-daemon
topology, the compute nodes, link emulation, the fault-tolerance policy,
and energy modeling.  It is the unit that topologies, CLIs, CI scenario
files, and tests share — build one in code, or load it from JSON/TOML:

    spec = ClusterSpec.from_file("cluster.toml")
    with EMLIO.deploy(spec) as deployment:
        for tensors, labels in deployment.epoch(0):
            ...

Specs serialize losslessly: ``ClusterSpec.from_file(p)`` after
``spec.to_file(p)`` compares equal for both formats.  Every field is
validated on construction; loading rejects unknown keys loudly, so a typo
in a scenario file fails the dry-run instead of silently deploying a
default.  Component *names* (codec, network profile, power models) are
string references resolved against :mod:`repro.api.registry` at deploy
time — validation of those happens when deploying, not when parsing, so
specs can name components registered later.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.core.config import EMLIOConfig


class SpecError(ValueError):
    """A deployment spec is invalid (bad value, unknown key, bad file)."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecError(message)


def _check_keys(cls, data: dict, where: str) -> None:
    if not isinstance(data, dict):
        raise SpecError(f"{where} must be a table/object, got {type(data).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise SpecError(
            f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}"
        )


def _pair(value: Any, where: str) -> tuple[int, int]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        raise SpecError(f"{where} must be a pair of ints, got {value!r}")
    return (value[0], value[1])


def _construct(cls, data: dict, where: str):
    """Build a spec dataclass from plain kwargs, folding errors to SpecError."""
    try:
        return cls(**data)
    except SpecError:
        raise
    except (TypeError, ValueError) as err:
        raise SpecError(f"invalid {where}: {err}") from None


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

    @classmethod
    def from_dict(cls, data: dict) -> "DatasetSpec":
        _check_keys(cls, data, "dataset")
        d = dict(data)
        if "image_hw" in d:
            d["image_hw"] = _pair(d["image_hw"], "dataset.image_hw")
        return _construct(cls, d, "dataset")


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
    reorder_window: int = 0
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
            reorder_window=self.reorder_window,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineSpec":
        _check_keys(cls, data, "pipeline")
        d = dict(data)
        if "output_hw" in d:
            d["output_hw"] = _pair(d["output_hw"], "pipeline.output_hw")
        return _construct(cls, d, "pipeline")


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

    @classmethod
    def from_dict(cls, data: dict) -> "DaemonSpec":
        _check_keys(cls, data, "storage.daemons[]")
        d = dict(data)
        if d.get("shards") is not None:
            shards = d["shards"]
            _require(isinstance(shards, (list, tuple))
                     and all(isinstance(s, str) for s in shards),
                     f"daemon shards must be a list of strings, got {shards!r}")
            d["shards"] = tuple(shards)
        return _construct(cls, d, "storage daemon")


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
    record's CRC once as it leaves the tier, then every cache hit against
    the SHA-256 seal its block was admitted with; ``"open"`` walks the
    whole shard's CRCs once at open (a cache: once per fetch) and trusts
    the mapping or the cached copy afterwards; ``False`` skips
    verification entirely.
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

    @classmethod
    def from_dict(cls, data: dict) -> "StorageSpec":
        _check_keys(cls, data, "storage")
        d = dict(data)
        if "daemons" in d:
            raw = d["daemons"]
            _require(isinstance(raw, (list, tuple)),
                     f"storage.daemons must be a list, got {raw!r}")
            d["daemons"] = tuple(DaemonSpec.from_dict(x) for x in raw)
        return _construct(cls, d, "storage")


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

    @classmethod
    def from_dict(cls, data: dict) -> "ReceiverSpec":
        _check_keys(cls, data, "receivers")
        return _construct(cls, dict(data), "receivers")


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

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkSpec":
        _check_keys(cls, data, "network")
        return _construct(cls, dict(data), "network")


@dataclass(frozen=True)
class RecoverySpec:
    """Fault-tolerance and membership policy (flattened
    :class:`~repro.core.recovery.RecoveryConfig`).  ``enabled=False``
    keeps the original fail-fast pipeline."""

    enabled: bool = False
    ledger_path: str | None = None
    dedup: bool = True
    reorder_window: int | None = None
    failover: bool = True
    compact_ledger: bool = True
    reconnect_max_retries: int = 5
    reconnect_base_delay_s: float = 0.02
    reconnect_max_delay_s: float = 1.0
    heartbeat_interval_s: float = 0.5
    miss_threshold: int = 2
    dead_threshold: int = 4
    #: Hang detection: a member "serving" with frozen progress this long is
    #: declared dead.  Receiver progress advances at the *consumption*
    #: boundary, so keep this above the worst-case time the training loop
    #: spends between batches (0 disables hang detection).
    hung_after_s: float = 5.0

    def __post_init__(self) -> None:
        try:
            self.to_config(ledger_path=None)
        except ValueError as err:
            raise SpecError(f"invalid recovery spec: {err}") from None

    def to_config(self, ledger_path: str | Path | None = "unset"):
        """The resolved :class:`RecoveryConfig` (validates every knob).

        ``ledger_path`` overrides the spec's own (the deploy layer passes
        a resolved absolute path); the default keeps the spec value.
        """
        from repro.core.membership import MembershipConfig
        from repro.core.recovery import RecoveryConfig
        from repro.net.mq import ReconnectPolicy

        return RecoveryConfig(
            ledger_path=self.ledger_path if ledger_path == "unset" else ledger_path,
            dedup=self.dedup,
            reorder_window=self.reorder_window,
            failover=self.failover,
            compact_ledger=self.compact_ledger,
            reconnect=ReconnectPolicy(
                max_retries=self.reconnect_max_retries,
                base_delay_s=self.reconnect_base_delay_s,
                max_delay_s=self.reconnect_max_delay_s,
            ),
            membership=MembershipConfig(
                interval_s=self.heartbeat_interval_s,
                miss_threshold=self.miss_threshold,
                dead_threshold=self.dead_threshold,
                hung_after_s=self.hung_after_s,
            ),
        )

    @classmethod
    def from_dict(cls, data: dict) -> "RecoverySpec":
        _check_keys(cls, data, "recovery")
        return _construct(cls, dict(data), "recovery")


@dataclass(frozen=True)
class ElasticSpec:
    """Elastic-membership policy: mid-run joins and load rebalancing.

    Mirrors :class:`~repro.core.placement.ElasticPolicy`.  ``admit="auto"``
    lets a receiver or storage daemon that registers and starts beating be
    admitted mid-run, with load shifted onto it at the next safe boundary;
    ``"closed"`` refuses joins.  ``rebalance_threshold`` is the minimum
    fraction of outstanding work a shift must move to be worth the churn.
    """

    admit: str = "auto"
    min_members: int = 1
    max_members: int = 0
    rebalance_threshold: float = 0.0

    def __post_init__(self) -> None:
        try:
            self.to_policy()
        except ValueError as err:
            raise SpecError(f"invalid elastic spec: {err}") from None

    def to_policy(self):
        """The resolved :class:`~repro.core.placement.ElasticPolicy`."""
        from repro.core.placement import ElasticPolicy

        return ElasticPolicy(
            admit=self.admit,
            min_members=self.min_members,
            max_members=self.max_members,
            rebalance_threshold=self.rebalance_threshold,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ElasticSpec":
        _check_keys(cls, data, "elastic")
        return _construct(cls, dict(data), "elastic")


@dataclass(frozen=True)
class ChaosEventSpec:
    """One scheduled fault/join: ``at_s`` seconds after the first epoch
    starts, apply ``action`` to ``target``.

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

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosEventSpec":
        _check_keys(cls, data, "chaos.events[]")
        return _construct(cls, dict(data), "chaos event")


@dataclass(frozen=True)
class ChaosSpec:
    """Scheduled chaos: kill/hang/join events driven by the deployment.

    Keeps drill scripts in scenario files — the schedule is anchored at
    the first epoch start and each event fires once, errors logged (a
    drill must never wedge the run it is drilling).
    """

    events: tuple[ChaosEventSpec, ...] = ()

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosSpec":
        _check_keys(cls, data, "chaos")
        d = dict(data)
        if "events" in d:
            raw = d["events"]
            _require(isinstance(raw, (list, tuple)),
                     f"chaos.events must be a list, got {raw!r}")
            d["events"] = tuple(ChaosEventSpec.from_dict(x) for x in raw)
        return _construct(cls, d, "chaos")


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

    @classmethod
    def from_dict(cls, data: dict) -> "EnergySpec":
        _check_keys(cls, data, "energy")
        return _construct(cls, dict(data), "energy")


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

    @classmethod
    def from_dict(cls, data: dict) -> "ObservabilitySpec":
        _check_keys(cls, data, "observability")
        return _construct(cls, dict(data), "observability")


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
    elastic: ElasticSpec = field(default_factory=ElasticSpec)
    chaos: ChaosSpec = field(default_factory=ChaosSpec)
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
        join_events = [e for e in self.chaos.events if e.action == "join"]
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
        _check_keys(cls, data, "cluster spec")
        sections = {
            "dataset": DatasetSpec,
            "pipeline": PipelineSpec,
            "storage": StorageSpec,
            "receivers": ReceiverSpec,
            "network": NetworkSpec,
            "recovery": RecoverySpec,
            "energy": EnergySpec,
            "elastic": ElasticSpec,
            "chaos": ChaosSpec,
            "observability": ObservabilitySpec,
        }
        kwargs: dict[str, Any] = {}
        if "name" in data:
            kwargs["name"] = data["name"]
        for key, section_cls in sections.items():
            if key in data:
                kwargs[key] = section_cls.from_dict(data[key])
        return _construct(cls, kwargs, "cluster spec")

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
        """Serialize as TOML.  ``None`` values are omitted (TOML has no
        null); :meth:`from_dict` restores them as defaults, so the round
        trip is identity."""
        d = self.to_dict()
        out: list[str] = [f"name = {_toml_value(d['name'])}", ""]
        for section, sub in d.items():
            if not isinstance(sub, dict):
                continue
            # Fields holding lists of tables (storage.daemons, chaos.events)
            # serialize as [[section.field]] blocks; an empty list is
            # omitted and restored by from_dict as the default.
            tables = {
                k: sub.pop(k)
                for k in [
                    k for k, v in sub.items()
                    if isinstance(v, list) and all(isinstance(x, dict) for x in v)
                ]
            }
            body = [
                f"{k} = {_toml_value(v)}" for k, v in sub.items() if v is not None
            ]
            if body:
                out.append(f"[{section}]")
                out.extend(body)
                out.append("")
            for key, rows in tables.items():
                for row in rows:
                    out.append(f"[[{section}.{key}]]")
                    out.extend(
                        f"{k} = {_toml_value(v)}" for k, v in row.items() if v is not None
                    )
                    out.append("")
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


def _toml_value(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, str):
        return json.dumps(v)  # valid TOML basic string, escapes included
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_toml_value(x) for x in v) + "]"
    raise SpecError(f"cannot serialize {v!r} to TOML")


__all__ = [
    "ChaosEventSpec",
    "ChaosSpec",
    "ClusterSpec",
    "DaemonSpec",
    "DatasetSpec",
    "ElasticSpec",
    "EnergySpec",
    "NetworkSpec",
    "ObservabilitySpec",
    "PipelineSpec",
    "ReceiverSpec",
    "RecoverySpec",
    "SpecError",
    "StorageSpec",
]
