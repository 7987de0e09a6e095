"""EMLIO.deploy — the stable consumer facade over the service internals.

``EMLIO.deploy(spec)`` turns a :class:`~repro.api.spec.ClusterSpec` into a
running :class:`Deployment`: dataset materialized, component names resolved
through the registries, daemons + receivers wired over (optionally shaped)
loopback TCP.  The deployment exposes the consumption surface
(:meth:`~Deployment.epoch` / :meth:`~Deployment.epochs`), lifecycle
callbacks (``on_epoch_start``, ``on_failover``, ``on_member_event``), a
JSON-able :meth:`~Deployment.status`, and context-manager shutdown.

``EMLIO.deploy(spec, dry_run=True)`` (or :meth:`EMLIO.plan`) stops after
planning: the spec is validated, every component name resolved, the
dataset materialized, and the batch plan computed — but no socket is bound
and no daemon spawned.  CI uses this to prove every shipped scenario file
still deploys.

The facade is a layer *on top of* :class:`~repro.core.service.EMLIOService`
— construct the service (or daemons/receivers) directly when you need
something the spec vocabulary does not say yet.
"""

from __future__ import annotations

import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.api.registry import CODECS, NETWORK_PROFILES, POWER_MODELS, STORAGE_BACKENDS
from repro.api.spec import ChaosEventSpec, ClusterSpec, SpecError
from repro.core.planner import Planner
from repro.core.service import EMLIOService
from repro.net.emulation import NetworkProfile
from repro.obs import Telemetry
from repro.tfrecord.sharder import ShardedDataset, write_shards


def _materialize_dataset(
    spec: ClusterSpec, dataset: ShardedDataset | None
) -> tuple[ShardedDataset, tempfile.TemporaryDirectory | None]:
    """The dataset to serve, plus the tempdir owning it (when generated)."""
    if dataset is not None:
        return dataset, None
    ds = spec.dataset
    if ds.kind == "existing":
        root = Path(ds.root)
        if not root.is_dir():
            raise SpecError(f"dataset.root does not exist: {root}")
        return ShardedDataset.open(root), None
    owned: tempfile.TemporaryDirectory | None = None
    if ds.root is not None:
        root = Path(ds.root)
    else:
        owned = tempfile.TemporaryDirectory(prefix=f"emlio-{spec.name}-")
        root = Path(owned.name) / "dataset"
    if ds.kind == "tokens":
        from repro.data.text import SyntheticTokenDataset

        gen = iter(
            SyntheticTokenDataset(
                ds.n, context_len=ds.context_len, vocab_size=ds.vocab_size, seed=ds.seed
            )
        )
        return write_shards(gen, root, records_per_shard=ds.records_per_shard), owned
    from repro.data.datasets import build_dataset

    kwargs: dict = {}
    if ds.kind in ("imagenet", "coco"):
        kwargs = {"image_hw": ds.image_hw, "num_classes": ds.num_classes}
    elif ds.kind == "synthetic":
        kwargs = {"sample_bytes": ds.sample_bytes}
    return (
        build_dataset(
            ds.kind, ds.n, root, seed=ds.seed,
            records_per_shard=ds.records_per_shard, **kwargs,
        ),
        owned,
    )


def _validate_chaos(spec: ClusterSpec) -> None:
    """Reject chaos events that can never fire on this topology.

    Called by both :meth:`EMLIO.plan` *and* :meth:`EMLIO.deploy` — a drill
    that CI's dry-run rejects must not deploy cleanly live (the timer would
    swallow the IndexError and the drill would silently never happen).
    """
    for event in spec.chaos:
        kind, _, arg = event.target.partition(":")
        if kind == "receiver" and arg.isdigit() and int(arg) >= spec.receivers.num_nodes:
            raise SpecError(
                f"chaos event targets receiver:{arg} but the spec deploys "
                f"only {spec.receivers.num_nodes} node(s)"
            )


def _resolve_profile(spec: ClusterSpec) -> NetworkProfile | None:
    net = spec.network
    if net.profile is not None:
        return NETWORK_PROFILES.get(net.profile)
    if net.rtt_ms is None:
        return None
    bandwidth = (
        net.bandwidth_gbps * 1e9 / 8 if net.bandwidth_gbps is not None else float("inf")
    )
    return NetworkProfile(
        f"inline-{net.rtt_ms:g}ms", rtt_s=net.rtt_ms / 1e3, bandwidth_bps=bandwidth
    )


def _resolve_config(spec: ClusterSpec):
    """The pipeline config with the network section's transport and the
    storage section's read-verification policy folded in."""
    return replace(
        spec.pipeline.to_config(),
        transport=spec.network.effective_transport,
        shm_ring_bytes=spec.network.shm_ring_bytes,
        verify_reads=spec.storage.verify_reads,
    )


def _resolve_storage_shards(
    spec: ClusterSpec, dataset: ShardedDataset
) -> dict[str, set[str]] | None:
    """Map the storage spec onto the service's ``storage_shards`` argument."""
    storage = spec.storage
    STORAGE_BACKENDS.get(storage.backend)  # fail fast on unknown backends
    all_shards = [ix.shard for ix in dataset.indexes]
    if storage.daemons:
        if len(storage.daemons) == 1 and storage.daemons[0].shards is None:
            d = storage.daemons[0]
            if Path(d.root).resolve() == Path(dataset.root).resolve():
                return None  # the plain single-daemon service path
            return {d.root: set(all_shards)}
        return {d.root: set(d.shards or all_shards) for d in storage.daemons}
    n = storage.num_daemons
    if n == 1:
        return None
    if n > len(all_shards):
        raise SpecError(
            f"storage.num_daemons={n} exceeds the dataset's {len(all_shards)} shards"
        )
    # Distinct root strings over one directory: "<root>", "<root>/.", ... —
    # each daemon owns a contiguous slice of the shard list.
    split: dict[str, set[str]] = {}
    for i in range(n):
        root = str(dataset.root) + "/." * i
        split[root] = set(all_shards[i::n])
    return split


def _resolve_storage_runtime(
    spec: ClusterSpec,
    dataset: ShardedDataset,
    config,
    profile: NetworkProfile | None,
) -> tuple[Callable | None, Callable[[], None] | None]:
    """Resolve ``[storage]`` into ``(storage_factory, closer)``.

    The factory is threaded into :class:`EMLIOService` and called once per
    daemon root; ``closer`` releases any shared infrastructure the factory
    depends on (today: the NFS :class:`StorageServer`).  ``(None, None)``
    means the daemon's built-in localfs mmap path — deliberately identical
    to pre-tier deployments.

    Live-deploy only: binding the NFS server's socket here is exactly what
    :meth:`EMLIO.plan` must not do.
    """
    storage = spec.storage
    backend_entry = STORAGE_BACKENDS.get(storage.backend)
    cache_bytes = storage.cache_bytes
    verify = config.verify_reads

    def wrap(backend):
        if cache_bytes > 0:
            from repro.storage.cache import CachedBackend

            return CachedBackend(backend, cache_bytes)
        return backend

    if storage.backend == "localfs":
        if cache_bytes == 0:
            return None, None
        from repro.storage.backend import LocalFSBackend

        return (lambda root: wrap(LocalFSBackend(root, verify=verify))), None
    if storage.backend == "nfs":
        from repro.storage.backend import NFSBackend
        from repro.storage.nfs import NFSMount
        from repro.storage.server import StorageServer

        # One shared server over the dataset root; split daemon roots
        # ("<root>/.", ...) address shards by relative filename, so a
        # single export serves every daemon.
        server = StorageServer(str(dataset.root), profile=profile)

        def nfs_factory(root: str):
            mount = NFSMount("127.0.0.1", server.port, profile=profile)
            return wrap(NFSBackend(mount, verify=verify))

        return nfs_factory, server.close
    if storage.backend == "objectstore":
        from repro.storage.objectstore import ObjectStoreBackend

        latency_s = storage.latency_ms / 1e3

        def obj_factory(root: str):
            return wrap(
                ObjectStoreBackend(root, request_latency_s=latency_s, verify=verify)
            )

        return obj_factory, None
    # Registry extension point: any ``factory(root) -> StorageBackend``.
    return (lambda root: wrap(backend_entry(root))), None


def _resolve_telemetry(spec: ClusterSpec) -> tuple[Telemetry, object | None]:
    """Resolve ``[observability]`` into ``(telemetry, exporter)``.

    Live-deploy only (the exporter binds a socket, which is exactly what
    :meth:`EMLIO.plan` must not do).  The :class:`~repro.obs.Telemetry`
    handle is always built — the metric registry is collected lazily at
    scrape/status time, so an unconfigured section costs nothing on the
    data path.  The exporter starts only when ``metrics_port`` is set
    (``0`` binds an ephemeral port, read back from ``status()``).
    """
    obs = spec.observability
    telemetry = Telemetry(
        trace_dir=obs.trace_dir, trace_sample=obs.trace_sample
    )
    exporter = None
    if obs.metrics_port is not None:
        from repro.obs.exporter import MetricsExporter

        try:
            exporter = MetricsExporter(telemetry.registry, port=obs.metrics_port)
        except BaseException:
            telemetry.close()
            raise
    return telemetry, exporter


def _resolve_preprocess(spec: ClusterSpec) -> Callable | None:
    codec = CODECS.get(spec.pipeline.codec)
    if spec.pipeline.codec == "auto":
        return None  # the pipeline's built-in magic-dispatch path
    return codec.batch_preprocess


def _resolve_power(spec: ClusterSpec):
    """Resolve + type-check the energy section's power-model names.

    POWER_MODELS holds CPU and GPU parameter sets in one namespace; a spec
    naming a GPU model as ``cpu_model`` must fail here (dry-run included),
    not as an AttributeError inside a sampler thread mid-run.
    """
    from repro.energy.power_models import CpuSpec, GpuSpec

    cpu = POWER_MODELS.get(spec.energy.cpu_model)
    if not isinstance(cpu, CpuSpec):
        raise SpecError(
            f"energy.cpu_model {spec.energy.cpu_model!r} is not a CPU power "
            f"model (got {type(cpu).__name__})"
        )
    gpu = None
    if spec.energy.gpu_model is not None:
        gpu = POWER_MODELS.get(spec.energy.gpu_model)
        if not isinstance(gpu, GpuSpec):
            raise SpecError(
                f"energy.gpu_model {spec.energy.gpu_model!r} is not a GPU "
                f"power model (got {type(gpu).__name__})"
            )
    return cpu, gpu


class _ChaosRunner:
    """Drives a spec's ``[[chaos]]`` schedule against a live deployment.

    Anchored at the *first* epoch start; every event fires once on its own
    timer thread.  Event errors are logged through the service logger and
    swallowed — a drill must never wedge the run it is drilling.
    """

    def __init__(self, service: EMLIOService, events: tuple[ChaosEventSpec, ...]) -> None:
        self.service = service
        self.events = events
        self._timers: list[threading.Timer] = []
        self._armed = False
        self._lock = threading.Lock()

    def arm(self) -> None:
        """Start the schedule (idempotent; called at the first epoch start)."""
        with self._lock:
            if self._armed:
                return
            self._armed = True
            for event in self.events:
                t = threading.Timer(event.at_s, self._fire, args=(event,))
                t.daemon = True
                t.start()
                self._timers.append(t)

    def _fire(self, event: ChaosEventSpec) -> None:
        try:
            kind, _, arg = event.target.partition(":")
            if event.action == "kill" and kind == "daemon":
                self.service.kill_daemon(int(arg))
            elif event.action == "kill" and kind == "receiver":
                self.service.kill_receiver(int(arg))
            elif event.action == "hang":
                self.service.hang_daemon(int(arg))
            elif event.action == "join" and event.target == "receiver":
                self.service.add_receiver()
            elif event.action == "join":
                self.service.add_daemon(arg)
            self.service.logger.log(
                "chaos_event", action=event.action, target=event.target, at_s=event.at_s
            )
        except Exception as err:  # noqa: BLE001 - drills never wedge the run
            self.service.logger.log(
                "chaos_event_failed",
                action=event.action,
                target=event.target,
                error=repr(err),
            )

    def cancel(self) -> None:
        with self._lock:
            for t in self._timers:
                t.cancel()
            self._timers.clear()


@dataclass(frozen=True)
class DeploymentPlan:
    """What a dry-run deploy resolved — no sockets, no daemons."""

    name: str
    dataset_samples: int
    dataset_shards: int
    daemon_roots: tuple[str, ...]
    num_nodes: int
    epochs: int
    batches_per_epoch: int
    total_batches: int
    profile: str | None
    codec: str
    recovery_enabled: bool
    energy_enabled: bool
    transport: str = "tcp"

    def summary(self) -> str:
        profile = self.profile or "loopback (no emulation)"
        return (
            f"{self.name}: {self.dataset_samples} samples / {self.dataset_shards} shards, "
            f"{len(self.daemon_roots)} daemon(s) -> {self.num_nodes} node(s), "
            f"{self.epochs} epoch(s) x {self.batches_per_epoch} batches, "
            f"codec={self.codec}, link={profile}, transport={self.transport}, "
            f"recovery={'on' if self.recovery_enabled else 'off'}, "
            f"energy={'on' if self.energy_enabled else 'off'}"
        )


class Deployment:
    """A running EMLIO cluster deployed from a spec.

    Not constructed directly — use :meth:`EMLIO.deploy`.  Thin by design:
    consumption iterates the underlying service; callbacks observe the
    control plane; :attr:`service` stays available for anything the facade
    does not wrap.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        service: EMLIOService,
        dataset: ShardedDataset,
        monitor=None,
        owned_dir: tempfile.TemporaryDirectory | None = None,
        storage_closer: Callable[[], None] | None = None,
        telemetry: Telemetry | None = None,
        exporter=None,
    ) -> None:
        self.spec = spec
        self.service = service
        self.dataset = dataset
        self.monitor = monitor
        self._owned_dir = owned_dir
        self._storage_closer = storage_closer
        self.telemetry = telemetry
        self.exporter = exporter
        self._closed = False
        self._epoch_start_cbs: list[Callable[[int], None]] = []
        self._failover_cbs: list[Callable[[str, dict], None]] = []
        self._member_cbs: list[Callable[[dict], None]] = []
        self._rebalance_cbs: list[Callable[[dict], None]] = []
        self._chaos = (
            _ChaosRunner(service, spec.chaos) if spec.chaos else None
        )
        service.add_observer(self._dispatch)

    # -- lifecycle callbacks ---------------------------------------------------

    def on_epoch_start(self, fn: Callable[[int], None]) -> "Deployment":
        """Call ``fn(epoch_index)`` when an epoch starts serving."""
        self._epoch_start_cbs.append(fn)
        return self

    def on_failover(self, fn: Callable[[str, dict], None]) -> "Deployment":
        """Call ``fn(kind, info)`` after a failover re-plan lands.

        ``kind`` is ``"daemon"`` or ``"receiver"``; ``info`` carries the
        epoch plus what was re-planned.
        """
        self._failover_cbs.append(fn)
        return self

    def on_member_event(self, fn: Callable[[dict], None]) -> "Deployment":
        """Call ``fn(event)`` for every membership event the control plane
        consumes (``joined``/``suspect``/``dead``/``recovered``/``left``).
        Requires ``recovery.enabled``; fires from the monitor thread."""
        self._member_cbs.append(fn)
        return self

    def on_rebalance(self, fn: Callable[[dict], None]) -> "Deployment":
        """Call ``fn(info)`` after an elastic rebalance lands (a joined
        receiver adopted load, or shard ownership re-divided for a joined
        daemon).  ``info["variant"]`` is ``"receiver_join"`` or
        ``"daemon_join"``, plus the epoch and what moved."""
        self._rebalance_cbs.append(fn)
        return self

    def _dispatch(self, kind: str, info: dict) -> None:
        if kind == "epoch_start":
            if self._chaos is not None:
                self._chaos.arm()  # the [[chaos]] clock starts with epoch 0
            for fn in self._epoch_start_cbs:
                fn(info["epoch"])
        elif kind in ("failover", "receiver_failover"):
            short = "daemon" if kind == "failover" else "receiver"
            for fn in self._failover_cbs:
                fn(short, info)
        elif kind == "member_event":
            for fn in self._member_cbs:
                fn(info)
        elif kind == "rebalance":
            for fn in self._rebalance_cbs:
                fn(info)

    # -- elastic scale-out -----------------------------------------------------

    def add_receiver(self) -> int:
        """Admit a new compute node mid-run (elastic scale-out); the engine
        shifts load onto it at the next safe boundary.  Returns its id."""
        return self.service.add_receiver()

    def add_daemon(self, root: str, shards: set[str] | None = None) -> None:
        """Admit a new storage daemon mid-run; shard ownership re-divides
        (throughput-weighted) at the next epoch start."""
        self.service.add_daemon(root, shards=shards)

    # -- consumption -----------------------------------------------------------

    def epoch(self, epoch_index: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Serve and consume one epoch of preprocessed batches."""
        return self.service.epoch(epoch_index)

    def epochs(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Every planned epoch: yields ``(epoch, tensors, labels)``."""
        return self.service.epochs()

    # -- observation -----------------------------------------------------------

    def status(self) -> dict:
        """JSON-able deployment snapshot: cluster + pipeline + energy.

        Energy totals follow Algorithm 1's batch writer: samples merge
        into the TSDB when the monitor stops, so the ``energy`` section
        is complete after :meth:`close` (mid-run it reads as zero).
        """
        energy = None
        if self.monitor is not None:
            report = self.monitor.query()
            energy = {
                "cpu_j": report.cpu_j,
                "dram_j": report.dram_j,
                "gpu_j": report.gpu_j,
                "samples": report.samples,
            }
        obs = self.spec.observability
        trace = self.telemetry.stats().get("trace") if self.telemetry is not None else None
        telemetry = {
            "metrics_endpoint": self.exporter.endpoint if self.exporter is not None else None,
            "trace_dir": obs.trace_dir,
            "trace_sample": obs.trace_sample,
            "spans_written": trace["written"] if trace is not None else 0,
            "spans_dropped": trace["dropped"] if trace is not None else 0,
        }
        pipeline = self.service.stats()
        return {
            "spec": self.spec.name,
            "cluster": self.service.cluster_status(),
            "pipeline": pipeline,
            "storage": pipeline["storage"],
            "telemetry": telemetry,
            "energy": energy,
        }

    def stats(self) -> dict:
        """The underlying service's counter snapshot."""
        return self.service.stats()

    # -- shutdown --------------------------------------------------------------

    def close(self) -> None:
        """Tear down the service (and energy monitor / generated dataset)."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._chaos is not None:
                self._chaos.cancel()
            self.service.close()
        finally:
            if self.exporter is not None:
                self.exporter.close()
            if self.telemetry is not None:
                self.telemetry.close()
            if self._storage_closer is not None:
                self._storage_closer()
            if self.monitor is not None:
                self.monitor.stop()
            if self._owned_dir is not None:
                self._owned_dir.cleanup()

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class EMLIO:
    """The stable entry point: ``EMLIO.deploy(spec)``."""

    @staticmethod
    def _coerce(spec: ClusterSpec | dict | str | Path) -> ClusterSpec:
        if isinstance(spec, ClusterSpec):
            return spec
        if isinstance(spec, dict):
            return ClusterSpec.from_dict(spec)
        if isinstance(spec, (str, Path)):
            return ClusterSpec.from_file(spec)
        raise SpecError(f"cannot deploy a {type(spec).__name__}; "
                        f"pass a ClusterSpec, dict, or spec-file path")

    @staticmethod
    def plan(
        spec: ClusterSpec | dict | str | Path,
        dataset: ShardedDataset | None = None,
    ) -> DeploymentPlan:
        """Dry-run: validate + resolve + plan, touching no sockets.

        Synthetic datasets are still materialized (the planner works from
        real shard indexes) — into a temporary directory that is removed
        before returning, unless ``dataset.root`` pins a location.
        """
        spec = EMLIO._coerce(spec)
        config = _resolve_config(spec)
        profile = _resolve_profile(spec)
        _resolve_preprocess(spec)
        _validate_chaos(spec)
        if spec.energy.enabled:
            _resolve_power(spec)
        ds, owned = _materialize_dataset(spec, dataset)
        try:
            shards = _resolve_storage_shards(spec, ds)
            roots = tuple(sorted(shards)) if shards else (str(ds.root),)
            plan = Planner(ds, num_nodes=spec.receivers.num_nodes, config=config).plan()
            per_epoch = len(plan.keys(epoch=0))
            return DeploymentPlan(
                name=spec.name,
                dataset_samples=ds.num_samples,
                dataset_shards=ds.num_shards,
                daemon_roots=roots,
                num_nodes=spec.receivers.num_nodes,
                epochs=config.epochs,
                batches_per_epoch=per_epoch,
                total_batches=len(plan.assignments),
                profile=profile.name if profile is not None else None,
                codec=spec.pipeline.codec,
                recovery_enabled=spec.recovery.enabled,
                energy_enabled=spec.energy.enabled,
                transport=config.transport,
            )
        finally:
            if owned is not None:
                owned.cleanup()

    @staticmethod
    def deploy(
        spec: ClusterSpec | dict | str | Path,
        dataset: ShardedDataset | None = None,
        *,
        dry_run: bool = False,
        on_epoch_start: Callable[[int], None] | None = None,
        on_failover: Callable[[str, dict], None] | None = None,
        on_member_event: Callable[[dict], None] | None = None,
    ) -> "Deployment | DeploymentPlan":
        """Deploy a cluster from a spec (object, dict, or file path).

        ``dataset`` overrides the spec's dataset section with an
        already-built :class:`ShardedDataset` (tests and benchmarks reuse
        fixtures this way).  With ``dry_run=True`` this is :meth:`plan`.
        """
        spec = EMLIO._coerce(spec)
        if dry_run:
            return EMLIO.plan(spec, dataset)
        _validate_chaos(spec)
        config = _resolve_config(spec)
        profile = _resolve_profile(spec)
        preprocess = _resolve_preprocess(spec)
        ds, owned = _materialize_dataset(spec, dataset)
        try:
            storage_shards = _resolve_storage_shards(spec, ds)
            storage_factory, storage_closer = _resolve_storage_runtime(
                spec, ds, config, profile
            )
            recovery = spec.recovery if spec.recovery.enabled else None
            telemetry, exporter = _resolve_telemetry(spec)
            monitor = None
            if spec.energy.enabled:
                from repro.energy.monitor import EnergyMonitor

                cpu_spec, gpu_spec = _resolve_power(spec)
                monitor = EnergyMonitor(
                    node_id=spec.name,
                    cpu_spec=cpu_spec,
                    gpu_spec=gpu_spec,
                    interval=spec.energy.interval_s,
                )
                monitor.start()
            try:
                service = EMLIOService(
                    config,
                    ds,
                    profile=profile,
                    storage_shards=storage_shards,
                    cpu_tracker=monitor.cpu_tracker if monitor is not None else None,
                    stall_timeout=spec.receivers.stall_timeout_s,
                    recovery=recovery,
                    num_nodes=spec.receivers.num_nodes,
                    preprocess_fn=preprocess,
                    elastic=spec.elastic,
                    storage_factory=storage_factory,
                    telemetry=telemetry,
                )
            except BaseException:
                if monitor is not None:
                    monitor.stop()
                raise
        except BaseException:
            if "exporter" in locals() and exporter is not None:
                exporter.close()
            if "telemetry" in locals():
                telemetry.close()
            if "storage_closer" in locals() and storage_closer is not None:
                storage_closer()
            if owned is not None:
                owned.cleanup()
            raise
        deployment = Deployment(
            spec, service, ds, monitor=monitor, owned_dir=owned,
            storage_closer=storage_closer, telemetry=telemetry, exporter=exporter,
        )
        if on_epoch_start is not None:
            deployment.on_epoch_start(on_epoch_start)
        if on_failover is not None:
            deployment.on_failover(on_failover)
        if on_member_event is not None:
            deployment.on_member_event(on_member_event)
        return deployment


__all__ = ["Deployment", "DeploymentPlan", "EMLIO"]
