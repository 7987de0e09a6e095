"""EMLIOService — one-call orchestration of planner + daemon(s) + receiver(s).

For examples, tests, and the live benchmarks: wires one or more compute
nodes (receivers) to one or more storage daemons over loopback TCP with
optional latency emulation, serving the configured number of epochs.

For multi-node experiments construct :class:`~repro.core.daemon.EMLIODaemon`
and :class:`~repro.core.receiver.EMLIOReceiver` directly — the service is a
convenience, not the only entry point.

Control plane (see :mod:`repro.core.membership`): with
``EMLIOService(recovery=RecoveryConfig(...))`` every participant publishes
heartbeats to an in-service :class:`~repro.net.heartbeat.HeartbeatListener`
and a :class:`~repro.core.membership.ClusterView` turns beats into
membership events.  The service's monitor thread consumes those events —
**liveness is never inferred from thread state**:

* a crashed daemon announces itself (``failed`` beat) or falls silent;
  either way the monitor sees a ``dead`` event and asks the
  :class:`~repro.core.placement.PlacementEngine` to re-plan the dead
  daemon's undelivered batches onto surviving storage roots;
* a *hung* daemon — thread alive, no error, no progress — keeps beating
  with a frozen progress counter and is declared dead just the same;
* a dead *receiver* (compute node) triggers receiver failover: its
  undelivered batches (diffed against the
  :class:`~repro.core.recovery.DeliveryLedger`) are re-targeted onto
  surviving receivers with fresh sequence numbers, daemons drop the dead
  endpoint mid-epoch, and the key re-mapping is persisted so restarts stay
  exactly-once.

Failover daemons are themselves members, so cascading failures keep
recovering while any reachable root and any live receiver survive.  A
restarted service with the same config and ledger path resumes mid-epoch;
completed epochs are compacted to one checkpoint line each.

The data path lives as long as the deployment: each daemon keeps one
stream per receiver across epochs (see :mod:`repro.core.daemon`), and the
monitor thread and the daemons' heartbeat publishers start once.  A
daemon beats ``serving`` during its epochs and ``idle`` between them, so
frozen progress between epochs is not a hang, and ``failed`` once killed,
so a kill after its serve call returned still fails over what its
streams held.  Between epochs the monitor
only records what the next epoch start acts on (dead receivers, joins,
daemons declared dead); failover itself happens within an epoch.

The monitor consumes ``joined`` events too (elastic scale-out): a
receiver or daemon registered via :meth:`EMLIOService.add_receiver` /
:meth:`EMLIOService.add_daemon` is admitted when its first beat arrives,
and the :class:`~repro.core.placement.PlacementEngine` shifts load onto
it at the next safe boundary — a fresh re-target for receivers, the next
epoch start for daemons — weighted by observed throughput and queue
depth, with the same exactly-once ``reassign`` ledger vocabulary as
failover.
"""

from __future__ import annotations

import itertools
import queue
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.core.config import EMLIOConfig
from repro.core.daemon import EMLIODaemon
from repro.core.membership import ClusterView, MemberStatus, MembershipEvent
from repro.core.placement import ElasticPolicy, MemberLoad, PlacementEngine
from repro.core.planner import BatchAssignment, BatchPlan
from repro.core.receiver import EMLIOReceiver, ReceiverKilled
from repro.core.recovery import (
    DeliveryKey,
    DeliveryLedger,
    FailoverError,
    RecoveryConfig,
)
from repro.energy.power_models import BusyWindowTracker
from repro.gpu.device import SimulatedGPU
from repro.net.emulation import NetworkProfile
from repro.net.heartbeat import (
    STATE_FAILED,
    STATE_IDLE,
    STATE_SERVING,
    HeartbeatListener,
    HeartbeatPublisher,
)
from repro.net.mq import PushSocket
from repro.tfrecord.sharder import ShardedDataset
from repro.util.logging import TimestampLogger

#: Put into the event queue by close(): ends the monitor at once.
_STOP_MONITOR = object()


@dataclass
class _DaemonEntry:
    """One serving daemon's runtime state within an epoch."""

    daemon: EMLIODaemon
    root: str
    shards: set[str] | None  # None: all shards in the plan
    thread: threading.Thread | None = None
    error: BaseException | None = None
    handled: bool = field(default=False)
    member_id: str = ""
    publisher: HeartbeatPublisher | None = None
    # Re-targeted (receiver-failover) assignments this daemon serves, which
    # live outside the original plan and need explicit re-placement should
    # this daemon die too.
    extra: tuple[BatchAssignment, ...] = ()


class EMLIOService:
    """EMLIO deployment over (optionally shaped) loopback TCP.

    Parameters
    ----------
    config:
        Pipeline tunables.
    dataset:
        A sharded TFRecord dataset.  With ``storage_roots`` unset, one
        daemon serves all shards from ``dataset.root``.
    profile:
        Link emulation between daemon(s) and the receiver(s).
    storage_shards:
        Optional mapping ``root_dir -> set of shard names`` to run several
        daemons, each owning a disjoint subset of shards (the paper's
        fully-sharded Scenario 2).  When roots are replicas or shared
        mounts holding each other's shards, they double as failover
        targets.
    recovery:
        Fault-tolerance policy (ledger, dedup, reconnect, failover,
        membership thresholds); see
        :class:`~repro.core.recovery.RecoveryConfig`.  ``None`` keeps the
        original fail-fast behaviour.
    num_nodes:
        Compute nodes (receivers).  With more than one, :meth:`epoch`
        merges every node's batches into one stream and a dead node's
        undelivered batches fail over to the survivors.
    preprocess_fn:
        Batch preprocessor forwarded to every receiver's pipeline
        (``None`` keeps the image decode path).  The deployment facade
        resolves codec registry names to these.
    elastic:
        Elastic-membership policy (admission, member bounds, rebalance
        threshold) consulted by :meth:`add_receiver`/:meth:`add_daemon`
        and the scale-out re-planner; ``None`` keeps an open default.
    storage_factory:
        ``root -> StorageBackend`` called once per daemon (original,
        failover, and scale-out alike) so every daemon reads its shards
        through a tiered backend; each daemon owns and closes its
        instance.  ``None`` keeps the local mmap fast path.
    telemetry:
        Optional :class:`~repro.obs.Telemetry` threaded through every
        daemon and receiver (original, failover, and scale-out alike).
        The service registers scrape-time collectors exporting the
        subsystem counters it already aggregates in :meth:`stats` —
        transport bytes/batches, shm attaches, each TCP stream set's
        credit window and measured link RTT, per-tier storage reads and
        cache hits, pipeline stage costs, failover/rebalance counts, and
        heartbeat decode health — so enabling metrics adds no hot-path
        work beyond the per-batch histograms.
    """

    def __init__(
        self,
        config: EMLIOConfig,
        dataset: ShardedDataset,
        profile: NetworkProfile | None = None,
        gpu: SimulatedGPU | None = None,
        storage_shards: dict[str, set[str]] | None = None,
        cpu_tracker: BusyWindowTracker | None = None,
        stall_timeout: float = 60.0,
        recovery: RecoveryConfig | None = None,
        num_nodes: int = 1,
        preprocess_fn=None,
        elastic: ElasticPolicy | None = None,
        storage_factory=None,
        telemetry=None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.config = config
        self.dataset = dataset
        self.profile = profile
        self.recovery = recovery
        self.num_nodes = num_nodes
        self.stall_timeout = stall_timeout
        self.elastic = elastic or ElasticPolicy()
        self._preprocess_fn = preprocess_fn
        self.telemetry = telemetry
        # The §4.5 timeline and the per-batch spans share one JSONL file
        # when tracing is configured (Telemetry.event_sink is the writer).
        self.logger = TimestampLogger(
            name="emlio-service",
            sink=telemetry.event_sink if telemetry is not None else None,
        )
        # Lifecycle observers (the deployment facade's callback bridge):
        # each is called as fn(kind, info) from whatever thread produced
        # the event; failures are logged, never propagated.
        self._observers: list = []
        self.plan: BatchPlan = PlacementEngine.plan_epochs(dataset, num_nodes, config)
        self.ledger: DeliveryLedger | None = (
            DeliveryLedger(recovery.ledger_path) if recovery is not None else None
        )
        self.failovers = 0  # successful mid-epoch daemon replacements
        self.receiver_failovers = 0  # successful mid-epoch receiver re-plans
        self.rebalances = 0  # elastic scale-out load shifts that landed
        self._last_rebalance: dict | None = None
        # None inherits EMLIOConfig.reorder_window (the receiver's fallback).
        reorder = recovery.reorder_window if recovery is not None else None
        self.receivers: list[EMLIOReceiver] = [
            EMLIOReceiver(
                node_id=i,
                plan=self.plan,
                config=config,
                profile=profile,
                gpu=gpu if i == 0 else None,
                stall_timeout=stall_timeout,
                ledger=self.ledger,
                dedup=recovery.dedup if recovery is not None else False,
                reorder_window=reorder,
                preprocess_fn=preprocess_fn,
                telemetry=telemetry,
            )
            for i in range(num_nodes)
        ]
        self._endpoints = {i: ("127.0.0.1", r.port) for i, r in enumerate(self.receivers)}
        self._reconnect = recovery.reconnect if recovery is not None else None
        self._cpu_tracker = cpu_tracker
        self._storage_factory = storage_factory
        self.daemons: list[EMLIODaemon] = []
        if storage_shards is None:
            self.daemons.append(self._make_daemon(str(dataset.root), None))
        else:
            claimed: set[str] = set()
            for root, shards in storage_shards.items():
                overlap = claimed & shards
                if overlap:
                    raise ValueError(f"shards owned by two daemons: {sorted(overlap)[:3]}")
                claimed |= shards
                self.daemons.append(self._make_daemon(root, set(shards)))
            all_shards = {ix.shard for ix in dataset.indexes}
            if claimed != all_shards:
                raise ValueError(f"unserved shards: {sorted(all_shards - claimed)[:3]}")
        self._failover_daemons: list[EMLIODaemon] = []
        self._recovery_errors: list[BaseException] = []
        # Receiver-failover state.  ``_reassigned`` (old key -> new key) is
        # seeded from the ledger so a restarted service keeps honouring
        # re-ownership decisions made before the crash.
        self._dead_nodes: set[int] = set()
        self._extra_assignments: list[BatchAssignment] = []
        self._reassigned: dict[DeliveryKey, DeliveryKey] = (
            self.ledger.reassignments() if self.ledger is not None else {}
        )
        # Elastic-membership state: members registered but not yet seen
        # joining via heartbeat, receiver joins awaiting their safe
        # boundary, storage daemons awaiting epoch-start admission, and
        # the last observed throughput per retired daemon root (so a
        # rebalance at epoch start still has load weights to work with).
        self._pending_scale_out: set[str] = set()
        self._pending_joins: list[int] = []
        self._pending_daemons: list[tuple[str, set[str] | None]] = []
        self._join_pubs: dict[str, HeartbeatPublisher] = {}
        self._root_rates: dict[str, float] = {}
        self._merge_active = False
        # Control plane: heartbeat listener + cluster view + event stream.
        self._events: "queue.Queue[MembershipEvent]" = queue.Queue()
        self._member_ids = itertools.count()
        # One publisher (one member) per daemon for its whole life; a new
        # one only after the last announced a failure.
        self._daemon_pubs: dict[EMLIODaemon, HeartbeatPublisher] = {}
        # Members whose lifecycle ended (failover daemons, failed
        # publishers) are forgotten when the next epoch starts so the view
        # stays bounded by live membership (kept one epoch for post-mortem
        # status inspection).
        self._retired_members: list[str] = []
        self.view: ClusterView | None = None
        self._hb_listener: HeartbeatListener | None = None
        self._receiver_pubs: list[HeartbeatPublisher] = []
        # The running epoch as the monitor sees it: (epoch, entries), or
        # None between epochs.  The lock makes each event's handling atomic
        # with respect to an epoch's setup and teardown.
        self._active: tuple[int, list[_DaemonEntry]] | None = None
        self._ctl_lock = threading.RLock()
        self._monitor_thread: threading.Thread | None = None
        if recovery is not None:
            self.view = ClusterView(recovery.membership, on_event=self._events.put)
            self._hb_listener = HeartbeatListener(self.view.observe)
            for i, r in enumerate(self.receivers):
                # Expected up front: a node that dies before its first beat
                # must still be detected (the miss clock starts now).
                self.view.expect(f"receiver:{i}", "receiver")
                self._receiver_pubs.append(self._make_receiver_pub(i, r).start())
            if recovery.failover:
                self._monitor_thread = threading.Thread(
                    target=self._monitor, daemon=True, name="emlio-monitor"
                )
                self._monitor_thread.start()
        if telemetry is not None and telemetry.registry.enabled:
            self._register_collectors(telemetry.registry)

    def _register_collectors(self, registry) -> None:
        """Export the service's existing counters through the registry.

        One collector callback, run at snapshot/scrape time only, pulls
        from the same subsystem counters :meth:`stats` aggregates — the
        serving hot paths are untouched (see :mod:`repro.obs.metrics`).
        """
        bytes_sent = registry.counter(
            "emlio_transport_bytes_sent_total",
            "Wire bytes pushed by all daemons (original + failover)",
        )
        bytes_read = registry.counter(
            "emlio_transport_bytes_read_total",
            "Storage bytes read by all daemons",
        )
        batches_sent = registry.counter(
            "emlio_transport_batches_sent_total",
            "Batch payloads pushed by all daemons",
        )
        shm_attaches = registry.counter(
            "emlio_transport_shm_attaches_total",
            "Shared-memory ring attaches accepted by receivers",
        )
        reader_errors = registry.counter(
            "emlio_transport_reader_errors_total",
            "Receiver socket reader threads that died on an unexpected exception",
        )
        transport_nodes = registry.gauge(
            "emlio_transport_nodes",
            "Compute nodes per active daemon→receiver transport",
            labelnames=("transport",),
        )
        window = registry.gauge(
            "emlio_transport_window_frames",
            "Credit window of each daemon→node TCP stream set (hwm + link BDP, frames)",
            labelnames=("daemon", "node"),
        )
        link_rtt = registry.gauge(
            "emlio_transport_link_rtt_seconds",
            "Link RTT each daemon→node TCP stream set measured from its credits",
            labelnames=("daemon", "node"),
        )
        tier_counters = {
            name: registry.counter(
                f"emlio_storage_tier_{name}_total",
                f"Storage-tier {name.replace('_', ' ')} per tier",
                labelnames=("tier",),
            )
            for name in (
                "reads", "bytes_read", "cache_hits", "cache_misses",
                "prefetched", "evictions",
            )
        }
        prefetch_errors = registry.counter(
            "emlio_storage_prefetch_errors_total",
            "Fetch-window range-GETs that failed (fetch or CRC) per tier",
            labelnames=("tier",),
        )
        stage_ns = registry.gauge(
            "emlio_pipeline_stage_ns",
            "Mean per-batch consume-pipeline stage cost (nanoseconds)",
            labelnames=("stage",),
        )
        received = registry.counter(
            "emlio_batches_received_total", "Batch payloads received by all nodes"
        )
        dupes = registry.counter(
            "emlio_duplicates_dropped_total",
            "Duplicate payloads absorbed by receiver dedup",
        )
        failovers = registry.counter(
            "emlio_failovers_total",
            "Successful mid-epoch failovers by member kind",
            labelnames=("kind",),
        )
        rebalances = registry.counter(
            "emlio_rebalances_total", "Elastic scale-out load shifts that landed"
        )
        reassigned = registry.gauge(
            "emlio_ledger_reassigned_batches",
            "Delivery keys currently re-owned through the reassignment ledger",
        )
        hb_malformed = registry.counter(
            "emlio_heartbeat_decode_errors_total",
            "Heartbeat frames the listener could not decode",
        )
        hb_unknown = registry.counter(
            "emlio_heartbeat_unknown_fields_total",
            "Heartbeats carrying fields unknown to this version (mixed-version clusters)",
        )

        def collect() -> None:
            all_daemons = self.daemons + self._failover_daemons
            snaps = [d.stats.snapshot() for d in all_daemons]
            bytes_sent.set(sum(s["bytes_sent"] for s in snaps))
            bytes_read.set(sum(s["bytes_read"] for s in snaps))
            batches_sent.set(sum(s["batches_sent"] for s in snaps))
            shm_attaches.set(sum(r.shm_attaches for r in self.receivers))
            reader_errors.set(sum(r.pull.reader_errors for r in self.receivers))
            merged: dict[int, str] = {}
            for d in all_daemons:
                for node_id, transport in d.transports.items():
                    if merged.get(node_id) != "shm":
                        merged[node_id] = transport
            for t in ("shm", "tcp"):
                transport_nodes.labels(transport=t).set(
                    sum(1 for v in merged.values() if v == t)
                )
            for i, d in enumerate(all_daemons):
                for node_id, push in d.streams.items():
                    if isinstance(push, PushSocket):  # a shm ring has no link
                        window.labels(daemon=i, node=node_id).set(push.window)
                        link_rtt.labels(daemon=i, node=node_id).set(push.link_rtt_s)
            for tier, agg in self.storage_stats()["tiers"].items():
                for name, counter in tier_counters.items():
                    counter.labels(tier=tier).set(agg[name])
                prefetch_errors.labels(tier=tier).set(agg["prefetch_errors"])
            stages = self.pipeline_stage_stats()
            for stage in ("decode", "preprocess", "starved"):
                stage_ns.labels(stage=stage).set(stages[f"{stage}_ns"])
            received.set(sum(r.batches_received for r in self.receivers))
            dupes.set(sum(r.duplicates_dropped for r in self.receivers))
            failovers.labels(kind="daemon").set(self.failovers)
            failovers.labels(kind="receiver").set(self.receiver_failovers)
            rebalances.set(self.rebalances)
            reassigned.set(len(self._reassigned))
            if self._hb_listener is not None:
                hb_malformed.set(self._hb_listener.malformed)
                hb_unknown.set(self._hb_listener.unknown_fields)

        registry.register_collector(collect)

    def _make_receiver_pub(self, node: int, r: EMLIOReceiver) -> HeartbeatPublisher:
        return HeartbeatPublisher(
            member_id=f"receiver:{node}",
            role="receiver",
            endpoint=self._hb_listener.address,
            interval_s=self.recovery.membership.interval_s,
            # Consumption-boundary progress: frozen when received
            # payloads sit unconsumed, so a wedged consumer (not
            # just a dead receive loop) trips the hang detector.
            progress_fn=lambda r=r: r.progress,
            state_fn=lambda r=r: STATE_SERVING if r.epoch_active else STATE_IDLE,
            # Backpressure signal the placement engine weighs re-plans by.
            queue_depth_fn=lambda r=r: r.queue_depth,
            # Per-stage pipeline costs (decode / preprocess / starved ns
            # per batch) for `repro.tools.cluster`'s bottleneck column.
            stages_fn=lambda r=r: tuple(r.pipeline_stats.per_batch_ns().values()),
        )

    @property
    def receiver(self) -> EMLIOReceiver:
        """Node 0's receiver (single-node convenience / back-compat)."""
        return self.receivers[0]

    def add_observer(self, fn) -> None:
        """Register ``fn(kind, info)`` for lifecycle notifications.

        Kinds: ``epoch_start``/``epoch_end`` (info: epoch), ``failover``
        (a daemon re-plan), ``receiver_failover``, and ``member_event``
        (every membership transition, info mirroring the event fields).
        Called synchronously from service/monitor threads; exceptions are
        logged and swallowed so an observer can never wedge the pipeline.
        """
        self._observers.append(fn)

    def _notify(self, kind: str, **info) -> None:
        for fn in self._observers:
            try:
                fn(kind, info)
            except Exception as err:  # noqa: BLE001 - observers are untrusted
                self.logger.log("observer_error", kind=kind, error=repr(err))

    def _make_daemon(
        self,
        root: str,
        shards: set[str] | None,
        plan: BatchPlan | None = None,
    ) -> EMLIODaemon:
        daemon = EMLIODaemon(
            dataset_root=Path(root),
            plan=plan if plan is not None else self.plan,
            node_endpoints=self._endpoints,
            config=self.config,
            profile=self.profile,
            cpu_tracker=self._cpu_tracker,
            # An explicit plan is already exactly the work list (it may
            # contain re-targeted assignments from shards outside any
            # original ownership set) — a shard filter would drop them.
            shard_filter=None if plan is not None else shards,
            reconnect=self._reconnect,
            backend=(
                self._storage_factory(root)
                if self._storage_factory is not None
                else None
            ),
            telemetry=self.telemetry,
        )
        daemon.warm()
        return daemon

    # -- chaos hooks -----------------------------------------------------------

    def kill_daemon(self, index: int = 0) -> None:
        """Chaos hook: abruptly kill one of the serving daemons."""
        self.daemons[index].kill()

    def hang_daemon(self, index: int = 0) -> None:
        """Chaos hook: one daemon stops progressing without crashing."""
        self.daemons[index].hang()

    def kill_receiver(self, index: int) -> None:
        """Chaos hook: abruptly kill one compute node (socket + beats)."""
        self.receivers[index].kill()
        if index < len(self._receiver_pubs):
            self._receiver_pubs[index].kill()  # crash: silence, no goodbye

    # -- load signals & placement ----------------------------------------------

    def _member_loads(self) -> tuple[dict[int, MemberLoad], dict[str, MemberLoad]]:
        """Receiver-node and storage-root load signals from the heartbeat
        substrate: observed throughput (EWMA of progress deltas) plus the
        queue depth each beat reports.  Roots whose daemons are idle (their
        epoch's serve is over) fall back to their last observed rate."""
        node_loads: dict[int, MemberLoad] = {}
        root_loads: dict[str, MemberLoad] = {}
        if self.view is not None:
            for mid, m in self.view.members().items():
                if m.status in (MemberStatus.DEAD, MemberStatus.LEFT):
                    # A corpse's last EWMA must not inflate its root's
                    # weight next to the replacement daemon beating there.
                    continue
                if m.role == "daemon" and m.state == STATE_IDLE:
                    continue  # its rate only decays while it waits
                if m.role == "receiver" and mid.startswith("receiver:"):
                    node_loads[int(mid.split(":", 1)[1])] = MemberLoad(
                        throughput=m.rate, queue_depth=m.queue_depth
                    )
                elif m.role == "daemon" and "@" in mid:
                    root = mid.split("@", 1)[1]
                    prev = root_loads.get(root, MemberLoad())
                    root_loads[root] = MemberLoad(
                        throughput=prev.throughput + m.rate,
                        queue_depth=prev.queue_depth + m.queue_depth,
                    )
        for root, rate in self._root_rates.items():
            root_loads.setdefault(root, MemberLoad(throughput=rate))
        # Cache locality comes from direct inspection of the daemons'
        # storage tiers (the supervisor co-owns them), not from beats:
        # placement needs the *which shards*, beats only carry counts.
        for root, shards in self._hot_shards().items():
            prev = root_loads.get(root, MemberLoad())
            root_loads[root] = replace(prev, cached_shards=frozenset(shards))
        return node_loads, root_loads

    def _hot_shards(self) -> dict[str, set[str]]:
        """``root -> shard paths`` resident in its live daemons' caches."""
        hot: dict[str, set[str]] = {}
        for d in self.daemons + self._failover_daemons:
            if d.killed:
                continue
            shards = d.hot_shards()
            if shards:
                hot.setdefault(str(d.dataset_root), set()).update(shards)
        return hot

    def _engine(self, roots: dict[str, set[str] | None]) -> PlacementEngine:
        """A placement engine over the given roots with fresh load signals."""
        node_loads, root_loads = self._member_loads()
        return PlacementEngine(
            self.plan,
            self.ledger,
            roots,
            logger=self.logger,
            node_loads=node_loads,
            root_loads=root_loads,
            policy=self.elastic,
        )

    # -- elastic membership ----------------------------------------------------

    def _check_admission(self, role: str, current: int) -> None:
        if self.view is None or self._hb_listener is None:
            raise RuntimeError(
                "elastic scale-out needs the control plane: construct the "
                "service with EMLIOService(recovery=RecoveryConfig(...))"
            )
        if self.elastic.admit != "auto":
            raise FailoverError(
                f"elastic admit policy {self.elastic.admit!r} rejects a "
                f"joining {role}"
            )
        if self.elastic.max_members and current >= self.elastic.max_members:
            raise FailoverError(
                f"elastic max_members={self.elastic.max_members} reached; "
                f"refusing a joining {role}"
            )

    def add_receiver(self) -> int:
        """Admit a new compute node mid-run (elastic scale-out).

        Binds a fresh receiver socket and starts its heartbeat publisher;
        the node's first beat raises a ``joined`` membership event, which
        the monitor (mid-epoch) or the next epoch start turns into a
        load-weighted rebalance: undelivered batches shift from the
        busiest donors onto the new node through the ``reassign`` ledger
        vocabulary, so exactly-once delivery holds through scale-out
        exactly as through failover.  Returns the new node id.
        """
        self._check_admission(
            "receiver", len([r for r in self.receivers if not r.killed])
        )
        node = len(self.receivers)
        receiver = EMLIOReceiver(
            node_id=node,
            plan=self.plan,
            config=self.config,
            profile=self.profile,
            stall_timeout=self.stall_timeout,
            ledger=self.ledger,
            dedup=self.recovery.dedup,
            reorder_window=self.recovery.reorder_window,
            preprocess_fn=self._preprocess_fn,
            telemetry=self.telemetry,
        )
        self.receivers.append(receiver)
        self._endpoints[node] = ("127.0.0.1", receiver.port)
        self.num_nodes = len(self.receivers)
        member_id = f"receiver:{node}"
        # Not expect()ed: the *first beat* must surface as a `joined`
        # event — that event is what triggers the rebalance.
        self._pending_scale_out.add(member_id)
        self._receiver_pubs.append(self._make_receiver_pub(node, receiver).start())
        self.logger.log("receiver_joining", node=node)
        return node

    def add_daemon(self, root: str, shards: set[str] | None = None) -> None:
        """Admit a new storage daemon mid-run (elastic scale-out).

        The root starts beating (idle) immediately — joining the cluster
        view via heartbeat — and is admitted at the next safe boundary:
        the next epoch start, where shard ownership across *all* roots is
        re-divided weighted by observed throughput, so the new daemon
        takes on a fair share of the plan without a service restart.
        ``shards`` optionally pins its ownership instead.
        """
        self._check_admission("daemon", len(self.daemons))
        if any(str(d.dataset_root) == root for d in self.daemons) or any(
            r == root for r, _s in self._pending_daemons
        ):
            raise FailoverError(f"daemon root already registered: {root}")
        self._pending_daemons.append((root, set(shards) if shards is not None else None))
        member_id = f"daemon:join@{root}"
        pub = HeartbeatPublisher(
            member_id=member_id,
            role="daemon",
            endpoint=self._hb_listener.address,
            interval_s=self.recovery.membership.interval_s,
            state_fn=lambda: STATE_IDLE,
        )
        pub.start()
        self._join_pubs[member_id] = pub
        self.logger.log("daemon_joining", root=root)

    def _admit_daemons(self, epoch: int) -> None:
        """Epoch-start safe boundary: fold joined roots into the topology.

        Creates the joined daemons and re-divides shard ownership across
        every root, weighted by observed throughput — the load-aware
        generalization of the deploy-time round-robin split.
        """
        joined, self._pending_daemons = self._pending_daemons, []
        pinned: dict[str, set[str]] = {}
        for root, shards in joined:
            self.daemons.append(self._make_daemon(root, shards))
            if shards is not None:
                pinned[root] = set(shards)
        for member_id, pub in self._join_pubs.items():
            pub.stop()
            self.view.forget(member_id)
        self._join_pubs.clear()
        # Re-divide the unpinned shards across the unpinned roots, weighted
        # by observed throughput; roots that joined with an explicit shard
        # set keep exactly that set.
        roots = {str(d.dataset_root): d.shard_filter for d in self.daemons}
        engine = self._engine(roots)
        pinned_shards = {s for shards in pinned.values() for s in shards}
        pool = {a.shard for a in self.plan.assignments} - pinned_shards
        ownership = engine.plan_shard_ownership(
            [r for r in roots if r not in pinned], only=pool
        )
        ownership.update(pinned)
        for d in self.daemons:
            d.shard_filter = set(ownership.get(str(d.dataset_root), set()))
        self.rebalances += 1
        self._last_rebalance = {
            "kind": "daemon_join",
            "epoch": epoch,
            "roots": {r: sorted(s) for r, s in ownership.items()},
        }
        self.logger.log(
            "daemon_admitted",
            epoch=epoch,
            joined=[r for r, _s in joined],
            ownership={r: len(s) for r, s in ownership.items()},
        )
        self._notify(
            "rebalance", variant="daemon_join", epoch=epoch,
            joined=[r for r, _s in joined],
        )

    def _scale_out_receiver(self, epoch: int, node: int, entries: list[_DaemonEntry]) -> None:
        """Shift load onto a freshly joined compute node (fresh re-target).

        Mirrors receiver failover with live donors: the engine drafts a
        load-weighted share of the donors' undelivered batches, the
        serving daemons *relinquish* exactly the not-yet-sent subset (an
        atomic claim, so no batch is both sent to its donor and re-owned),
        the re-mappings persist as ``reassign`` ledger lines, donors
        shrink their expectations, and fresh daemons serve the re-targets
        to the new node.
        """
        assert self.ledger is not None
        if node in self._dead_nodes or self.receivers[node].killed:
            return  # joined and died before the rebalance landed
        excluded = self._excluded(epoch)
        donors_residual = [
            a
            for a in self.plan.residual(excluded, epoch=epoch).assignments
            if a.node_id != node
            and a.node_id not in self._dead_nodes
            and not self.receivers[a.node_id].killed
        ]
        live_roots = self._live_roots(entries)
        engine = self._engine(live_roots)
        candidates = engine.select_scale_out(donors_residual, node)
        if not candidates:
            self.logger.log("scale_out_noop", epoch=epoch, node=node)
            return
        wanted = {(a.epoch, a.node_id, a.batch_index) for a in candidates}
        claimed_keys: set[DeliveryKey] = set()
        for entry in entries:
            if entry.handled or entry.error is not None or entry.daemon.killed:
                continue
            claimed_keys |= entry.daemon.relinquish(wanted)
        claimed = [
            a for a in candidates if (a.epoch, a.node_id, a.batch_index) in claimed_keys
        ]
        if not claimed:
            self.logger.log("scale_out_nothing_claimable", epoch=epoch, node=node)
            return
        plan = engine.retarget(
            claimed,
            targets=[node],
            next_seq=self._next_seq_map(epoch),
            survivor_roots=list(live_roots),
            context=f" for joined node {node}",
        )
        for old, new in plan.key_map.items():
            self.ledger.record_reassignment(old, new)
        self._reassigned = self.ledger.reassignments()
        self._extra_assignments.extend(plan.assignments)
        # Donors give the moved keys up before the new node's expectation
        # grows, so no pass can end with a key both expected and re-owned.
        by_donor: dict[int, list[tuple[int, int]]] = {}
        for (e, donor, seq) in plan.key_map:
            by_donor.setdefault(donor, []).append((e, seq))
        for donor, keys in by_donor.items():
            self.receivers[donor].relinquish(keys)
        if not self.receivers[node].adopt(len(plan.assignments)):
            # The joiner died between admission and adoption.  The moved
            # keys are already re-owned by its (now dead) id, so leave
            # them there: its death event is on the way (the kill silenced
            # its publisher) and the ordinary receiver-failover path will
            # re-target these `_extra_assignments` onto survivors.
            # Raising here would kill the monitor and foreclose exactly
            # that recovery.
            self.logger.log(
                "scale_out_joiner_died", epoch=epoch, node=node,
                stranded=len(plan.assignments),
            )
            return
        for root, assignments in plan.by_root.items():
            daemon = self._make_daemon(root, None, plan=self.plan.subset(assignments))
            for dead in self._dead_nodes:
                daemon.drop_node(dead)
            self._failover_daemons.append(daemon)
            entry = _DaemonEntry(
                daemon=daemon, root=root, shards=set(), extra=assignments
            )
            entries.append(entry)
            self._spawn(entry, epoch, None)
        self.rebalances += 1
        self._last_rebalance = {
            "kind": "receiver_join",
            "epoch": epoch,
            "node": node,
            "moved": len(plan.assignments),
        }
        self.logger.log(
            "scale_out",
            epoch=epoch,
            node=node,
            moved=len(plan.assignments),
            donors={str(n): len(k) for n, k in by_donor.items()},
        )
        self._notify(
            "rebalance", variant="receiver_join", epoch=epoch, node=node,
            moved=len(plan.assignments),
        )

    # -- ledger coverage -------------------------------------------------------

    def _covered(self, epoch: int) -> set[DeliveryKey]:
        """Planned keys delivered directly or through a re-targeted copy."""
        assert self.ledger is not None
        return {k for k in self.plan.keys(epoch=epoch) if self.ledger.covered(k)}

    def _epoch_covered(self, epoch: int) -> bool:
        """Whether every planned batch of ``epoch`` landed (incl. re-owned)."""
        if self.ledger is None:
            return False
        if self.ledger.epoch_complete(epoch):
            return True
        return all(self.ledger.covered(k) for k in self.plan.keys(epoch=epoch))

    def _excluded(self, epoch: int) -> set[DeliveryKey]:
        """Keys no daemon should serve: delivered, or re-owned elsewhere."""
        assert self.ledger is not None
        return self.ledger.delivered(epoch=epoch) | {
            k for k in self._reassigned if k[0] == epoch
        }

    def _next_seq_map(self, epoch: int) -> dict[int, int]:
        """First unused payload seq per node for ``epoch`` (re-targets get
        fresh seqs past anything planned or previously re-assigned)."""
        top = {n: -1 for n in range(self.num_nodes)}
        for a in self.plan.assignments:
            if a.epoch == epoch and a.batch_index > top[a.node_id]:
                top[a.node_id] = a.batch_index
        for a in self._extra_assignments:
            if a.epoch == epoch and a.batch_index > top.get(a.node_id, -1):
                top[a.node_id] = a.batch_index
        for (e, _dn, _ds), (_e, nn, ns) in self._reassigned.items():
            if e == epoch and ns > top.get(nn, -1):
                top[nn] = ns
        return {n: t + 1 for n, t in top.items()}

    # -- epoch orchestration ---------------------------------------------------

    def _run_daemon(self, entry: _DaemonEntry, epoch: int, skip) -> None:
        try:
            entry.daemon.serve_epoch(epoch, skip=skip)
        except BaseException as err:  # noqa: BLE001 - surfaced in epoch()
            entry.error = err
            if entry.publisher is not None:
                entry.publisher.fail(repr(err))  # fast-path death notice

    def _daemon_publisher(self, daemon: EMLIODaemon, root: str) -> HeartbeatPublisher:
        """The daemon's heartbeat publisher, started on first use."""
        pub = self._daemon_pubs.get(daemon)
        if pub is not None and not pub.stopped:
            return pub
        if pub is not None:  # it announced a failure: rejoin as a new member
            self._retired_members.append(pub.member_id)
        member_id = f"daemon:{next(self._member_ids)}@{root}"
        self.view.expect(member_id, "daemon")
        pub = HeartbeatPublisher(
            member_id=member_id,
            role="daemon",
            endpoint=self._hb_listener.address,
            interval_s=self.recovery.membership.interval_s,
            # Ticks advance through HWM backpressure waits too, so a
            # daemon throttled by a slow receiver is busy, not hung.
            progress_fn=lambda d=daemon: d.stats.batches_sent + d.stats.ticks,
            # Idle between epochs: frozen progress there is not a hang.
            # Failed once killed: a kill after the serve call returned
            # raises nothing, yet drops what the streams still held.
            state_fn=lambda d=daemon: (
                STATE_FAILED if d.killed else STATE_SERVING if d.serving else STATE_IDLE
            ),
            # Storage-cache hit/miss/prefetch-depth ride the beats so
            # the ClusterView (and the status CLI) see tier behaviour.
            cache_fn=lambda d=daemon: d.cache_counters(),
        ).start()
        self._daemon_pubs[daemon] = pub
        return pub

    def _spawn(self, entry: _DaemonEntry, epoch: int, skip) -> None:
        if self._hb_listener is not None:
            entry.publisher = self._daemon_publisher(entry.daemon, entry.root)
            entry.member_id = entry.publisher.member_id
        entry.thread = threading.Thread(
            target=self._run_daemon, args=(entry, epoch, skip), daemon=True,
            name="emlio-daemon",
        )
        entry.thread.start()

    def _live_roots(self, entries: list[_DaemonEntry], exclude: _DaemonEntry | None = None) -> dict[str, set[str] | None]:
        """Roots of daemons still considered alive, with their shard sets."""
        live: dict[str, set[str] | None] = {}
        for e in entries:
            if e is exclude or e.handled or e.error is not None or e.daemon.killed:
                continue
            live.setdefault(e.root, e.shards)
        return live

    def _failover(self, epoch: int, dead: _DaemonEntry, entries: list[_DaemonEntry]) -> None:
        """Re-plan a dead daemon's undelivered batches onto survivors."""
        assert self.ledger is not None
        live_roots = self._live_roots(entries, exclude=dead)
        excluded = self._excluded(epoch)
        # Dead entry last so its shard set wins if a survivor shares the root
        # (a failover daemon dying on a root that still has a live daemon).
        engine = self._engine({**live_roots, dead.root: dead.shards})
        takeover = engine.plan_failover(dead.root, epoch, survivors=list(live_roots))
        # Re-targeted assignments the dead daemon carried live outside the
        # original plan: re-place each on a reachable surviving root.
        extra_residual = [
            a
            for a in dead.extra
            if a.epoch == epoch
            and (a.epoch, a.node_id, a.batch_index) not in self.ledger
            and (a.epoch, a.node_id, a.batch_index) not in self._reassigned
            and a.node_id not in self._dead_nodes
        ]
        extra_by_root = engine.place_assignments(extra_residual, list(live_roots))
        for root in sorted(set(takeover) | set(extra_by_root)):
            shards = takeover.get(root, set())
            residual = (
                self.plan.residual(excluded, epoch=epoch, shards=shards)
                if shards
                else self.plan.residual(excluded, epoch=epoch, shards=())
            )
            assignments = residual.assignments + tuple(extra_by_root.get(root, ()))
            if not assignments:
                continue
            daemon = self._make_daemon(
                root, shards or None, plan=self.plan.subset(assignments)
            )
            for node in self._dead_nodes:
                daemon.drop_node(node)
            self._failover_daemons.append(daemon)
            entry = _DaemonEntry(
                daemon=daemon, root=root, shards=shards,
                extra=tuple(extra_by_root.get(root, ())),
            )
            entries.append(entry)
            self._spawn(entry, epoch, self._excluded(epoch))
        self.failovers += 1
        self.logger.log(
            "failover",
            epoch=epoch,
            dead_root=dead.root,
            replacements=len(set(takeover) | set(extra_by_root)),
        )
        self._notify(
            "failover",
            epoch=epoch,
            dead_root=dead.root,
            replacements=len(set(takeover) | set(extra_by_root)),
        )

    def _bury_receiver(self, node: int) -> None:
        """Silence a dead compute node (socket + beats) and close every
        daemon's stream to it."""
        self.receivers[node].kill()
        if node < len(self._receiver_pubs):
            self._receiver_pubs[node].kill()
        self._dead_nodes.add(node)
        self._endpoints.pop(node, None)
        for d in self.daemons + self._failover_daemons:
            d.drop_node(node)

    def _failover_receiver(self, epoch: int, dead_node: int, entries: list[_DaemonEntry]) -> None:
        """Re-target a dead compute node's undelivered batches onto survivors.

        Sequence matters: silence the corpse (kill socket + beats), stop
        daemons pushing at it, grow the survivors' expectations, and only
        then spawn the daemons that serve the re-targets — adopting after
        spawning could let a survivor finish its epoch early and tear down
        while re-targeted payloads are in flight.
        """
        assert self.ledger is not None
        self._bury_receiver(dead_node)
        # Residual: planned-but-undelivered batches of the dead node, plus
        # any re-targets pointed at it by an earlier receiver failover.
        excluded = self._excluded(epoch)
        base = self.plan.residual(excluded, epoch=epoch)
        residual = [a for a in base.assignments if a.node_id == dead_node]
        residual += [
            a
            for a in self._extra_assignments
            if a.epoch == epoch
            and a.node_id == dead_node
            and (a.epoch, a.node_id, a.batch_index) not in self.ledger
            and (a.epoch, a.node_id, a.batch_index) not in self._reassigned
        ]
        if not residual:
            self.logger.log("receiver_dead_nothing_owed", epoch=epoch, node=dead_node)
            return
        survivors = [
            i
            for i in range(self.num_nodes)
            if i not in self._dead_nodes and not self.receivers[i].killed
        ]
        live_roots = self._live_roots(entries)
        plan = self._engine(live_roots).plan_receiver_failover(
            dead_node,
            epoch,
            surviving_nodes=survivors,
            next_seq=self._next_seq_map(epoch),
            survivor_roots=list(live_roots),
            residual=residual,
        )
        for old, new in plan.key_map.items():
            self.ledger.record_reassignment(old, new)
        # Re-snapshot rather than merge: the ledger GC-rewrites chains in
        # place (old -> final) and drops re-reassigned synthetic keys, so
        # the ledger's map is the truth, not an accumulation of ours.
        self._reassigned = self.ledger.reassignments()
        self._extra_assignments.extend(plan.assignments)
        for node, extra in plan.extra_per_node.items():
            if not self.receivers[node].adopt(extra):
                raise FailoverError(
                    f"receiver {node} finished epoch {epoch} before adopting "
                    f"{extra} re-targeted batches of dead node {dead_node}"
                )
        for root, assignments in plan.by_root.items():
            daemon = self._make_daemon(root, None, plan=self.plan.subset(assignments))
            for node in self._dead_nodes:
                daemon.drop_node(node)
            self._failover_daemons.append(daemon)
            entry = _DaemonEntry(
                daemon=daemon, root=root, shards=set(), extra=assignments
            )
            entries.append(entry)
            self._spawn(entry, epoch, None)
        self.receiver_failovers += 1
        self.logger.log(
            "receiver_failover",
            epoch=epoch,
            dead_node=dead_node,
            re_targeted=len(plan.assignments),
            adopted={str(n): c for n, c in plan.extra_per_node.items()},
        )
        self._notify(
            "receiver_failover",
            epoch=epoch,
            dead_node=dead_node,
            re_targeted=len(plan.assignments),
        )

    def _handle_event(
        self,
        ev: MembershipEvent,
        epoch: int | None = None,
        entries: list[_DaemonEntry] | None = None,
    ) -> None:
        """Act on one membership event; ``epoch`` is None between epochs.

        In an epoch, deaths fail over at once.  Between epochs a dead
        receiver is only buried and a dead daemon only killed: the next
        epoch start fails both over, before anything serves.
        """
        self._notify(
            "member_event",
            event=ev.kind,
            member_id=ev.member_id,
            role=ev.role,
            reason=ev.reason,
            incarnation=ev.incarnation,
            epoch=epoch,
        )
        if ev.kind == "joined" and ev.member_id in self._pending_scale_out:
            # A registered member's first beat arrived: it is admitted.
            # Receivers rebalance at the next safe boundary — immediately
            # (fresh re-target) when the merged consume loop is live, else
            # at the next epoch start.
            self._pending_scale_out.discard(ev.member_id)
            self.logger.log(
                "member_admitted", member=ev.member_id, role=ev.role, epoch=epoch
            )
            if ev.role == "receiver":
                node = int(ev.member_id.split(":", 1)[1])
                if self._merge_active and epoch is not None:
                    self._scale_out_receiver(epoch, node, entries)
                else:
                    self._pending_joins.append(node)
            return
        if ev.kind != "dead":
            self.logger.log(
                "membership_event", event=ev.kind, member=ev.member_id, reason=ev.reason
            )
            return
        self.logger.log(
            "member_dead", member=ev.member_id, role=ev.role, reason=ev.reason, epoch=epoch
        )
        if ev.role == "receiver":
            node = int(ev.member_id.split(":", 1)[1])
            if node in self._dead_nodes:
                return  # already failed over (e.g. at epoch start)
            if epoch is None:
                self._bury_receiver(node)
            else:
                self._failover_receiver(epoch, node, entries)
            return
        if epoch is None:
            for daemon, pub in self._daemon_pubs.items():
                if pub.member_id == ev.member_id:
                    daemon.kill()
                    pub.kill()
            return
        entry = next((e for e in entries if e.member_id == ev.member_id), None)
        if entry is None or entry.handled:
            return  # stale event (previous epoch) or already failed over
        entry.handled = True
        # A hung daemon is alive and might wake mid-failover: kill it so the
        # re-plan is the only writer (its replays would dedup anyway, but a
        # corpse has no business holding send credits).
        entry.daemon.kill()
        if entry.publisher is not None:
            entry.publisher.kill()
        self._failover(epoch, entry, entries)

    def _monitor(self) -> None:
        """Consume membership events for the deployment's life; drive
        failover within epochs.  Replaces the old thread-state watchdog —
        liveness comes from the ClusterView only."""
        assert self.view is not None
        poll_s = max(0.005, self.recovery.membership.interval_s / 2)
        while True:
            self.view.poll()  # timeout/hang sweeps feed self._events
            try:
                ev = self._events.get(timeout=poll_s)
            except queue.Empty:
                continue
            if ev is _STOP_MONITOR:
                return
            with self._ctl_lock:
                active = self._active
                try:
                    self._handle_event(ev, *(active or ()))
                except BaseException as err:  # noqa: BLE001 - surfaced in epoch()
                    if active is None:
                        self.logger.log("monitor_error", error=repr(err))
                    else:
                        self._recovery_errors.append(err)
                        # The rest of this epoch's events settle as if idle.
                        self._active = None

    def _consume_pass(
        self, epoch_index: int, receivers: list[EMLIOReceiver]
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """One concurrent drain of the given receivers' epoch streams."""
        out: queue.Queue = queue.Queue()
        done = object()
        errors: list[BaseException] = []
        err_lock = threading.Lock()

        def consume(r: EMLIOReceiver) -> None:
            try:
                for item in r.epoch(epoch_index):
                    out.put(item)
            except BaseException as err:  # noqa: BLE001 - surfaced below
                # A killed node's torn epoch is expected — its batches are
                # re-owned; anything else is a real consumer failure.
                if not (isinstance(err, ReceiverKilled) or r.killed):
                    with err_lock:
                        errors.append(err)
            finally:
                out.put(done)

        threads = [
            threading.Thread(target=consume, args=(r,), daemon=True, name=f"emlio-consume{r.node_id}")
            for r in receivers
        ]
        for t in threads:
            t.start()
        remaining = len(threads)
        while remaining:
            item = out.get()
            if item is done:
                remaining -= 1
                continue
            yield item
        for t in threads:
            t.join(timeout=10.0)
        if errors:
            if self._recovery_errors:
                raise self._recovery_errors[0] from errors[0]
            raise errors[0]

    def _merge_receivers(self, epoch_index: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Drive every receiver's epoch, merged — a cluster-wide barrier.

        The epoch ends when every planned batch is *covered*, not when the
        survivors drain their own partitions: a node can die after the
        others already finished consuming, in which case the failure
        detector fires between passes and the re-targeted batches (adopted
        as ``pending_adopt``) are drained by a further pass.  Gives up when
        the control plane stops making progress for ``stall_timeout``.
        """
        import time as _time

        failover_on = self._monitor_thread is not None
        deadline = _time.monotonic() + self.stall_timeout
        # While this loop runs, a joining receiver can be rebalanced onto
        # immediately: the next consume pass will drain its adopted load.
        self._merge_active = True
        try:
            while True:
                alive = [r for r in self.receivers if not r.killed]
                if not alive:
                    raise FailoverError(f"every receiver is dead in epoch {epoch_index}")
                for item in self._consume_pass(epoch_index, alive):
                    deadline = _time.monotonic() + self.stall_timeout
                    yield item
                if self.ledger is None or not failover_on:
                    return
                # Wait (bounded) for the control plane: either the epoch turns
                # covered, a failover adopts batches for another pass, or the
                # deadline expires (incompleteness surfaced by the caller).
                while True:
                    if self._recovery_errors or self._epoch_covered(epoch_index):
                        return
                    if any(r.pending_adopt > 0 for r in self.receivers if not r.killed):
                        break  # drain the adopted re-targets in another pass
                    if _time.monotonic() > deadline:
                        return
                    _time.sleep(0.01)  # detection/re-plan still in flight
        finally:
            self._merge_active = False

    def _start_epoch(self, epoch: int) -> list[_DaemonEntry]:
        """The epoch-start safe boundary (ctl lock held): settle what
        happened between epochs, re-plan around it, spawn the daemons."""
        if self.view is not None and self._retired_members:
            for member_id in self._retired_members:
                self.view.forget(member_id)
            self._retired_members.clear()
        skip = self._covered(epoch) if self.ledger is not None else None
        failover_on = self._monitor_thread is not None
        if failover_on:
            # Events the monitor has not taken yet settle here, before any
            # daemon serves: receiver deaths before a stream targets a
            # corpse, joins at their safe boundary.
            while True:
                try:
                    ev = self._events.get_nowait()
                except queue.Empty:
                    break
                if ev is _STOP_MONITOR:
                    self._events.put(ev)
                    break
                self._handle_event(ev)
            # Storage daemons that joined mid-run are admitted at this safe
            # boundary: ownership re-divides before any entry is built.
            if self._pending_daemons:
                try:
                    self._admit_daemons(epoch)
                except BaseException as err:  # noqa: BLE001 - surfaced below
                    self._recovery_errors.append(err)
        entries = [
            _DaemonEntry(daemon=d, root=str(d.dataset_root), shards=d.shard_filter)
            for d in self.daemons
        ]
        if failover_on:
            self._active = (epoch, entries)
            # A daemon that died outside an epoch (or in an earlier one)
            # owes this epoch its share: fail it over before anything serves.
            for entry in list(entries):
                if entry.daemon.killed:
                    entry.handled = True
                    pub = self._daemon_pubs.get(entry.daemon)
                    if pub is not None:
                        pub.kill()
                    try:
                        self._failover(epoch, entry, entries)
                    except BaseException as err:  # noqa: BLE001 - surfaced below
                        self._recovery_errors.append(err)
            # A node that died in an earlier epoch owes this epoch its
            # partition too: re-target before any daemon serves.
            for node in sorted(self._dead_nodes):
                try:
                    self._failover_receiver(epoch, node, entries)
                except BaseException as err:  # noqa: BLE001 - surfaced below
                    self._recovery_errors.append(err)
            # Receivers that joined at/near the boundary get their fresh
            # re-target before the planned daemons spawn: the whole epoch
            # is still claimable, so the shift is maximally effective.
            pending, self._pending_joins = self._pending_joins, []
            for node in sorted(set(pending)):
                try:
                    self._scale_out_receiver(epoch, node, entries)
                except BaseException as err:  # noqa: BLE001 - surfaced below
                    self._recovery_errors.append(err)
        for entry in entries:
            if entry.thread is None and not entry.handled:
                self._spawn(entry, epoch, skip)
        return entries

    def _end_epoch(self, entries: list[_DaemonEntry]) -> None:
        """Join the epoch's daemons; retire the ones failover spawned."""
        # Entries may have grown (failover); join whatever exists now.
        for entry in list(entries):
            if entry.thread is not None:
                entry.thread.join(timeout=30.0)
        # Keep each root's last observed throughput: an idle daemon's rate
        # no longer counts, but an epoch-start rebalance still wants it.
        if self.view is not None:
            members = self.view.members()
            for entry in entries:
                m = members.get(entry.member_id)
                if m is not None and m.rate > 0:
                    self._root_rates[entry.root] = m.rate
        # Failover daemons serve the epoch that spawned them only: close
        # their streams and let their members leave.
        planned = set(self.daemons)
        for entry in entries:
            if entry.daemon in planned:
                continue
            entry.daemon.close_streams()
            pub = self._daemon_pubs.pop(entry.daemon, None)
            if pub is not None:
                pub.stop()
                self._retired_members.append(pub.member_id)

    def epoch(self, epoch_index: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Serve and consume one epoch end-to-end."""
        self.logger.log("epoch_start", epoch=epoch_index)
        self._notify("epoch_start", epoch=epoch_index)
        self._recovery_errors = []
        if self.ledger is not None and self.ledger.epoch_complete(epoch_index):
            # Compacted checkpoint: everything landed in a previous run.
            self.logger.log("epoch_already_complete", epoch=epoch_index)
            self.logger.log("epoch_end", epoch=epoch_index)
            self._notify("epoch_end", epoch=epoch_index)
            return
        with self._ctl_lock:
            entries = self._start_epoch(epoch_index)
        try:
            if self.num_nodes == 1:
                try:
                    yield from self.receivers[0].epoch(epoch_index)
                except Exception as err:
                    # A failed failover starves the receiver into a stall;
                    # surface the root cause (e.g. FailoverError) over the
                    # symptom.
                    if self._recovery_errors:
                        raise self._recovery_errors[0] from err
                    raise
            else:
                yield from self._merge_receivers(epoch_index)
        finally:
            # From here on events settle as between epochs: no failover
            # can start while the epoch is torn down.
            with self._ctl_lock:
                self._active = None
            self._end_epoch(entries)
        if self._recovery_errors:
            raise self._recovery_errors[0]
        unhandled = [e.error for e in entries if e.error is not None and not e.handled]
        if unhandled:
            # A daemon may die in the last instants of an epoch, after the
            # receivers already consumed everything — the monitor never got
            # a sweep in.  A fully-covered ledger proves the error is moot.
            if self._epoch_covered(epoch_index):
                self.logger.log(
                    "late_daemon_error_ignored",
                    epoch=epoch_index,
                    errors=[repr(err) for err in unhandled],
                )
            else:
                raise unhandled[0]
        if self.num_nodes > 1 and self.ledger is not None and not self._epoch_covered(epoch_index):
            # Single-node epochs surface incompleteness from the receiver
            # itself; merged consumption needs the ledger-level check.
            missing = [
                k for k in sorted(self.plan.keys(epoch=epoch_index))
                if not self.ledger.covered(k)
            ]
            raise RuntimeError(
                f"epoch {epoch_index} incomplete after merge: "
                f"{len(missing)} planned batches undelivered (first: {missing[:3]})"
            )
        if (
            self.ledger is not None
            and self.recovery is not None
            and self.recovery.compact_ledger
            and self._epoch_covered(epoch_index)
        ):
            count = self.ledger.complete_epoch(epoch_index)
            self.logger.log("ledger_compacted", epoch=epoch_index, batches=count)
        self.logger.log("epoch_end", epoch=epoch_index)
        self._notify("epoch_end", epoch=epoch_index)

    def epochs(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Iterate every planned epoch: yields (epoch, tensors, labels)."""
        for e in range(self.config.epochs):
            for tensors, labels in self.epoch(e):
                yield e, tensors, labels

    def storage_stats(self) -> dict:
        """Per-daemon storage-tier snapshots plus a per-tier aggregate.

        The aggregate answers "where did the bytes come from": tier reads
        count requests that actually hit the tier, cache hits are reads
        the hot set absorbed — remote-vs-cached I/O as the energy
        attribution path needs it.
        """
        daemons: list[dict] = []
        tiers: dict[str, dict[str, int]] = {}
        for d in self.daemons + self._failover_daemons:
            snap = d.storage_snapshot()
            snap["root"] = str(d.dataset_root)
            daemons.append(snap)
            agg = tiers.setdefault(
                snap.get("tier", "?"),
                {
                    "reads": 0,
                    "bytes_read": 0,
                    "cache_hits": 0,
                    "cache_misses": 0,
                    "prefetched": 0,
                    "evictions": 0,
                    "prefetch_errors": 0,
                },
            )
            agg["reads"] += snap.get("reads", 0)
            agg["bytes_read"] += snap.get("bytes_read", 0)
            cache = snap.get("cache")
            if cache:
                agg["cache_hits"] += cache.get("hits", 0)
                agg["cache_misses"] += cache.get("misses", 0)
                agg["prefetched"] += cache.get("prefetched", 0)
                agg["evictions"] += cache.get("evictions", 0)
                agg["prefetch_errors"] += cache.get("prefetch_errors", 0)
        return {"daemons": daemons, "tiers": tiers}

    def pipeline_stage_stats(self) -> dict:
        """Per-stage consume-pipeline timing aggregated across receivers.

        Sums each receiver's cumulative stage totals, then reports mean
        per-batch nanoseconds — the deployment-wide view of where a
        consumed batch's time goes (payload decode, preprocess work,
        consumer starvation), plus per-node detail.
        """
        decode_s = preprocess_s = wait_s = 0.0
        decode_batches = batches = 0
        per_node = {}
        for i, r in enumerate(self.receivers):
            snap = r.pipeline_stats.snapshot()
            decode_s += snap["decode_s"]
            preprocess_s += snap["preprocess_s"]
            wait_s += snap["wait_s"]
            decode_batches += snap["decode_batches"]
            batches += snap["batches"]
            per_node[str(i)] = {
                "decode_ns": snap["decode_ns"],
                "preprocess_ns": snap["preprocess_ns"],
                "starved_ns": snap["starved_ns"],
                "batches": snap["batches"],
            }
        return {
            "decode_ns": int(decode_s / decode_batches * 1e9) if decode_batches else 0,
            "preprocess_ns": int(preprocess_s / batches * 1e9) if batches else 0,
            "starved_ns": int(wait_s / batches * 1e9) if batches else 0,
            "batches": batches,
            "workers": self.config.workers,
            "nodes": per_node,
        }

    def stats(self) -> dict[str, dict]:
        # node_id -> transport actually used ("shm"/"tcp"), merged across
        # daemons; an shm attach anywhere on a node means the node got shm.
        transports: dict[int, str] = {}
        for d in self.daemons + self._failover_daemons:
            for node_id, transport in d.transports.items():
                if transports.get(node_id) != "shm":
                    transports[node_id] = transport
        return {
            "daemons": [d.stats.snapshot() for d in self.daemons],
            "failover_daemons": [d.stats.snapshot() for d in self._failover_daemons],
            "gpu": self.receivers[0].gpu.snapshot(),
            "batches_received": sum(r.batches_received for r in self.receivers),
            "duplicates_dropped": sum(r.duplicates_dropped for r in self.receivers),
            "failovers": self.failovers,
            "receiver_failovers": self.receiver_failovers,
            "transports": {str(n): t for n, t in sorted(transports.items())},
            "shm_attaches": sum(r.shm_attaches for r in self.receivers),
            "storage": self.storage_stats(),
            "stages": self.pipeline_stage_stats(),
        }

    def cluster_status(self) -> dict:
        """JSON-able control-plane snapshot (``repro.tools.cluster`` input)."""
        return {
            "membership": self.view.snapshot() if self.view is not None else None,
            "num_nodes": self.num_nodes,
            "dead_nodes": sorted(self._dead_nodes),
            "endpoints": {str(n): list(ep) for n, ep in self._endpoints.items()},
            "ownership": {
                str(d.dataset_root): sorted(d.shard_filter)
                if d.shard_filter is not None
                else "all"
                for d in self.daemons
            },
            "failovers": self.failovers,
            "receiver_failovers": self.receiver_failovers,
            "reassigned_batches": len(self._reassigned),
            "rebalances": self.rebalances,
            "last_rebalance": self._last_rebalance,
        }

    def close(self) -> None:
        """Release resources."""
        if self._monitor_thread is not None:
            self._events.put(_STOP_MONITOR)  # wakes it now, not at a poll
            self._monitor_thread.join(timeout=10.0)
        for pub in [*self._receiver_pubs, *self._join_pubs.values(), *self._daemon_pubs.values()]:
            pub.stop()
        for d in self.daemons + self._failover_daemons:
            d.kill()
        for r in self.receivers:
            r.close()
        for d in self.daemons + self._failover_daemons:
            d.close()
        if self._hb_listener is not None:
            self._hb_listener.close()
        if self.ledger is not None:
            self.ledger.close()

    def __enter__(self) -> "EMLIOService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
