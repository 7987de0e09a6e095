"""EMLIOService — one-call orchestration of planner + daemon(s) + receiver(s).

For examples, tests, and the live benchmarks: wires one or more compute
nodes (receivers) to one or more storage daemons over loopback TCP with
optional latency emulation, serving the configured number of epochs.

For multi-node experiments construct :class:`~repro.core.daemon.EMLIODaemon`
and :class:`~repro.core.receiver.EMLIOReceiver` directly — the service is a
convenience, not the only entry point.

The service is the control plane's *driver*: it owns the threads, sockets,
heartbeat listener, :class:`~repro.core.membership.ClusterView`, daemons
and receivers, and carries out the commands the
:class:`~repro.core.supervisor.Supervisor` decides (failover, scale-out,
epoch-start placement — see :mod:`repro.core.supervisor`).  The data path
lives as long as the deployment: each daemon keeps one stream per receiver
across epochs (see :mod:`repro.core.daemon`), the monitor thread and the
daemons' heartbeat publishers start once, and every serve call and merge
pass runs on a kept lane (:class:`~repro.util.lanes.Lane`) per daemon
member and per receiver — so a steady epoch starts no thread.  A restarted
service with the same config and ledger path resumes mid-epoch; completed
epochs are compacted to one checkpoint line each.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.core.config import EMLIOConfig
from repro.core.daemon import EMLIODaemon
from repro.core.membership import ClusterView, MemberStatus, MembershipEvent
from repro.core.placement import ElasticPolicy, MemberLoad, PlacementEngine
from repro.core.planner import BatchPlan
from repro.core.receiver import EMLIOReceiver, ReceiverKilled
from repro.core.recovery import DeliveryLedger, FailoverError, RecoveryConfig
from repro.core.sendqueue import SendQueue
from repro.core.supervisor import (
    Adopt,
    Bury,
    Claim,
    Kill,
    Notify,
    Observation,
    Relinquish,
    Serve,
    Supervisor,
)
from repro.energy.power_models import BusyWindowTracker
from repro.gpu.device import SimulatedGPU
from repro.gpu.pipeline import PipelineStats
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
from repro.util.lanes import Lane
from repro.util.logging import TimestampLogger

#: Put into the event queue by close(): ends the monitor at once.
_STOP_MONITOR = object()

#: The series the service exports: key -> (kind, name, help, label names).
_SERIES = {
    "bytes_sent": ("counter", "emlio_transport_bytes_sent_total",
                   "Wire bytes pushed by all daemons (original + failover)", ()),
    "bytes_read": ("counter", "emlio_transport_bytes_read_total",
                   "Storage bytes read by all daemons", ()),
    "batches_sent": ("counter", "emlio_transport_batches_sent_total",
                     "Batch payloads pushed by all daemons", ()),
    "shm_attaches": ("counter", "emlio_transport_shm_attaches_total",
                     "Shared-memory ring attaches accepted by receivers", ()),
    "reader_errors": ("counter", "emlio_transport_reader_errors_total",
                      "Receiver socket reader threads that died on an unexpected exception", ()),
    "transport_nodes": ("gauge", "emlio_transport_nodes",
                        "Compute nodes per active daemon→receiver transport", ("transport",)),
    "window": ("gauge", "emlio_transport_window_frames",
               "Credit window of each daemon→node TCP stream set (hwm + link BDP, frames)",
               ("daemon", "node")),
    "link_rtt": ("gauge", "emlio_transport_link_rtt_seconds",
                 "Link RTT each daemon→node TCP stream set measured from its credits",
                 ("daemon", "node")),
    "prefetch_errors": ("counter", "emlio_storage_prefetch_errors_total",
                        "Fetch-window range-GETs that failed (fetch or CRC) per tier", ("tier",)),
    "stage_ns": ("gauge", "emlio_pipeline_stage_ns",
                 "Mean per-batch consume-pipeline stage cost (nanoseconds)", ("stage",)),
    "received": ("counter", "emlio_batches_received_total",
                 "Batch payloads received by all nodes", ()),
    "dupes": ("counter", "emlio_duplicates_dropped_total",
              "Duplicate payloads absorbed by receiver dedup", ()),
    "failovers": ("counter", "emlio_failovers_total",
                  "Successful mid-epoch failovers by member kind", ("kind",)),
    "rebalances": ("counter", "emlio_rebalances_total",
                   "Elastic scale-out load shifts that landed", ()),
    "reassigned": ("gauge", "emlio_ledger_reassigned_batches",
                   "Delivery keys currently re-owned through the reassignment ledger", ()),
    "hb_malformed": ("counter", "emlio_heartbeat_decode_errors_total",
                     "Heartbeat frames the listener could not decode", ()),
    "hb_unknown": ("counter", "emlio_heartbeat_unknown_fields_total",
                   "Heartbeats carrying fields unknown to this version (mixed-version clusters)",
                   ()),
}

#: Per-tier storage totals: name -> its key in a cached tier's "cache"
#: snapshot (None: in the daemon's storage snapshot itself).
_TIER_TOTALS = {
    "reads": None, "bytes_read": None, "cache_hits": "hits", "cache_misses": "misses",
    "prefetched": "prefetched", "evictions": "evictions", "crc_walks": "crc_walks",
    "prefetch_errors": "prefetch_errors",
}

#: Notifications that reach lifecycle observers (the rest are log lines).
_OBSERVED = frozenset(
    {"epoch_start", "epoch_end", "failover", "receiver_failover", "rebalance", "member_event"}
)


@dataclass
class _DaemonEntry:
    """One daemon member's runtime state in the epoch that served it."""

    daemon: EMLIODaemon
    member: str
    publisher: HeartbeatPublisher | None = None
    done: threading.Event | None = None  # set once its serve call returned
    error: BaseException | None = None
    handled: bool = False  # the supervisor killed it and failed it over


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
        self.receivers: list[EMLIOReceiver] = [
            self._make_receiver(i, gpu if i == 0 else None) for i in range(num_nodes)
        ]
        self._endpoints = {i: ("127.0.0.1", r.port) for i, r in enumerate(self.receivers)}
        self._reconnect = recovery.reconnect if recovery is not None else None
        self._cpu_tracker = cpu_tracker
        self._storage_factory = storage_factory
        if storage_shards is None:
            roots: list[tuple[str, set[str] | None]] = [(str(dataset.root), None)]
        else:
            roots = [(root, set(shards)) for root, shards in storage_shards.items()]
            claimed: set[str] = set()
            for _root, shards in roots:
                overlap = claimed & shards
                if overlap:
                    raise ValueError(f"shards owned by two daemons: {sorted(overlap)[:3]}")
                claimed |= shards
            all_shards = {ix.shard for ix in dataset.indexes}
            if claimed != all_shards:
                raise ValueError(f"unserved shards: {sorted(all_shards - claimed)[:3]}")
        failover_on = recovery is not None and recovery.failover
        self.supervisor = Supervisor(
            self.plan, self.ledger, roots,
            policy=self.elastic, logger=self.logger, failover=failover_on,
        )
        self.daemons = [self._make_daemon(root, shards) for root, shards in roots]
        self._failover_daemons: list[EMLIODaemon] = []
        # Daemon members: the last entry each served (planned daemons keep
        # theirs across epochs), and the epoch's entries in serve order.
        planned = zip(self.supervisor.planned, self.daemons)
        self._members = {m: _DaemonEntry(d, m) for m, d in planned}
        self._entries: list[_DaemonEntry] = []
        # Stand-in members of joining roots, beating until admitted.
        self._join_pubs: dict[str, HeartbeatPublisher] = {}
        # Control plane: heartbeat listener + cluster view + event stream.
        self._events: "queue.Queue[MembershipEvent]" = queue.Queue()
        # Members whose lifecycle ended (failover daemons) are forgotten
        # when the next epoch starts so the view stays bounded by live
        # membership (kept one epoch for post-mortem status inspection).
        self._retired_members: list[str] = []
        self.view: ClusterView | None = None
        self._hb_listener: HeartbeatListener | None = None
        self._receiver_pubs: list[HeartbeatPublisher] = []
        # Held around every supervisor call and the commands it returns, so
        # each decision is atomic with respect to an epoch's start and end.
        self._lock = threading.RLock()
        self._monitor_thread: threading.Thread | None = None
        # Kept by name, started on first use: serve lane per daemon member,
        # merge lane per receiver.
        self._lanes: dict[str, Lane] = {}
        if recovery is not None:
            self.view = ClusterView(recovery.membership, on_event=self._events.put)
            self._hb_listener = HeartbeatListener(self.view.observe)
            for i, r in enumerate(self.receivers):
                # Expected up front: a node that dies before its first beat
                # must still be detected (the miss clock starts now).
                self.view.expect(f"receiver:{i}", "receiver")
                self._receiver_pubs.append(self._make_receiver_pub(i, r).start())
            if failover_on:
                self._monitor_thread = threading.Thread(
                    target=self._monitor, daemon=True, name="emlio-monitor"
                )
                self._monitor_thread.start()
        if telemetry is not None and telemetry.registry.enabled:
            self._register_collectors(telemetry.registry)

    failovers = property(lambda self: self.supervisor.failovers,
                         doc="Successful mid-epoch daemon replacements.")
    receiver_failovers = property(lambda self: self.supervisor.receiver_failovers,
                                  doc="Successful mid-epoch receiver re-plans.")
    rebalances = property(lambda self: self.supervisor.rebalances,
                          doc="Elastic scale-out load shifts that landed.")

    def _register_collectors(self, registry) -> None:
        """Export the service's existing counters through the registry.

        One collector callback, run at snapshot/scrape time only, exports
        what :meth:`stats` aggregates — the serving hot paths are
        untouched (see :mod:`repro.obs.metrics`).
        """
        m = {
            key: getattr(registry, kind)(name, help_, labelnames=labels)
            for key, (kind, name, help_, labels) in _SERIES.items()
        }
        tier_counters = {
            name: registry.counter(
                f"emlio_storage_tier_{name}_total",
                f"Storage-tier {name.replace('_', ' ')} per tier",
                labelnames=("tier",),
            )
            for name in _TIER_TOTALS
            if name != "prefetch_errors"  # a _SERIES of its own
        }

        def collect() -> None:
            s = self.stats()
            snaps = s["daemons"] + s["failover_daemons"]
            for key in ("bytes_sent", "bytes_read", "batches_sent"):
                m[key].set(sum(x[key] for x in snaps))
            m["shm_attaches"].set(s["shm_attaches"])
            m["reader_errors"].set(sum(r.pull.reader_errors for r in self.receivers))
            for t in ("shm", "tcp"):
                m["transport_nodes"].labels(transport=t).set(
                    list(s["transports"].values()).count(t)
                )
            for i, d in enumerate(self.daemons + self._failover_daemons):
                for node_id, push in d.streams.items():
                    if isinstance(push, PushSocket):  # a shm ring has no link
                        m["window"].labels(daemon=i, node=node_id).set(push.window)
                        m["link_rtt"].labels(daemon=i, node=node_id).set(push.link_rtt_s)
            for tier, agg in s["storage"]["tiers"].items():
                for name, counter in tier_counters.items():
                    counter.labels(tier=tier).set(agg[name])
                m["prefetch_errors"].labels(tier=tier).set(agg["prefetch_errors"])
            for stage in ("decode", "preprocess", "starved"):
                m["stage_ns"].labels(stage=stage).set(s["stages"][f"{stage}_ns"])
            m["received"].set(s["batches_received"])
            m["dupes"].set(s["duplicates_dropped"])
            m["failovers"].labels(kind="daemon").set(s["failovers"])
            m["failovers"].labels(kind="receiver").set(s["receiver_failovers"])
            m["rebalances"].set(self.rebalances)
            m["reassigned"].set(len(self.ledger.reassignments()) if self.ledger is not None else 0)
            if self._hb_listener is not None:
                m["hb_malformed"].set(self._hb_listener.malformed)
                m["hb_unknown"].set(self._hb_listener.unknown_fields)

        registry.register_collector(collect)

    def _make_receiver(self, node: int, gpu: SimulatedGPU | None = None) -> EMLIOReceiver:
        recovery = self.recovery
        return EMLIOReceiver(
            node_id=node,
            plan=self.plan,
            config=self.config,
            profile=self.profile,
            gpu=gpu,
            stall_timeout=self.stall_timeout,
            ledger=self.ledger,
            dedup=recovery.dedup if recovery is not None else False,
            # None inherits EMLIOConfig.reorder_window (the receiver's fallback).
            reorder_window=recovery.reorder_window if recovery is not None else None,
            preprocess_fn=self._preprocess_fn,
            telemetry=self.telemetry,
        )

    def _make_receiver_pub(self, node: int, r: EMLIOReceiver) -> HeartbeatPublisher:
        return HeartbeatPublisher(
            member_id=f"receiver:{node}",
            role="receiver",
            endpoint=self._hb_listener.address,
            interval_s=self.recovery.membership.interval_s,
            # Consumption-boundary progress: frozen when received
            # frames sit unconsumed, so a wedged consumer trips the
            # hang detector.
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
        (a daemon re-plan), ``receiver_failover``, ``rebalance`` (a join
        landed), and ``member_event`` (every membership transition, info
        mirroring the event fields).  Called synchronously from
        service/monitor threads; exceptions are logged and swallowed so an
        observer can never wedge the pipeline.
        """
        self._observers.append(fn)

    def _announce(self, kind: str, **info) -> None:
        """Write log line ``kind``; observer kinds also reach the observers."""
        self.logger.log(kind, **info)
        for fn in self._observers if kind in _OBSERVED else ():
            try:
                fn(kind, info)
            except Exception as err:  # noqa: BLE001 - observers are untrusted
                self.logger.log("observer_error", kind=kind, error=repr(err))

    def _make_daemon(self, root: str, shards, plan=None) -> EMLIODaemon:
        """A daemon at ``root`` serving ``shards`` of the plan (None: all) —
        or, for a failover daemon, exactly the assignments ``plan``."""
        work = SendQueue(self.plan, shards, plan, dropped=self.supervisor.dead_nodes)
        daemon = EMLIODaemon(
            dataset_root=Path(root),
            plan=self.plan,
            node_endpoints=self._endpoints,
            config=self.config,
            profile=self.profile,
            cpu_tracker=self._cpu_tracker,
            work=work,
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

    # -- elastic membership ----------------------------------------------------

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
        node = len(self.receivers)
        with self._lock:
            self.supervisor.admit_receiver(node, sum(not r.killed for r in self.receivers))
        receiver = self._make_receiver(node)
        self.receivers.append(receiver)
        self._endpoints[node] = ("127.0.0.1", receiver.port)
        self.num_nodes = len(self.receivers)
        # Not expect()ed: the *first beat* must surface as a `joined`
        # event — that event is what triggers the rebalance.
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
        with self._lock:
            self.supervisor.admit_daemon(root, shards)
        member_id = f"daemon:join@{root}"
        self._join_pubs[member_id] = HeartbeatPublisher(
            member_id=member_id,
            role="daemon",
            endpoint=self._hb_listener.address,
            interval_s=self.recovery.membership.interval_s,
            state_fn=lambda: STATE_IDLE,
        ).start()
        self.logger.log("daemon_joining", root=root)

    # -- carrying out supervisor decisions -------------------------------------

    def _observe(self) -> Observation:
        """The load and liveness snapshot one supervisor decision reads."""
        nodes: dict[int, MemberLoad] = {}
        roots: dict[str, MemberLoad] = {}
        members = self.view.members() if self.view is not None else {}
        for mid, m in members.items():
            if m.status in (MemberStatus.DEAD, MemberStatus.LEFT):
                # A corpse's last EWMA must not inflate its root's
                # weight next to the replacement daemon beating there.
                continue
            if m.role == "daemon" and m.state == STATE_IDLE:
                continue  # its rate only decays while it waits
            if m.role == "receiver" and mid.startswith("receiver:"):
                nodes[int(mid.split(":", 1)[1])] = MemberLoad(m.rate, m.queue_depth)
            elif m.role == "daemon" and "@" in mid:
                prev = roots.get(root := mid.split("@", 1)[1], MemberLoad())
                roots[root] = MemberLoad(prev.throughput + m.rate, prev.queue_depth + m.queue_depth)
        # Cache locality comes from the daemons' storage tiers, not from
        # beats: placement needs *which* shards, beats only carry counts.
        hot: dict[str, set[str]] = {}
        for d in self.daemons + self._failover_daemons:
            if not d.killed:
                hot.setdefault(str(d.dataset_root), set()).update(d.hot_shards())
        down = {f"receiver:{i}" for i, r in enumerate(self.receivers) if r.killed}
        # A copy: an epoch's end retires failover members off the lock.
        entries = list(self._members.items())
        down.update(m for m, e in entries if e.daemon.killed or e.error is not None)
        # num_nodes: a joining receiver counts once its endpoint is known.
        return Observation(self.num_nodes, nodes, roots, hot, frozenset(down))

    def _decide(self, ask, *args) -> None:
        """Ask the supervisor (ctl lock held) and carry its decision out:
        commands run in order, a Claim or an Adopt ends a decision and its
        answer fetches the rest.  A command that raises drops the rest; the
        running epoch raises the error at its end (between epochs, logged)."""
        try:
            commands = ask(*args, self._observe()).commands
            while commands:
                for cmd in commands:
                    answer = self._do(cmd)
                if isinstance(commands[-1], Claim):
                    commands = self.supervisor.claimed(answer).commands
                elif isinstance(commands[-1], Adopt):
                    commands = self.supervisor.adopted(answer).commands
                else:
                    commands = ()
        except Exception as err:  # noqa: BLE001 - surfaced by the epoch
            if not self.supervisor.fail(err):
                self.logger.log("monitor_error", error=repr(err))

    def _do(self, cmd):
        """Carry out one command (a Reassign is in the ledger already); a
        Claim or an Adopt returns its answer."""
        match cmd:
            case Serve():
                self._serve(cmd)
            case Kill(member=member):
                entry = self._members[member]
                entry.handled = True
                entry.daemon.kill()
                if entry.publisher is not None:
                    entry.publisher.kill()
            case Bury(node=node):
                self.kill_receiver(node)
                self._endpoints.pop(node, None)
                for d in self.daemons + self._failover_daemons:
                    d.drop_node(node)
            case Relinquish(node=node, keys=keys):
                self.receivers[node].relinquish(keys)
            case Adopt(node=node, n=n):
                return self.receivers[node].adopt(self.supervisor.epoch, n)
            case Claim(keys=keys):
                daemons = self.daemons + self._failover_daemons
                return set().union(*(d.relinquish(keys) for d in daemons if not d.killed))
            case Notify(kind=kind, info=info):
                self._announce(kind, **info)
        return None

    def _serve(self, cmd: Serve) -> None:
        prev = self._members.get(cmd.member)
        if prev is not None:  # a planned daemon: its shards may have moved
            daemon = prev.daemon
            daemon.own(cmd.shards)
        else:
            daemon = self._make_daemon(cmd.root, cmd.shards, plan=cmd.assignments)
            if cmd.assignments is not None:
                self._failover_daemons.append(daemon)
            else:  # a joined root's first epoch: it beats itself now
                self.daemons.append(daemon)
                pub = self._join_pubs.pop(f"daemon:join@{cmd.root}", None)
                if pub is not None:
                    pub.stop()
                    self.view.forget(pub.member_id)
        entry = _DaemonEntry(daemon, cmd.member, prev.publisher if prev is not None else None)
        if self._hb_listener is not None and (entry.publisher is None or entry.publisher.stopped):
            entry.publisher = self._daemon_publisher(daemon, cmd.member)
        self._members[cmd.member] = entry
        self._entries.append(entry)
        entry.done = self._lane(f"emlio-daemon[{cmd.member}]").submit(
            self._run_daemon, entry, self.supervisor.epoch, cmd.skip
        )

    def _lane(self, name: str) -> Lane:
        """The kept lane called ``name``, started on first use."""
        lane = self._lanes.get(name)
        if lane is None:
            lane = self._lanes[name] = Lane(name)
        return lane

    def _daemon_publisher(self, daemon: EMLIODaemon, member: str) -> HeartbeatPublisher:
        """Start the heartbeat publisher a daemon member beats through."""
        self.view.expect(member, "daemon")
        return HeartbeatPublisher(
            member_id=member,
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

    def _run_daemon(self, entry: _DaemonEntry, epoch: int, skip) -> None:
        try:
            entry.daemon.serve_epoch(epoch, skip=skip)
        except BaseException as err:  # noqa: BLE001 - surfaced in epoch()
            entry.error = err
            if entry.publisher is not None:
                entry.publisher.fail(repr(err))  # fast-path death notice

    def _monitor(self) -> None:
        """Feed membership events to the supervisor for the deployment's
        life — liveness comes from the ClusterView only."""
        poll_s = max(0.005, self.recovery.membership.interval_s / 2)
        while True:
            self.view.poll()  # timeout/hang sweeps feed self._events
            try:
                ev = self._events.get(timeout=poll_s)
            except queue.Empty:
                continue
            if ev is _STOP_MONITOR:
                return
            with self._lock:
                self._decide(self.supervisor.event, ev)

    def _consume_pass(
        self, epoch_index: int, receivers: list[EMLIOReceiver]
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """One concurrent drain of the given receivers' epoch streams, each
        on its receiver's merge lane."""
        out: queue.SimpleQueue = queue.SimpleQueue()
        done = object()
        errors: list[BaseException] = []

        def consume(r: EMLIOReceiver) -> None:
            try:
                for item in r.epoch(epoch_index):
                    out.put(item)
            except BaseException as err:  # noqa: BLE001 - surfaced below
                # A killed node's torn epoch is expected — its batches are
                # re-owned; anything else is a real consumer failure.
                if not (isinstance(err, ReceiverKilled) or r.killed):
                    errors.append(err)  # list.append is atomic
            finally:
                out.put(done)

        for r in receivers:
            self._lane(f"emlio-consume{r.node_id}").submit(consume, r)
        remaining = len(receivers)
        while remaining:
            item = out.get()
            if item is done:
                remaining -= 1
                continue
            yield item
        if errors:
            raise errors[0]

    def _merge_receivers(self, epoch_index: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Drive every receiver's epoch, merged — a cluster-wide barrier.

        The epoch ends when every planned batch is *covered*, not when the
        survivors drain their own partitions: a node can die after the
        others already finished consuming, in which case the failure
        detector fires between passes and the re-targeted batches (adopted
        by a receiver whose pass already ended) are drained by a further
        pass.  Gives up when the control plane stops making progress for
        ``stall_timeout``.
        """
        import time as _time

        deadline = _time.monotonic() + self.stall_timeout
        while True:
            alive = [r for r in self.receivers if not r.killed]
            if not alive:
                raise FailoverError(f"every receiver is dead in epoch {epoch_index}")
            for item in self._consume_pass(epoch_index, alive):
                deadline = _time.monotonic() + self.stall_timeout
                yield item
            if not self.supervisor.failover:
                return
            # Wait (bounded) for the control plane: either the epoch turns
            # covered, a failover adopts batches for another pass, or the
            # deadline expires (incompleteness surfaced by the caller).
            while True:
                if self.supervisor.errors or self.supervisor.epoch_covered(epoch_index):
                    return
                if any(r.owes(epoch_index) for r in self.receivers if not r.killed):
                    break  # drain the adopted re-targets in another pass
                if _time.monotonic() > deadline:
                    return
                _time.sleep(0.01)  # detection/re-plan still in flight

    def _start_epoch(self, epoch: int) -> list[_DaemonEntry]:
        """The epoch-start safe boundary (ctl lock held): forget retired
        members, settle the events the monitor has not taken — receiver
        deaths before a stream targets a corpse, joins at their boundary —
        then carry out the supervisor's placement of the epoch."""
        for member_id in self._retired_members:  # only with a heartbeat view
            self.view.forget(member_id)
        self._retired_members.clear()
        if self._monitor_thread is not None:
            while True:
                try:
                    ev = self._events.get_nowait()
                except queue.Empty:
                    break
                if ev is _STOP_MONITOR:
                    self._events.put(ev)
                    break
                self._decide(self.supervisor.event, ev)
        self._entries = []
        self._decide(self.supervisor.start_epoch, epoch)
        return self._entries

    def _end_epoch(self, entries: list[_DaemonEntry]) -> None:
        """Wait for the epoch's serve calls; retire the daemons failover
        spawned."""
        for entry in entries:
            if entry.done is not None:
                entry.done.wait(timeout=30.0)
        # Failover daemons serve the epoch that spawned them only: close
        # their streams and lanes and let their members leave.
        planned = set(self.daemons)
        for entry in entries:
            if entry.daemon in planned:
                continue
            entry.daemon.close_streams()
            lane = self._lanes.pop(f"emlio-daemon[{entry.member}]", None)
            if lane is not None:
                lane.close()
            self._members.pop(entry.member, None)
            if entry.publisher is not None:
                entry.publisher.stop()
                self._retired_members.append(entry.member)

    def epoch(self, epoch_index: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Serve and consume one epoch end-to-end."""
        self._announce("epoch_start", epoch=epoch_index)
        if self.ledger is not None and self.ledger.epoch_complete(epoch_index):
            # Compacted checkpoint: everything landed in a previous run.
            self.logger.log("epoch_already_complete", epoch=epoch_index)
            self._announce("epoch_end", epoch=epoch_index)
            return
        with self._lock:
            entries = self._start_epoch(epoch_index)
        errors = self.supervisor.errors
        try:
            if self.num_nodes == 1:
                yield from self.receivers[0].epoch(epoch_index)
            else:
                yield from self._merge_receivers(epoch_index)
        except Exception as err:
            # A failed failover, or a daemon error nobody failed over,
            # starves the consumers into a stall: raise the cause instead.
            if errors:
                raise errors[0] from err
            unhandled = [e.error for e in entries if e.error is not None and not e.handled]
            if unhandled and not isinstance(err, ReceiverKilled):
                raise unhandled[0] from err
            raise
        finally:
            # From here on events settle as between epochs: no failover
            # can start while the epoch is torn down.
            with self._lock:
                members = self.view.members() if self.view is not None else {}
                self.supervisor.end_epoch({mid: m.rate for mid, m in members.items()})
            self._end_epoch(entries)
        if errors:
            raise errors[0]
        covered = self.supervisor.epoch_covered(epoch_index)
        unhandled = [e.error for e in entries if e.error is not None and not e.handled]
        if unhandled:
            # A daemon may die in the last instants of an epoch, after the
            # receivers already consumed everything — the monitor never got
            # a sweep in.  A fully-covered ledger proves the error is moot.
            if not covered:
                raise unhandled[0]
            self.logger.log(
                "late_daemon_error_ignored",
                epoch=epoch_index,
                errors=[repr(err) for err in unhandled],
            )
        if self.num_nodes > 1 and self.ledger is not None and not covered:
            # Single-node epochs surface incompleteness from the receiver
            # itself; merged consumption needs the ledger-level check.
            keys = self.plan.keys(epoch=epoch_index)
            missing = sorted(keys - self.ledger.covered_set(keys))
            raise RuntimeError(
                f"epoch {epoch_index} incomplete after merge: "
                f"{len(missing)} planned batches undelivered (first: {missing[:3]})"
            )
        if self.ledger is not None and self.recovery.compact_ledger and covered:
            count = self.ledger.complete_epoch(epoch_index)
            self.logger.log("ledger_compacted", epoch=epoch_index, batches=count)
        self._announce("epoch_end", epoch=epoch_index)

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
            agg = tiers.setdefault(snap.get("tier", "?"), dict.fromkeys(_TIER_TOTALS, 0))
            cache = snap.get("cache") or {}
            for name, key in _TIER_TOTALS.items():
                agg[name] += snap.get(name, 0) if key is None else cache.get(key, 0)
        return {"daemons": daemons, "tiers": tiers}

    def pipeline_stage_stats(self) -> dict:
        """Per-stage consume-pipeline timing aggregated across receivers.

        Sums each receiver's cumulative stage totals, then reports mean
        per-batch nanoseconds — the deployment-wide view of where a
        consumed batch's time goes (payload decode, preprocess work,
        consumer starvation), plus per-node detail.
        """
        totals = dict.fromkeys(
            ("decode_s", "decode_batches", "preprocess_s", "wait_s", "batches"), 0
        )
        per_node = {}
        for i, r in enumerate(self.receivers):
            snap = r.pipeline_stats.snapshot()
            for name in totals:
                totals[name] += snap[name]
            per_node[str(i)] = {
                name: snap[name]
                for name in ("decode_ns", "preprocess_ns", "starved_ns", "batches")
            }
        return {
            **PipelineStats(**totals).per_batch_ns(),
            "batches": totals["batches"],
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
            "dead_nodes": sorted(self.supervisor.dead_nodes),
            "endpoints": {str(n): list(ep) for n, ep in self._endpoints.items()},
            "ownership": {
                str(d.dataset_root): sorted(d.shard_filter)
                if d.shard_filter is not None else "all"
                for d in self.daemons
            },
            "failovers": self.failovers,
            "receiver_failovers": self.receiver_failovers,
            "reassigned_batches": (
                len(self.ledger.reassignments()) if self.ledger is not None else 0
            ),
            "rebalances": self.rebalances,
            "last_rebalance": self.supervisor.last_rebalance,
        }

    def close(self) -> None:
        """Release resources."""
        if self._monitor_thread is not None:
            self._events.put(_STOP_MONITOR)  # wakes it now, not at a poll
            self._monitor_thread.join(timeout=10.0)
        daemon_pubs = [e.publisher for e in self._members.values() if e.publisher is not None]
        for pub in [*self._receiver_pubs, *self._join_pubs.values(), *daemon_pubs]:
            pub.stop()
        for d in self.daemons + self._failover_daemons:
            d.kill()
        for r in self.receivers:
            r.close()
        for d in self.daemons + self._failover_daemons:
            d.close()
        lanes, self._lanes = self._lanes, {}
        for lane in lanes.values():
            lane.close()
        if self._hb_listener is not None:
            self._hb_listener.close()
        if self.ledger is not None:
            self.ledger.close()

    def __enter__(self) -> "EMLIOService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
