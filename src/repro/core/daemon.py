"""EMLIO Daemon — the storage-side service (Algorithm 2 lines 6–8 + SendWorker).

One daemon runs next to each storage node's shards and keeps one PUSH
stream per compute node for as long as it lives: opened on first serve,
reused by every later epoch, closed when the node is dropped, the daemon
is killed or closed, or a send on it fails (the next epoch reconnects).

What it still owes lives in one :class:`~repro.core.sendqueue.SendQueue`
for the deployment; the daemon is its driver, holding one lock around each
queue call and doing the I/O.  Per epoch each node's batches are split
round-robin over ``T`` SendWorkers — the calling thread runs one, the
daemon's kept send lanes the others — and each worker, for every batch the
queue lets it commit to:

1. range-reads the ``count`` records at ``offset`` through its storage tier
   (:mod:`repro.storage.backend`: the local tier ``mmap``-slices, remote
   tiers fetch the planned range in one request and CRC-verify locally);
2. serializes them into one :class:`~repro.serialize.payload.BatchPayload`,
   stamped with the per-(epoch, node) sequence number the receiver dedups on;
3. PUSHes it — the socket's HWM provides the back-off (paper §4.5), so
   batch *k+1* is read while batch *k* is in flight.

Recovery (see :mod:`repro.core.recovery`): with a
:class:`~repro.net.mq.ReconnectPolicy` the PUSH streams reconnect and
replay unacknowledged batches (at-least-once; the receiver dedups).
``serve_epoch`` skips already-delivered keys and aggregates *all* worker
errors into an :class:`~repro.core.recovery.EpochServeError`;
:meth:`EMLIODaemon.kill` stops a daemon mid-epoch like a crash.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection

from repro.core.config import EMLIOConfig
from repro.core.planner import BatchAssignment, BatchPlan
from repro.core.recovery import DaemonKilled, EpochServeError, NodeUnreachable
from repro.core.sendqueue import SendQueue
from repro.energy.power_models import BusyWindowTracker
from repro.net.emulation import NetworkProfile
from repro.net.mq import PushSocket, ReconnectPolicy
from repro.net.buffers import ColumnarSamples
from repro.net.shm import ShmHandshakeRefused, ShmPushSocket, shm_eligible
from repro.serialize.payload import BatchPayload, encode_batch_parts, stamp_trace
from repro.storage.backend import (
    LocalFSBackend,
    ShardHandle,
    StorageBackend,
    parse_record_block,
)
from repro.tfrecord.sharder import scan_example_spans, unpack_example
from repro.util.clock import MonotonicClock
from repro.util.lanes import Lane
from repro.util.logging import TimestampLogger

_KILL_POLL_S = 0.002  # back-off while a killable send waits for HWM room
_CLOSE_FLUSH_S = 5.0  # close()'s bound on flushing the streams


@dataclass
class DaemonStats:
    """Per-daemon I/O accounting."""

    batches_sent: int = 0
    samples_sent: int = 0
    bytes_read: int = 0
    bytes_sent: int = 0
    read_s: float = 0.0
    serialize_s: float = 0.0
    # Liveness ticks: bumped on every voluntary scheduling point (including
    # HWM backpressure polls), so heartbeat progress keeps advancing while
    # the daemon is merely throttled — only a truly stuck daemon freezes.
    # Advisory counter: written without the lock (single writer per wait
    # loop; torn reads are harmless).
    ticks: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def tick(self) -> None:
        self.ticks += 1

    def record(self, samples: int, bytes_read: int, bytes_sent: int, read_s: float, ser_s: float) -> None:
        with self._lock:
            self.batches_sent += 1
            self.samples_sent += samples
            self.bytes_read += bytes_read
            self.bytes_sent += bytes_sent
            self.read_s += read_s
            self.serialize_s += ser_s

    def snapshot(self) -> dict[str, float]:
        """Point-in-time copy of the counters.

        ``bytes_sent``/``bytes_read``/``batches_sent`` are summed across
        daemons into ``emlio_transport_{bytes_sent,bytes_read,batches_sent}_total``;
        the cumulative ``read_s``/``serialize_s`` have per-batch histogram
        twins ``emlio_daemon_read_seconds`` / ``emlio_daemon_serialize_seconds``
        (:mod:`repro.obs.metrics`).
        """
        with self._lock:
            return {
                "batches_sent": self.batches_sent,
                "samples_sent": self.samples_sent,
                "bytes_read": self.bytes_read,
                "bytes_sent": self.bytes_sent,
                "read_s": self.read_s,
                "serialize_s": self.serialize_s,
                "ticks": self.ticks,
            }


class EMLIODaemon:
    """Serves one storage node's share of the batch plan to compute nodes.

    Parameters
    ----------
    dataset_root:
        Directory containing this node's TFRecord shards.
    plan:
        The global batch plan.
    node_endpoints:
        ``node_id -> (host, port)`` of each compute node's PULL socket.
    config:
        HWM, threads T, streams per node.
    profile:
        Egress shaping (storage → compute direction).
    cpu_tracker:
        Optional busy tracker feeding the storage node's power model.
    work:
        The :class:`~repro.core.sendqueue.SendQueue` this daemon serves;
        ``None`` serves the whole plan.
    reconnect:
        PUSH-stream reconnect policy; ``None`` dies on the first transport
        error (pre-recovery behaviour).
    fault_injector:
        Chaos hook called as ``fault_injector(assignment, push)`` before
        each batch is sent — tests use it to drop connections or kill the
        daemon at a deterministic point in the epoch.
    backend:
        Storage tier the daemon reads shards through
        (:class:`~repro.storage.backend.StorageBackend`).  ``None`` uses
        the local mmap fast path over ``dataset_root`` — byte-identical
        to the pre-tier behaviour.  The daemon owns the backend and
        closes it on :meth:`close`.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`.  Feeds per-batch
        read/serialize histograms (from the deltas the stats path already
        times — no extra clock reads) and, when tracing is configured,
        makes this daemon the trace *origin*: it decides sampling per
        batch, stamps the mark into the payload meta
        (:func:`~repro.serialize.payload.stamp_trace`), and emits the
        ``read``/``encode``/``send`` spans.
    """

    def __init__(
        self,
        dataset_root: str | Path,
        plan: BatchPlan,
        node_endpoints: dict[int, tuple[str, int]],
        config: EMLIOConfig,
        profile: NetworkProfile | None = None,
        cpu_tracker: BusyWindowTracker | None = None,
        logger: TimestampLogger | None = None,
        work: SendQueue | None = None,
        reconnect: ReconnectPolicy | None = None,
        fault_injector: Callable[[BatchAssignment, PushSocket], None] | None = None,
        backend: StorageBackend | None = None,
        telemetry=None,
    ) -> None:
        self.dataset_root = Path(dataset_root)
        self.node_endpoints = dict(node_endpoints)
        self.config = config
        self.profile = profile
        self.cpu_tracker = cpu_tracker
        self.logger = logger or TimestampLogger(name="daemon")
        self.work = work if work is not None else SendQueue(plan)
        self._work_lock = threading.Lock()  # around every self.work call
        self.reconnect = reconnect
        self.fault_injector = fault_injector
        self.stats = DaemonStats()
        self._tracer = telemetry.tracer("daemon") if telemetry is not None else None
        if telemetry is not None and telemetry.registry.enabled:
            self._read_hist = telemetry.registry.histogram(
                "emlio_daemon_read_seconds",
                "Per-batch storage-tier read time at the daemon",
            )
            self._ser_hist = telemetry.registry.histogram(
                "emlio_daemon_serialize_seconds",
                "Per-batch payload serialize time at the daemon",
            )
        else:
            self._read_hist = self._ser_hist = None
        self._clock = MonotonicClock()
        self._killed = threading.Event()
        self._hung = threading.Event()
        self._serving = False
        # node_id -> the long-lived PUSH stream to it (see module docstring).
        self._pushes: dict[int, PushSocket | ShmPushSocket] = {}
        self._pushes_lock = threading.Lock()
        # node_id -> "shm" | "tcp": the transport the last connect actually
        # used (shm attach can fall back to TCP; observability needs truth).
        self.transports: dict[int, str] = {}
        self.backend = (
            backend
            if backend is not None
            else LocalFSBackend(self.dataset_root, verify=config.verify_reads)
        )
        # Shard handles, most-recently-used last; bounded by
        # config.max_open_shards (each localfs handle pins an fd + mmap).
        self._readers: OrderedDict[str, ShardHandle] = OrderedDict()
        self._readers_in_use: Counter[str] = Counter()
        self._readers_lock = threading.Lock()
        self._lanes: list[Lane] = []  # send lanes beyond the calling thread's
        for node_id in {a.node_id for a in self.work.assignments}:
            if node_id not in self.node_endpoints:
                raise ValueError(f"plan targets node {node_id} with no endpoint")

    @property
    def killed(self) -> bool:
        """Whether :meth:`kill` was invoked."""
        return self._killed.is_set()

    @property
    def serving(self) -> bool:
        """Whether a :meth:`serve_epoch` call is running (heartbeat state)."""
        return self._serving

    def kill(self) -> None:
        """Declare this daemon dead, abruptly.

        Send workers abort at their next batch (or mid-backpressure wait)
        with :class:`DaemonKilled`; every stream closes without a flush —
        here when idle, else as the serve call unwinds — so queued-but-
        unsent messages are dropped: the transport-level signature of a
        crashed storage node.  The supervisor re-plans the undelivered
        batches through the placement engine.
        """
        self._killed.set()
        if not self._serving:
            self.close_streams()

    @property
    def hung(self) -> bool:
        """Whether :meth:`hang` was invoked (and not undone)."""
        return self._hung.is_set()

    def hang(self) -> None:
        """Chaos hook: the daemon stops making progress *without* crashing.

        Send workers spin in place — threads alive, no errors raised, no
        batches sent.  Thread-state watchdogs are blind to this; heartbeat
        progress tracking (see :mod:`repro.core.membership`) is not.
        """
        self._hung.set()

    @property
    def shard_filter(self) -> frozenset[str] | None:
        """The plan shards this daemon owns (None: all, or an explicit list)."""
        return self.work.shards

    def own(self, shards: set[str] | None) -> None:
        """Serve ``shards`` of the plan (an epoch start re-divided them)."""
        with self._work_lock:
            self.work.own(shards)

    def relinquish(self, keys: Collection[tuple[int, int, int]]) -> set[tuple[int, int, int]]:
        """Give up delivery keys owned here and not yet committed by a send
        worker (a scale-out ``Claim``): only the returned ones may be
        re-targeted, and they are never served here again."""
        with self._work_lock:
            claimed = self.work.claim(keys)
        if claimed:
            self.logger.log("batches_relinquished", count=len(claimed))
        return claimed

    def drop_node(self, node_id: int) -> None:
        """Stop serving one compute node mid-epoch (it was declared dead).

        Workers skip the node's remaining assignments, abandon sends stuck
        waiting for its credits, and treat its transport errors as expected
        — the control plane re-targets the node's undelivered batches, so
        losing them here is not a failure of *this* daemon.  The stream to
        the node closes without a flush.
        """
        # Marked dropped before the stream is taken, so a racing connect
        # in _stream() sees the drop and closes its new stream itself.
        with self._work_lock:
            self.work.drop(node_id)
        with self._pushes_lock:
            push = self._pushes.pop(node_id, None)
        if push is not None:
            push.close(timeout=0.0)

    def _is_dropped(self, node_id: int) -> bool:
        with self._work_lock:
            return self.work.has_dropped(node_id)

    @property
    def streams(self) -> dict[int, PushSocket | ShmPushSocket]:
        """node_id → the open long-lived stream to it (a snapshot)."""
        with self._pushes_lock:
            return dict(self._pushes)

    def close_streams(self, timeout: float = 0.0) -> None:
        """Close every stream, flushing each for at most ``timeout`` s."""
        with self._pushes_lock:
            pushes = list(self._pushes.values())
            self._pushes.clear()
        for push in pushes:
            push.close(timeout=timeout)

    def _stream(self, node_id: int) -> PushSocket | ShmPushSocket | None:
        """The node's long-lived stream, connected on first use.

        A cached stream that died since its last send (the peer closed it
        and no reconnect policy healed it) is replaced by a fresh connect.
        ``None`` when the node is dropped before the connect lands;
        raises :class:`NodeUnreachable` / :class:`DaemonKilled` like
        :meth:`_connect_push`.
        """
        with self._pushes_lock:
            push = self._pushes.get(node_id)
            stale = push is not None and not push.alive
            if stale:
                del self._pushes[node_id]
        if stale:
            push.close(timeout=0.0)
        elif push is not None:
            return push
        host, port = self.node_endpoints[node_id]
        push = self._connect_push(host, port, node_id)
        if push is None:
            return None
        # A kill or drop racing the connect must not leave a stream behind.
        with self._pushes_lock:
            keep = not (self._killed.is_set() or self._is_dropped(node_id))
            if keep:
                self._pushes[node_id] = push
        if keep:
            return push
        push.close(timeout=0.0)
        if self._killed.is_set():
            raise DaemonKilled(f"daemon killed connecting to node {node_id}")
        return None

    def _evict_readers_locked(self, keep: str = "") -> None:
        """Close least-recently-used idle handles beyond ``max_open_shards``."""
        if len(self._readers) <= self.config.max_open_shards:
            return
        for path in list(self._readers):  # LRU first
            if len(self._readers) <= self.config.max_open_shards:
                return
            if path == keep or self._readers_in_use[path] > 0:
                continue  # in use right now; retried on the next release
            self._readers.pop(path).close()

    def _handle_locked(self, shard_path: str) -> ShardHandle:
        handle = self._readers.get(shard_path)
        if handle is None:
            handle = self.backend.open_shard(shard_path)
            self._readers[shard_path] = handle
        else:
            self._readers.move_to_end(shard_path)
        self._evict_readers_locked(keep=shard_path)
        return handle

    def _reader(self, shard_path: str) -> ShardHandle:
        """One shared shard handle per shard file, LRU-bounded."""
        with self._readers_lock:
            return self._handle_locked(shard_path)

    def _acquire_reader(self, shard_path: str) -> ShardHandle:
        """Get a handle pinned against LRU eviction until release.

        Pinning only needs to cover the ``read_region`` call itself: once
        the region (a view or a fetched block) exists it keeps the
        underlying buffer alive on its own, so a later LRU close cannot
        invalidate in-flight batches.
        """
        with self._readers_lock:
            handle = self._handle_locked(shard_path)
            self._readers_in_use[shard_path] += 1
            return handle

    def _release_reader(self, shard_path: str) -> None:
        with self._readers_lock:
            self._readers_in_use[shard_path] -= 1
            if self._readers_in_use[shard_path] <= 0:
                del self._readers_in_use[shard_path]
            self._evict_readers_locked()

    def schedule_prefetch(self, start_epoch: int = 0) -> int:
        """Feed the serve order from ``start_epoch`` on to the backend's cache:
        a :class:`~repro.storage.cache.CachedBackend` runs its fetch window
        along the exact ranges this daemon will read, and orders eviction
        by next planned use.  Tiers without a cache are not fed."""
        if type(self.backend).schedule_prefetch is StorageBackend.schedule_prefetch:
            return 0
        with self._work_lock:
            ranges = self.work.ranges(start_epoch)
        return self.backend.schedule_prefetch(ranges)

    def cache_counters(self) -> tuple[int, int, int]:
        """``(cache_hits, cache_misses, fetches_in_flight)`` for heartbeats."""
        return self.backend.cache_counters()

    def hot_shards(self) -> set[str]:
        """Shard paths whose bytes sit in this daemon's cache tier."""
        return self.backend.hot_shards()

    def storage_snapshot(self) -> dict:
        """Storage-tier counters (reads, bytes, cache) plus open handles."""
        snap = self.backend.snapshot()
        with self._readers_lock:
            snap["open_shards"] = len(self._readers)
        return snap

    def warm(self) -> None:
        """Pre-open this daemon's shard readers (mmap + verify-at-open).

        Called at deploy time so the one-time attach cost — and, under
        ``verify_reads="open"``, the whole-shard CRC walk — does not land
        inside the first served epoch.  Failures are deliberately left for
        ``serve_epoch``: a corrupt or missing shard must fail the epoch it
        would have served, with the epoch path's error reporting.
        """
        self.schedule_prefetch(start_epoch=0)
        order = self.work.assignments
        for shard_path in sorted({a.shard_path for a in order}):
            try:
                self._reader(shard_path)
            except (OSError, ValueError):
                pass  # surfaces again, properly, on the serve path
        # Throwaway serialize of the first batch: the encoder's first-call
        # costs (packer setup, buffer growth) land here rather than inside
        # the first epoch's send loop.  Discarded, not sent.
        if order:
            a = order[0]
            try:
                samples, labels = self._read_batch(a, self._reader(a.shard_path))
                encode_batch_parts(
                    BatchPayload(
                        epoch=a.epoch,
                        batch_index=a.batch_index,
                        shard=a.shard,
                        samples=samples,
                        labels=labels,
                        node_id=a.node_id,
                        seq=a.batch_index,
                    )
                )
            except (OSError, ValueError):
                pass  # surfaces again, properly, on the serve path

    def _connect_push(self, host: str, port: int, node_id: int) -> PushSocket | None:
        """Open the PUSH socket to one node, retrying refused connections.

        A node mid-crash refuses connections before the control plane
        declares it dead; retrying on the reconnect-policy schedule gives
        the declaration time to land.  Returns ``None`` when the node is
        dropped while retrying; raises :class:`NodeUnreachable` when the
        policy is exhausted first (or :class:`DaemonKilled` when this
        daemon dies mid-retry).
        """
        cfg = self.config
        policy = self.reconnect
        attempts = (policy.max_retries if policy is not None else 0) + 1
        delay = policy.base_delay_s if policy is not None else 0.0
        want_shm = shm_eligible(cfg.transport, host, self.profile)
        while True:
            if self._killed.is_set():
                raise DaemonKilled(f"daemon killed connecting to node {node_id}")
            if self._is_dropped(node_id):
                return None
            try:
                if want_shm:
                    try:
                        push = ShmPushSocket(
                            host, port, hwm=cfg.hwm, ring_bytes=cfg.shm_ring_bytes
                        )
                    except ShmHandshakeRefused as err:
                        # The endpoint is up but won't share memory with us
                        # (different host, attach failure…) — fall back to
                        # TCP for this node instead of burning retries.
                        self.logger.log("shm_fallback", node=node_id, reason=str(err))
                        want_shm = False
                        continue
                    self.transports[node_id] = "shm"
                    return push
                push = PushSocket(
                    [(host, port)],
                    hwm=cfg.hwm,
                    profile=self.profile,
                    streams_per_endpoint=cfg.streams_per_node,
                    reconnect=self.reconnect,
                )
                self.transports[node_id] = "tcp"
                return push
            except OSError as err:
                attempts -= 1
                if attempts <= 0:
                    raise NodeUnreachable(node_id, f"connect to node {node_id}: {err}") from err
                self.stats.tick()
                self._clock.sleep(delay)
                delay = min(delay * 2 if delay > 0 else 0.02, policy.max_delay_s)

    def _push(self, parts: list, push: PushSocket, node_id: int) -> bool:
        """HWM-backpressured send that stays killable while blocked.

        Returns False when the target node was dropped mid-wait (its batch
        is abandoned for the control plane to re-target).  Raises
        :class:`NodeUnreachable` when every stream to a still-wanted node
        is dead.  A send on a stream that :meth:`kill` or :meth:`drop_node`
        closed under us raises RuntimeError; so does a bug, which stays one.
        """
        while True:
            try:
                if push.try_send_parts(parts):
                    return True
            except (ConnectionError, RuntimeError) as err:
                if not (isinstance(err, ConnectionError) or push.closed):
                    raise
                if self._killed.is_set():
                    raise DaemonKilled("daemon killed while sending") from err
                if self._is_dropped(node_id):
                    return False
                raise NodeUnreachable(node_id, f"node {node_id}: {err}") from err
            if self._killed.is_set():
                raise DaemonKilled("daemon killed while waiting for send credit")
            if self._is_dropped(node_id):
                return False
            self.stats.tick()  # throttled-but-alive, for heartbeat progress
            self._clock.sleep(_KILL_POLL_S)

    def _read_batch(self, a: BatchAssignment, reader: ShardHandle):
        """Read one assignment's samples + labels through the tier.

        Columnar fast path: one ``read_region`` of the planned byte range,
        one framing scan — the batch goes out as a
        :class:`~repro.net.buffers.ColumnarSamples` over the region itself,
        so the encoder emits O(1) segments and nothing walks the records in
        Python.  A region the scanner rejects is parsed per record: an
        unknown layout is then decoded record by record, and a CRC failure
        raises :class:`~repro.tfrecord.reader.TFRecordCorruption` naming
        the shard and the absolute offset.  Either way the tier is read
        once.
        """
        region, needs_verify = reader.read_region(a.offset, a.count, a.nbytes)
        try:
            offsets, labels = scan_example_spans(region, a.count, verify=needs_verify)
            return ColumnarSamples(region, offsets), labels
        except ValueError:
            # An unknown layout, or a CRC failure: walking the same region
            # per record parses the one and names the shard and absolute
            # offset of the other.
            records = parse_record_block(
                region, a.count, needs_verify, shard_path=a.shard_path, offset=a.offset
            )
        samples = []
        labels = []
        for record in records:
            sample, label = unpack_example(record, zero_copy=True)
            samples.append(sample)
            labels.append(label)
        return samples, labels

    def _send_worker(self, assignments: list[BatchAssignment], push: PushSocket) -> None:
        """The paper's SendWorker: mmap-slice, serialize, PUSH."""
        for a in assignments:
            while self._hung.is_set():  # chaos: alive, beating, useless
                if self._killed.is_set():
                    raise DaemonKilled("daemon killed while hung")
                self._clock.sleep(_KILL_POLL_S)
            if self._killed.is_set():
                raise DaemonKilled(f"daemon killed before batch (epoch={a.epoch}, index={a.batch_index})")
            # The one policy call per batch: claimed by a rebalance or for
            # a dropped node means it is no longer owed here.
            with self._work_lock:
                owed = self.work.commit(a)
            if not owed:
                continue
            if self.fault_injector is not None:
                self.fault_injector(a, push)
            # Trace origin: the sampling decision is made here, once, from
            # the delivery key (seq == batch_index) — see repro.obs.trace.
            # Wall clocks are read only for sampled batches.
            tracer = self._tracer
            sampled = tracer is not None and tracer.sampled(
                a.epoch, a.node_id, a.batch_index
            )
            w0 = time.time_ns() if sampled else 0
            t0 = self._clock.now()
            reader = self._acquire_reader(a.shard_path)
            try:
                # Zero-copy serve path: views over the tier's buffer
                # (mmap'ed shard or fetched block) — one contiguous region
                # under the columnar schema, per-record sub-views otherwise.
                # The views keep that buffer alive on their own, so the
                # transport may replay them even after the handle is
                # LRU-evicted.
                samples, labels = self._read_batch(a, reader)
            finally:
                self._release_reader(a.shard_path)
            t1 = self._clock.now()
            w1 = time.time_ns() if sampled else 0
            if tuple(labels) != a.labels:
                raise RuntimeError(
                    f"shard {a.shard} labels diverge from plan at batch "
                    f"(epoch={a.epoch}, node={a.node_id}, index={a.batch_index})"
                )
            parts = encode_batch_parts(
                BatchPayload(
                    epoch=a.epoch,
                    batch_index=a.batch_index,
                    shard=a.shard,
                    samples=samples,
                    labels=labels,
                    node_id=a.node_id,
                    meta=stamp_trace() if sampled else {},
                    seq=a.batch_index,
                )
            )
            nbytes = sum(len(p) for p in parts)
            t2 = self._clock.now()
            w2 = time.time_ns() if sampled else 0
            # HWM backpressure applies here; False = node dropped mid-wait.
            if not self._push(parts, push, a.node_id):
                continue
            if sampled:
                w3 = time.time_ns()
                key = (a.epoch, a.node_id, a.batch_index)
                tracer.span(key, "read", w0, w1)
                tracer.span(key, "encode", w1, w2)
                tracer.span(key, "send", w2, w3, nbytes=nbytes)
            if self._read_hist is not None:
                # Histograms reuse the stats path's monotonic deltas — no
                # extra clock reads on the unsampled hot path.
                self._read_hist.observe(t1 - t0)
                self._ser_hist.observe(t2 - t1)
            if self.cpu_tracker is not None:
                self.cpu_tracker.add_busy(t2 - t0)
            self.stats.record(
                samples=len(samples),
                bytes_read=a.nbytes,
                bytes_sent=nbytes,
                read_s=t1 - t0,
                ser_s=t2 - t1,
            )
            self.logger.log(
                "batch_send", epoch=a.epoch, node=a.node_id, index=a.batch_index,
                nbytes=nbytes,
            )

    def serve_epoch(
        self, epoch: int, skip: Collection[tuple[int, int, int]] | None = None
    ) -> None:
        """Send every assigned batch of one epoch to all compute nodes.

        Returns once every batch has been handed to its node's stream; the
        receiver's window, not a flush here, is the epoch barrier.
        Algorithm 2 lines 6–8: per node, split into T work lists; the
        calling thread runs the first, the daemon's kept send lanes the
        rest (started on first use, stopped by :meth:`close`).

        ``skip`` holds ``(epoch, node_id, seq)`` delivery keys to omit —
        the resume/failover path sends only what a ledger says is still
        owed.  A failed node's stream is closed, so the next epoch
        reconnects.  A single worker failure is re-raised as-is; multiple
        worker failures are aggregated into one :class:`EpochServeError`
        so no diagnosis is lost.
        """
        cfg = self.config
        self.logger.log("epoch_start", epoch=epoch)
        self._serving = True
        try:
            with self._work_lock:
                per_node = self.work.serve(epoch, skip)
            # Re-feed the plan from this epoch forward: prefetch runs ahead
            # of the serve loop and eviction lookahead stays aligned.
            self.schedule_prefetch(start_epoch=epoch)
            work: list[tuple[int, list[BatchAssignment], PushSocket | ShmPushSocket]] = []
            errors: list[tuple[int, BaseException]] = []
            for node_id, assignments in per_node.items():
                try:
                    push = self._stream(node_id)
                except NodeUnreachable as err:
                    errors.append((node_id, err))
                    continue
                if push is None:  # node dropped meanwhile
                    continue
                for t in range(cfg.daemon_threads):
                    split = assignments[t :: cfg.daemon_threads]
                    if split:
                        work.append((node_id, split, push))

            def run(node_id, split, push) -> None:
                try:
                    self._send_worker(split, push)
                except BaseException as err:  # noqa: BLE001 - propagate to caller
                    errors.append((node_id, err))  # list.append is atomic

            while len(self._lanes) < len(work) - 1:
                self._lanes.append(Lane(f"emlio-send-{len(self._lanes)}"))
            done = [lane.submit(run, *w) for lane, w in zip(self._lanes, work[1:])]
            if work:
                run(*work[0])
            for d in done:
                d.wait()
        finally:
            self._serving = False
            if self._killed.is_set():  # kill() left the streams to us
                self.close_streams()
        # A stream that failed a send reconnects next epoch.
        for node_id in {node_id for node_id, _err in errors}:
            with self._pushes_lock:
                push = self._pushes.pop(node_id, None)
            if push is not None:
                push.close(timeout=0.0)
        # A dropped node's unreachability is expected, not a daemon fault
        # (checked post-join: the drop may land after the error was raised).
        errors = [e for _node, e in errors
                  if not (isinstance(e, NodeUnreachable) and self._is_dropped(e.node_id))]
        if len(errors) == 1:
            raise errors[0]
        if errors:
            raise EpochServeError(f"{len(errors)} send workers failed in epoch {epoch}", errors)
        self.logger.log("epoch_end", epoch=epoch)

    def close(self) -> None:
        """Release resources: flush the streams (bounded), then close them,
        the send lanes, the shard handles and the storage tier."""
        self.close_streams(timeout=_CLOSE_FLUSH_S)
        lanes, self._lanes = self._lanes, []
        for lane in lanes:
            lane.close()
        with self._readers_lock:
            for reader in self._readers.values():
                reader.close()
            self._readers.clear()
            self._readers_in_use.clear()
        self.backend.close()
