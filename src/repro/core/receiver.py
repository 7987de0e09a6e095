"""EMLIO Receiver — Algorithm 3.

Per compute node:

1. bind a PULL socket on ``(ip, port)`` (line 1);
2. the provider unpacks each msgpack payload as it takes the frame off the
   socket, on the pipeline's worker (line 2, :meth:`_next_payload`);
3. a DALI-like pipeline with that ``BatchProvider`` as external source and
   prefetch depth ``Q`` (line 3), warmed up with ``Q`` iterations (line 4);
4. :meth:`epoch` iterates ``pipe.run()`` until the epoch owes nothing
   (lines 5–9).

Each pass builds its pipeline over ``config.workers`` kept lanes, started
by the first pass and stopped by :meth:`close`: no pass starts a thread.

What the node still expects lives in one
:class:`~repro.core.deliverywindow.DeliveryWindow` for the deployment: each
epoch's expectation (planned − ledger-covered − relinquished + adopted),
dedup of an at-least-once transport's replays, the reorder heap,
future-epoch holds and the emitted order.  The receiver is its driver: it
holds one lock around each window call, nets the plan against the
:class:`~repro.core.recovery.DeliveryLedger` when an epoch opens, and
records each batch in the ledger as it reaches the consumer, so a restart
resumes with only the residual.
"""

from __future__ import annotations

import collections
import logging
import queue
import threading
import time
from typing import Iterable, Iterator

import numpy as np

from repro.core.config import EMLIOConfig
from repro.core.deliverywindow import DeliveryWindow
from repro.core.planner import BatchPlan
from repro.core.provider import BatchProvider
from repro.core.recovery import DeliveryLedger
from repro.gpu.device import SimulatedGPU
from repro.gpu.pipeline import EndOfData, Pipeline, PipelineStats
from repro.net.buffers import PooledFrame, release_samples
from repro.net.emulation import NetworkProfile
from repro.net.framing import ConnectionClosed
from repro.net.mq import PullSocket
from repro.serialize.payload import BatchPayload, decode_batch, trace_stamped
from repro.util.lanes import Lane
from repro.util.logging import TimestampLogger

_log = logging.getLogger(__name__)

#: Bound on the remembered trace-sampled delivery keys (epoch, seq) —
#: recv-side bookkeeping between the provider and the consume loop.
#: Keys pop as their batches are consumed; the bound only matters when a
#: traced batch is dropped (dedup, relinquish) and never consumed.
_SAMPLED_KEYS_BOUND = 4096


class ReceiverKilled(RuntimeError):
    """This compute node was killed (chaos injection or operator action)
    mid-epoch; the placement engine re-targets its undelivered batches."""


class EMLIOReceiver:
    """One compute node's receive side.

    Recovery parameters
    -------------------
    ledger:
        Persistent delivery ledger; enables dedup and resume-after-restart.
    dedup:
        Tolerate duplicate payloads even without a ledger (implied by one).
    reorder_window:
        Overrides ``config.reorder_window`` when not ``None``.
    preprocess_fn:
        Batch preprocessor forwarded to the pipeline (``None`` keeps the
        image decode path); see :class:`~repro.gpu.pipeline.Pipeline`.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`.  Feeds the per-batch
        decode/preprocess histograms and, when tracing is configured,
        emits the ``recv``/``decode``/``preprocess``/``consume`` spans for
        payloads the daemon stamped as sampled
        (:func:`~repro.serialize.payload.trace_stamped`).
    """

    def __init__(
        self,
        node_id: int,
        plan: BatchPlan,
        config: EMLIOConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        profile: NetworkProfile | None = None,
        gpu: SimulatedGPU | None = None,
        logger: TimestampLogger | None = None,
        stall_timeout: float = 60.0,
        ledger: DeliveryLedger | None = None,
        dedup: bool = False,
        reorder_window: int | None = None,
        preprocess_fn=None,
        telemetry=None,
    ) -> None:
        self.node_id = node_id
        self.plan = plan
        self.config = config
        self.gpu = gpu or SimulatedGPU()
        self.logger = logger or TimestampLogger(name=f"receiver{node_id}")
        self.stall_timeout = stall_timeout
        self.ledger = ledger
        self.dedup = dedup or ledger is not None
        self.preprocess_fn = preprocess_fn
        self._tracer = telemetry.tracer("receiver") if telemetry is not None else None
        if telemetry is not None and telemetry.registry.enabled:
            self._decode_hist = telemetry.registry.histogram(
                "emlio_decode_seconds",
                "Per-payload deserialize time in the batch provider",
            )
            self._preproc_hist = telemetry.registry.histogram(
                "emlio_preprocess_seconds",
                "Per-batch pipeline preprocess (decode/augment) time",
            )
            self._warm_errors = telemetry.registry.counter(
                "emlio_receiver_warm_errors_total",
                "Receivers whose preprocess warm-up batch raised",
            )
        else:
            self._decode_hist = self._preproc_hist = self._warm_errors = None
        # (epoch, seq) keys of trace-sampled payloads, noted by the provider
        # and popped by the consume loop (preprocess/consume spans).
        self._sampled_keys: collections.OrderedDict = collections.OrderedDict()
        self._sampled_lock = threading.Lock()
        # None inherits the config; AUTO (here or in the config) derives
        # the window from the transport shape instead of manual tuning.
        self.reorder_window = config.resolve_reorder_window(reorder_window)
        # Line 1: bind the PULL socket — pooled mode, so each frame lands
        # in a reused receive buffer and decodes to views (zero-copy path).
        self.pull = PullSocket(
            host=host, port=port, hwm=config.hwm, profile=profile, pooled=True
        )
        # One stats object across every epoch's pipeline: per-stage decode /
        # preprocess / starved timing accumulates deployment-wide and feeds
        # heartbeats + Deployment.status()["pipeline"].
        self.pipeline_stats = PipelineStats()
        # What this node still expects, for the deployment.  Session-local
        # on purpose — after a restart the ledger says what is owed where.
        self.window = DeliveryWindow(dedup=self.dedup, reorder=self.reorder_window)
        self._window_lock = threading.Lock()
        self._consuming: int | None = None  # the epoch a consume pass runs
        self.batches_received = 0
        self.batches_consumed = 0  # handed to the *training* side (yielded)
        self._killed = threading.Event()
        # Starvation ticks for heartbeat progress: advance only while
        # *nothing is pending for the pipeline* — starved is the daemons'
        # problem, not this node's.  Progress is otherwise driven from the
        # pipeline-consumption boundary (``batches_consumed``), so a wedged
        # consumer sitting on queued frames freezes :attr:`progress` and
        # trips the hang detector.
        self.ticks = 0
        # Payloads the provider decoded ahead, in arrival order.
        self._decoded: collections.deque[BatchPayload] = collections.deque()
        self._lanes: list[Lane] = []  # the pipeline's workers, kept across passes
        self._warm_kernels()

    def _warm_kernels(self) -> None:
        """Run one throwaway batch through the preprocess kernels.

        First execution of the numpy decode-and-resize path pays one-time
        costs (BLAS setup, ufunc dispatch caches, allocator growth) that
        would otherwise land inside the first epoch a deployment serves.
        GPU runtimes warm kernels at init for the same reason.  Only the
        default image path is warmed — a custom ``preprocess_fn`` has its
        own input format we can't synthesize.
        """
        if self.preprocess_fn is not None:
            return
        try:
            from repro.codec.sjpg import sjpg_encode
            from repro.gpu.ops import preprocess_batch

            rng = np.random.default_rng(0)
            img = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
            samples = [sjpg_encode(img, quality=75)] * self.config.batch_size
            # A handful of repetitions, not one: allocator arenas, BLAS
            # buffers, and ufunc loops all warm progressively, and a single
            # call leaves the first real batches still paying for growth.
            for _ in range(4):
                self.gpu.submit(
                    lambda: preprocess_batch(samples, self.config.output_hw, rng),
                    modeled_s=0.0,
                )
        except Exception:  # noqa: BLE001 - warming is best-effort, never fatal
            # ...but never silent: a kernel that cannot run one synthetic
            # batch will fail the first real one too.
            _log.exception("receiver %d: preprocess warm-up failed", self.node_id)
            if self._warm_errors is not None:
                self._warm_errors.inc()

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` address."""
        return self.pull.address

    @property
    def port(self) -> int:
        """Bound TCP port."""
        return self.pull.port

    @property
    def killed(self) -> bool:
        """Whether :meth:`kill` was invoked."""
        return self._killed.is_set()

    @property
    def shm_attaches(self) -> int:
        """Cumulative shm ring attaches accepted over this node's lifetime."""
        return self.pull.shm_attaches

    @property
    def epoch_active(self) -> bool:
        """Whether a consume pass is running (heartbeat state)."""
        return self._consuming is not None and not self._killed.is_set()

    @property
    def duplicates_dropped(self) -> int:
        """Duplicate payloads the window absorbed, across epochs."""
        return self.window.duplicates

    def owes(self, epoch: int) -> bool:
        """Whether ``epoch`` still expects batches here (adopted late)."""
        with self._window_lock:
            return self.window.remaining(epoch) > 0

    @property
    def queue_depth(self) -> int:
        """Payloads received but not yet offered to the window — the
        backpressure signal this node's heartbeats report and the
        placement engine weighs rebalances by."""
        return self.pull.pending + len(self._decoded)

    @property
    def progress(self) -> int:
        """Heartbeat progress counter, advanced from the consumption
        boundary: grows while batches reach the training side *or* while
        the node is starved of payloads (daemons slow — not our hang).
        Frozen exactly when received frames sit unconsumed: the wedged-
        consumer signature the hang detector is meant to catch.  Each read
        with nothing pending is one starvation tick."""
        if self.queue_depth == 0:
            self.ticks += 1
        return self.batches_consumed + self.ticks

    def kill(self) -> None:
        """Chaos hook: this compute node crashes, abruptly.

        The PULL socket closes (peers see connection resets), which fails
        the active epoch's provider at once instead of at its stall
        timeout, and in-flight batches are dropped — the transport-level
        signature of a dead compute node.  The supervisor re-targets its
        undelivered batches through the placement engine.
        """
        if self._killed.is_set():
            return
        self._killed.set()
        self.close()
        self.logger.log("receiver_killed", node=self.node_id)

    def adopt(self, epoch: int, extra: int) -> bool:
        """Expect ``extra`` more batches of ``epoch``, re-targeted here
        (receiver failover or scale-out).  A running pass emits them; one
        that already finished leaves them for the next.  False only for a
        dead node."""
        if self._killed.is_set():
            return False
        with self._window_lock:
            self.window.adopt(epoch, extra)
        return True

    def relinquish(self, keys: Iterable[tuple[int, int]]) -> bool:
        """Stop expecting ``(epoch, seq)`` keys re-owned elsewhere (elastic
        scale-out), this pass and every later one.  False only for a dead
        node (its whole residual moves through receiver failover instead)."""
        if self._killed.is_set():
            return False
        with self._window_lock:
            shrank = self.window.relinquish(tuple(k) for k in keys)
        if shrank:
            self.pull.wake()  # a waiting provider looks again
        return True

    def _note_sampled(self, epoch: int, seq: int) -> None:
        with self._sampled_lock:
            self._sampled_keys[(epoch, seq)] = True
            while len(self._sampled_keys) > _SAMPLED_KEYS_BOUND:
                self._sampled_keys.popitem(last=False)

    def _is_sampled(self, epoch: int, seq: int) -> bool:
        with self._sampled_lock:
            return (epoch, seq) in self._sampled_keys

    def _pop_sampled(self, epoch: int, seq: int) -> bool:
        with self._sampled_lock:
            return self._sampled_keys.pop((epoch, seq), None) is not None

    def _next_payload(self, block: bool, timeout: float) -> BatchPayload | None:
        """The provider's source (Algorithm 3 line 2): the next payload, or
        ``None`` when a relinquish woke the wait.  Raises ``queue.Empty`` on
        timeout and :class:`ReceiverKilled` once the socket is closed.

        The frame it waits for is decoded together with every frame queued
        behind it: decode then lengthens one consumer wait per burst of
        arrivals, not every wait.
        """
        if not self._decoded:
            try:
                frame = self.pull.recv_frame(timeout=timeout if block else 0)
                while frame is not None:
                    self._decoded.append(self._decode(frame))
                    frame = self.pull.recv_frame(timeout=0)
            except queue.Empty:
                if not self._decoded:
                    raise
            except ConnectionClosed:
                if not self._decoded:
                    raise ReceiverKilled(f"node {self.node_id} killed mid-epoch") from None
        try:
            return self._decoded.popleft()
        except IndexError:  # woken: a relinquish, or the pass is over
            return None

    def _decode(self, frame: PooledFrame) -> BatchPayload:
        """One frame's payload; a frame that fails to decode, or was
        planned for another node, fails the pass."""
        # Samples decode as views over the pooled frame buffer; the lease
        # travels with them (ColumnarSamples) and is released by the final
        # consumer — pipeline after preprocess, or provider on dedup/stale
        # drop.  A frame that fails to decode has no consumer, so its lease
        # is returned here.
        tracer = self._tracer
        wr0 = time.time_ns() if tracer is not None else 0
        t0 = time.perf_counter()
        wr1 = time.time_ns() if tracer is not None else 0
        try:
            payload = decode_batch(frame.data, zero_copy=True, release=frame.release)
        except Exception as err:
            frame.release()
            raise RuntimeError(f"node {self.node_id}: frame failed to decode: {err!r}") from err
        decode_s = time.perf_counter() - t0
        self.pipeline_stats.record_decode(decode_s)
        if self._decode_hist is not None:
            self._decode_hist.observe(decode_s)
        if payload.node_id != self.node_id:
            frame.release()
            raise RuntimeError(
                f"node {self.node_id} received a batch planned for node {payload.node_id}"
            )
        if tracer is not None and trace_stamped(payload):
            # Only the daemon's stamp costs anything downstream: the
            # sampling decision travelled in the payload meta.
            wr2 = time.time_ns()
            key = (payload.epoch, payload.node_id, payload.seq)
            tracer.span(key, "recv", wr0, wr1, nbytes=payload.nbytes)
            tracer.span(key, "decode", wr1, wr2)
            self._note_sampled(payload.epoch, payload.seq)
        self.batches_received += 1
        self.logger.log(
            "batch_recv",
            epoch=payload.epoch,
            index=payload.batch_index,
            seq=payload.seq,
            nbytes=payload.nbytes,
        )
        return payload

    def _open(self, epoch: int) -> BatchProvider:
        """Open ``epoch`` in the window — its plan netted against the
        ledger — and the provider for one consume pass of it."""
        planned = [a.batch_index for a in self.plan.for_epoch_node(epoch, self.node_id)]
        covered = ()
        if self.ledger is not None:
            # covered_set also follows receiver-failover re-mappings: a
            # batch delivered under its re-assigned key is not owed here.
            keys = self.ledger.covered_set((epoch, self.node_id, s) for s in planned)
            covered = [s for _e, _n, s in keys]
        with self._window_lock:
            dropped = self.window.open(epoch, planned, covered)
        for payload in dropped:
            release_samples(payload.samples)
        return BatchProvider(
            self._next_payload, self.window, self._window_lock, epoch, timeout=self.stall_timeout
        )

    def epoch(self, epoch_index: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield preprocessed (tensors, labels) batches for one epoch — one
        consume pass: until the window owes nothing, for now."""
        if self._killed.is_set():
            raise ReceiverKilled(f"node {self.node_id} was killed")
        provider = self._open(epoch_index)
        span_fn = None
        if self._preproc_hist is not None or self._tracer is not None:
            hist = self._preproc_hist
            tracer = self._tracer

            def span_fn(seq: int, t0: int, t1: int) -> None:
                # The pipeline's seq is its source-call ordinal — this
                # pass's emission order — which joins the preprocess span
                # back to the batch's delivery key (and trace id).
                if hist is not None:
                    hist.observe((t1 - t0) / 1e9)
                key = provider.key(seq) if tracer is not None else None
                if key is not None and self._is_sampled(key[0], key[2]):
                    tracer.span(key, "preprocess", t0, t1)

        if not self._lanes:
            self._lanes = [Lane(f"dali-worker-{i}") for i in range(self.config.workers)]
        # Line 3: the pass's pipeline over the provider, on the kept lanes.
        pipe = Pipeline(
            external_source=provider,
            gpu=self.gpu,
            output_hw=self.config.output_hw,
            prefetch=self.config.prefetch,
            workers=self.config.workers,
            seed=self.config.seed + epoch_index,
            preprocess_fn=self.preprocess_fn,
            stats=self.pipeline_stats,
            span_fn=span_fn,
            lanes=self._lanes,
        )
        self._consuming = epoch_index
        consumed = 0
        ended = False
        try:
            pipe.warmup()  # line 4
            self.logger.log("epoch_start", epoch=epoch_index)
            while True:  # lines 6-9
                try:
                    tensors, labels = pipe.run()
                except EndOfData:
                    ended = True
                    break
                # Ledger at the consumption boundary, not pipeline handoff:
                # batches prefetched but never consumed (crash, early close,
                # teardown dropping buffers) must count as undelivered so a
                # resume resends them.  The pipeline is FIFO, so the k-th
                # run() output is the pass's k-th emission.
                key = provider.key(consumed)
                if self.ledger is not None:
                    self.ledger.record(*key)
                if self._tracer is not None and self._pop_sampled(key[0], key[2]):
                    # The consume span marks the handoff to training — a
                    # point event, recorded as a minimal interval.
                    w = time.time_ns()
                    self._tracer.span(key, "consume", w, time.time_ns())
                consumed += 1
                self.batches_consumed += 1
                yield tensors, labels
        finally:
            self._consuming = None
            # Every lane returns before the next pass uses it: unconsumed
            # batches are owed again and no lane takes another, one waiting
            # on the socket is woken, one blocked on a full queue drained.
            provider.settle(consumed)
            if not ended:
                self.pull.wake()
            pipe.teardown()
            self.logger.log("epoch_end", epoch=epoch_index)
        if not provider.complete:
            raise RuntimeError(f"epoch {epoch_index} ended early: {provider.progress()} batches")

    def close(self) -> None:
        """Line 11: teardown the socket — which wakes a waiting provider at
        once — stop the pipeline's lanes once their pass ends, and return
        the buffers of payloads decoded ahead."""
        self.pull.close()
        lanes, self._lanes = self._lanes, []
        for lane in lanes:
            lane.close()
        for payload in list(self._decoded):
            release_samples(payload.samples)
        self._decoded.clear()
