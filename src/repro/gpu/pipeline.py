"""DALI-like preprocessing pipeline.

Reproduces the DALI behaviours EMLIO depends on (paper §4.4, Algorithm 3):

* ``external_source`` — a host callback producing raw batches (EMLIO's
  BatchProvider plugs in here; baselines plug in their own readers);
* prefetch queue depth ``Q`` with warm-up (Algorithm 3 line 4 runs ``Q``
  iterations to fill internal buffers);
* background workers decode and augment *ahead* of the consumer,
  overlapping preprocess with training (DALI's ``exec_async``/
  ``exec_pipelined``);
* ``workers`` — DALI's ``num_threads``: N worker lanes take the serial
  source in turn and preprocess concurrently (sjpg/numpy release the
  GIL); a sequence-ordered reassembly stage keeps output in source order.

``run()`` returns the next preprocessed batch (float32 NCHW + labels),
blocking until one is ready — the ``pipe.run()`` of Algorithm 3 line 7.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.gpu.device import SimulatedGPU
from repro.gpu.ops import batch_megapixels, preprocess_batch
from repro.net.buffers import release_samples
from repro.util.clock import MonotonicClock
from repro.util.lanes import Lane


class EndOfData(Exception):
    """Raised by an external source to signal epoch end, and by run() when
    every in-flight batch has been drained."""


@dataclass
class PipelineStats:
    """Counters for overlap analysis, per stage of the consume path.

    ``decode_s``/``decode_batches`` are recorded by whoever deserializes
    payloads ahead of preprocess (the receiver's batch provider, running
    on the pipeline's worker), so one shared ``PipelineStats`` describes
    the whole decode → preprocess → consume chain; :meth:`per_batch_ns` is
    the heartbeat-friendly view.
    """

    batches: int = 0
    samples: int = 0
    wait_s: float = 0.0  # consumer time blocked on run() — "starved"
    preprocess_s: float = 0.0  # worker time spent in decode/augment
    decode_s: float = 0.0  # payload deserialize time (receiver side)
    decode_batches: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_batch(self, n: int, preprocess_s: float) -> None:
        with self._lock:
            self.batches += 1
            self.samples += n
            self.preprocess_s += preprocess_s

    def record_wait(self, seconds: float) -> None:
        with self._lock:
            self.wait_s += seconds

    def record_decode(self, seconds: float) -> None:
        with self._lock:
            self.decode_s += seconds
            self.decode_batches += 1

    def per_batch_ns(self) -> dict[str, int]:
        """Mean per-batch stage costs in integer nanoseconds: ``decode_ns``
        over decoded payloads, ``preprocess_ns`` and ``starved_ns`` over
        consumed batches; all 0 until the first batch."""
        return {k: v for k, v in self.snapshot().items() if k.endswith("_ns")}

    def snapshot(self) -> dict:
        """Point-in-time totals plus the per-batch stage view."""
        with self._lock:
            n, d = self.batches, self.decode_batches
            return {
                "batches": n,
                "samples": self.samples,
                "wait_s": self.wait_s,
                "preprocess_s": self.preprocess_s,
                "decode_s": self.decode_s,
                "decode_batches": d,
                "decode_ns": int(self.decode_s / d * 1e9) if d else 0,
                "preprocess_ns": int(self.preprocess_s / n * 1e9) if n else 0,
                "starved_ns": int(self.wait_s / n * 1e9) if n else 0,
            }


class Pipeline:
    """Asynchronous decode/augment pipeline fed by an external source.

    Parameters
    ----------
    external_source:
        Callable returning ``(samples, labels)`` — a list of encoded sample
        bytes and an int list — or raising :class:`EndOfData`.
    gpu:
        Device executing the decode/augment kernels.
    output_hw:
        Spatial size of the produced tensors.
    prefetch:
        Queue depth Q.
    workers:
        Worker lanes (DALI ``num_threads``).  Each lane takes the source in
        turn under one lock — the source stays serial (EMLIO's provider is
        stateful) and each call is stamped with its sequence number there
        — then preprocesses concurrently with the others; output is
        reassembled in sequence order, so consumers observe source order
        for any ``workers``.
    seed:
        Seed for augmentation randomness.  One lane draws from one
        ``default_rng(seed)`` in source order; with N > 1 lanes each
        batch's rng is ``default_rng((seed, sequence))``, so augmentation
        is deterministic regardless of which lane picks the batch up.
    preprocess_fn:
        ``(samples, output_hw, rng) -> batch array`` replacing the default
        image path (decode → crop/resize → normalize).  Codec registries
        resolve spec strings to these — e.g. the ``tokens`` codec stacks
        framed-token records with no resize at all.
    stats:
        Optional shared :class:`PipelineStats` — the receiver passes one
        that outlives each consume pass's pipeline (and carries its decode
        timing), so stage costs accumulate across the deployment.
    span_fn:
        Optional ``(seq, t0_ns, t1_ns)`` callback invoked after each
        batch's preprocess with wall-clock nanoseconds bracketing it.
        ``seq`` is the source-call ordinal (the reassembly sequence, and
        :meth:`BatchProvider.key`'s order), which is how the receiver joins
        preprocess spans back to their batch's trace id — see
        :mod:`repro.obs.trace`.  When ``None`` (the default) no wall clocks
        are read.
    lanes:
        ``workers`` kept :class:`~repro.util.lanes.Lane` threads, owned by
        the caller, to run the workers on.  ``None`` (the default) starts
        the pipeline's own, which :meth:`teardown` stops.
    """

    def __init__(
        self,
        external_source: Callable[[], tuple[list[bytes], list[int]]],
        gpu: SimulatedGPU | None = None,
        output_hw: tuple[int, int] = (64, 64),
        prefetch: int = 2,
        workers: int = 1,
        seed: int = 0,
        preprocess_fn: Callable[[list[bytes], tuple[int, int], np.random.Generator], np.ndarray]
        | None = None,
        stats: PipelineStats | None = None,
        span_fn: Callable[[int, int, int], None] | None = None,
        lanes: list[Lane] | None = None,
    ) -> None:
        if prefetch < 1:
            raise ValueError(f"prefetch must be >= 1, got {prefetch}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if lanes is not None and len(lanes) != workers:
            raise ValueError(f"{workers} workers need {workers} lanes, got {len(lanes)}")
        self.external_source = external_source
        self.gpu = gpu or SimulatedGPU()
        self.output_hw = output_hw
        self.prefetch = prefetch
        self.workers = workers
        self.seed = seed
        self.preprocess_fn = preprocess_fn or preprocess_batch
        self.stats = stats if stats is not None else PipelineStats()
        self.span_fn = span_fn
        self._rng = np.random.default_rng(seed)
        self._clock = MonotonicClock()
        self._out: queue.Queue = queue.Queue(maxsize=prefetch)
        self._lanes = lanes
        self._own_lanes = lanes is None
        self._running: list[threading.Event] = []  # set as each worker returns
        self._source_lock = threading.Lock()
        self._seq = 0  # the next source call's ordinal
        self._ended = False  # the source ended or failed
        self._pending: dict[int, object] = {}
        self._next_emit = 0
        self._emit_lock = threading.Lock()
        self._stopped = threading.Event()
        self._built = False

    # -- lifecycle -------------------------------------------------------------

    def build(self) -> "Pipeline":
        """Start the workers (idempotent)."""
        if self._built:
            return self
        self._built = True
        if self._lanes is None:
            self._lanes = [Lane(f"dali-worker-{i}") for i in range(self.workers)]
        self._running = [lane.submit(self._work) for lane in self._lanes]
        return self

    def warmup(self) -> None:
        """Algorithm 3 line 4: wait until Q batches are buffered (or the
        source ends first)."""
        self.build()
        deadline = self._clock.now() + 60.0
        while (
            self._out.qsize() < self.prefetch
            and not self._stopped.is_set()
            and self._clock.now() < deadline
            # Every worker returned (EndOfData / source error already
            # queued): no further batches are coming, waiting for Q of
            # them would only burn the deadline.
            and not all(done.is_set() for done in self._running)
        ):
            # Fine-grained poll: warmup overlaps the measured window in
            # steady-state runs, and a 1 ms tick would overshoot the last
            # batch's arrival by most of a batch time.
            self._clock.sleep(0.0002)

    def _preprocess(self, samples, labels, rng, seq: int):
        start = self._clock.now()
        w0 = time.time_ns() if self.span_fn is not None else 0
        mpix = batch_megapixels(samples)
        modeled = self.gpu.cost_model.decode_time(mpix) + self.gpu.cost_model.augment_time(mpix)
        submit = self.gpu.submit_overlapped if self.workers > 1 else self.gpu.submit
        tensors = submit(lambda: self.preprocess_fn(samples, self.output_hw, rng), modeled)
        # Tensors are materialized — the encoded sample views are dead, so
        # hand the receive buffer back to its pool (no-op for plain lists).
        release_samples(samples)
        self.stats.record_batch(len(samples), self._clock.now() - start)
        if self.span_fn is not None:
            self.span_fn(seq, w0, time.time_ns())
        return tensors, np.asarray(labels, dtype=np.int64)

    def _work(self) -> None:
        """One worker lane: take the next batch from the source (its seq
        stamped under the same lock), preprocess it, emit it in order —
        until the source ends or fails, or :meth:`teardown`."""
        while True:
            with self._source_lock:
                if self._ended or self._stopped.is_set():
                    return
                seq = self._seq
                try:
                    samples, labels = self.external_source()
                except Exception as err:  # EndOfData, or a source error for run()
                    self._ended = True
                    self._emit(seq, EndOfData if isinstance(err, EndOfData) else err)
                    return
                self._seq = seq + 1
            rng = self._rng if self.workers == 1 else np.random.default_rng((self.seed, seq))
            try:
                item = self._preprocess(samples, labels, rng, seq)
            except Exception as err:
                # A decode/augment failure must reach run(), not silently
                # kill the worker and leave the consumer blocked forever.
                item = err
            self._emit(seq, item)

    def _emit(self, seq: int, item) -> None:
        """Sequence-ordered reassembly: buffer until ``seq`` is next, then
        flush every consecutive ready item to the output queue.

        The blocking put happens under the emit lock — safe because the
        consumer only ever *takes* from ``_out`` (never this lock), so a
        full queue always drains.
        """
        with self._emit_lock:
            self._pending[seq] = item
            while self._next_emit in self._pending:
                self._out.put(self._pending.pop(self._next_emit))
                self._next_emit += 1

    # -- consumption -------------------------------------------------------------

    def run(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the next preprocessed ``(tensors, labels)`` batch.

        Raises :class:`EndOfData` when the source is exhausted.
        """
        self.build()
        start = self._clock.now()
        item = self._out.get()
        self.stats.record_wait(self._clock.now() - start)
        if item is EndOfData:
            self._out.put(EndOfData)  # keep raising for later callers
            raise EndOfData
        if isinstance(item, Exception):
            raise item
        return item

    def __iter__(self):
        while True:
            try:
                yield self.run()
            except EndOfData:
                return

    def teardown(self) -> None:
        """Stop the workers and drop buffered batches (Algorithm 3 line 11).

        Drains the output queue until every worker has returned, so one
        blocked on a full queue can exit; a worker still inside the source
        after 10 s is left to it.  The pipeline's own lanes are stopped.
        """
        self._stopped.set()
        deadline = self._clock.now() + 10.0
        while self._clock.now() < deadline:
            running = next((d for d in self._running if not d.is_set()), None)
            if running is None:
                break
            try:
                self._out.get_nowait()
            except queue.Empty:
                running.wait(0.02)
        if self._own_lanes:
            for lane in self._lanes or ():
                lane.close(timeout=max(0.0, deadline - self._clock.now()))

    def __enter__(self) -> "Pipeline":
        self.build()
        return self

    def __exit__(self, *exc) -> None:
        self.teardown()
