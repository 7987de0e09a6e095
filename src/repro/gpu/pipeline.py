"""DALI-like preprocessing pipeline.

Reproduces the DALI behaviours EMLIO depends on (paper §4.4, Algorithm 3):

* ``external_source`` — a host callback producing raw batches (EMLIO's
  BatchProvider plugs in here; baselines plug in their own readers);
* prefetch queue depth ``Q`` with warm-up (Algorithm 3 line 4 runs ``Q``
  iterations to fill internal buffers);
* background workers decode and augment *ahead* of the consumer,
  overlapping preprocess with training (DALI's ``exec_async``/
  ``exec_pipelined``);
* ``workers`` — DALI's ``num_threads``: with N > 1 a bounded pool
  preprocesses batches concurrently (sjpg/numpy release the GIL)
  and a sequence-ordered reassembly stage keeps output in source order.

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


class EndOfData(Exception):
    """Raised by an external source to signal epoch end, and by run() when
    every in-flight batch has been drained."""


@dataclass
class PipelineStats:
    """Counters for overlap analysis, per stage of the consume path.

    ``decode_s``/``decode_batches`` are recorded by whoever deserializes
    payloads ahead of the pipeline (the receiver's socket thread), so one
    shared ``PipelineStats`` describes the whole decode → preprocess →
    consume chain; :meth:`per_batch_ns` is the heartbeat-friendly view.
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
        """Mean per-batch stage costs in integer nanoseconds (see :func:`stage_ns`)."""
        with self._lock:
            return stage_ns(
                self.decode_s, self.decode_batches, self.preprocess_s, self.wait_s, self.batches
            )

    def snapshot(self) -> dict:
        """Point-in-time totals plus the per-batch stage view."""
        with self._lock:
            return {
                "batches": self.batches,
                "samples": self.samples,
                "wait_s": self.wait_s,
                "preprocess_s": self.preprocess_s,
                "decode_s": self.decode_s,
                "decode_batches": self.decode_batches,
                **stage_ns(
                    self.decode_s, self.decode_batches, self.preprocess_s,
                    self.wait_s, self.batches,
                ),
            }


def stage_ns(
    decode_s: float, decode_batches: int, preprocess_s: float, wait_s: float, batches: int
) -> dict[str, int]:
    """Mean per-batch stage costs in integer nanoseconds.

    ``decode_ns`` averages over decoded payloads, ``preprocess_ns`` and
    ``starved_ns`` over consumed batches; all 0 until the first batch.
    """
    return {
        "decode_ns": int(decode_s / decode_batches * 1e9) if decode_batches else 0,
        "preprocess_ns": int(preprocess_s / batches * 1e9) if batches else 0,
        "starved_ns": int(wait_s / batches * 1e9) if batches else 0,
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
        Preprocess threads (DALI ``num_threads``).  1 (default) keeps the
        single fetch+preprocess thread; N > 1 adds a pool: one fetch
        thread stamps each batch with a sequence number (the source stays
        serial — EMLIO's provider is stateful), N workers preprocess
        concurrently, and output is reassembled in sequence order, so
        consumers observe the exact single-worker batch order.
    seed:
        Seed for augmentation randomness.  Under a pool, each batch's rng
        derives from ``(seed, sequence)`` so augmentation is deterministic
        regardless of which worker picks the batch up.
    preprocess_fn:
        ``(samples, output_hw, rng) -> batch array`` replacing the default
        image path (decode → crop/resize → normalize).  Codec registries
        resolve spec strings to these — e.g. the ``tokens`` codec stacks
        framed-token records with no resize at all.
    stats:
        Optional shared :class:`PipelineStats` — the receiver passes one
        that outlives per-epoch pipelines (and carries its decode timing),
        so stage costs accumulate across the deployment.
    span_fn:
        Optional ``(seq, t0_ns, t1_ns)`` callback invoked after each
        batch's preprocess with wall-clock nanoseconds bracketing it.
        ``seq`` is the source-call ordinal (identical to the pooled path's
        reassembly sequence and to :meth:`BatchProvider.key`'s order),
        which is how the receiver joins preprocess spans back to their
        batch's trace id — see :mod:`repro.obs.trace`.  When ``None`` (the
        default) no wall clocks are read.
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
    ) -> None:
        if prefetch < 1:
            raise ValueError(f"prefetch must be >= 1, got {prefetch}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
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
        self._in: queue.Queue = queue.Queue(maxsize=workers)
        self._worker: threading.Thread | None = None  # fetch (or only) thread
        self._pool: list[threading.Thread] = []
        self._pending: dict[int, object] = {}
        self._next_emit = 0
        self._emit_lock = threading.Lock()
        self._stopped = threading.Event()
        self._built = False

    # -- lifecycle -------------------------------------------------------------

    def build(self) -> "Pipeline":
        """Start the prefetch worker(s) (idempotent)."""
        if self._built:
            return self
        self._built = True
        if self.workers == 1:
            self._worker = threading.Thread(
                target=self._prefetch_loop, daemon=True, name="dali-worker"
            )
            self._worker.start()
            return self
        self._pool = [
            threading.Thread(
                target=self._pool_worker, daemon=True, name=f"dali-preproc-{i}"
            )
            for i in range(self.workers)
        ]
        for t in self._pool:
            t.start()
        self._worker = threading.Thread(
            target=self._fetch_loop, daemon=True, name="dali-worker"
        )
        self._worker.start()
        return self

    def _threads_alive(self) -> bool:
        if self._worker is not None and self._worker.is_alive():
            return True
        return any(t.is_alive() for t in self._pool)

    def warmup(self) -> None:
        """Algorithm 3 line 4: wait until Q batches are buffered (or the
        source ends first)."""
        self.build()
        deadline = self._clock.now() + 60.0
        while (
            self._out.qsize() < self.prefetch
            and not self._stopped.is_set()
            and self._clock.now() < deadline
            # All threads gone (EndOfData / source error already queued):
            # no further batches are coming, waiting for Q of them would
            # only burn the deadline.
            and self._threads_alive()
        ):
            # Fine-grained poll: warmup overlaps the measured window in
            # steady-state runs, and a 1 ms tick would overshoot the last
            # batch's arrival by most of a batch time.
            self._clock.sleep(0.0002)

    def _preprocess(self, samples, labels, rng=None, overlapped: bool = False,
                    seq: int = -1):
        start = self._clock.now()
        w0 = time.time_ns() if self.span_fn is not None else 0
        mpix = batch_megapixels(samples)
        modeled = self.gpu.cost_model.decode_time(mpix) + self.gpu.cost_model.augment_time(mpix)
        rng = self._rng if rng is None else rng
        submit = self.gpu.submit_overlapped if overlapped else self.gpu.submit
        tensors = submit(lambda: self.preprocess_fn(samples, self.output_hw, rng), modeled)
        # Tensors are materialized — the encoded sample views are dead, so
        # hand the receive buffer back to its pool (no-op for plain lists).
        release_samples(samples)
        self.stats.record_batch(len(samples), self._clock.now() - start)
        if self.span_fn is not None:
            self.span_fn(seq, w0, time.time_ns())
        return tensors, np.asarray(labels, dtype=np.int64)

    # -- single-worker path (workers == 1) -------------------------------------

    def _prefetch_loop(self) -> None:
        seq = 0  # source-call ordinal, same numbering as the pooled path
        while not self._stopped.is_set():
            try:
                samples, labels = self.external_source()
            except EndOfData:
                self._out.put(EndOfData)
                return
            except Exception as err:  # surface source errors to the consumer
                self._out.put(err)
                return
            try:
                item = self._preprocess(samples, labels, seq=seq)
            except Exception as err:
                # A decode/augment failure must reach run(), not silently
                # kill the worker and leave the consumer blocked forever.
                self._out.put(err)
                return
            self._out.put(item)
            seq += 1

    # -- pooled path (workers > 1) ---------------------------------------------

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

    def _put_in(self, entry) -> bool:
        while not self._stopped.is_set():
            try:
                self._in.put(entry, timeout=0.05)
                return True
            except queue.Full:
                continue
        return False

    def _shutdown_pool(self) -> None:
        """Hand every pool worker its poison pill (best effort on stop)."""
        for _ in self._pool:
            while True:
                try:
                    self._in.put(None, timeout=0.05)
                    break
                except queue.Full:
                    if self._stopped.is_set() or not any(
                        t.is_alive() for t in self._pool
                    ):
                        return

    def _fetch_loop(self) -> None:
        seq = 0
        while not self._stopped.is_set():
            try:
                samples, labels = self.external_source()
            except EndOfData:
                self._emit(seq, EndOfData)
                break
            except Exception as err:
                self._emit(seq, err)
                break
            if not self._put_in((seq, samples, labels)):
                break
            seq += 1
        self._shutdown_pool()

    def _pool_worker(self) -> None:
        while True:
            entry = self._in.get()
            if entry is None:
                return
            seq, samples, labels = entry
            try:
                item = self._preprocess(
                    samples,
                    labels,
                    rng=np.random.default_rng((self.seed, seq)),
                    overlapped=True,
                    seq=seq,
                )
            except Exception as err:
                item = err
            self._emit(seq, item)

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
        """Stop the workers and drop buffered batches (Algorithm 3 line 11)."""
        self._stopped.set()
        threads = [t for t in [self._worker, *self._pool] if t is not None]
        if not threads:
            return
        # Keep draining (and feeding pool pills) so threads blocked on a
        # full queue — or waiting for work — can exit.
        deadline = self._clock.now() + 10.0
        while any(t.is_alive() for t in threads) and self._clock.now() < deadline:
            try:
                self._out.get_nowait()
            except queue.Empty:
                pass
            for _ in self._pool:
                try:
                    self._in.put_nowait(None)
                except queue.Full:
                    break
            for t in threads:
                if t.is_alive():
                    t.join(timeout=0.02)

    def __enter__(self) -> "Pipeline":
        self.build()
        return self

    def __exit__(self, *exc) -> None:
        self.teardown()
