"""Per-batch distributed tracing: sampled span chains across the wire.

A batch's trace id is ``"{epoch}:{node}:{seq}"`` — the same triple the
assignment ledger and :meth:`DeliveryWindow.emitted` already key on, so a
trace joins against every other subsystem for free.  The sampling decision
is made **once**, at the daemon, deterministically from the trace id
(:func:`trace_sampled`), and rides the payload's ``meta`` dict over both
TCP and shm transports; downstream components emit spans only for stamped
payloads, so an unsampled batch pays a single dict lookup.

Spans are JSONL records::

    {"trace": "0:0:3", "span": "read", "component": "daemon",
     "t0": <wall ns>, "t1": <wall ns>}

written through a bounded background :class:`TraceWriter` (drops, never
blocks, when the queue is full).  Timestamps are ``time.time_ns()`` wall
clock so spans from different threads/components align on one timeline —
the paper's §4.5 timestamp-logging design.  :class:`~repro.util.logging.
TimestampLogger` events share the same file format (records without a
``"span"`` key); :mod:`repro.tools.trace` reconstructs per-stage
breakdowns and critical paths from the combined stream.
"""

from __future__ import annotations

import json
import queue
import threading
import zlib
from pathlib import Path

__all__ = [
    "SPAN_STAGES",
    "TraceWriter",
    "Tracer",
    "trace_id",
    "trace_sampled",
]

#: Canonical stage order of a batch's life, paper Fig. 1 left-to-right.
SPAN_STAGES: tuple[str, ...] = (
    "read", "encode", "send", "recv", "decode", "preprocess", "consume",
)


def trace_id(epoch: int, node: int, seq: int) -> str:
    """The batch's trace id — the ledger triple, colon-joined."""
    return f"{epoch}:{node}:{seq}"


def trace_sampled(epoch: int, node: int, seq: int, sample: float) -> bool:
    """Deterministic sampling decision for a batch.

    Hash-based (crc32 of the trace id) rather than random so every
    component — and a rerun — agrees on which batches are traced without
    coordination.  ``sample`` is a fraction in [0, 1].
    """
    if sample <= 0.0:
        return False
    if sample >= 1.0:
        return True
    h = zlib.crc32(trace_id(epoch, node, seq).encode("ascii"))
    return (h % 10000) < int(sample * 10000)


class TraceWriter:
    """Bounded background JSONL writer shared by all tracers of a
    deployment.

    ``write()`` enqueues a dict and returns immediately; a daemon thread
    drains the queue to ``<dir>/spans.jsonl``.  When the queue is full the
    record is dropped and counted (``dropped``) — tracing must never
    backpressure the data path.  ``close()`` flushes what is queued.
    """

    _SENTINEL = None

    def __init__(self, trace_dir: str | Path, maxsize: int = 8192,
                 filename: str = "spans.jsonl"):
        self.path = Path(trace_dir) / filename
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._q: queue.Queue = queue.Queue(maxsize=maxsize)
        self.written = 0
        self.dropped = 0
        self._closed = False
        self._thread = threading.Thread(
            target=self._drain, name="trace-writer", daemon=True
        )
        self._thread.start()

    def write(self, record: dict) -> None:
        """Enqueue one JSONL record (span or timeline event); never blocks."""
        if self._closed:
            self.dropped += 1
            return
        try:
            self._q.put_nowait(record)
        except queue.Full:
            self.dropped += 1

    def _drain(self) -> None:
        with open(self.path, "a", encoding="utf-8") as f:
            while True:
                rec = self._q.get()
                if rec is self._SENTINEL:
                    f.flush()
                    return
                try:
                    f.write(json.dumps(rec, separators=(",", ":")) + "\n")
                    self.written += 1
                except (TypeError, ValueError):
                    self.dropped += 1

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._q.put(self._SENTINEL)
        self._thread.join(timeout=5.0)

    def stats(self) -> dict:
        return {"written": self.written, "dropped": self.dropped,
                "path": str(self.path)}


class Tracer:
    """One component's handle on the trace stream.

    Created per component (``"daemon"``, ``"receiver"``, ...) by
    :meth:`repro.obs.Telemetry.tracer`; holds the shared writer and the
    sampling fraction.  Callers check :meth:`sampled` once per batch and
    only then capture wall timestamps and call :meth:`span`.
    """

    __slots__ = ("writer", "component", "sample")

    def __init__(self, writer: TraceWriter, component: str, sample: float):
        self.writer = writer
        self.component = component
        self.sample = sample

    def sampled(self, epoch: int, node: int, seq: int) -> bool:
        return trace_sampled(epoch, node, seq, self.sample)

    def span(self, key: tuple[int, int, int], name: str,
             t0: int, t1: int, **extra) -> None:
        """Record one span for batch ``key = (epoch, node, seq)``.

        ``t0``/``t1`` are wall ``time.time_ns()`` values bracketing the
        stage.  Extra keyword fields (e.g. ``nbytes``) are carried through
        to the JSONL record.
        """
        rec = {
            "trace": trace_id(*key),
            "span": name,
            "component": self.component,
            "t0": int(t0),
            "t1": int(t1),
        }
        if extra:
            rec.update(extra)
        self.writer.write(rec)
