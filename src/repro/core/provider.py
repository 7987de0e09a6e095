"""BatchProvider — the glue between the receiver's socket and the pipeline.

A DALI ``external_source`` callable (paper §4.1: "A BatchProvider
deserializes each payload and exposes the samples as DALI's
external_source").  It runs on the pipeline's worker lanes, one call at
a time, and takes payloads from a ``source(block, timeout)`` callable: the
receiver's read and decode of its PULL socket.

The provider decides nothing: it drives its receiver's
:class:`~repro.core.deliverywindow.DeliveryWindow` — offers the payloads
its source yields and pops the next one to emit, holding the window lock
around each call and never while it waits on the source.  One provider
serves one consume pass.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable

from repro.core.deliverywindow import DONE, MORE, WAIT, DeliveryWindow
from repro.gpu.pipeline import EndOfData
from repro.net.buffers import release_samples
from repro.serialize.payload import BatchPayload


class BatchProvider:
    """One consume pass of ``epoch`` over a receiver's window.

    ``source(block, timeout)`` has ``queue.Queue.get``'s contract: the next
    payload, ``queue.Empty`` when none arrives in time — and ``None`` when
    woken to look at the window again (a relinquish shrank the epoch's
    expectation).  Whatever else it raises fails the pass.  ``lock`` guards
    ``window``; ``timeout`` is how long to wait for the next payload before
    declaring the stream stalled.
    """

    def __init__(
        self,
        source: Callable[[bool, float], BatchPayload | None],
        window: DeliveryWindow,
        lock: threading.Lock,
        epoch: int,
        timeout: float = 60.0,
    ) -> None:
        self.source = source
        self.window = window
        self.lock = lock
        self.epoch = epoch
        self.timeout = timeout
        with lock:
            self._emitted = window.emitted(epoch)
        # The pipeline is FIFO: this pass's k-th output is emission first + k.
        self._first = len(self._emitted)
        self._settled = False

    def key(self, k: int) -> tuple[int, int, int] | None:
        """Delivery key of this pass's ``k``-th emitted batch (None: not yet)."""
        i = self._first + k
        return self._emitted[i] if i < len(self._emitted) else None

    def progress(self) -> str:
        """``emitted/expected`` batches of the epoch."""
        with self.lock:
            done = len(self._emitted)
            return f"{done}/{done + self.window.remaining(self.epoch)}"

    def settle(self, consumed: int) -> None:
        """The pass is over and only its first ``consumed`` batches reached
        the consumer: the window owes the rest again, and every later call
        raises :class:`EndOfData` so the pass's lanes return."""
        with self.lock:
            self.window.rewind(self.epoch, self._first + consumed)
            self._settled = True

    def __call__(self) -> tuple[list[bytes], list[int]]:
        """The external_source callback: next (samples, labels)."""
        more = True
        while True:
            with self.lock:
                step = DONE if self._settled else self.window.pop(more)
            if step is DONE:
                raise EndOfData
            if step is not WAIT and step is not MORE:
                return step.samples, step.labels
            try:  # block only when the window holds nothing to emit
                payload = self.source(step is WAIT, self.timeout)
            except queue.Empty:
                if step is WAIT:
                    raise RuntimeError(
                        f"batch stream stalled: {self.progress()} batches after "
                        f"{self.timeout}s wait"
                    ) from None
                more = False  # nothing else ready: emit what the window holds
                continue
            if payload is None:
                continue  # woken: the window may owe less now
            with self.lock:
                kept = self.window.offer(payload)
            if not kept:
                release_samples(payload.samples)  # dropped: return its buffer

    @property
    def complete(self) -> bool:
        """Whether the epoch owes nothing more."""
        with self.lock:
            return self.window.remaining(self.epoch) <= 0
