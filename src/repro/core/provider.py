"""BatchProvider — the glue between the receiver queue and the pipeline.

Exposes decoded :class:`~repro.serialize.payload.BatchPayload` objects as a
DALI ``external_source`` callable (paper §4.1: "A BatchProvider deserializes
each payload and exposes the samples as DALI's external_source").

The provider decides nothing: it drives its receiver's
:class:`~repro.core.deliverywindow.DeliveryWindow` — offers the payloads
it pulls off the receiver's queue and pops the next one to emit, holding
the window lock around each call and never while it blocks on the queue.
One provider serves one consume pass.
"""

from __future__ import annotations

import queue
import threading

from repro.core.deliverywindow import DONE, MORE, WAIT, DeliveryWindow
from repro.gpu.pipeline import EndOfData
from repro.net.buffers import release_samples
from repro.serialize.payload import BatchPayload

#: Queue sentinel a receiver kill injects to unblock a waiting provider.
ABORT = object()

#: Queue sentinel that makes a waiting provider look at its window again
#: (a relinquish shrank the epoch's expectation).
WAKE = object()


class ProviderAborted(RuntimeError):
    """The provider was aborted mid-epoch (receiver killed / torn down)."""


class BatchProvider:
    """One consume pass of ``epoch`` over a receiver's window.

    ``source_queue`` is what the receive thread fills with payloads (or, if
    that thread dies, with its exception — which fails the epoch at once);
    ``lock`` guards ``window``; ``timeout`` is how long to wait for the
    next payload before declaring the stream stalled.
    """

    def __init__(
        self,
        source_queue: "queue.Queue[BatchPayload]",
        window: DeliveryWindow,
        lock: threading.Lock,
        epoch: int,
        timeout: float = 60.0,
    ) -> None:
        self.source_queue = source_queue
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
        the consumer: the window owes the rest again."""
        with self.lock:
            self.window.rewind(self.epoch, self._first + consumed)
            self._settled = True  # a worker outliving teardown emits nothing

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
                payload = self.source_queue.get(step is WAIT, self.timeout)
            except queue.Empty:
                if step is WAIT:
                    raise RuntimeError(
                        f"batch stream stalled: {self.progress()} batches after "
                        f"{self.timeout}s wait"
                    ) from None
                more = False  # nothing else ready: emit what the window holds
                continue
            if payload is ABORT:
                raise ProviderAborted(f"provider aborted: {self.progress()} delivered")
            if payload is WAKE:
                continue
            if isinstance(payload, BaseException):
                # The receive thread died with this error: nothing more
                # arrives.  Left queued so later epochs fail fast too.
                self.source_queue.put(payload)
                raise RuntimeError(f"receive thread died: {payload!r}") from payload
            with self.lock:
                kept = self.window.offer(payload)
            if not kept:
                release_samples(payload.samples)  # dropped: return its buffer

    @property
    def complete(self) -> bool:
        """Whether the epoch owes nothing more."""
        with self.lock:
            return self.window.remaining(self.epoch) <= 0
