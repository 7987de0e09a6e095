"""BatchProvider — the glue between the receiver queue and the pipeline.

Exposes decoded :class:`~repro.serialize.payload.BatchPayload` objects as a
DALI ``external_source`` callable (paper §4.1: "A BatchProvider deserializes
each payload and exposes the samples as DALI's external_source").  Delivery
is whatever order payloads arrived in (out-of-order prefetching); the
provider tracks which (epoch, seq) pairs it has seen so epoch completeness
can be asserted.

Recovery extensions (see :mod:`repro.core.recovery`): with ``dedup=True``
duplicate payloads — the signature of an at-least-once transport replaying
in-flight messages after a reconnect or failover — are silently dropped and
counted instead of failing the epoch; ``already_delivered`` seeds the seen
set from a persistent ledger so a restarted receiver never re-emits a batch;
``reorder_window`` buffers up to W payloads in a min-heap keyed by sequence
number, smoothing arrival order back toward dispatch order with bounded
memory; ``on_deliver`` fires exactly once per emitted batch (the ledger
write hook).
"""

from __future__ import annotations

import collections
import heapq
import queue
import threading
from typing import Callable, Iterable

from repro.gpu.pipeline import EndOfData
from repro.net.buffers import release_samples
from repro.serialize.payload import BatchPayload

#: Queue sentinel abort() injects to unblock a provider waiting on payloads.
_ABORT = object()

#: Queue sentinel shrink() injects so a provider blocked on the payload
#: queue re-evaluates its (now smaller) expectation instead of stalling.
_WAKE = object()


class ProviderAborted(RuntimeError):
    """The provider was aborted mid-epoch (receiver killed / torn down)."""


class BatchProvider:
    """Pulls payloads from the receiver's shared queue for one epoch.

    The ``delivered``/``duplicates`` counters here are what the receiver
    reports upward and the registry exports as
    ``emlio_batches_received_total`` / ``emlio_duplicates_dropped_total``
    (:mod:`repro.obs.metrics`).

    Parameters
    ----------
    source_queue:
        Shared queue the receiver thread fills with :class:`BatchPayload`
        (or, if that thread dies, with its exception — which fails the
        epoch at once).
    expected_batches:
        Number of *new* batches this node expects for the epoch (planned
        minus any already in the ledger); after that many, the provider
        raises :class:`EndOfData`.
    timeout:
        Safety net: seconds to wait for the next payload before declaring
        the stream stalled.
    dedup:
        Drop duplicate ``(epoch, seq)`` payloads instead of raising.
    already_delivered:
        ``(epoch, seq)`` keys delivered in a previous run (from the ledger);
        replays of these are treated as duplicates.
    on_deliver:
        Observation hook called once per payload at *pipeline handoff* —
        before the prefetch/augment stages, not at consumption.  Do not
        wire a delivery ledger here: prefetched-but-never-consumed batches
        would be marked delivered and lost on resume.  The receiver records
        its ledger at the consumption boundary via :attr:`emitted` instead.
    reorder_window:
        Buffer up to this many payloads and emit lowest-sequence-first;
        0 passes payloads through in arrival order.
    epoch:
        When set, only this epoch's payloads are emitted.  A *previous*
        epoch's payload — a replayed tail left in the shared queue by an
        at-least-once transport — is stale: dropped (``dedup``) or rejected.
        A *future* epoch's payload — daemons pipelining the next epoch while
        this one drains — is parked in ``holdover`` for the next provider.
    holdover:
        Deque shared across one receiver's successive epoch providers,
        carrying future-epoch payloads forward.
    """

    def __init__(
        self,
        source_queue: "queue.Queue[BatchPayload]",
        expected_batches: int,
        timeout: float = 60.0,
        dedup: bool = False,
        already_delivered: Iterable[tuple[int, int]] | None = None,
        on_deliver: Callable[[BatchPayload], None] | None = None,
        reorder_window: int = 0,
        epoch: int | None = None,
        holdover: "collections.deque[BatchPayload] | None" = None,
    ) -> None:
        if expected_batches < 0:
            raise ValueError(f"expected_batches must be >= 0, got {expected_batches}")
        if reorder_window < 0:
            raise ValueError(f"reorder_window must be >= 0, got {reorder_window}")
        self.source_queue = source_queue
        self.expected_batches = expected_batches
        self.timeout = timeout
        self.dedup = dedup
        self.on_deliver = on_deliver
        self.reorder_window = reorder_window
        self.epoch = epoch
        self.holdover = holdover if holdover is not None else collections.deque()
        self.delivered = 0
        self.duplicates = 0
        self.stale = 0  # wrong-epoch payloads dropped (dedup mode)
        # (epoch, node_id, seq) of every emitted payload, in emission order.
        # The pipeline is FIFO, so index k here is the k-th batch it yields —
        # how the receiver maps consumed batches back to delivery keys.
        self.emitted: list[tuple[int, int, int]] = []
        self.seen: set[tuple[int, int]] = set(already_delivered or ())
        self._window: list[tuple[int, int, BatchPayload]] = []
        self._pushes = 0
        self._lock = threading.Lock()
        # Guards the expected_batches/_ended pair so a concurrent extend()
        # and the EndOfData decision serialize; never held while blocking.
        self._count_lock = threading.Lock()
        self._aborted = threading.Event()
        self._ended = False  # EndOfData already signalled to the pipeline

    def _pop_holdover(self) -> BatchPayload | None:
        """Next parked payload belonging to this epoch, if any."""
        for i, payload in enumerate(self.holdover):
            if self.epoch is None or payload.epoch == self.epoch:
                del self.holdover[i]
                return payload
        return None

    def _fill_window(self) -> None:
        """Buffer payloads until the reorder window (or the epoch) is full.

        Blocks (with the stall timeout) only when the window is empty;
        top-ups beyond the first payload are opportunistic.
        """
        target = max(1, self.reorder_window)
        while (
            len(self._window) < target
            and self.delivered + len(self._window) < self.expected_batches
        ):
            if self._aborted.is_set():
                raise ProviderAborted(
                    f"provider aborted: {self.delivered}/{self.expected_batches} delivered"
                )
            payload = self._pop_holdover()
            if payload is None:
                block = not self._window
                try:
                    if block:
                        payload = self.source_queue.get(timeout=self.timeout)
                    else:
                        payload = self.source_queue.get_nowait()
                except queue.Empty:
                    if block:
                        raise RuntimeError(
                            f"batch stream stalled: {self.delivered}/{self.expected_batches} "
                            f"batches after {self.timeout}s wait"
                        ) from None
                    return
                if payload is _ABORT:
                    raise ProviderAborted(
                        f"provider aborted: {self.delivered}/{self.expected_batches} delivered"
                    )
                if payload is _WAKE:
                    continue  # expectation may have shrunk; re-check the loop
                if isinstance(payload, BaseException):
                    # The receive thread died with this error: nothing more
                    # arrives.  Left queued so later epochs fail fast too.
                    self.source_queue.put(payload)
                    raise RuntimeError(f"receive thread died: {payload!r}") from payload
            if self.epoch is not None and payload.epoch > self.epoch:
                # Daemons pipelining the next epoch: park it for the next
                # epoch's provider rather than mislabeling it stale.
                self.holdover.append(payload)
                continue
            if self.epoch is not None and payload.epoch < self.epoch:
                if not self.dedup:
                    raise RuntimeError(
                        f"epoch {payload.epoch} payload in epoch {self.epoch} stream "
                        f"(seq {payload.seq})"
                    )
                self.stale += 1
                release_samples(payload.samples)  # dropped: return its buffer
                continue
            key = (payload.epoch, payload.seq)
            if key in self.seen:
                if not self.dedup:
                    raise RuntimeError(f"duplicate batch delivery: epoch/index {key}")
                self.duplicates += 1
                release_samples(payload.samples)  # dropped: return its buffer
                continue
            self.seen.add(key)
            heapq.heappush(self._window, (payload.seq, self._pushes, payload))
            self._pushes += 1

    def extend(self, extra: int) -> bool:
        """Grow the epoch's expectation mid-flight (receiver failover adopt).

        Returns False when the provider has already signalled EndOfData —
        the epoch finished here and the batches must go to a receiver whose
        epoch is still active.  Synchronizes on the counter lock only (the
        caller is a control-plane thread while ``__call__`` may be blocked
        on the payload queue holding the main provider lock), so a bump and
        the EndOfData decision can never interleave: either the bump lands
        first and is honoured, or extend() observes ``_ended`` and refuses.
        """
        if extra < 0:
            raise ValueError(f"extend() needs extra >= 0, got {extra}")
        with self._count_lock:
            if self._ended or self._aborted.is_set():
                return False
            self.expected_batches += extra
            return True

    def shrink(self, keys: Iterable[tuple[int, int]]) -> bool:
        """Give up ``(epoch, seq)`` keys re-owned elsewhere (scale-out).

        The inverse of :meth:`extend`: the expectation drops by the number
        of *fresh* keys (idempotent — a key already seen, delivered, or
        shrunk before is skipped), the keys join the seen set so a stray
        late copy dedups instead of double-delivering, and a wake sentinel
        unblocks a provider waiting on the payload queue so it re-checks
        the smaller expectation.  Returns False once the provider has
        ended or aborted (nothing left to give up).
        """
        with self._count_lock:
            if self._ended or self._aborted.is_set():
                return False
            fresh = [k for k in keys if k not in self.seen]
            if fresh:
                # set.update is atomic under the GIL; _fill_window's reads
                # of ``seen`` never see a partial state.
                self.seen.update(fresh)
                self.expected_batches -= len(fresh)
                self.source_queue.put(_WAKE)
            return True

    def abort(self) -> None:
        """Unblock and fail the provider promptly (receiver kill path)."""
        self._aborted.set()
        self.source_queue.put(_ABORT)

    @property
    def active(self) -> bool:
        """Whether this epoch can still accept adopted work."""
        return not self._ended and not self._aborted.is_set()

    def __call__(self) -> tuple[list[bytes], list[int]]:
        """The external_source callback: next (samples, labels)."""
        with self._lock:
            with self._count_lock:
                if self.delivered >= self.expected_batches:
                    self._ended = True
                    raise EndOfData
            self._fill_window()
            if not self._window:
                # Only reachable when shrink() emptied the expectation out
                # from under a blocked fill: the epoch is simply over here.
                with self._count_lock:
                    self._ended = True
                raise EndOfData
            _seq, _n, payload = heapq.heappop(self._window)
            if self.on_deliver is not None:
                self.on_deliver(payload)
            self.emitted.append((payload.epoch, payload.node_id, payload.seq))
            self.delivered += 1
        return payload.samples, payload.labels

    @property
    def complete(self) -> bool:
        """Whether every expected batch was delivered."""
        with self._lock:
            return self.delivered >= self.expected_batches
