"""DeliveryWindow — what one receiver still expects, as data (Algorithm 3).

One per :class:`~repro.core.receiver.EMLIOReceiver`, for the deployment.
For each epoch it owns the expectation (planned − covered by the ledger −
relinquished to a joined node + adopted from a dead one), the dedup set
that drops an at-least-once transport's replays, the reorder heap,
payloads held for a later epoch, stale drops from an earlier one, and the
emitted order the receiver records in the ledger.  An epoch lives across
consume passes, so batches adopted after a pass ended are emitted by the
next; opening an epoch that owes nothing nets it afresh (a re-run).

Pure: no thread, socket, clock, queue or transport.  The receiver holds
one lock around every call; its :class:`~repro.core.provider.BatchProvider`
does the blocking, with one :meth:`~DeliveryWindow.offer` and one
:meth:`~DeliveryWindow.pop` per batch.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Collection, Iterable

Key = tuple[int, int, int]  # (epoch, node_id, seq): a delivery key

#: :meth:`DeliveryWindow.pop` steps: the epoch is over; block for the
#: next payload; take another payload if one is ready, else pop anyway.
DONE, WAIT, MORE = "done", "wait", "more"


@dataclass
class _Epoch:
    expected: int = 0  # before the epoch opens: the adopted count
    opened: bool = False
    seen: set[int] = field(default_factory=set)
    heap: list = field(default_factory=list)
    emitted: list[Key] = field(default_factory=list)

    @property
    def remaining(self) -> int:
        return self.expected - len(self.emitted)


class DeliveryWindow:
    """One receiver's exactly-once bookkeeping.

    ``dedup`` drops duplicate and stale payloads (counted in
    :attr:`duplicates` / :attr:`stale`) instead of raising; ``reorder``
    buffers up to that many payloads and emits the lowest seq first (0:
    arrival order).  Payloads need ``epoch``, ``node_id`` and ``seq``.
    """

    def __init__(self, dedup: bool = False, reorder: int = 0) -> None:
        if reorder < 0:
            raise ValueError(f"reorder window must be >= 0, got {reorder}")
        self.dedup = dedup
        self.reorder = reorder
        self.epoch: int | None = None  # the epoch being consumed
        self.duplicates = 0
        self.stale = 0
        self._epochs: dict[int, _Epoch] = {}
        self._held: dict[int, list] = {}  # later epochs' early payloads
        # (epoch, seq) moved to a joined node: never expected here again.
        self._relinquished: dict[int, set[int]] = {}
        self._pushes = 0  # heap tiebreak: equal seqs pop in arrival order

    def open(self, epoch: int, planned: Iterable[int], covered: Collection[int] = ()) -> list:
        """Consume ``epoch`` from now on; ``planned`` and ``covered`` are
        its planned seqs for this node and those a ledger holds.  An epoch
        that still owes batches carries on; otherwise it is netted afresh.
        Returns the held payloads dropped on the way (the caller frees them)."""
        dropped = []
        for e in [e for e in self._held if e < epoch]:
            held = self._held.pop(e)
            self.stale += len(held)
            dropped.extend(held)
        self._epochs = {e: st for e, st in self._epochs.items() if e >= epoch}
        self.epoch = epoch
        st = self._epochs.get(epoch)
        if st is None or not st.opened or st.remaining <= 0:
            adopted = st.expected if st is not None and not st.opened else 0
            if st is not None:
                dropped.extend(entry[2] for entry in st.heap)
            seen = set(covered) | self._relinquished.get(epoch, set())
            st = _Epoch(len(set(planned) - seen) + adopted, True, seen)
            self._epochs[epoch] = st
        for payload in self._held.pop(epoch, ()):
            if not self._admit(st, payload):
                dropped.append(payload)
        return dropped

    def adopt(self, epoch: int, n: int) -> None:
        """Expect ``n`` more batches of ``epoch``, re-targeted here."""
        self._epochs.setdefault(epoch, _Epoch()).expected += n

    def relinquish(self, keys: Iterable[tuple[int, int]]) -> bool:
        """Stop expecting ``(epoch, seq)`` keys re-owned elsewhere; a late
        copy then dedups.  True when an open epoch's expectation shrank
        (a consumer blocked on it must look again)."""
        shrank = False
        for epoch, seq in keys:
            gone = self._relinquished.setdefault(epoch, set())
            if seq in gone:
                continue
            gone.add(seq)
            st = self._epochs.get(epoch)
            if st is not None and st.opened and seq not in st.seen:
                st.seen.add(seq)
                st.expected -= 1
                shrank = True
        return shrank

    def offer(self, payload) -> bool:
        """A payload arrived; False when it is dropped (a duplicate, or a
        stale earlier epoch's) and the caller frees it."""
        epoch = payload.epoch
        if epoch > self.epoch:
            self._held.setdefault(epoch, []).append(payload)
            return True
        if epoch < self.epoch:
            if not self.dedup:
                raise RuntimeError(
                    f"epoch {epoch} payload in epoch {self.epoch} stream (seq {payload.seq})"
                )
            self.stale += 1
            return False
        return self._admit(self._epochs[epoch], payload)

    def _admit(self, st: _Epoch, payload) -> bool:
        if payload.seq in st.seen:
            if not self.dedup:
                raise RuntimeError(
                    f"duplicate batch delivery: epoch/index {(payload.epoch, payload.seq)}"
                )
            self.duplicates += 1
            return False
        st.seen.add(payload.seq)
        heapq.heappush(st.heap, (payload.seq, self._pushes, payload))
        self._pushes += 1
        return True

    def pop(self, more: bool = True):
        """The next payload to emit, or a step: :data:`DONE` (the epoch
        owes nothing), :data:`WAIT` (nothing buffered), :data:`MORE` (the
        reorder window has room; ``more=False`` pops what it holds)."""
        st = self._epochs[self.epoch]
        if st.remaining <= 0:
            return DONE
        if not st.heap:
            return WAIT
        if more and len(st.heap) < self.reorder and len(st.heap) < st.remaining:
            return MORE
        payload = heapq.heappop(st.heap)[2]
        st.emitted.append((payload.epoch, payload.node_id, payload.seq))
        return payload

    def remaining(self, epoch: int) -> int:
        """Batches of ``epoch`` still to emit (adopted ones before it opens)."""
        st = self._epochs.get(epoch)
        return st.remaining if st is not None else 0

    def emitted(self, epoch: int) -> list[Key]:
        """``epoch``'s emitted keys in order — the live, append-only list."""
        return self._epochs[epoch].emitted

    def rewind(self, epoch: int, consumed: int) -> None:
        """Only the first ``consumed`` emitted batches of ``epoch`` reached
        the consumer: the rest are owed again (a torn-down pass)."""
        st = self._epochs[epoch]
        for _e, _n, seq in st.emitted[consumed:]:
            st.seen.discard(seq)
        del st.emitted[consumed:]
