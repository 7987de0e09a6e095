"""SendQueue — what one daemon still owes, as data (Algorithm 2's SendWorker).

One per :class:`~repro.core.daemon.EMLIODaemon`, for the deployment, built
from the plan and the shards the daemon owns or from a failover ``Serve``'s
explicit assignments.  It owns the serve order ``(epoch, batch_index,
node)``, the running epoch's skip set, claimed keys (given up to a
scale-out rebalance) and committed keys (taken by a send worker) — never
both for one key, so exactly one side serves each batch — dropped nodes,
and the ranges fed to a storage cache's fetch window.

Pure: no thread, socket, clock, queue or transport.  The daemon holds one
lock around every call and does the I/O; per batch a send worker makes one
call, :meth:`SendQueue.commit`.
"""

from __future__ import annotations

import bisect
from typing import Collection, Iterable

from repro.core.planner import BatchAssignment, BatchPlan

Key = tuple[int, int, int]  # (epoch, node_id, seq): a delivery key


def _key(a: BatchAssignment) -> Key:
    return (a.epoch, a.node_id, a.batch_index)


class SendQueue:
    """One daemon's work for the deployment.

    ``assignments`` None: the plan's assignments of ``shards`` (None: every
    shard), re-divisible at an epoch start with :meth:`own`.  Otherwise
    exactly ``assignments`` — a failover daemon's list, which may hold
    re-targeted copies from outside the plan.  Batches for ``dropped``
    nodes are never served.
    """

    def __init__(
        self,
        plan: BatchPlan,
        shards: Collection[str] | None = None,
        assignments: Iterable[BatchAssignment] | None = None,
        dropped: Iterable[int] = (),
    ) -> None:
        self._plan = plan
        self._explicit = assignments is not None
        self.shards = None if self._explicit or shards is None else frozenset(shards)
        self._dropped = set(dropped)
        self._skip: Collection[Key] = frozenset()
        self._claimed: set[Key] = set()  # given up to a rebalance
        self._taken: set[Key] = set()  # committed to by a send worker
        self._set_order(assignments if self._explicit else self._planned(self.shards))

    def _planned(self, shards: frozenset | None) -> list[BatchAssignment]:
        return [a for a in self._plan.assignments if shards is None or a.shard in shards]

    def _set_order(self, assignments: Iterable[BatchAssignment]) -> None:
        # Dropped nodes leave the order for good: a node id is never reused.
        order = sorted((a for a in assignments if a.node_id not in self._dropped),
                       key=lambda a: (a.epoch, a.batch_index, a.node_id))
        self.assignments: tuple[BatchAssignment, ...] = tuple(order)
        self._epochs = [a.epoch for a in order]
        self._ranges: list[tuple[str, int, int, int]] | None = None

    def _epoch(self, epoch: int) -> tuple[BatchAssignment, ...]:
        lo = bisect.bisect_left(self._epochs, epoch)
        return self.assignments[lo:bisect.bisect_right(self._epochs, epoch, lo)]

    def own(self, shards: Collection[str] | None) -> None:
        """Re-own ``shards`` of the plan (an epoch start re-divided them)."""
        shards = None if shards is None else frozenset(shards)
        if not self._explicit and shards != self.shards:
            self.shards = shards
            self._set_order(self._planned(shards))

    def serve(self, epoch: int,
              skip: Collection[Key] | None = None) -> dict[int, list[BatchAssignment]]:
        """Start serving ``epoch``: node -> its batches in dispatch order,
        less ``skip`` (keys already delivered).  Commitments of other
        epochs are forgotten; a claim only ever names the running epoch."""
        self._skip = skip if skip is not None else frozenset()
        self._taken = {k for k in self._taken if k[0] == epoch}
        per_node: dict[int, list[BatchAssignment]] = {}
        for a in self._epoch(epoch):
            if _key(a) not in self._skip:
                per_node.setdefault(a.node_id, []).append(a)
        return {node: per_node[node] for node in sorted(per_node)}

    def commit(self, a: BatchAssignment) -> bool:
        """A send worker takes ``a``: False when it is no longer owed here
        (claimed by a rebalance, or its node dropped)."""
        key = _key(a)
        if a.node_id in self._dropped or key in self._claimed:
            return False
        self._taken.add(key)
        return True

    def claim(self, keys: Iterable[Key]) -> set[Key]:
        """Give up the ``keys`` still owed here and not yet committed; a
        claimed key is never served by this queue again."""
        wanted = set(keys)
        owned = {_key(a) for e in {k[0] for k in wanted} for a in self._epoch(e)}
        given = {k for k in wanted & owned if k not in self._taken and k not in self._skip}
        self._claimed |= given
        return given

    def drop(self, node: int) -> None:
        """Stop serving ``node`` (declared dead)."""
        if node not in self._dropped:
            self._dropped.add(node)
            self._set_order(self.assignments)

    def has_dropped(self, node: int) -> bool:
        return node in self._dropped

    def ranges(self, start_epoch: int = 0) -> list[tuple[str, int, int, int]]:
        """``(shard_path, offset, nbytes, count)`` of every batch from
        ``start_epoch`` on, in serve order: the plan a cache prefetches."""
        if self._ranges is None:
            self._ranges = [(a.shard_path, a.offset, a.nbytes, a.count) for a in self.assignments]
        return self._ranges[bisect.bisect_left(self._epochs, start_epoch):]
