"""Planner — Algorithm 2's planning half (lines 1–7).

From shard index metadata alone (never touching record bytes), the Planner
produces, for every epoch and compute node, the exact contiguous TFRecord
byte ranges forming each fixed-size batch:

1. load ``mapping_shard_*.json`` indexes (done by
   :class:`~repro.tfrecord.sharder.ShardedDataset`);
2. build the global label map;
3. per epoch: shuffle the shard list, assign shards to nodes round-robin
   (or replicate, per config), slice each shard into runs of ``B``
   consecutive records, and shuffle batch dispatch order;
4. split each node's batch list into ``T`` per-thread work lists.

Invariants (tested property-style):
* partition mode: per epoch, every record is assigned to exactly one node;
* every batch has exactly ``B`` records except possibly a shard's tail;
* each batch is one contiguous byte range within one shard.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Collection, Iterable

import numpy as np

from repro.core.config import EMLIOConfig
from repro.tfrecord.sharder import ShardedDataset


@dataclass(frozen=True)
class BatchAssignment:
    """One planned batch: a contiguous record run inside one shard."""

    epoch: int
    node_id: int
    batch_index: int  # dispatch order within (epoch, node)
    shard: str
    shard_path: str
    start_record: int
    offset: int
    nbytes: int
    count: int
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.count != len(self.labels):
            raise ValueError(
                f"count {self.count} != len(labels) {len(self.labels)} for batch "
                f"(epoch={self.epoch}, node={self.node_id}, index={self.batch_index})"
            )


@dataclass(frozen=True)
class BatchPlan:
    """The full plan: assignments for every (epoch, node)."""

    assignments: tuple[BatchAssignment, ...]
    num_nodes: int
    epochs: int
    batch_size: int
    coverage: str

    def for_epoch_node(self, epoch: int, node_id: int) -> list[BatchAssignment]:
        return [
            a
            for a in self.assignments
            if a.epoch == epoch and a.node_id == node_id
        ]

    def thread_splits(
        self, epoch: int, node_id: int, threads: int
    ) -> list[list[BatchAssignment]]:
        """Algorithm 2 line 7: split a node's work into T subsets.

        Round-robin over the dispatch order so threads stay load-balanced
        even when shard sizes differ.
        """
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        batches = self.for_epoch_node(epoch, node_id)
        return [batches[t::threads] for t in range(threads)]

    def batches_per_node(self, node_id: int, epoch: int | None = None) -> int:
        return len(
            [
                a
                for a in self.assignments
                if a.node_id == node_id and (epoch is None or a.epoch == epoch)
            ]
        )

    def samples_per_node(self, node_id: int, epoch: int) -> int:
        return sum(a.count for a in self.for_epoch_node(epoch, node_id))

    def keys(self, epoch: int | None = None) -> set[tuple[int, int, int]]:
        """Delivery keys ``(epoch, node_id, batch_index)`` of every batch.

        ``batch_index`` doubles as the payload sequence number, so these are
        exactly the keys a :class:`~repro.core.recovery.DeliveryLedger`
        records.
        """
        return {
            (a.epoch, a.node_id, a.batch_index)
            for a in self.assignments
            if epoch is None or a.epoch == epoch
        }

    def residual(
        self,
        delivered: Collection[tuple[int, int, int]],
        epoch: int | None = None,
        shards: Iterable[str] | None = None,
    ) -> "BatchPlan":
        """The sub-plan still owed after ``delivered`` keys have landed.

        Used by failover/resume: assignments are reused verbatim from this
        plan, so every planner invariant (contiguity, batch size, no record
        assigned twice) carries over to the residual by construction.
        ``epoch``/``shards`` optionally narrow the residual to one epoch or
        one daemon's shard set.
        """
        delivered = set(delivered)
        shard_set = None if shards is None else set(shards)
        return replace(self, assignments=tuple(
            a
            for a in self.assignments
            if (a.epoch, a.node_id, a.batch_index) not in delivered
            and (epoch is None or a.epoch == epoch)
            and (shard_set is None or a.shard in shard_set)
        ))


class Planner:
    """Builds a :class:`BatchPlan` from a sharded dataset and config."""

    def __init__(self, dataset: ShardedDataset, num_nodes: int, config: EMLIOConfig) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.dataset = dataset
        self.num_nodes = num_nodes
        self.config = config
        # Algorithm 2 line 2: the global label map.
        self.label_map = dataset.labels()

    def _shard_batches(self, ix, rng: np.random.Generator) -> list[dict]:
        """Slice one shard into contiguous B-record runs, shuffled order."""
        runs = ix.contiguous_runs(self.config.batch_size)
        order = rng.permutation(len(runs))
        out = []
        for run_i in order:
            start, offset, nbytes = runs[run_i]
            labels = tuple(
                e.label for e in ix.entries[start : start + self.config.batch_size]
            )
            out.append(
                dict(
                    shard=ix.shard,
                    shard_path=ix.path,
                    start_record=start,
                    offset=offset,
                    nbytes=nbytes,
                    count=len(labels),
                    labels=labels,
                )
            )
        return out

    def plan(self) -> BatchPlan:
        """Produce assignments for all epochs (Algorithm 2 lines 3–7)."""
        cfg = self.config
        assignments: list[BatchAssignment] = []
        for epoch in range(cfg.epochs):
            rng = np.random.default_rng((cfg.seed, epoch))
            shards = list(self.dataset.indexes)
            shard_order = rng.permutation(len(shards))  # line 4: shuffle
            shuffled = [shards[i] for i in shard_order]

            if cfg.coverage == "partition":
                node_shards: list[list] = [[] for _ in range(self.num_nodes)]
                for i, ix in enumerate(shuffled):  # line 5: round-robin
                    node_shards[i % self.num_nodes].append(ix)
            else:  # replicate: every node gets every shard
                node_shards = [list(shuffled) for _ in range(self.num_nodes)]

            for node_id, shard_list in enumerate(node_shards):
                batches: list[dict] = []
                for ix in shard_list:
                    batches.extend(self._shard_batches(ix, rng))
                # Shuffle dispatch order across shards too, so a node doesn't
                # consume one shard's classes in a burst.
                dispatch = rng.permutation(len(batches))
                for bi, src in enumerate(dispatch):
                    b = batches[src]
                    assignments.append(
                        BatchAssignment(
                            epoch=epoch,
                            node_id=node_id,
                            batch_index=bi,
                            **b,
                        )
                    )
        return BatchPlan(
            assignments=tuple(assignments),
            num_nodes=self.num_nodes,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            coverage=cfg.coverage,
        )
