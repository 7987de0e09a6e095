"""The four benchmark workloads: dataset geometry, deployment spec, and the
reference values the runner checks outputs against.

Each workload loads a different set of layers (``src/repro/<module>``) so
that an optimisation of one layer has a workload that exercises it and
workloads that bypass it — see README.md for the interaction table.  The
geometry deliberately steers around known defects (README, "Known
defects"): TCP frames stay below ``BufferPool.initial_size`` (64 KiB),
``hwm`` stays at 16 on shaped links, and the token/TCP and token/shm
workloads get three warm-up epochs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.api import ClusterSpec
from repro.api.spec import (
    EnergySpec,
    NetworkSpec,
    ObservabilitySpec,
    PipelineSpec,
    ReceiverSpec,
    RecoverySpec,
    StorageSpec,
)
from repro.tfrecord.reader import scan_records
from repro.tfrecord.sharder import ShardedDataset, unpack_example, write_shards

BATCH_SIZE = 8
_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "imagenet" (64x64 sjpg) or "tokens" (context_len 1024, 4 KiB records)
    n: int
    records_per_shard: int
    warm_epochs: int
    #: Measured-epoch wall time on the seed commit (2-vCPU sandbox).  Only
    #: sizes how many epochs get *planned* for a ``--seconds`` window; the
    #: measuring loop itself stops on the clock.
    nominal_epoch_s: float
    network: NetworkSpec
    storage: StorageSpec = StorageSpec(verify_reads="open")
    recovery: bool = False
    #: Cache capacity as a fraction of the dataset's bytes (0 = no cache).
    cache_fraction: float = 0.0

    @property
    def codec(self) -> str:
        return "tokens" if self.kind == "tokens" else "auto"

    def build_dataset(self, root: Path, seed: int, smoke: bool) -> ShardedDataset:
        """Generate the shards from ``seed`` (smoke: an eighth of everything)."""
        n = self.n // 8 if smoke else self.n
        per_shard = self.records_per_shard // 8 if smoke else self.records_per_shard
        if self.kind == "tokens":
            from repro.data.text import SyntheticTokenDataset

            gen = iter(SyntheticTokenDataset(n, context_len=1024, vocab_size=32_000, seed=seed))
            return write_shards(gen, root, records_per_shard=per_shard)
        from repro.data.datasets import build_dataset

        return build_dataset(
            "imagenet", n, root, seed=seed, records_per_shard=per_shard,
            image_hw=(64, 64), num_classes=10,
        )

    def spec(
        self,
        seed: int,
        epochs: int,
        dataset: ShardedDataset,
        *,
        ledger_path: str | None = None,
        trace_dir: str | None = None,
    ) -> ClusterSpec:
        """The deployment spec; ``trace_dir`` switches on 100 % tracing and
        the energy monitor (the traced pass), otherwise both stay off."""
        storage = replace(self.storage, cache_bytes=int(dataset.nbytes * self.cache_fraction))
        return ClusterSpec(
            name=self.name,
            pipeline=PipelineSpec(
                batch_size=BATCH_SIZE, epochs=epochs, hwm=16, streams_per_node=2,
                workers=1, output_hw=(32, 32), seed=seed, codec=self.codec,
            ),
            storage=storage,
            # A wedged epoch (known defect a) costs seconds, not a minute.
            receivers=ReceiverSpec(stall_timeout_s=15.0),
            network=self.network,
            recovery=RecoverySpec(enabled=self.recovery, ledger_path=ledger_path),
            energy=EnergySpec(enabled=trace_dir is not None),
            observability=ObservabilitySpec(
                trace_dir=trace_dir, trace_sample=1.0 if trace_dir else 0.0
            ),
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="img_wan30",
            why="paper headline: sjpg images over a 30 ms WAN; codec+gpu do ~95% of CPU work, RTT must stay hidden",
            kind="imagenet", n=2048, records_per_shard=256, warm_epochs=1, nominal_epoch_s=0.85,
            network=NetworkSpec(rtt_ms=30.0, transport="tcp"),
        ),
        Workload(
            name="tok_lan10",
            why="LLM token records over a 10 ms LAN, recovery on: storage+tfrecord+serialize+net+core (ledger writes) do the work",
            kind="tokens", n=8192, records_per_shard=1024, warm_epochs=3, nominal_epoch_s=0.38,
            network=NetworkSpec(rtt_ms=10.0, transport="tcp"), recovery=True,
        ),
        Workload(
            name="tok_shm",
            why="same tokens over the unshaped shm ring: net differs (ring+doorbell vs socket+pool), storage/serialize identical",
            kind="tokens", n=8192, records_per_shard=1024, warm_epochs=3, nominal_epoch_s=0.26,
            network=NetworkSpec(transport="shm"),
        ),
        Workload(
            name="tok_obj",
            why="tokens from a 5 ms object store, cache = 1/4 dataset, CRC on every read: storage cache/prefetch and tfrecord CRC dominate",
            kind="tokens", n=1024, records_per_shard=256, warm_epochs=1, nominal_epoch_s=0.72,
            network=NetworkSpec(transport="tcp"),
            storage=StorageSpec(backend="objectstore", latency_ms=5.0, verify_reads=True),
            cache_fraction=0.25,
        ),
    )
}


# -- output checks -------------------------------------------------------------


def labels_digest(labels) -> str:
    """Digest of a label *multiset* (order-independent)."""
    arr = np.sort(np.asarray(labels, dtype=np.int64).ravel())
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def rows_digest(batch: np.ndarray) -> int:
    """Order-independent digest of a batch's samples: the sum (mod 2**64)
    of one keyed hash per sample, so batches combine by addition."""
    total = 0
    for row in np.ascontiguousarray(batch):
        total += int.from_bytes(hashlib.blake2b(row.tobytes(), digest_size=8).digest(), "little")
    return total & _U64


def combine_digests(parts) -> str:
    return f"{sum(parts) & _U64:016x}"


def reference(dataset: ShardedDataset, workload: Workload) -> dict:
    """What one epoch must deliver, read straight from the shards: sample
    count, label multiset, and (token workloads) the tensor digest."""
    labels = [y for shard in dataset.labels().values() for y in shard]
    ref = {"samples": len(labels), "labels": labels_digest(labels), "tensors": None}
    if workload.kind == "tokens":
        from repro.data.text import tokens_decode

        parts = []
        for ix in dataset.indexes:
            rows = [
                tokens_decode(unpack_example(rec)[0])
                for rec in scan_records(dataset.shard_path(ix.shard), verify=False)
            ]
            parts.append(rows_digest(np.stack(rows).astype(np.int64)))
        ref["tensors"] = combine_digests(parts)
    return ref
