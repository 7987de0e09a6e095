"""DALI-style baseline: reader threads + GPU-offloaded preprocessing.

Reproduces the "NVIDIA DALI pipeline over NFSv4" baseline (§5.1):

* a TFRecord *reader* on the compute node fetching record ranges from the
  (possibly remote) filesystem — coarser than PyTorch's per-sample reads,
  one read per batch, but every read still crosses the mount and pays RTT;
* GPU-offloaded decode/augment via the DALI-like
  :class:`~repro.gpu.pipeline.Pipeline` with prefetch depth Q;
* multiple reader threads to overlap some I/O with compute.

This is why DALI beats PyTorch at every RTT in Figure 5 yet still degrades
steeply at 10–30 ms: prefetch depth bounds how many RTTs it can hide, and
all reads still originate from the compute side.
"""

from __future__ import annotations

import queue
import threading
from typing import Iterator

import numpy as np

from repro.gpu.device import SimulatedGPU
from repro.gpu.pipeline import EndOfData, Pipeline
from repro.loaders.base import LoaderStats
from repro.tfrecord.reader import read_records
from repro.tfrecord.sharder import ShardedDataset, unpack_example

_END = object()


class DALIStyleLoader:
    """Batch-granular reader + asynchronous GPU preprocessing."""

    def __init__(
        self,
        dataset: ShardedDataset,
        storage,
        batch_size: int = 32,
        read_threads: int = 2,
        prefetch: int = 2,
        output_hw: tuple[int, int] = (64, 64),
        gpu: SimulatedGPU | None = None,
        seed: int = 0,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if read_threads < 1:
            raise ValueError(f"read_threads must be >= 1, got {read_threads}")
        self.dataset = dataset
        self.storage = storage
        self.batch_size = batch_size
        self.read_threads = read_threads
        self.prefetch = prefetch
        self.output_hw = output_hw
        self.gpu = gpu or SimulatedGPU()
        self.seed = seed
        self.stats = LoaderStats()

    def _plan_batches(self, epoch_index: int) -> list[tuple[str, int, int, list[int]]]:
        """Batch plan: (shard path, offset, nbytes, labels) per batch.

        DALI's TFRecord reader shuffles shards and slices contiguous runs of
        B records, so each batch is one ranged read.
        """
        rng = np.random.default_rng((self.seed, epoch_index))
        shards = list(self.dataset.indexes)
        rng.shuffle(shards)
        plan = []
        for ix in shards:
            for start, offset, nbytes in ix.contiguous_runs(self.batch_size):
                labels = [e.label for e in ix.entries[start : start + self.batch_size]]
                plan.append((ix.path, offset, nbytes, labels))
        return plan

    def epoch(self, epoch_index: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        plan = self._plan_batches(epoch_index)
        task_q: queue.Queue = queue.Queue()
        raw_q: queue.Queue = queue.Queue(maxsize=max(1, self.prefetch))
        for item in plan:
            task_q.put(item)
        for _ in range(self.read_threads):
            task_q.put(_END)

        def reader() -> None:
            while True:
                task = task_q.get()
                if task is _END:
                    raw_q.put(_END)
                    return
                path, offset, nbytes, labels = task
                try:
                    blob = self.storage.read_at(path, offset, nbytes)
                    self.stats.record_read(len(blob))
                    samples = [
                        unpack_example(record)[0]
                        for record in read_records(memoryview(blob), 0, len(labels), True)
                    ]
                    raw_q.put((samples, labels))
                except Exception as err:
                    raw_q.put(err)
                    return

        threads = [
            threading.Thread(target=reader, daemon=True, name=f"dali-reader{i}")
            for i in range(self.read_threads)
        ]
        for t in threads:
            t.start()

        finished = {"readers": 0}

        def source() -> tuple[list[bytes], list[int]]:
            while True:
                item = raw_q.get()
                if item is _END:
                    finished["readers"] += 1
                    if finished["readers"] == self.read_threads:
                        raise EndOfData
                    continue
                if isinstance(item, Exception):
                    raise item
                return item

        pipe = Pipeline(
            external_source=source,
            gpu=self.gpu,
            output_hw=self.output_hw,
            prefetch=self.prefetch,
            seed=self.seed + epoch_index,
        )
        pipe.warmup()
        try:
            while True:
                try:
                    tensors, labels = pipe.run()
                except EndOfData:
                    return
                self.stats.record_batch(len(labels))
                yield tensors, labels
        finally:
            pipe.teardown()
            for t in threads:
                t.join(timeout=10.0)
