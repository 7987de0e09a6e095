"""PyTorch-DataLoader-style baseline.

Reproduces the access pattern of ``torch.utils.data.DataLoader`` with a
map-style dataset over a mounted filesystem:

* a global shuffled index over all samples;
* ``num_workers`` threads each fetching *one sample at a time* with a
  positional read (offset/size from the shard index) — the small-random-read
  pattern that pays one storage round trip per sample;
* CPU-side decode + augment in the worker (no GPU offload);
* batches assembled in order by a collate step with a bounded prefetch
  queue (PyTorch's ``prefetch_factor``).

Over local storage this is fine; over a high-RTT mount every sample read
stalls a worker for a full RTT, which is the Figure 5 blow-up.
"""

from __future__ import annotations

import queue
import threading
from typing import Iterator

import numpy as np

from repro.gpu.ops import preprocess_batch  # executed on the CPU in this baseline
from repro.loaders.base import LoaderStats, epoch_sample_order
from repro.storage.localfs import LocalStorage
from repro.tfrecord.reader import read_records
from repro.tfrecord.sharder import ShardedDataset, unpack_example

_END = object()


class PyTorchStyleLoader:
    """Multi-worker per-sample loader with CPU preprocessing."""

    def __init__(
        self,
        dataset: ShardedDataset,
        storage,
        batch_size: int = 32,
        num_workers: int = 4,
        prefetch_factor: int = 2,
        output_hw: tuple[int, int] = (64, 64),
        seed: int = 0,
        drop_last: bool = False,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.dataset = dataset
        self.storage = storage if storage is not None else LocalStorage(dataset.root)
        self.batch_size = batch_size
        self.num_workers = num_workers
        self.prefetch_factor = prefetch_factor
        self.output_hw = output_hw
        self.seed = seed
        self.drop_last = drop_last
        self.stats = LoaderStats()

    def _fetch_sample(self, shard_ix, record: int) -> tuple[bytes, int]:
        """One positional read per sample — the baseline's defining cost."""
        entry = shard_ix.entries[record]
        frame = self.storage.read_at(shard_ix.path, entry.offset, entry.size)
        self.stats.record_read(len(frame))
        return unpack_example(read_records(memoryview(frame), 0, 1, True)[0])

    def epoch(self, epoch_index: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield preprocessed (tensors, labels) batches for one epoch."""
        order = epoch_sample_order(self.dataset, epoch_index, self.seed)
        batches = [
            order[i : i + self.batch_size]
            for i in range(0, len(order), self.batch_size)
        ]
        if self.drop_last and batches and len(batches[-1]) < self.batch_size:
            batches.pop()

        # Workers pull batch indices and emit (index, result); the consumer
        # reorders so batch order is deterministic like PyTorch's.
        task_q: queue.Queue = queue.Queue()
        done_q: queue.Queue = queue.Queue(maxsize=max(1, self.prefetch_factor) * self.num_workers)
        for i, b in enumerate(batches):
            task_q.put((i, b))
        for _ in range(self.num_workers):
            task_q.put(_END)

        rng_master = np.random.default_rng((self.seed, epoch_index, 1))
        worker_seeds = rng_master.integers(0, 2**31, size=self.num_workers)

        def worker(wid: int) -> None:
            rng = np.random.default_rng(worker_seeds[wid])
            while True:
                task = task_q.get()
                if task is _END:
                    done_q.put(_END)
                    return
                i, pairs = task
                try:
                    samples, labels = [], []
                    for shard_ix, rec in pairs:
                        s, l = self._fetch_sample(shard_ix, rec)
                        samples.append(s)
                        labels.append(l)
                    tensors = preprocess_batch(samples, self.output_hw, rng)
                    done_q.put((i, tensors, np.asarray(labels, dtype=np.int64)))
                except Exception as err:  # surface to consumer
                    done_q.put((i, err, None))

        threads = [
            threading.Thread(target=worker, args=(w,), daemon=True, name=f"pt-worker{w}")
            for w in range(self.num_workers)
        ]
        for t in threads:
            t.start()

        pending: dict[int, tuple] = {}
        next_index = 0
        finished_workers = 0
        try:
            while next_index < len(batches):
                while next_index in pending:
                    _i, tensors, labels = pending.pop(next_index)
                    if isinstance(tensors, Exception):
                        raise tensors
                    self.stats.record_batch(len(labels))
                    yield tensors, labels
                    next_index += 1
                if next_index >= len(batches):
                    break
                item = done_q.get()
                if item is _END:
                    finished_workers += 1
                    if finished_workers == self.num_workers and next_index < len(batches):
                        missing = [i for i in range(next_index, len(batches)) if i not in pending]
                        if missing:
                            raise RuntimeError(f"workers exited with batches missing: {missing[:5]}")
                    continue
                pending[item[0]] = item
        finally:
            for t in threads:
                t.join(timeout=10.0)
