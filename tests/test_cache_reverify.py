"""A re-fetched block is admitted on its kept SHA-256 seal, not a second walk.

* A planned block's first fetch walks CRC-32C; its seal is kept after the
  block is evicted, and a re-fetch whose bytes hash to it is admitted
  with one range-GET and no walk.
* A shard that changes on the tier after the block's first admission no
  longer matches the seal, so the re-fetch walks CRC-32C and both read
  paths raise; the prefetcher never admits the block.
* A bit flipped in cache RAM drops the block; its re-fetch is admitted on
  the kept seal and serves the tier's bytes.
* A new plan drops the seals of keys it no longer names.
* :func:`seal_digest` (every seal goes through it) is plain SHA-256.
* End to end on an object store with a quarter-size cache: the walk count
  is flat after epoch 0 while the prefetcher keeps re-fetching.
"""

from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cache_integrity import READ_PATHS, _flip_bit_in_ram, _ranges, _serve

import repro.tfrecord.reader as reader_mod
from repro.api import EMLIO, ClusterSpec, DatasetSpec, PipelineSpec, StorageSpec
from repro.data.datasets import SyntheticImageNet
from repro.storage.backend import LocalFSBackend
from repro.storage.cache import CachedBackend, HotSetCache, seal_digest
from repro.storage.objectstore import ObjectStoreBackend
from repro.tfrecord.reader import TFRecordCorruption
from repro.tfrecord.sharder import write_shards

JOIN_S = 30.0


@pytest.fixture
def crc_calls(monkeypatch) -> list[int]:
    """Records per ``first_crc_mismatch`` call made by a record walk."""
    calls: list[int] = []
    real = reader_mod.first_crc_mismatch

    def counting(buf, starts, ends, masked):
        calls.append(len(starts))
        return real(buf, starts, ends, masked)

    monkeypatch.setattr(reader_mod, "first_crc_mismatch", counting)
    return calls


def _one_block_cache(dataset):
    """Two ranges, a cache that holds one of them, and a plan that reads
    ``a``, ``b``, ``a`` — so ``a`` is evicted for ``b`` and re-fetched."""
    a, b = _ranges(dataset)[:2]
    inner = ObjectStoreBackend(dataset.root)
    backend = CachedBackend(inner, max(a[2], b[2]))
    backend.schedule_prefetch([a, b, a])
    # The window fetches a, then parks: b would evict a before a's read.
    assert backend.wait_prefetch(timeout=JOIN_S)
    assert a[:3] in backend.cache
    return a, b, inner, backend


@pytest.mark.parametrize("path", READ_PATHS)
def test_refetch_of_an_evicted_block_is_admitted_on_its_kept_seal(
    small_imagenet, crc_calls, path
):
    reference = LocalFSBackend(small_imagenet.root)
    want = [_serve(reference, rng, path) for rng in _ranges(small_imagenet)[:2]]
    reference.close()
    crc_calls.clear()
    a, b, inner, backend = _one_block_cache(small_imagenet)
    try:
        for rng, good in zip((a, b, a), want + want[:1]):
            assert _serve(backend, rng, path) == good
            # Each read lets the window fetch the next block, evicting
            # the one just read.
            assert backend.wait_prefetch(timeout=JOIN_S)
        snap = backend.cache.stats.snapshot()
        assert snap["evictions"] == 2 and snap["hits"] == 3
        # Three range-GETs (a, b, a again), two walks: the re-fetch of a
        # cost one GET and no first_crc_mismatch call.
        assert inner.requests == 3
        assert crc_calls == [2 * a[3], 2 * b[3]]
        assert snap["crc_walks"] == 2
    finally:
        backend.close()


def _flip_bit_in_file(path: Path, index: int) -> None:
    with open(path, "r+b") as f:
        f.seek(index)
        byte = f.read(1)[0]
        f.seek(index)
        f.write(bytes([byte ^ 0x01]))


@pytest.mark.parametrize("path", READ_PATHS)
def test_a_shard_changed_on_the_tier_is_still_caught(small_imagenet, path):
    a, b, _inner, backend = _one_block_cache(small_imagenet)
    shard_path, offset, nbytes, _count = a
    try:
        _serve(backend, a, path)
        # b's read comes sooner than a's next one, so the window evicts a
        # for b and then parks: a cannot come back before b is read.
        assert backend.wait_prefetch(timeout=JOIN_S)
        assert a[:3] not in backend.cache and b[:3] in backend.cache
        walks = backend.cache.stats.snapshot()["crc_walks"]

        _flip_bit_in_file(small_imagenet.root / shard_path, offset + 20)
        _serve(backend, b, path)  # frees the room: the window re-fetches a
        assert backend.wait_prefetch(timeout=JOIN_S)
        assert a[:3] not in backend.cache
        assert len(backend.prefetch_errors) == 1
        assert shard_path in backend.prefetch_errors[0]

        for _ in range(2):  # and every later read walks and fails again
            with pytest.raises(TFRecordCorruption, match=shard_path) as err:
                _serve(backend, a, path)
            assert offset <= err.value.offset < offset + nbytes
            assert a[:3] not in backend.cache
        assert backend.cache.stats.snapshot()["crc_walks"] == walks + 3
    finally:
        backend.close()


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="flips bytes via CPython layout")
@pytest.mark.parametrize("path", READ_PATHS)
def test_a_block_corrupted_in_ram_comes_back_on_its_kept_seal(
    small_imagenet, crc_calls, path
):
    ranges = _ranges(small_imagenet)
    rng = ranges[0]
    key = rng[:3]
    inner = ObjectStoreBackend(small_imagenet.root)
    backend = CachedBackend(inner, 16 * 1024 * 1024)
    reference = LocalFSBackend(small_imagenet.root)
    try:
        backend.schedule_prefetch(ranges * 3)
        assert backend.wait_prefetch(timeout=JOIN_S)
        good = _serve(reference, rng, path)
        _flip_bit_in_ram(backend.cache.peek(key), 20)
        with pytest.raises(TFRecordCorruption):
            _serve(backend, rng, path)
        assert key not in backend.cache
        gets, walks = inner.requests, len(crc_calls)
        assert _serve(backend, rng, path) == good
        assert inner.requests == gets + 1
        assert len(crc_calls) == walks  # admitted on the kept seal
        assert backend.cache.stats.snapshot()["crc_walks"] == len(ranges)
        assert _serve(backend, rng, path) == good  # a hit again
        assert inner.requests == gets + 1
    finally:
        backend.close()
        reference.close()


def test_a_new_plan_drops_the_seals_of_keys_it_no_longer_names():
    k1, k2, unplanned = ("s", 0, 8), ("s", 8, 8), ("s", 16, 8)
    d1, d2 = b"a" * 8, b"b" * 8
    cache = HotSetCache(8)  # one block: admitting k2 evicts k1
    cache.plan([k1, k2, k1])
    assert cache.put(k1, d1)
    assert cache.get(k1) == d1
    assert cache.put(k2, d2)
    assert k1 not in cache
    assert cache.sealed(k1, seal_digest(d1))  # kept past the eviction
    assert not cache.sealed(k1, seal_digest(d2))
    assert cache.sealed(k2, seal_digest(d2))
    cache.put(unplanned, d1)
    assert not cache.sealed(unplanned, seal_digest(d1))

    cache.plan([k2])
    assert not cache.sealed(k1, seal_digest(d1))
    assert cache.sealed(k2, seal_digest(d2))
    cache.plan([])
    assert not cache.sealed(k2, seal_digest(d2))


_EDGE_LENGTHS = (0, 1, 2047, 2048, 2049, 33_034, (1 << 20) + 3)


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.sampled_from(_EDGE_LENGTHS), st.integers(0, 70_000)),
    kind=st.sampled_from(("bytes", "bytearray", "memoryview")),
    cut=st.tuples(st.integers(0, 64), st.integers(0, 64)),
    seed=st.integers(0, 255),
)
def test_seal_digest_is_sha256(n, kind, cut, seed):
    lo, hi = cut
    raw = random.Random(seed).randbytes(n + lo + hi)
    if kind == "memoryview":
        data = memoryview(raw)[lo : lo + n]
    else:
        data = {"bytes": bytes, "bytearray": bytearray}[kind](raw[:n])
    assert len(data) == n
    assert seal_digest(data) == hashlib.sha256(data).digest()


def test_objectstore_walks_each_planned_block_once_across_epochs(tmp_path):
    gen = SyntheticImageNet(64, seed=11, image_hw=(32, 32), num_classes=10)
    ds = write_shards(iter(gen), tmp_path / "ds", records_per_shard=16)
    dataset_bytes = sum(p.stat().st_size for p in ds.root.glob("*.tfrecord"))
    epochs = 4
    spec = ClusterSpec(
        name="reverify",
        dataset=DatasetSpec(kind="imagenet", n=64, records_per_shard=16, image_hw=(32, 32)),
        pipeline=PipelineSpec(batch_size=8, epochs=epochs, hwm=16, output_hw=(16, 16)),
        storage=StorageSpec(
            backend="objectstore",
            latency_ms=1.0,
            cache_bytes=dataset_bytes // 4,
            verify_reads=True,
        ),
    )
    expected = Counter(label for labels in ds.labels().values() for label in labels)
    walks, prefetched = [], []
    with EMLIO.deploy(spec, dataset=ds) as dep:
        for e in range(epochs):
            got = Counter()
            for _tensors, labels in dep.epoch(e):
                got.update(int(x) for x in labels)
            assert got == expected, f"epoch {e}"
            tier = dep.stats()["storage"]["tiers"]["objectstore"]
            walks.append(tier["crc_walks"])
            prefetched.append(tier["prefetched"])
        planned = len({(a.shard_path, a.offset, a.nbytes) for a in dep.service.plan.assignments})
    assert walks == [planned] * epochs
    assert all(b > a for a, b in zip(prefetched, prefetched[1:])), prefetched
