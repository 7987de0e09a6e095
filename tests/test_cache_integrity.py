"""Integrity of the cache tier and the range-GET descriptors under it.

* A bit flipped in an admitted block's bytes, in cache RAM, is caught on
  the next hit through both serve-path reads (``read_region`` and
  ``read_range_views``) with a :class:`TFRecordCorruption` naming the
  shard and the offset; the block is dropped and the read after that
  re-fetches good bytes from the tier.
* A warm hit under ``verify_reads=True`` runs no CRC-32C: bytes are
  CRC-checked once, when they leave the tier.
* The object store's per-shard descriptors are released by ``close()``,
  and a path that escapes the storage root is still refused.
"""

from __future__ import annotations

import ctypes
import os
import random
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.storage.localfs as localfs_mod
import repro.tfrecord.reader as reader_mod
import repro.tfrecord.sharder as sharder_mod
from repro.core.config import EMLIOConfig
from repro.core.planner import Planner
from repro.storage.backend import LocalFSBackend, parse_record_block
from repro.storage.cache import CachedBackend
from repro.storage.localfs import LocalStorage
from repro.storage.objectstore import ObjectStoreBackend
from repro.tfrecord.reader import TFRecordCorruption

READ_PATHS = ("read_region", "read_range_views")
_PROC_FD = Path("/proc/self/fd")


def _ranges(dataset, batch_size: int = 4):
    cfg = EMLIOConfig(batch_size=batch_size, epochs=1)
    plan = Planner(dataset, num_nodes=1, config=cfg).plan()
    return [(a.shard_path, a.offset, a.nbytes, a.count) for a in plan.assignments]


def _serve(backend, rng, path: str) -> list[bytes]:
    """One planned read the way the daemon consumes it: ``read_region``
    output is CRC-checked by the caller iff its flag says so."""
    shard_path, offset, nbytes, count = rng
    handle = backend.open_shard(shard_path)
    try:
        if path == "read_region":
            region, needs_verify = handle.read_region(offset, count, nbytes)
            views = parse_record_block(
                region, count, needs_verify, shard_path=shard_path, offset=offset
            )
        else:
            views = handle.read_range_views(offset, count, nbytes=nbytes)
        return [bytes(v) for v in views]
    finally:
        handle.close()


def _flip_bit_in_ram(block: bytes, index: int) -> None:
    """Flip bit 0 of ``block[index]`` in place: the cached object itself
    changes, exactly as a memory fault would change it."""
    assert 0 <= index < len(block)
    data_offset = bytes.__basicsize__ - 1  # ob_sval, past the header
    byte = ctypes.c_ubyte.from_address(id(block) + data_offset + index)
    byte.value ^= 0x01


def _warm(small_imagenet, ranges):
    inner = ObjectStoreBackend(small_imagenet.root)
    backend = CachedBackend(inner, 16 * 1024 * 1024)
    backend.schedule_prefetch(ranges + ranges)  # every range read twice
    assert backend.wait_prefetch(timeout=30.0)
    assert backend.prefetch_errors == []
    return inner, backend


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="flips bytes via CPython layout")
@pytest.mark.parametrize("path", READ_PATHS)
def test_bit_flip_in_a_cached_block_is_caught_on_the_next_hit(small_imagenet, path):
    ranges = _ranges(small_imagenet)
    rng = ranges[0]
    shard_path, offset, nbytes, _count = rng
    _, backend = _warm(small_imagenet, ranges)
    try:
        block = backend.cache.peek((shard_path, offset, nbytes))
        assert block is not None
        _flip_bit_in_ram(block, 20)  # inside the first record's body
        with pytest.raises(TFRecordCorruption, match=shard_path) as err:
            _serve(backend, rng, path)
        assert offset <= err.value.offset < offset + nbytes
    finally:
        backend.close()


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="flips bytes via CPython layout")
@pytest.mark.parametrize("path", READ_PATHS)
def test_corrupt_cached_block_is_dropped_and_refetched(small_imagenet, path):
    ranges = _ranges(small_imagenet)
    rng = ranges[0]
    key = rng[:3]
    reference = LocalFSBackend(small_imagenet.root)
    inner, backend = _warm(small_imagenet, ranges)
    try:
        good = _serve(reference, rng, path)
        _flip_bit_in_ram(backend.cache.peek(key), 20)
        with pytest.raises(TFRecordCorruption):
            _serve(backend, rng, path)
        assert key not in backend.cache
        gets = inner.requests
        assert _serve(backend, rng, path) == good
        assert inner.requests == gets + 1  # one range-GET back to the tier
        assert _serve(backend, rng, path) == good  # re-admitted, sealed anew
        assert inner.requests == gets + 1
    finally:
        backend.close()
        reference.close()


def test_warm_hits_run_no_crc_and_fetches_run_it_on_every_block(
    small_imagenet, monkeypatch
):
    calls = []

    def counting(real):
        def wrapper(buf, starts, ends, masked):
            calls.append(len(starts))
            return real(buf, starts, ends, masked)

        return wrapper

    for module in (reader_mod, sharder_mod):  # every caller of the kernel
        monkeypatch.setattr(module, "first_crc_mismatch", counting(module.first_crc_mismatch))
    ranges = _ranges(small_imagenet)
    inner, backend = _warm(small_imagenet, ranges)
    try:
        # Admission: one batched CRC-32C call per fetched block, covering
        # both fields of every record in it.
        assert len(calls) == len(ranges)
        assert sum(calls) == 2 * sum(r[3] for r in ranges)
        calls.clear()
        for rng in ranges:
            for path in READ_PATHS:
                _serve(backend, rng, path)
        assert calls == []
        assert backend.cache.stats.snapshot()["hits"] == 2 * len(ranges)
        assert inner.requests == len(ranges)
    finally:
        backend.close()


# -- range-GET descriptors ------------------------------------------------------


def _open_fds() -> int:
    return len(os.listdir(_PROC_FD))


@pytest.mark.skipif(not _PROC_FD.is_dir(), reason="needs /proc/self/fd")
def test_objectstore_close_releases_every_range_get_descriptor(small_imagenet):
    ranges = _ranges(small_imagenet)
    baseline = _open_fds()
    inner = ObjectStoreBackend(small_imagenet.root)
    backend = CachedBackend(inner, max(r[2] for r in ranges) * 2)  # evicts as it goes
    try:
        backend.schedule_prefetch(ranges)
        for rng in ranges:
            _serve(backend, rng, "read_region")
        assert inner.requests >= len(ranges)
        assert _open_fds() > baseline  # the shards' descriptors stay open between GETs
    finally:
        backend.close()
    assert _open_fds() == baseline


@pytest.mark.skipif(not _PROC_FD.is_dir(), reason="needs /proc/self/fd")
def test_descriptor_table_is_capped(small_imagenet, monkeypatch):
    monkeypatch.setattr(localfs_mod, "_MAX_OPEN_FDS", 2)
    shards = {p.name: p.read_bytes() for p in small_imagenet.root.glob("*.tfrecord")}
    assert len(shards) > 2
    baseline = _open_fds()
    store = LocalStorage(small_imagenet.root)
    try:
        for _ in range(2):
            for name, raw in sorted(shards.items()):
                assert store.read_at(name, 8, 64) == raw[8:72]
                assert _open_fds() <= baseline + 2
    finally:
        store.close()
    assert _open_fds() == baseline


@pytest.mark.skipif(not _PROC_FD.is_dir(), reason="needs /proc/self/fd")
def test_close_racing_concurrent_reads_never_pulls_a_descriptor_from_under_one(
    small_imagenet,
):
    # Readers outnumber the cores, the switch interval is tiny, and close()
    # runs in a loop under them: every read must still return the file's
    # bytes, and once all stop one close() leaves no descriptor behind.
    shards = {p.name: p.read_bytes() for p in small_imagenet.root.glob("*.tfrecord")}
    baseline = _open_fds()
    store = LocalStorage(small_imagenet.root)
    stop = threading.Event()
    errors: list[str] = []

    def reader(seed: int) -> None:
        rnd = random.Random(seed)
        names = sorted(shards)
        while not stop.is_set():
            name = rnd.choice(names)
            offset = rnd.randrange(len(shards[name]))
            nbytes = rnd.randrange(1, 4096)
            try:
                got = store.read_at(name, offset, nbytes)
            except OSError as err:  # e.g. EBADF: the descriptor was closed
                errors.append(f"{name}@{offset}+{nbytes}: {err!r}")
                return
            if got != shards[name][offset:offset + nbytes]:
                errors.append(f"{name}@{offset}+{nbytes}: wrong bytes")

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            store.close()
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    store.close()
    assert _open_fds() == baseline


def test_range_get_outside_the_storage_root_is_refused(small_imagenet, tmp_path):
    outside = tmp_path / "outside.bin"
    outside.write_bytes(b"secret" * 8)
    (small_imagenet.root / "link.tfrecord").symlink_to(outside)
    store = ObjectStoreBackend(small_imagenet.root)
    try:
        for relpath in ("../outside.bin", str(outside), "link.tfrecord"):
            with pytest.raises(PermissionError, match="escapes storage root"):
                store.read_bytes(relpath, 0, 4)
    finally:
        store.close()
