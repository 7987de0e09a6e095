"""The hot-set cache's fetch window: claim rule, admission before the GET,
in-flight join, failure bookkeeping, re-feed, and a prompt, leak-free close.

Every test drives :class:`CachedBackend` over an instrumented object store
that counts (and can hold back) range-GETs per block.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from repro.api import EMLIO, preset
from repro.core.config import EMLIOConfig
from repro.core.planner import Planner
from repro.storage.backend import LocalFSBackend
from repro.storage.cache import _FETCHERS, _MAX_KEPT_ERRORS, CachedBackend
from repro.storage.objectstore import ObjectStoreBackend
from repro.tfrecord.reader import TFRecordCorruption

JOIN_S = 30.0


class CountingStore(ObjectStoreBackend):
    """Object store that counts GETs per block; ``gate`` holds them back
    and ``on_get`` runs inside every GET (the "at every step" probe)."""

    def __init__(self, root, latency_s: float = 0.0) -> None:
        super().__init__(root, request_latency_s=latency_s)
        self.gets: Counter = Counter()
        self.gate: threading.Event | None = None
        self.fail: Exception | None = None
        self.on_get = None
        self._count_lock = threading.Lock()

    def read_bytes(self, shard_path: str, offset: int, nbytes: int) -> bytes:
        with self._count_lock:
            self.gets[(shard_path, offset, nbytes)] += 1
        if self.on_get is not None:
            self.on_get()
        if self.gate is not None:
            assert self.gate.wait(JOIN_S)
        if self.fail is not None:
            raise self.fail
        return super().read_bytes(shard_path, offset, nbytes)

    @property
    def total_gets(self) -> int:
        with self._count_lock:
            return sum(self.gets.values())


def _ranges(dataset, epochs: int = 1, batch_size: int = 4):
    cfg = EMLIOConfig(batch_size=batch_size, epochs=epochs)
    plan = Planner(dataset, num_nodes=1, config=cfg).plan()
    return [(a.shard_path, a.offset, a.nbytes, a.count) for a in plan.assignments]


def _read(backend, rng) -> list[bytes]:
    shard_path, offset, nbytes, count = rng
    handle = backend.open_shard(shard_path)
    try:
        return [bytes(v) for v in handle.read_range_views(offset, count, nbytes=nbytes)]
    finally:
        handle.close()


def _prefetch_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("storage-prefetch")]


def _wait_until(predicate, timeout: float = JOIN_S) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.002)
    return True


@pytest.fixture
def reference(small_imagenet):
    backend = LocalFSBackend(small_imagenet.root)
    yield lambda rng: _read(backend, rng)
    backend.close()


# (i) cache >= plan: one GET per distinct block, serve path and fetchers together


def test_roomy_cache_fetches_each_distinct_block_exactly_once(small_imagenet, reference):
    ranges = _ranges(small_imagenet, epochs=3)  # every block is planned three times
    inner = CountingStore(small_imagenet.root, latency_s=0.002)
    backend = CachedBackend(inner, 64 * 1024 * 1024)
    try:
        backend.schedule_prefetch(ranges)
        # Serve straight away, racing the fetchers for the same blocks.
        for rng in ranges:
            assert _read(backend, rng) == reference(rng)
        assert backend.wait_prefetch(timeout=JOIN_S)
        distinct = {r[:3] for r in ranges}
        assert set(inner.gets) == distinct
        assert inner.total_gets == len(distinct)
        assert backend.prefetch_errors == []
    finally:
        backend.close()


# (ii) cache = 1/4 plan: no wasted GET, capacity never oversubscribed


def test_tight_cache_wastes_no_fetch_and_never_oversubscribes(small_imagenet, reference):
    ranges = _ranges(small_imagenet, epochs=3)
    distinct = {r[:3]: r[2] for r in ranges}
    capacity = sum(distinct.values()) // 4
    assert capacity >= max(distinct.values())
    inner = CountingStore(small_imagenet.root, latency_s=0.001)
    backend = CachedBackend(inner, capacity)
    cache = backend.cache
    overshoot: list[int] = []

    def probe() -> None:
        # nbytes first: a put landing between the two reads only lowers the sum.
        held = cache.nbytes + cache.reserved_bytes
        if held > capacity:
            overshoot.append(held)

    inner.on_get = probe
    try:
        backend.schedule_prefetch(ranges)
        for rng in ranges:
            assert _read(backend, rng) == reference(rng)
            probe()
        assert backend.wait_prefetch(timeout=JOIN_S)
        probe()
        assert overshoot == []
        assert inner.total_gets <= len(ranges)
        # Every fetcher GET was admitted: nothing fetched and then refused.
        snap = cache.stats.snapshot()
        assert snap["prefetched"] + snap["misses"] >= inner.total_gets
        assert cache.reserved_bytes == 0
    finally:
        backend.close()


# (iii) a serve-path read of an in-flight block joins that fetch


def test_serve_path_miss_joins_the_in_flight_fetch(small_imagenet, reference):
    rng = _ranges(small_imagenet)[0]
    inner = CountingStore(small_imagenet.root)
    inner.gate = threading.Event()
    backend = CachedBackend(inner, 64 * 1024 * 1024)
    try:
        backend.schedule_prefetch([rng])
        assert _wait_until(lambda: inner.total_gets == 1)  # a fetcher holds the GET
        assert backend.prefetch_depth == 1
        got: list = []
        reader = threading.Thread(target=lambda: got.append(_read(backend, rng)))
        reader.start()
        reader.join(timeout=0.1)
        assert reader.is_alive()  # waiting on the fetcher, not fetching itself
        assert inner.total_gets == 1
        inner.gate.set()
        reader.join(timeout=JOIN_S)
        assert not reader.is_alive()
        assert got == [reference(rng)]
        assert inner.total_gets == 1
        assert backend.wait_prefetch(timeout=JOIN_S)
        assert backend.prefetch_depth == 0
    finally:
        inner.gate.set()
        backend.close()


# (iv) a corrupt block under the window: never admitted, loud on the serve path


def test_corrupt_block_under_the_window_is_never_admitted(small_imagenet, reference):
    ranges = _ranges(small_imagenet)
    bad = ranges[len(ranges) // 2]
    path = small_imagenet.root / bad[0]
    raw = bytearray(path.read_bytes())
    raw[bad[1] + 20] ^= 0x10
    path.write_bytes(bytes(raw))
    inner = CountingStore(small_imagenet.root)
    backend = CachedBackend(inner, 64 * 1024 * 1024)
    try:
        backend.schedule_prefetch(ranges)
        assert backend.wait_prefetch(timeout=JOIN_S)
        assert len(backend.prefetch_errors) == 1
        assert backend.snapshot()["cache"]["prefetch_errors"] == 1
        assert bad[:3] not in backend.cache
        for rng in ranges:
            if rng == bad:
                with pytest.raises(TFRecordCorruption, match="bad range read"):
                    _read(backend, rng)
            else:
                assert _read(backend, rng) == reference(rng)
        assert bad[:3] not in backend.cache
        # One GET by the window, one by the serve path that raised; the
        # failed block is not claimed again under this plan ...
        assert backend.wait_prefetch(timeout=JOIN_S)
        assert inner.gets[bad[:3]] == 2
        # ... only after the next feed.
        backend.schedule_prefetch(ranges)
        assert backend.wait_prefetch(timeout=JOIN_S)
        assert inner.gets[bad[:3]] == 3
        assert backend.snapshot()["cache"]["prefetch_errors"] == 2
        assert all(n == 1 for key, n in inner.gets.items() if key != bad[:3])
    finally:
        backend.close()


def test_prefetch_failures_are_bounded_counted_and_not_retried(small_imagenet):
    # The store fails before it reads, so any ranges will do.
    ranges = [("shard_00000.tfrecord", 100 * i, 100, 1) for i in range(_MAX_KEPT_ERRORS + 8)]
    inner = CountingStore(small_imagenet.root)
    inner.fail = OSError("store unreachable")
    backend = CachedBackend(inner, 64 * 1024 * 1024)
    try:
        backend.schedule_prefetch(ranges)
        assert backend.wait_prefetch(timeout=JOIN_S)
        assert len(backend.prefetch_errors) == _MAX_KEPT_ERRORS
        assert backend.snapshot()["cache"]["prefetch_errors"] == len(ranges)
        assert inner.total_gets == len(ranges)
        assert backend.cache.reserved_bytes == 0
        # The serve path still fetches for itself and raises the real error.
        with pytest.raises(OSError, match="store unreachable"):
            _read(backend, ranges[0])
        assert backend.wait_prefetch(timeout=JOIN_S)
        assert inner.total_gets == len(ranges) + 1
    finally:
        backend.close()


# (v) re-feeding the plan mid-epoch


def test_refeed_mid_epoch_keeps_cached_blocks_and_waiters(small_imagenet, reference):
    ranges = _ranges(small_imagenet)
    half = len(ranges) // 2
    inner = CountingStore(small_imagenet.root)
    backend = CachedBackend(inner, 64 * 1024 * 1024)
    try:
        backend.schedule_prefetch(ranges)
        assert backend.wait_prefetch(timeout=JOIN_S)
        for rng in ranges[:half]:
            assert _read(backend, rng) == reference(rng)
        fetched = inner.total_gets
        # The serve_epoch call: same future, fed again.  Nothing to fetch.
        assert backend.schedule_prefetch(ranges[half:]) == 0
        assert backend.wait_prefetch(timeout=JOIN_S)
        assert inner.total_gets == fetched

        # Now with fetches in flight and a reader waiting on one of them.
        cold = CachedBackend(inner, 64 * 1024 * 1024)
        inner.gets.clear()
        inner.gate = threading.Event()
        cold.schedule_prefetch(ranges)
        assert _wait_until(lambda: inner.total_gets == min(_FETCHERS, len(ranges)))
        got: list = []
        reader = threading.Thread(target=lambda: got.append(_read(cold, ranges[0])))
        reader.start()
        cold.schedule_prefetch(ranges)  # re-feed under the waiter's feet
        inner.gate.set()
        reader.join(timeout=JOIN_S)
        assert not reader.is_alive() and got == [reference(ranges[0])]
        assert cold.wait_prefetch(timeout=JOIN_S)
        for rng in ranges:
            assert _read(cold, rng) == reference(rng)
        assert all(n == 1 for n in inner.gets.values()), inner.gets
        assert len(inner.gets) == len({r[:3] for r in ranges})
        cold.close()
    finally:
        if inner.gate is not None:
            inner.gate.set()
        backend.close()


# close(): prompt, and no thread left behind


def test_close_with_a_deep_unserved_plan_is_prompt_and_leaks_no_thread(small_imagenet):
    ranges = _ranges(small_imagenet, epochs=50)
    inner = CountingStore(small_imagenet.root, latency_s=0.005)
    backend = CachedBackend(inner, max(r[2] for r in ranges) * 3)
    backend.schedule_prefetch(ranges)
    assert _wait_until(lambda: inner.total_gets > 0)
    assert len(_prefetch_threads()) == _FETCHERS
    t0 = time.monotonic()
    backend.close()
    assert time.monotonic() - t0 < 0.5
    assert _prefetch_threads() == []
    # The window stopped where the cache's capacity stopped it.
    assert inner.total_gets <= 3 + _FETCHERS
    assert backend.schedule_prefetch(ranges) == 0  # closed: stays stopped
    assert _prefetch_threads() == []


def test_deployment_close_leaves_no_fetcher_for_the_next_deployment(small_imagenet):
    base = preset("storage-tiers")
    spec = replace(base, storage=replace(base.storage, latency_ms=1.0))
    for _ in range(2):
        with EMLIO.deploy(spec, dataset=small_imagenet) as dep:
            assert sum(len(y) for _t, y in dep.epoch(0)) == small_imagenet.num_samples
            assert len(_prefetch_threads()) == _FETCHERS
        assert _prefetch_threads() == []


# stress: several serve threads and the fetcher pool on one tight cache


def test_concurrent_serve_threads_on_a_tight_cache(small_imagenet, reference):
    ranges = _ranges(small_imagenet, epochs=6)
    expected = {rng: reference(rng) for rng in set(ranges)}
    distinct = {r[:3]: r[2] for r in ranges}
    capacity = sum(distinct.values()) // 4
    inner = CountingStore(small_imagenet.root, latency_s=0.0005)
    backend = CachedBackend(inner, capacity)
    cache = backend.cache
    problems: list[str] = []

    def probe() -> None:
        if cache.nbytes + cache.reserved_bytes > capacity:
            problems.append("capacity oversubscribed")

    inner.on_get = probe
    workers = 6  # more than the sandbox has cores

    def serve(lane: int) -> None:
        rnd = random.Random(lane)
        for rng in ranges[lane::workers]:
            if _read(backend, rng) != expected[rng]:
                problems.append(f"wrong bytes for {rng}")
            if rnd.random() < 0.05:
                backend.schedule_prefetch(ranges)  # epoch-start style re-feed

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        backend.schedule_prefetch(ranges)
        threads = [threading.Thread(target=serve, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=JOIN_S)
        assert not any(t.is_alive() for t in threads)
        assert backend.wait_prefetch(timeout=JOIN_S)
        assert problems == []
        assert cache.reserved_bytes == 0 and cache.nbytes <= capacity
        assert backend.prefetch_depth == 0
        assert backend.prefetch_errors == []
    finally:
        sys.setswitchinterval(old)
        backend.close()
    assert _prefetch_threads() == []
