"""Tiered storage subsystem: backends, hot-set cache, daemon routing, deploy.

Covers the storage-tier protocol (localfs/nfs/objectstore behind one
``StorageBackend`` seam), the plan-informed cache (Belady eviction,
background prefetch, CRC preservation across tiers), the daemon's bounded
handle table, and the deploy-level wiring (``backend = "nfs"`` really
serving reads through the mount, object-store specs running end to end,
``StorageServer`` death mid-epoch failing loudly).
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EMLIO, preset
from repro.api.spec import ClusterSpec, SpecError, StorageSpec
from repro.core.config import EMLIOConfig
from repro.core.daemon import EMLIODaemon
from repro.core.planner import Planner
from repro.core.service import EMLIOService
from repro.storage.backend import LocalFSBackend, NFSBackend
from repro.storage.cache import CachedBackend, HotSetCache, PlanRange
from repro.storage.nfs import NFSMount
from repro.storage.objectstore import ObjectStoreBackend
from repro.storage.server import StorageServer
from repro.tfrecord.reader import TFRecordCorruption, TFRecordReader


def _plan_ranges(dataset, batch_size=4, epochs=1):
    cfg = EMLIOConfig(batch_size=batch_size, epochs=epochs)
    plan = Planner(dataset, num_nodes=1, config=cfg).plan()
    return plan, [
        (a.shard_path, a.offset, a.nbytes, a.count) for a in plan.assignments
    ]


def _read_ranges(backend, ranges):
    out = []
    for shard_path, offset, nbytes, count in ranges:
        handle = backend.open_shard(shard_path)
        try:
            out.append([bytes(v) for v in
                        handle.read_range_views(offset, count, nbytes=nbytes)])
        finally:
            handle.close()
    return out


# -- backend parity ------------------------------------------------------------


def test_localfs_and_objectstore_serve_identical_records(small_imagenet):
    _, ranges = _plan_ranges(small_imagenet)
    local = LocalFSBackend(small_imagenet.root)
    remote = ObjectStoreBackend(small_imagenet.root)
    try:
        assert _read_ranges(local, ranges) == _read_ranges(remote, ranges)
    finally:
        local.close()
        remote.close()
    assert local.stats.snapshot()["reads"] == len(ranges)
    assert remote.stats.snapshot()["reads"] == len(ranges)


def test_remote_handle_header_walk_without_nbytes_hint(small_imagenet):
    # Tooling paths have no plan hint: the handle walks record headers.
    _, ranges = _plan_ranges(small_imagenet)
    shard_path, offset, nbytes, count = ranges[0]
    backend = ObjectStoreBackend(small_imagenet.root)
    reader = TFRecordReader(small_imagenet.root / shard_path)
    try:
        handle = backend.open_shard(shard_path)
        walked = handle.read_range(offset, count)  # no nbytes
        assert walked == reader.read_range(offset, count)
        # Two small GETs per record vs one planned-range GET.
        assert backend.requests == 2 * count
    finally:
        reader.close()
        backend.close()


def test_objectstore_charges_latency_per_request(small_imagenet):
    _, ranges = _plan_ranges(small_imagenet)
    backend = ObjectStoreBackend(small_imagenet.root, request_latency_s=0.005)
    try:
        t0 = time.perf_counter()
        _read_ranges(backend, ranges[:4])
        elapsed = time.perf_counter() - t0
    finally:
        backend.close()
    assert backend.requests == 4
    assert elapsed >= 4 * 0.005  # sleep() is a lower bound — deterministic


def test_objectstore_rejects_negative_latency(tmp_path):
    with pytest.raises(ValueError, match="request_latency_s"):
        ObjectStoreBackend(tmp_path, request_latency_s=-1.0)


# -- per-read CRC across tiers (satellite: fault tests) ------------------------


def test_objectstore_short_range_read_raises(small_imagenet):
    _, ranges = _plan_ranges(small_imagenet)
    shard_path, offset, nbytes, count = ranges[0]
    backend = ObjectStoreBackend(small_imagenet.root)
    try:
        handle = backend.open_shard(shard_path)
        with pytest.raises(TFRecordCorruption, match="bad range read"):
            handle.read_range_views(offset, count, nbytes=nbytes - 8)
    finally:
        backend.close()


def test_objectstore_corrupt_range_read_raises(small_imagenet):
    _, ranges = _plan_ranges(small_imagenet)
    shard_path, offset, nbytes, count = ranges[0]
    path = small_imagenet.root / shard_path
    raw = bytearray(path.read_bytes())
    raw[offset + 20] ^= 0xFF  # flip a record-body byte inside the range
    path.write_bytes(bytes(raw))
    backend = ObjectStoreBackend(small_imagenet.root)
    try:
        handle = backend.open_shard(shard_path)
        with pytest.raises(TFRecordCorruption, match=shard_path):
            handle.read_range_views(offset, count, nbytes=nbytes)
    finally:
        backend.close()


def test_corrupt_shard_fails_objectstore_epoch_loudly(small_imagenet):
    plan, ranges = _plan_ranges(small_imagenet)
    shard_path, offset, _nbytes, _count = ranges[0]
    path = small_imagenet.root / shard_path
    raw = bytearray(path.read_bytes())
    raw[offset + 20] ^= 0xFF
    path.write_bytes(bytes(raw))
    cfg = EMLIOConfig(batch_size=4, epochs=1, output_hw=(16, 16))
    with EMLIOService(
        cfg, small_imagenet,
        storage_factory=lambda root: ObjectStoreBackend(root),
        stall_timeout=5.0,
    ) as svc:
        # The daemon dies on the CRC failure; receivers stall and the
        # epoch raises rather than silently dropping batches.
        with pytest.raises(Exception):
            for _ in svc.epoch(0):
                pass


# -- hot-set cache -------------------------------------------------------------


def test_hot_set_cache_counts_hits_and_misses():
    cache = HotSetCache(1024)
    key = ("s.tfrecord", 0, 10)
    assert cache.get(key) is None
    assert cache.put(key, b"x" * 10)
    assert cache.get(key) == b"x" * 10
    snap = cache.stats.snapshot()
    assert snap["hits"] == 1 and snap["misses"] == 1
    assert cache.hot_shards() == {"s.tfrecord"}


def test_hot_set_cache_evicts_farthest_next_use_first():
    cache = HotSetCache(20)
    a, b, c = ("s", 0, 10), ("s", 10, 10), ("s", 20, 10)
    # Serve order: a, c, a, c, ... b is never used again.
    cache.plan([a, c, a, c])
    cache.put(a, b"A" * 10)
    cache.put(b, b"B" * 10)
    cache.put(c, b"C" * 10)  # capacity forces one eviction: b (next use = inf)
    assert c in cache and a in cache and b not in cache
    assert cache.stats.snapshot()["evictions"] == 1


def test_hot_set_cache_refuses_to_evict_sooner_needed_blocks():
    cache = HotSetCache(20)
    a, b, late = ("s", 0, 10), ("s", 10, 10), ("s", 20, 10)
    cache.plan([a, b, late])  # a and b are both needed before late
    cache.put(a, b"A" * 10)
    cache.put(b, b"B" * 10)
    assert not cache.put(late, b"L" * 10)  # losing trade — refused
    assert a in cache and b in cache and late not in cache


def test_hot_set_cache_rejects_oversized_and_bad_capacity():
    with pytest.raises(ValueError, match="capacity_bytes"):
        HotSetCache(0)
    cache = HotSetCache(8)
    assert not cache.put(("s", 0, 16), b"x" * 16)


class _SortedBelady:
    """Reference admission model: every cached block sorted by next planned
    use on each admission (stable, so ties go in admission order)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.blocks: dict = {}  # key -> size, in admission order
        self.reserved: dict = {}
        self.schedule: dict = {}
        self.evictions = 0

    def plan(self, keys) -> None:
        self.schedule = {}
        for pos, key in enumerate(keys):
            self.schedule.setdefault(key, deque()).append(pos)

    def _next_use(self, key) -> float:
        uses = self.schedule.get(key)
        return uses[0] if uses else math.inf

    def get(self, key) -> bool:
        uses = self.schedule.get(key)
        if uses:
            uses.popleft()
        return key in self.blocks

    def _make_room(self, key, nbytes: int) -> bool:
        used = sum(self.blocks.values()) + sum(self.reserved.values())
        if used + nbytes <= self.capacity:
            return True
        if nbytes > self.capacity:
            return False
        mine = self._next_use(key)
        chosen = []
        for victim in sorted(self.blocks, key=self._next_use, reverse=True):
            if used + nbytes <= self.capacity or self._next_use(victim) <= mine:
                break
            chosen.append(victim)
            used -= self.blocks[victim]
        if used + nbytes > self.capacity:
            return False
        for victim in chosen:
            del self.blocks[victim]
        self.evictions += len(chosen)
        return True

    def reserve(self, key, nbytes: int, pos: int):
        uses = self.schedule.get(key)
        if key in self.blocks or key in self.reserved or not uses or uses[0] > pos:
            return None
        if not self._make_room(key, nbytes):
            return False
        self.reserved[key] = nbytes
        return True

    def release(self, key) -> None:
        self.reserved.pop(key, None)

    def put(self, key, nbytes: int) -> bool:
        self.reserved.pop(key, None)
        if key in self.blocks:
            return True
        if not self._make_room(key, nbytes):
            return False
        self.blocks[key] = nbytes
        return True


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_hot_set_cache_victims_match_the_sorted_reference(data):
    # Driven like the serve path and the fetch window drive it: reads walk
    # the plan (a miss is fetched and admitted), prefetches reserve at a
    # plan position then admit or give back, plus stray admits and re-plans.
    sizes = data.draw(st.lists(st.integers(1, 12), min_size=2, max_size=10), label="sizes")
    keys = [("s", i, size) for i, size in enumerate(sizes)]
    capacity = data.draw(st.integers(max(sizes), sum(sizes)), label="capacity")
    key_plan = st.lists(st.sampled_from(keys), min_size=1, max_size=40)
    cache, ref = HotSetCache(capacity), _SortedBelady(capacity)
    steps = st.tuples(
        st.sampled_from(["serve", "serve", "prefetch", "prefetch", "put", "release", "plan"]),
        st.integers(0, 63),
    )
    plan, cursor = [], 0
    for op, arg in [("plan", 0)] + data.draw(st.lists(steps, min_size=10, max_size=80), label="steps"):
        if op == "plan":
            plan, cursor = data.draw(key_plan, label="plan"), 0
            cache.plan(plan)
            ref.plan(plan)
        elif op == "serve":
            key = plan[cursor % len(plan)]
            cursor += 1
            hit = cache.get(key) is not None
            assert hit == ref.get(key)
            if not hit:
                assert cache.put(key, b"x" * key[2]) == ref.put(key, key[2])
        elif op == "prefetch":
            pos = arg % len(plan)
            key = plan[pos]
            admitted = cache.reserve(key, key[2], pos)
            assert admitted == ref.reserve(key, key[2], pos)
            if admitted and arg % 4:
                assert cache.put(key, b"x" * key[2], prefetched=True) == ref.put(key, key[2])
        else:
            key = keys[arg % len(keys)]
            if op == "put":
                assert cache.put(key, b"x" * key[2]) == ref.put(key, key[2])
            else:
                cache.release(key)
                ref.release(key)
        assert [k for k in keys if k in cache] == [k for k in keys if k in ref.blocks]
        assert cache.nbytes == sum(ref.blocks.values())
        assert cache.reserved_bytes == sum(ref.reserved.values())
        assert cache.stats.snapshot()["evictions"] == ref.evictions
        assert cache.nbytes + cache.reserved_bytes <= capacity


def test_cached_backend_eviction_under_pressure_refetches_correct_bytes(
    small_imagenet,
):
    # Capacity one block: with access order [a, b, b, a], Belady evicts a
    # to admit b (b's next use is sooner), then a's re-read after eviction
    # must re-fetch — never serve stale or mixed bytes.
    _, ranges = _plan_ranges(small_imagenet)
    a, b = ranges[0], ranges[1]
    block = max(a[2], b[2])
    inner = ObjectStoreBackend(small_imagenet.root)
    backend = CachedBackend(inner, capacity_bytes=block)
    reference = LocalFSBackend(small_imagenet.root)
    try:
        order = [a, b, b, a]
        backend.cache.plan((r[0], r[1], r[2]) for r in order)
        assert _read_ranges(backend, order) == _read_ranges(reference, order)
        snap = backend.cache.stats.snapshot()
        assert snap["evictions"] > 0
        # The second b read is the hit the eviction bought.
        assert snap["hits"] >= 1
        assert backend.cache.nbytes <= block
    finally:
        backend.close()
        reference.close()


def test_prefetch_warms_planned_ranges(small_imagenet):
    _, ranges = _plan_ranges(small_imagenet)
    backend = CachedBackend(ObjectStoreBackend(small_imagenet.root), 16 * 1024 * 1024)
    try:
        queued = backend.schedule_prefetch(ranges)
        assert queued == len(ranges)
        assert backend.wait_prefetch(timeout=30.0)
        assert backend.prefetch_errors == []
        snap = backend.cache.stats.snapshot()
        assert snap["prefetched"] == len(ranges)
        assert backend.hot_shards() == {r[0] for r in ranges}
        _read_ranges(backend, ranges)
        snap = backend.cache.stats.snapshot()
        assert snap["hits"] == len(ranges) and snap["misses"] == 0
        hits, misses, depth = backend.cache_counters()
        assert (hits, misses, depth) == (len(ranges), 0, 0)
    finally:
        backend.close()


def test_prefetch_never_caches_corrupt_blocks(small_imagenet):
    _, ranges = _plan_ranges(small_imagenet)
    shard_path, offset, nbytes, count = ranges[0]
    path = small_imagenet.root / shard_path
    raw = bytearray(path.read_bytes())
    raw[offset + 20] ^= 0xFF
    path.write_bytes(bytes(raw))
    backend = CachedBackend(ObjectStoreBackend(small_imagenet.root), 16 * 1024 * 1024)
    try:
        backend.schedule_prefetch([ranges[0]])
        assert backend.wait_prefetch(timeout=30.0)
        assert len(backend.prefetch_errors) == 1
        assert (shard_path, offset, nbytes) not in backend.cache
        # The serve path surfaces the real error on the batch that needs it.
        handle = backend.open_shard(shard_path)
        with pytest.raises(TFRecordCorruption):
            handle.read_range_views(offset, count, nbytes=nbytes)
    finally:
        backend.close()


def test_cache_hits_skip_the_remote_tier(small_imagenet):
    _, ranges = _plan_ranges(small_imagenet)
    inner = ObjectStoreBackend(small_imagenet.root)
    backend = CachedBackend(inner, 16 * 1024 * 1024)
    try:
        backend.schedule_prefetch(ranges)
        assert backend.wait_prefetch(timeout=30.0)
        fetched = inner.requests
        _read_ranges(backend, ranges)
        assert inner.requests == fetched  # all hits: zero new range-GETs
    finally:
        backend.close()


# -- daemon handle table (satellite: bounded _readers) -------------------------


def test_daemon_reader_table_is_lru_bounded(small_imagenet):
    plan, _ = _plan_ranges(small_imagenet)
    cfg = EMLIOConfig(batch_size=4, max_open_shards=2)
    daemon = EMLIODaemon(
        small_imagenet.root, plan, {0: ("127.0.0.1", 1)}, cfg
    )
    try:
        shard_paths = sorted({a.shard_path for a in plan.assignments})
        assert len(shard_paths) > 2
        for shard_path in shard_paths:
            daemon._reader(shard_path)
            assert len(daemon._readers) <= 2
        # MRU retained, LRU evicted.
        assert shard_paths[-1] in daemon._readers
        assert shard_paths[0] not in daemon._readers
        assert daemon.storage_snapshot()["open_shards"] <= 2
    finally:
        daemon.close()


def test_daemon_pinned_reader_survives_eviction_pressure(small_imagenet):
    plan, _ = _plan_ranges(small_imagenet)
    cfg = EMLIOConfig(batch_size=4, max_open_shards=1)
    daemon = EMLIODaemon(
        small_imagenet.root, plan, {0: ("127.0.0.1", 1)}, cfg
    )
    try:
        shard_paths = sorted({a.shard_path for a in plan.assignments})
        pinned = daemon._acquire_reader(shard_paths[0])
        for shard_path in shard_paths[1:]:
            daemon._reader(shard_path)
        assert daemon._readers[shard_paths[0]] is pinned  # pinned: not evicted
        daemon._release_reader(shard_paths[0])
        daemon._reader(shard_paths[-1])
        assert len(daemon._readers) <= 2  # pinned handle + the bound
    finally:
        daemon.close()


def test_many_shard_epoch_respects_handle_bound(small_imagenet):
    cfg = EMLIOConfig(batch_size=4, epochs=1, output_hw=(16, 16), max_open_shards=1)
    with EMLIOService(cfg, small_imagenet) as svc:
        total = sum(len(labels) for _t, labels in svc.epoch(0))
        assert total == small_imagenet.num_samples
        snap = svc.daemons[0].storage_snapshot()
    assert snap["open_shards"] <= 1


# -- spec + deploy wiring ------------------------------------------------------


def test_storage_spec_validates_cache_and_latency():
    assert StorageSpec(cache_bytes=1024).cache_bytes == 1024
    with pytest.raises(SpecError, match="cache_bytes"):
        StorageSpec(cache_bytes=-1)
    with pytest.raises(SpecError, match="latency_ms"):
        StorageSpec(latency_ms=-0.5)
    with pytest.raises(SpecError, match="objectstore"):
        StorageSpec(backend="localfs", latency_ms=5.0)
    spec = StorageSpec(backend="objectstore", latency_ms=5.0, cache_bytes=4096)
    round_tripped = StorageSpec.from_dict(
        {"backend": "objectstore", "latency_ms": 5.0, "cache_bytes": 4096}
    )
    assert round_tripped == spec


def test_nfs_backend_serves_daemon_reads_through_the_mount(small_imagenet):
    """Regression: ``backend = "nfs"`` used to be a silent no-op — the
    daemon kept mmap'ing local files.  Now every daemon read is a counted
    ``read_at`` on the mount, observable in the deployment's stats."""
    spec = ClusterSpec(
        name="nfs-tier",
        dataset=replace(preset("quickstart").dataset),
        pipeline=preset("quickstart").pipeline,
        storage=StorageSpec(backend="nfs"),
    )
    with EMLIO.deploy(spec, dataset=small_imagenet) as dep:
        total = sum(len(labels) for _t, labels in dep.epoch(0))
        stats = dep.stats()["storage"]
    assert total == small_imagenet.num_samples
    assert set(stats["tiers"]) == {"nfs"}
    nfs = stats["tiers"]["nfs"]
    assert nfs["reads"] > 0 and nfs["bytes_read"] > 0


def test_objectstore_spec_with_cache_runs_end_to_end(small_imagenet):
    base = preset("storage-tiers")
    spec = replace(
        base,
        storage=replace(base.storage, latency_ms=1.0),  # keep the test fast
    )
    with EMLIO.deploy(spec, dataset=small_imagenet) as dep:
        per_epoch = [
            sum(len(labels) for _t, labels in dep.epoch(e)) for e in range(2)
        ]
        status = dep.status()
        stats = dep.stats()["storage"]
    assert per_epoch == [small_imagenet.num_samples] * 2
    tier = stats["tiers"]["objectstore"]
    assert tier["reads"] > 0
    assert tier["cache_hits"] + tier["prefetched"] > 0
    # status() carries the same storage section, per daemon + aggregated.
    assert status["storage"]["tiers"]["objectstore"]["reads"] == tier["reads"]
    daemon_snap = status["storage"]["daemons"][0]
    assert daemon_snap["tier"] == "objectstore"
    assert "cache" in daemon_snap and daemon_snap["cache"]["capacity_bytes"] > 0


def test_localfs_cache_bytes_wraps_the_mmap_tier(small_imagenet):
    spec = ClusterSpec(
        name="localfs-cached",
        dataset=preset("quickstart").dataset,
        pipeline=preset("quickstart").pipeline,
        storage=StorageSpec(backend="localfs", cache_bytes=8 * 1024 * 1024),
    )
    with EMLIO.deploy(spec, dataset=small_imagenet) as dep:
        total = sum(len(labels) for _t, labels in dep.epoch(0))
        tier = dep.stats()["storage"]["tiers"]["localfs"]
    assert total == small_imagenet.num_samples
    assert tier["cache_hits"] + tier["prefetched"] > 0


def test_storage_tiers_spec_file_round_trips(tmp_path):
    spec_file = Path(__file__).resolve().parents[1] / "examples/specs/storage_tiers.toml"
    spec = ClusterSpec.from_file(spec_file)
    assert spec.storage.backend == "objectstore"
    assert spec.storage.cache_bytes == 8 * 1024 * 1024
    assert spec.storage.latency_ms == 5.0
    out = tmp_path / "round.toml"
    out.write_text(spec.to_toml())
    assert ClusterSpec.from_file(out) == spec


# -- StorageServer death mid-epoch (satellite: fault tests) --------------------


def test_storage_server_death_mid_epoch_fails_loudly_then_restart_succeeds(
    small_imagenet,
):
    cfg = EMLIOConfig(batch_size=4, epochs=1, output_hw=(16, 16))
    server = StorageServer(str(small_imagenet.root))

    def factory(root):
        return NFSBackend(NFSMount("127.0.0.1", server.port, pool_size=1))

    killed = threading.Event()

    def kill_server_once(assignment, push):
        if not killed.is_set():
            killed.set()
            server.close()

    with EMLIOService(
        cfg, small_imagenet, storage_factory=factory, stall_timeout=5.0
    ) as svc:
        svc.daemons[0].fault_injector = kill_server_once
        with pytest.raises(Exception):
            for _ in svc.epoch(0):
                pass
    assert killed.is_set()

    # A fresh server + deployment over the same dataset serves a clean epoch.
    server2 = StorageServer(str(small_imagenet.root))
    try:
        def factory2(root):
            return NFSBackend(NFSMount("127.0.0.1", server2.port, pool_size=1))

        with EMLIOService(cfg, small_imagenet, storage_factory=factory2) as svc:
            total = sum(len(labels) for _t, labels in svc.epoch(0))
        assert total == small_imagenet.num_samples
    finally:
        server2.close()


# -- service-level locality + heartbeat plumbing -------------------------------


def test_service_member_loads_carry_hot_shards(small_imagenet):
    cfg = EMLIOConfig(batch_size=4, epochs=1, output_hw=(16, 16))
    factory = lambda root: CachedBackend(  # noqa: E731
        ObjectStoreBackend(root), 16 * 1024 * 1024
    )
    with EMLIOService(cfg, small_imagenet, storage_factory=factory) as svc:
        svc.daemons[0].backend.wait_prefetch(timeout=30.0)
        _node_loads, root_loads = svc._member_loads()
        root = str(small_imagenet.root)
        assert root in root_loads
        assert root_loads[root].cached_shards == {
            a.shard_path for a in svc.plan.assignments
        }
