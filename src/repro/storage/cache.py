"""Plan-informed hot-set cache: block-granular, bounded bytes, Belady eviction.

The planner already knows *exactly* which byte ranges a daemon will serve,
in which order (every :class:`~repro.core.planner.BatchAssignment` carries
``(shard_path, offset, nbytes, count)``).  That turns caching from a
heuristic into a lookahead problem:

* **Blocks are planned ranges.**  The cache key is
  ``(shard_path, offset, nbytes)`` — one batch's contiguous slice.  No
  partial blocks, no alignment games: the serve path reads whole planned
  ranges, so the cache stores whole planned ranges.
* **Eviction is ordered by next planned use** (Belady's algorithm, which
  is realizable here because the future is literally known): under
  pressure the block whose next use is farthest away — or that will never
  be used again — goes first, and a block is never admitted by evicting
  blocks that are needed *sooner* than it.
* **Prefetch is a window that runs ahead of the serve path.**  The daemon
  feeds the ordered plan (``schedule_prefetch``); every serve-path lookup
  consumes its position in it.  A fixed pool of fetcher threads walks a
  *frontier* through the plan and claims the next range that is neither
  cached, nor being fetched, nor already served — **if the cache admits
  it**: the Belady test runs *before* the GET and reserves the block's
  bytes, evicting only blocks needed later than it.  A refusal parks the
  frontier until the serve path consumes a block (which pushes that
  block's next use an epoch away and so makes room), so the window sizes
  itself to the cache and no fetched byte is thrown away.  A serve-path
  miss on a range already being fetched waits for that fetch instead of
  issuing a second GET.

The pool size is a module constant, not a knob: a range-GET spends its
time asleep on the store (outside the GIL), so the only thing the count
sets is how many request latencies overlap — ``_FETCHERS`` / latency
must exceed the serve rate, and sixteen cover a 5 ms store at 3 200
batches/s; the cache capacity, not the pool, bounds memory.

Correctness across tiers: a fetched block is CRC-parsed **before**
admission (corrupt bytes never enter the cache) and admitted together
with its SHA-256 *seal*, in one entry, so eviction never separates them.
Under the strict ``True`` policy every hit re-hashes the block and
compares it with its seal — one C-speed digest instead of a second
per-record CRC-32C walk, and stronger: the digest covers the whole
block, framing and stored CRCs included.  A block that fails its seal is
dropped and raises :class:`~repro.tfrecord.reader.TFRecordCorruption`;
the next read of the range re-fetches it from the tier.  ``"open"``
verifies at admission only (the cached copy is immutable, the same trust
model as verify-on-open mmap).  An evicted block is simply re-fetched on
next use — stale bytes cannot be served because blocks are immutable
copies keyed by exact range.

Victims are chosen from a lazily maintained max-heap on next planned use
(stale entries are skipped when popped), so an admission under pressure
costs ``O(k log n)`` for ``k`` victims, not a sort of every cached block.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import threading
import time
from collections import deque
from typing import Iterable, NamedTuple

from repro.storage.backend import (
    RemoteShardHandle,
    StorageBackend,
    parse_record_block,
)
from repro.tfrecord.reader import TFRecordCorruption

BlockKey = tuple[str, int, int]  # (shard_path, offset, nbytes)

#: Fetcher threads per cached tier: ``_FETCHERS`` / request latency must
#: exceed the serve rate (16 / 5 ms ≈ 3 200 GETs/s; see the module docstring).
_FETCHERS = 16
#: Prefetch failures kept for inspection (the counter keeps the total).
_MAX_KEPT_ERRORS = 32
#: ``close()`` waits this long, in total, for fetchers caught mid-GET.
_CLOSE_JOIN_S = 2.0


class PlanRange(NamedTuple):
    """One planned batch range: what to fetch and how to verify it."""

    shard_path: str
    offset: int
    nbytes: int
    count: int

    @property
    def key(self) -> BlockKey:
        return (self.shard_path, self.offset, self.nbytes)


class _Entry(NamedTuple):
    """One admitted block: its bytes and their seal travel together."""

    block: bytes
    seal: bytes  # SHA-256 of ``block``, taken at admission
    seq: int  # admission order: breaks next-use ties oldest-first


class CacheStats:
    """Thread-safe hot-set cache counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.prefetched = 0
        self.evictions = 0

    def record(self, field: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + n)

    def snapshot(self) -> dict[str, int]:
        """Counters behind ``emlio_storage_tier_cache_hits_total`` /
        ``_cache_misses`` / ``_prefetched`` / ``_evictions`` in the
        metrics registry (:mod:`repro.obs.metrics`)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "prefetched": self.prefetched,
                "evictions": self.evictions,
            }


class HotSetCache:
    """Bounded byte budget of sealed, immutable blocks with
    next-planned-use eviction.

    Each block is stored with the SHA-256 of its bytes (its seal);
    ``get``/``peek`` with ``verify`` check a hit against it.
    ``nbytes + reserved_bytes <= capacity_bytes`` holds at every step:
    room for a block about to be fetched is made (and held) by
    :meth:`reserve`, so the block's later :meth:`put` cannot be refused.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 1:
            raise ValueError(f"capacity_bytes must be >= 1, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._blocks: dict[BlockKey, _Entry] = {}
        self._bytes = 0
        self._admitted = 0
        self._reserved: dict[BlockKey, int] = {}
        self._reserved_bytes = 0
        # key -> positions (ascending) at which the plan will read it next.
        self._schedule: dict[BlockKey, deque[int]] = {}
        # Eviction order: ``(-next_use, seq, key)`` for every cached block,
        # plus stale items (evicted, re-admitted, or next use moved on)
        # that are dropped when they surface.
        self._victims: list[tuple[float, int, BlockKey]] = []

    def plan(self, keys: Iterable[BlockKey]) -> None:
        """Replace the lookahead: ``keys`` in the order they will be read."""
        schedule: dict[BlockKey, deque[int]] = {}
        for pos, key in enumerate(keys):
            schedule.setdefault(key, deque()).append(pos)
        with self._lock:
            self._schedule = schedule
            self._rebuild_victims()

    def _next_use(self, key: BlockKey) -> float:
        uses = self._schedule.get(key)
        return uses[0] if uses else math.inf

    def _rebuild_victims(self) -> None:
        """Heap of exactly the cached blocks at their current next use (lock held)."""
        self._victims = [
            (-self._next_use(key), entry.seq, key) for key, entry in self._blocks.items()
        ]
        heapq.heapify(self._victims)

    def _push_victim(self, key: BlockKey, entry: _Entry) -> None:
        """Record ``key``'s current next use (lock held); compacts the heap
        once stale items outnumber live ones, so pushes stay O(log n)."""
        heapq.heappush(self._victims, (-self._next_use(key), entry.seq, key))
        if len(self._victims) > 2 * len(self._blocks) + 64:
            self._rebuild_victims()

    def __contains__(self, key: BlockKey) -> bool:
        with self._lock:
            return key in self._blocks

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._bytes

    @property
    def reserved_bytes(self) -> int:
        with self._lock:
            return self._reserved_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    def _checked(self, key: BlockKey, entry: _Entry) -> bytes:
        """``entry``'s block if it still matches its admission seal; else
        drop it (the next read re-fetches) and raise."""
        if hashlib.sha256(entry.block).digest() == entry.seal:
            return entry.block
        with self._lock:
            if self._blocks.get(key) is entry:
                del self._blocks[key]
                self._bytes -= len(entry.block)
        shard_path, offset, nbytes = key
        raise TFRecordCorruption(
            f"shard {shard_path!r}: cached block at byte {offset} ({nbytes} bytes) "
            "fails its admission seal — corrupted in cache RAM; dropped, the "
            "next read re-fetches it from the tier",
            offset,
        )

    def get(self, key: BlockKey, verify: bool = False) -> bytes | None:
        """Look up a block, consuming this position from the lookahead.

        With ``verify`` a hit is checked against its admission seal first
        (:class:`TFRecordCorruption` on a mismatch, the block dropped).
        """
        with self._lock:
            entry = self._blocks.get(key)
            uses = self._schedule.get(key)
            if uses:
                uses.popleft()
                if entry is not None:
                    self._push_victim(key, entry)
        if entry is None:
            self.stats.record("misses")
            return None
        block = self._checked(key, entry) if verify else entry.block
        self.stats.record("hits")
        return block

    def peek(self, key: BlockKey, verify: bool = False) -> bytes | None:
        """Look up a block without consuming a plan position or counting."""
        with self._lock:
            entry = self._blocks.get(key)
        if entry is None:
            return None
        return self._checked(key, entry) if verify else entry.block

    def _make_room(self, key: BlockKey, nbytes: int) -> bool:
        """Evict strictly-later-needed blocks until ``nbytes`` fit (lock held).

        Victims go farthest next use first (oldest admission first among
        blocks never used again); if the blocks needed later than ``key``
        cannot free enough room, nothing is evicted.
        """
        used = self._bytes + self._reserved_bytes
        if used + nbytes <= self.capacity_bytes:
            return True
        if nbytes > self.capacity_bytes:
            return False
        mine = self._next_use(key)
        heap = self._victims
        chosen: list[tuple[float, int, BlockKey]] = []
        while used + nbytes > self.capacity_bytes and heap:
            neg_use, seq, victim = heap[0]
            entry = self._blocks.get(victim)
            if entry is None or entry.seq != seq or -neg_use != self._next_use(victim):
                heapq.heappop(heap)  # stale
                continue
            if -neg_use <= mine:
                break
            chosen.append(heapq.heappop(heap))
            used -= len(entry.block)
        if used + nbytes > self.capacity_bytes:
            for item in chosen:
                heapq.heappush(heap, item)
            return False
        for _, _, victim in chosen:
            self._bytes -= len(self._blocks.pop(victim).block)
        if chosen:
            self.stats.record("evictions", len(chosen))
        return True

    def reserve(self, key: BlockKey, nbytes: int, pos: int) -> bool | None:
        """Admission *before* the fetch, for the plan's read at ``pos``.

        ``True``: room for ``nbytes`` is now held for ``key`` (later-needed
        blocks were evicted for it if necessary) — fetch it, then
        :meth:`put` or :meth:`release` it.  ``False``: admitting it would
        cost blocks needed sooner; ask again once the serve path has moved
        on.  ``None``: nothing to fetch — the block is cached or reserved,
        or the read at ``pos`` has already happened.
        """
        with self._lock:
            uses = self._schedule.get(key)
            if key in self._blocks or key in self._reserved or not uses or uses[0] > pos:
                return None
            if not self._make_room(key, nbytes):
                return False
            self._reserved[key] = nbytes
            self._reserved_bytes += nbytes
            return True

    def release(self, key: BlockKey) -> None:
        """Give back a reservation whose fetch failed."""
        with self._lock:
            self._reserved_bytes -= self._reserved.pop(key, 0)

    def put(self, key: BlockKey, data: bytes, prefetched: bool = False) -> bool:
        """Admit a block with its seal, evicting strictly-later-needed
        blocks if required.

        Returns ``False`` (and caches nothing) when admission would
        require evicting a block needed sooner than ``key`` — by the
        plan, that trade always loses.  A reserved block always fits.
        The seal is hashed here, on the caller's (fetcher's) thread, from
        bytes the caller has already CRC-verified.
        """
        data = bytes(data)
        seal = hashlib.sha256(data).digest()
        with self._lock:
            self._reserved_bytes -= self._reserved.pop(key, 0)
            if key in self._blocks:
                return True
            if not self._make_room(key, len(data)):
                return False
            self._admitted += 1
            entry = self._blocks[key] = _Entry(data, seal, self._admitted)
            self._bytes += len(data)
            self._push_victim(key, entry)
        if prefetched:
            self.stats.record("prefetched")
        return True

    def hot_shards(self) -> set[str]:
        with self._lock:
            return {key[0] for key in self._blocks}


class CachedShardHandle:
    """Serve planned ranges from the hot set, falling through to the tier."""

    def __init__(self, backend: "CachedBackend", shard_path: str) -> None:
        self._backend = backend
        self.shard_path = shard_path
        self._inner: RemoteShardHandle | None = None

    def _inner_handle(self):
        if self._inner is None:
            self._inner = self._backend.inner.open_shard(self.shard_path)
        return self._inner

    @property
    def nbytes(self) -> int:
        return self._inner_handle().nbytes

    def read_range_views(
        self, offset: int, count: int, nbytes: int | None = None
    ) -> list[memoryview]:
        if nbytes is None:
            # No plan hint means no block identity — bypass the cache.
            return self._inner_handle().read_range_views(offset, count)
        backend = self._backend
        key: BlockKey = (self.shard_path, offset, nbytes)
        block = backend.lookup(key)
        if block is None:
            block = backend.fetch_block(PlanRange(self.shard_path, offset, nbytes, count))
        # Checked as the tier's policy asks: a hit against its seal, a miss
        # by its fetch's CRC walk.
        return parse_record_block(
            block, count, False, shard_path=self.shard_path, offset=offset
        )

    def read_range(
        self, offset: int, count: int, nbytes: int | None = None
    ) -> list[bytes]:
        return [bytes(v) for v in self.read_range_views(offset, count, nbytes)]

    def read_region(
        self, offset: int, count: int, nbytes: int
    ) -> tuple[bytes, bool]:
        """Planned range as raw framed bytes (cache-aware, unparsed).

        Hits come back checked against their admission seal (under the
        strict policy), misses CRC-verified by
        :meth:`CachedBackend.fetch_block`, so the caller need not re-check
        either: the flag is always clear.
        """
        backend = self._backend
        key: BlockKey = (self.shard_path, offset, nbytes)
        block = backend.lookup(key)
        if block is None:
            block = backend.fetch_block(PlanRange(self.shard_path, offset, nbytes, count))
        return block, False

    def close(self) -> None:
        if self._inner is not None:
            self._inner.close()
            self._inner = None


class _Fetch:
    """One range-GET in flight; readers of the same range wait on it."""

    __slots__ = ("done", "block")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.block: bytes | None = None  # set iff the fetch verified


class CachedBackend(StorageBackend):
    """Hot-set cache in front of any :class:`StorageBackend` tier.

    ``tier``/``stats`` pass through to the wrapped tier, so tier counters
    keep meaning "requests that actually hit the tier" — the gap between
    planned reads and tier reads *is* the cache's contribution.
    """

    def __init__(self, inner: StorageBackend, capacity_bytes: int) -> None:
        self.inner = inner
        self.tier = inner.tier
        self.stats = inner.stats
        self.cache = HotSetCache(capacity_bytes)
        verify = getattr(inner, "verify", True)
        # Fetches are always CRC-verified unless the tier trusts storage
        # outright; hits are checked against their seal only under strict
        # ``True`` ("open" trusts the immutable admitted copy, like
        # verify-on-open mmap).
        self.verify_fetch = bool(verify)
        self.verify_hit = verify is True
        # The fetch window.  One lock guards all of it; fetchers sleep on
        # ``_cv`` when the plan is exhausted or the cache is full, and
        # ``wait_prefetch`` sleeps on ``_idle``.
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._plan: list[PlanRange] = []
        self._frontier = 0  # next plan position a fetcher will consider
        self._inflight: dict[BlockKey, _Fetch] = {}
        self._failed: set[BlockKey] = set()  # not re-claimed until the next feed
        self._parked = True  # no fetcher can claim anything right now
        self._fetchers: list[threading.Thread] = []
        self._closed = False
        self._errors: deque[str] = deque(maxlen=_MAX_KEPT_ERRORS)
        self._error_count = 0

    # ---- serve path ----

    def open_shard(self, shard_path: str) -> CachedShardHandle:
        return CachedShardHandle(self, shard_path)

    def lookup(self, key: BlockKey) -> bytes | None:
        """Serve-path cache lookup: consumes the plan position, and so may
        make room for the window — wake a parked fetcher to find out.
        A hit that fails its seal raises (and is dropped from the cache)."""
        try:
            return self.cache.get(key, self.verify_hit)
        finally:
            # Unlocked peek: a stale read costs one batch of delay at worst.
            if self._parked and self._frontier < len(self._plan):
                with self._lock:
                    self._parked = False
                    self._cv.notify()

    def _get_verified(self, rng: PlanRange) -> bytes:
        block = self.inner.read_bytes(rng.shard_path, rng.offset, rng.nbytes)
        if self.verify_fetch:
            parse_record_block(
                block,
                rng.count,
                True,
                shard_path=rng.shard_path,
                offset=rng.offset,
            )
        return block

    def fetch_block(self, rng: PlanRange) -> bytes:
        """A serve-path miss: join the range's fetch if one is in flight,
        else fetch it from the tier, verify, admit, return it."""
        key = rng.key
        while True:
            with self._lock:
                fetch = self._inflight.get(key)
                if fetch is None:
                    # A fetch that landed since the caller's lookup has
                    # left the in-flight set only after admitting its block.
                    block = self.cache.peek(key, self.verify_hit)
                    if block is not None:
                        return block
                    fetch = self._inflight[key] = _Fetch()
                    break
            fetch.done.wait()
            if fetch.block is not None:
                return fetch.block
            # That fetch failed; fetch again here so the real error
            # surfaces on the batch that needs the bytes.
        try:
            fetch.block = self._get_verified(rng)
            self.cache.put(key, fetch.block)
            return fetch.block
        finally:
            self._finish(key, fetch)

    def _finish(self, key: BlockKey, fetch: _Fetch) -> None:
        with self._lock:
            del self._inflight[key]
            self._idle.notify_all()
        fetch.done.set()

    def stat(self, shard_path: str) -> int:
        return self.inner.stat(shard_path)

    def listdir(self, relpath: str = ".") -> list[str]:
        return self.inner.listdir(relpath)

    # ---- the fetch window ----

    def schedule_prefetch(self, ranges: Iterable[tuple]) -> int:
        """Feed the plan: the eviction lookahead and the fetch window's road.

        Replaces any earlier plan (the daemon re-feeds at every epoch
        start).  Cached blocks stay, fetches in flight carry on and are
        admitted under the new lookahead.  Returns how many planned reads
        are not in the cache right now.
        """
        plan = [PlanRange(*r) for r in ranges]
        self.cache.plan(r.key for r in plan)
        uncached = sum(r.key not in self.cache for r in plan)
        with self._lock:
            if self._closed:
                return 0
            self._plan = plan
            self._frontier = 0
            self._failed.clear()
            self._parked = False
            if plan and not self._fetchers:
                self._fetchers = [
                    threading.Thread(
                        target=self._fetch_loop, name=f"storage-prefetch-{i}", daemon=True
                    )
                    for i in range(_FETCHERS)
                ]
                for thread in self._fetchers:
                    thread.start()
            self._cv.notify_all()
        return uncached

    def _claim(self) -> tuple[PlanRange, _Fetch] | None:
        """Next planned range worth fetching now, registered as in flight
        with its bytes reserved; ``None`` parks the caller (lock held)."""
        plan = self._plan
        while self._frontier < len(plan):
            rng = plan[self._frontier]
            key = rng.key
            if key not in self._inflight and key not in self._failed:
                admitted = self.cache.reserve(key, rng.nbytes, self._frontier)
                if admitted is False:
                    break  # the window is as wide as the cache allows
                if admitted:
                    self._frontier += 1
                    fetch = self._inflight[key] = _Fetch()
                    self._cv.notify()  # there may be room for one more
                    return rng, fetch
            self._frontier += 1
        self._parked = True
        self._idle.notify_all()
        return None

    def _fetch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._closed:
                    claim = self._claim()
                    if claim is not None:
                        break
                    self._cv.wait()
                else:
                    return
            rng, fetch = claim
            try:
                fetch.block = self._get_verified(rng)
                self.cache.put(rng.key, fetch.block, prefetched=True)
            except Exception as err:  # noqa: BLE001 — serve path re-raises loudly
                # Never cache a failed fetch; the serve-path re-fetch
                # surfaces the real error on the batch that needs it.
                self.cache.release(rng.key)
                with self._lock:
                    self._failed.add(rng.key)
                    self._errors.append(f"{rng.shard_path}@{rng.offset}: {err}")
                    self._error_count += 1
            finally:
                self._finish(rng.key, fetch)

    @property
    def prefetch_errors(self) -> list[str]:
        """The most recent prefetch failures (at most ``_MAX_KEPT_ERRORS``);
        the running total is ``snapshot()["cache"]["prefetch_errors"]`` and
        ``emlio_storage_prefetch_errors_total{tier}`` in the registry."""
        with self._lock:
            return list(self._errors)

    @property
    def prefetch_depth(self) -> int:
        """Range-GETs in flight right now (fetchers' and the serve path's)."""
        with self._lock:
            return len(self._inflight)

    def wait_prefetch(self, timeout: float | None = None) -> bool:
        """Block until the window is idle: nothing in flight and no fetcher
        able to claim more (plan exhausted or cache full).  Bench/test helper."""
        with self._lock:
            return self._idle.wait_for(
                lambda: not self._inflight and (self._parked or not self._fetchers),
                timeout,
            )

    # ---- observability ----

    def hot_shards(self) -> set[str]:
        return self.cache.hot_shards()

    def cache_counters(self) -> tuple[int, int, int]:
        snap = self.cache.stats.snapshot()
        return (snap["hits"], snap["misses"], self.prefetch_depth)

    def snapshot(self) -> dict:
        """Inner-tier stats plus the cache sub-dict; the cache counters
        feed ``emlio_storage_tier_*_total{tier=...}`` at scrape time."""
        snap = self.inner.snapshot()
        snap["cache"] = {
            **self.cache.stats.snapshot(),
            "capacity_bytes": self.cache.capacity_bytes,
            "cached_bytes": self.cache.nbytes,
            "cached_blocks": len(self.cache),
            "prefetch_depth": self.prefetch_depth,
            "prefetch_errors": self._error_count,
        }
        return snap

    def close(self) -> None:
        """Stop the window: wake every fetcher, join them, close the tier."""
        with self._lock:
            self._closed = True
            self._cv.notify_all()
        deadline = time.monotonic() + _CLOSE_JOIN_S
        for thread in self._fetchers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self._fetchers = [t for t in self._fetchers if t.is_alive()]
        self.inner.close()


__all__ = [
    "BlockKey",
    "CacheStats",
    "CachedBackend",
    "CachedShardHandle",
    "HotSetCache",
    "PlanRange",
]
