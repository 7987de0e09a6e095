"""Pluggable storage tiers behind one daemon-facing protocol.

The daemon's serve loop needs exactly one thing from storage: "give me the
``count`` records in ``[offset, offset + nbytes)`` of this shard, verified".
:class:`StorageBackend` is that seam — ``open_shard`` returns a
:class:`ShardHandle` whose ``read_range``/``read_range_views`` mirror
:class:`~repro.tfrecord.reader.TFRecordReader`, plus ``stat``/``listdir``
for tooling.  Three tiers implement it:

``localfs``
    :class:`LocalFSBackend` — the mmap fast path.  Handles wrap
    :class:`TFRecordReader` directly, so record views alias the mapped
    shard and batches go to the wire with zero copies (paper §4.3).
``nfs``
    :class:`NFSBackend` — wraps an :class:`~repro.storage.nfs.NFSMount`.
    A batch range is fetched with **one** ``read_at`` round trip (the plan
    knows ``nbytes``), then parsed and CRC-verified locally.
``objectstore``
    :class:`~repro.storage.objectstore.ObjectStoreBackend` — emulated
    range-GET store with configurable per-request latency.

Every remote fetch is parsed through the same CRC-verifying record walk
as the mmap path (:func:`parse_record_block`), so a short or corrupt
range read fails loudly at read time regardless of tier.
"""

from __future__ import annotations

from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.storage.localfs import LocalStorage, StorageStats
from repro.tfrecord.reader import _LEN, TFRecordCorruption, TFRecordReader, read_records
from repro.tfrecord.writer import FOOTER_BYTES, HEADER_BYTES


def parse_record_block(
    buf: bytes | memoryview,
    count: int,
    verify: bool,
    *,
    shard_path: str = "?",
    offset: int = 0,
) -> list[memoryview]:
    """Parse ``count`` records out of a fetched byte range.

    The returned views alias ``buf`` — callers must keep ``buf`` alive
    while the views are in flight (memoryviews hold a reference, so
    ordinary use is safe).  Short or corrupt data raises
    :class:`TFRecordCorruption` with the shard and absolute offset named.
    """
    try:
        return read_records(memoryview(buf), 0, count, verify)
    except TFRecordCorruption as err:
        raise TFRecordCorruption(
            f"shard {shard_path!r}: bad range read at byte {offset + err.offset}: {err}",
            offset + err.offset,
        ) from err


@runtime_checkable
class ShardHandle(Protocol):
    """Range-read access to one shard, independent of where its bytes live."""

    @property
    def nbytes(self) -> int: ...

    def read_range(
        self, offset: int, count: int, nbytes: int | None = None
    ) -> list[bytes]: ...

    def read_range_views(
        self, offset: int, count: int, nbytes: int | None = None
    ) -> list[memoryview]: ...

    def read_region(
        self, offset: int, count: int, nbytes: int
    ) -> tuple[bytes | memoryview, bool]: ...

    def close(self) -> None: ...


class StorageBackend:
    """Base class for storage tiers.

    Subclasses set :attr:`tier`, provide :attr:`stats`
    (:class:`StorageStats`), and implement :meth:`open_shard`,
    :meth:`stat` and :meth:`listdir`.  The prefetch/cache hooks are
    no-ops here so the daemon can drive any tier uniformly; only
    :class:`~repro.storage.cache.CachedBackend` overrides them.
    """

    tier: str = "?"
    stats: StorageStats

    def open_shard(self, shard_path: str) -> ShardHandle:
        raise NotImplementedError

    def stat(self, shard_path: str) -> int:
        """Size of the shard in bytes."""
        raise NotImplementedError

    def listdir(self, relpath: str = ".") -> list[str]:
        raise NotImplementedError

    def close(self) -> None:  # noqa: B027 — optional hook
        pass

    # ---- cache/prefetch hooks (no-ops on plain tiers) ----

    def schedule_prefetch(self, ranges) -> int:
        """Accept a plan of ``(shard_path, offset, nbytes, count)`` ranges."""
        return 0

    def wait_prefetch(self, timeout: float | None = None) -> bool:
        return True

    def hot_shards(self) -> set[str]:
        """Shard paths with bytes resident in this tier's cache."""
        return set()

    def cache_counters(self) -> tuple[int, int, int]:
        """``(hits, misses, fetches_in_flight)`` for heartbeat reporting."""
        return (0, 0, 0)

    def snapshot(self) -> dict:
        """Point-in-time tier stats for ``Deployment.stats()``.

        The same per-tier aggregates back the labeled registry series
        ``emlio_storage_tier_<field>_total{tier=...}``
        (:mod:`repro.obs.metrics`).
        """
        return {"tier": self.tier, **self.stats.snapshot()}


class LocalFSHandle:
    """mmap-backed handle: the existing zero-copy fast path, instrumented."""

    def __init__(self, backend: "LocalFSBackend", shard_path: str) -> None:
        self._backend = backend
        self.shard_path = shard_path
        self._reader = TFRecordReader(
            backend.root / shard_path, verify=backend.verify
        )

    @property
    def nbytes(self) -> int:
        return self._reader.nbytes

    def read_range(
        self, offset: int, count: int, nbytes: int | None = None
    ) -> list[bytes]:
        out = self._reader.read_range(offset, count)
        self._backend.stats.record_read(
            nbytes if nbytes is not None else sum(len(r) for r in out)
        )
        return out

    def read_range_views(
        self, offset: int, count: int, nbytes: int | None = None
    ) -> list[memoryview]:
        out = self._reader.read_range_views(offset, count)
        self._backend.stats.record_read(
            nbytes if nbytes is not None else sum(len(r) for r in out)
        )
        return out

    def read_region(
        self, offset: int, count: int, nbytes: int
    ) -> tuple[memoryview, bool]:
        """Raw framed bytes of a planned batch range, plus a verify flag.

        The columnar serve path primitive: one contiguous view over the
        mmap'ed shard, **unparsed** — the caller scans record framing
        itself (:func:`~repro.tfrecord.sharder.scan_example_spans`) and
        must CRC-check iff the returned flag is set.  ``verify="open"``
        already checksummed the whole shard at open, so the flag is clear.
        """
        buf = self._reader.raw_slice(offset, nbytes)
        self._backend.stats.record_read(nbytes)
        return buf, self._reader.verify

    def close(self) -> None:
        self._reader.close()


class LocalFSBackend(StorageBackend):
    """Tier over a local directory — keeps the daemon's mmap serve path."""

    tier = "localfs"

    def __init__(self, root: str | Path, verify: bool | str = True) -> None:
        self.root = Path(root)
        self.verify = verify
        self.stats = StorageStats()

    def open_shard(self, shard_path: str) -> LocalFSHandle:
        return LocalFSHandle(self, shard_path)

    def stat(self, shard_path: str) -> int:
        self.stats.record_stat()
        return (self.root / shard_path).stat().st_size

    def listdir(self, relpath: str = ".") -> list[str]:
        self.stats.record_listdir()
        return sorted(p.name for p in (self.root / relpath).iterdir())

    # Range-GET primitive, used when this tier sits under a cache.
    def read_bytes(self, shard_path: str, offset: int, nbytes: int) -> bytes:
        with open(self.root / shard_path, "rb") as fh:
            fh.seek(offset)
            data = fh.read(nbytes)
        self.stats.record_read(len(data))
        return data


class RemoteShardHandle:
    """Handle for byte-range tiers (NFS, object store, cached).

    A planned batch range — the daemon always knows ``nbytes`` from its
    :class:`~repro.core.planner.BatchAssignment` — is fetched with one
    backend request and parsed locally with per-record CRC verification.
    Without the ``nbytes`` hint (tooling paths) it falls back to walking
    record headers, two small requests per record — exactly the
    round-trip-per-read pattern the plan hint exists to avoid.
    """

    def __init__(self, backend, shard_path: str, verify: bool) -> None:
        self._backend = backend
        self.shard_path = shard_path
        # "open"-at-construction has no meaning when bytes arrive per
        # request: verify every fetched range instead.
        self.verify = bool(verify)

    @property
    def nbytes(self) -> int:
        return self._backend.stat(self.shard_path)

    def _fetch(self, offset: int, count: int, nbytes: int | None) -> bytes:
        if nbytes is not None:
            return self._backend.read_bytes(self.shard_path, offset, nbytes)
        chunks: list[bytes] = []
        pos = offset
        for _ in range(count):
            header = self._backend.read_bytes(self.shard_path, pos, HEADER_BYTES)
            if len(header) < HEADER_BYTES:
                raise TFRecordCorruption(
                    f"shard {self.shard_path!r}: truncated header at byte {pos}"
                )
            (length,) = _LEN.unpack_from(header)
            body = self._backend.read_bytes(
                self.shard_path, pos + HEADER_BYTES, length + FOOTER_BYTES
            )
            chunks.append(header)
            chunks.append(body)
            pos += HEADER_BYTES + length + FOOTER_BYTES
        return b"".join(chunks)

    def read_range_views(
        self, offset: int, count: int, nbytes: int | None = None
    ) -> list[memoryview]:
        buf = self._fetch(offset, count, nbytes)
        return parse_record_block(
            buf, count, self.verify, shard_path=self.shard_path, offset=offset
        )

    def read_range(
        self, offset: int, count: int, nbytes: int | None = None
    ) -> list[bytes]:
        return [bytes(v) for v in self.read_range_views(offset, count, nbytes)]

    def read_region(
        self, offset: int, count: int, nbytes: int
    ) -> tuple[bytes, bool]:
        """One range-GET of a planned batch's framed bytes, unparsed.

        Remote bytes are untrusted until checked: the verify flag simply
        mirrors this handle's setting.
        """
        return self._backend.read_bytes(self.shard_path, offset, nbytes), self.verify

    def close(self) -> None:
        pass


class NFSBackend(StorageBackend):
    """Tier over an :class:`~repro.storage.nfs.NFSMount`.

    Owns the mount by default (``close`` closes it); reads/bytes are
    counted by the mount's own :class:`StorageStats`, so "did the daemon
    really read over NFS" is directly observable.
    """

    tier = "nfs"

    def __init__(self, mount, verify: bool | str = True, owns_mount: bool = True) -> None:
        self.mount = mount
        self.verify = verify
        self.owns_mount = owns_mount
        self.stats = mount.stats

    def open_shard(self, shard_path: str) -> RemoteShardHandle:
        return RemoteShardHandle(self, shard_path, bool(self.verify))

    def read_bytes(self, shard_path: str, offset: int, nbytes: int) -> bytes:
        return self.mount.read_at(shard_path, offset, nbytes)

    def stat(self, shard_path: str) -> int:
        return self.mount.size(shard_path)

    def listdir(self, relpath: str = ".") -> list[str]:
        return self.mount.listdir(relpath)

    def close(self) -> None:
        if self.owns_mount:
            self.mount.close()


__all__ = [
    "LocalFSBackend",
    "LocalFSHandle",
    "LocalStorage",
    "NFSBackend",
    "RemoteShardHandle",
    "ShardHandle",
    "StorageBackend",
    "parse_record_block",
]
