"""NFS-like client mount.

Exposes the same read API as :class:`~repro.storage.localfs.LocalStorage`
(``read_at``) but forwards every read to a
:class:`~repro.storage.server.StorageServer` over a (possibly
latency-shaped) channel.  A connection pool lets multi-worker loaders
issue concurrent reads — each worker still pays one RTT per read, like
real NFS without client caching.
"""

from __future__ import annotations

import queue
import threading

from repro.net.channel import Channel, connect_channel
from repro.net.emulation import NetworkProfile
from repro.serialize.msgpack import packb, unpackb
from repro.storage.localfs import StorageStats


class NFSError(OSError):
    """Server-side error surfaced to the client."""


class NFSMount:
    """Client handle on a remote storage server.

    Parameters
    ----------
    host, port:
        Server address.
    profile:
        Shapes the client→server direction; the server shapes its replies
        with its own profile, so both halves of the RTT are paid.
    pool_size:
        Number of pooled connections (concurrent in-flight operations).
    """

    def __init__(
        self,
        host: str,
        port: int,
        profile: NetworkProfile | None = None,
        pool_size: int = 4,
    ) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self._pool: queue.Queue[Channel] = queue.Queue()
        self._all: list[Channel] = []
        for _ in range(pool_size):
            chan = connect_channel(host, port, profile=profile)
            self._pool.put(chan)
            self._all.append(chan)
        self.stats = StorageStats()
        self._closed = False
        self._lock = threading.Lock()

    def _call(self, request: dict) -> dict:
        if self._closed:
            raise RuntimeError("operation on closed NFSMount")
        chan = self._pool.get()
        try:
            chan.send(packb(request))
            resp = unpackb(chan.recv())
        finally:
            self._pool.put(chan)
        if not resp.get("ok"):
            raise NFSError(resp.get("error", "unknown remote error"))
        return resp

    # -- LocalStorage-compatible API -----------------------------------------

    def read_at(self, relpath: str, offset: int, nbytes: int) -> bytes:
        data = self._call(
            {"op": "read", "path": relpath, "offset": offset, "nbytes": nbytes}
        )["data"]
        self.stats.record_read(len(data))
        return data

    def close(self) -> None:
        """Release resources."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for chan in self._all:
            chan.close()
