"""Instrumented local storage backend.

One operation: :meth:`LocalStorage.read_at`, a positional read confined
to the root, which counts its reads and bytes in :class:`StorageStats`
(the ``reads``/``bytes_read`` of every tier's storage snapshot).  The
localfs and object-store tiers, the storage server behind the NFS mount
and the per-sample loader all read through it.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

#: Descriptors :class:`LocalStorage` keeps open at most; past it the
#: oldest-opened is released, so a dataset with more shards than the
#: process's fd limit still reads (at one re-open per revisit).
_MAX_OPEN_FDS = 256


@dataclass
class StorageStats:
    """Operation counters shared by local and remote backends."""

    reads: int = 0
    bytes_read: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_read(self, nbytes: int) -> None:
        with self._lock:
            self.reads += 1
            self.bytes_read += nbytes

    def snapshot(self) -> dict[str, int]:
        """Point-in-time copy of the counters."""
        with self._lock:
            return {"reads": self.reads, "bytes_read": self.bytes_read}


class LocalStorage:
    """Read-only view of a directory tree with operation accounting.

    :meth:`read_at` keeps one ``O_RDONLY`` descriptor per file it has
    read (at most ``_MAX_OPEN_FDS``), resolved and checked against the
    root once, and serves every later read of that file with a single
    ``os.pread`` — shards are assumed not to change (or be replaced)
    while the storage is open.  :meth:`close` releases the descriptors;
    a later read reopens.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).resolve()
        if not self.root.is_dir():
            raise NotADirectoryError(f"storage root {self.root} is not a directory")
        self.stats = StorageStats()
        self._fd_lock = threading.Lock()
        self._fds: dict[str, int] = {}
        # Descriptors released (by close() or the cap) while a pread may
        # still hold them: closed by the last such read, never reused
        # under it.
        self._retired: list[int] = []
        self._reading = 0

    def _resolve(self, relpath: str) -> Path:
        p = (self.root / relpath).resolve()
        if not p.is_relative_to(self.root):
            raise PermissionError(f"path {relpath!r} escapes storage root")
        return p

    def read_at(self, relpath: str, offset: int, nbytes: int) -> bytes:
        """Positional read (``pread`` semantics): one operation, one count."""
        if offset < 0 or nbytes < 0:
            raise ValueError(f"invalid read: offset={offset} nbytes={nbytes}")
        with self._fd_lock:
            fd = self._fds.get(relpath)
            if fd is None:
                fd = os.open(self._resolve(relpath), os.O_RDONLY | os.O_CLOEXEC)
                if len(self._fds) >= _MAX_OPEN_FDS:
                    self._retired.append(self._fds.pop(next(iter(self._fds))))
                self._fds[relpath] = fd
            self._reading += 1
        try:
            data = os.pread(fd, nbytes, offset)
        finally:
            with self._fd_lock:
                self._reading -= 1
                if not self._reading:
                    self._close_retired()
        self.stats.record_read(len(data))
        return data

    def _close_retired(self) -> None:
        while self._retired:
            os.close(self._retired.pop())

    def close(self) -> None:
        """Release every descriptor :meth:`read_at` holds open."""
        with self._fd_lock:
            self._retired.extend(self._fds.values())
            self._fds.clear()
            if not self._reading:
                self._close_retired()
