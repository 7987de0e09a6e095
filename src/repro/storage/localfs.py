"""Instrumented local storage backend.

Counts operations and bytes so experiments can attribute I/O activity to
energy (the power models consume these counters).  The API is deliberately
small — exactly the operations the loaders and the NFS protocol need.
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
    stats: int = 0
    listdirs: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_read(self, nbytes: int) -> None:
        with self._lock:
            self.reads += 1
            self.bytes_read += nbytes

    def record_stat(self) -> None:
        with self._lock:
            self.stats += 1

    def record_listdir(self) -> None:
        with self._lock:
            self.listdirs += 1

    def snapshot(self) -> dict[str, int]:
        """Point-in-time copy of the counters."""
        with self._lock:
            return {
                "reads": self.reads,
                "bytes_read": self.bytes_read,
                "stats": self.stats,
                "listdirs": self.listdirs,
            }


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

    def size(self, relpath: str) -> int:
        """File size in bytes (one ``stat``)."""
        self.stats.record_stat()
        return self._resolve(relpath).stat().st_size

    def exists(self, relpath: str) -> bool:
        self.stats.record_stat()
        return self._resolve(relpath).exists()

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

    def read_all(self, relpath: str) -> bytes:
        data = self._resolve(relpath).read_bytes()
        self.stats.record_read(len(data))
        return data

    def listdir(self, relpath: str = ".") -> list[str]:
        self.stats.record_listdir()
        base = self._resolve(relpath)
        return sorted(p.name for p in base.iterdir())
