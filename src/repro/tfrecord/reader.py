"""TFRecord shard reader with mmap-backed contiguous range reads.

The EMLIO daemon's key access pattern (paper §4.3) is: mmap the shard, then
grab a contiguous block of ``B`` records in one slice — no per-record read
syscalls.  :meth:`TFRecordReader.read_range` implements exactly that; the
sequential :func:`scan_records` iterator and random-access
:func:`read_record_at` cover the baseline loaders and tooling.
"""

from __future__ import annotations

import mmap
import struct
from pathlib import Path
from types import TracebackType
from typing import Iterator

from repro.tfrecord.crc32c import first_crc_mismatch
from repro.tfrecord.writer import FOOTER_BYTES, HEADER_BYTES

_LEN = struct.Struct("<Q")
_CRC = struct.Struct("<I")

#: Records walked (and checksummed together) per step of a whole-shard pass.
_WALK_CHUNK = 1024


class TFRecordCorruption(ValueError):
    """Raised when a record's length or data CRC does not verify.

    ``offset`` is the byte position (in the walked buffer) of the record
    that failed, when the raiser knows it.
    """

    def __init__(self, message: str, offset: int | None = None) -> None:
        super().__init__(message)
        self.offset = offset


def _walk_records(
    buf: memoryview, offset: int, count: int, verify: bool, to_end: bool = False
) -> tuple[list[tuple[int, int]], TFRecordCorruption | None]:
    """Walk ``count`` records from ``offset``; checksum them in one batch.

    Returns ``(spans, error)``: the ``(data_start, data_end)`` of every
    record that is whole and (under ``verify``) passes both CRCs, in
    order, and the failure that stopped the walk, if any — exactly the
    record and message a record-by-record walk would have stopped at.
    ``to_end`` also stops, cleanly, at the end of ``buf``.
    """
    size = len(buf)
    spans: list[tuple[int, int]] = []
    starts: list[int] = []
    ends: list[int] = []
    crcs: list[int] = []
    error = None
    pos = offset
    while len(spans) < count and not (to_end and pos == size):
        if pos + HEADER_BYTES > size:
            error = TFRecordCorruption(f"truncated header at offset {pos}", pos)
            break
        (length,) = _LEN.unpack_from(buf, pos)
        data_start = pos + HEADER_BYTES
        data_end = data_start + length
        if verify:
            starts.append(pos)
            ends.append(pos + 8)
            crcs.append(_CRC.unpack_from(buf, pos + 8)[0])
        if data_end + FOOTER_BYTES > size:
            error = TFRecordCorruption(f"truncated record body at offset {pos}", pos)
            break
        if verify:
            starts.append(data_start)
            ends.append(data_end)
            crcs.append(_CRC.unpack_from(buf, data_end)[0])
        spans.append((data_start, data_end))
        pos = data_end + FOOTER_BYTES
    if starts:
        bad = first_crc_mismatch(buf, starts, ends, crcs)
        if bad >= 0:
            record, field = divmod(bad, 2)
            pos = starts[2 * record]
            what = "data" if field else "length"
            error = TFRecordCorruption(f"{what} CRC mismatch at offset {pos}", pos)
            del spans[record:]
    return spans, error


def read_records(
    buf: memoryview, offset: int, count: int, verify: bool
) -> list[memoryview]:
    """``count`` consecutive records at ``offset`` as views aliasing ``buf``."""
    spans, error = _walk_records(buf, offset, count, verify)
    if error is not None:
        raise error
    return [buf[start:end] for start, end in spans]


class TFRecordReader:
    """mmap-backed random/sequential/range access to one shard file.

    ``verify`` controls CRC checking: ``True`` verifies each record on
    every read, ``False`` never does, and ``"open"`` walks the whole shard
    once at construction (fail-fast on corruption, while the open cost
    sits at attach time) and then serves reads without re-verification —
    the daemon's hot-path mode, where per-record CRC work would otherwise
    dominate the mmap-slice serve loop.
    """

    def __init__(self, path: str | Path, verify: bool | str = True) -> None:
        self.path = Path(path)
        self.verify = bool(verify) and verify != "open"
        self._fh = open(self.path, "rb")
        try:
            self._mm = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # empty file cannot be mmap'ed
            self._mm = None
        self._view = memoryview(self._mm) if self._mm is not None else memoryview(b"")
        if verify == "open":
            try:
                for _ in self._walk(True):
                    pass
            except TFRecordCorruption:
                self.close()
                raise

    def _walk(self, verify: bool) -> Iterator[memoryview]:
        """Every record of the shard in order, checksummed a chunk at a time."""
        view = self._view
        pos = 0
        while pos < len(view):
            spans, error = _walk_records(view, pos, _WALK_CHUNK, verify, to_end=True)
            for start, end in spans:
                yield view[start:end]
            if error is not None:
                raise error
            pos = spans[-1][1] + FOOTER_BYTES

    @property
    def nbytes(self) -> int:
        """Size in bytes."""
        return len(self._view)

    def read_at(self, offset: int) -> bytes:
        """Read and verify the single record starting at ``offset``."""
        return bytes(read_records(self._view, offset, 1, self.verify)[0])

    def read_range(self, offset: int, count: int) -> list[bytes]:
        """Read ``count`` consecutive records starting at ``offset``.

        This is the daemon's one-slice batch read: a single contiguous
        traversal of the mapped region, no per-record syscalls.
        """
        return [bytes(v) for v in read_records(self._view, offset, count, self.verify)]

    def read_range_views(self, offset: int, count: int) -> list[memoryview]:
        """Zero-copy :meth:`read_range`: record views over the mmap'ed shard.

        CRCs are still verified (against the views, no copies).  The views
        stay valid until :meth:`close`; the daemon keeps readers open for
        its lifetime, so batches sliced here can go straight to the wire.
        """
        return read_records(self._view, offset, count, self.verify)

    def raw_slice(self, offset: int, nbytes: int) -> memoryview:
        """Zero-copy view of ``nbytes`` of the mapped file (transfer path)."""
        if offset + nbytes > len(self._view):
            raise ValueError(
                f"slice [{offset}, {offset + nbytes}) beyond shard end {len(self._view)}"
            )
        return self._view[offset : offset + nbytes]

    def __iter__(self) -> Iterator[bytes]:
        for data in self._walk(self.verify):
            yield bytes(data)

    def close(self) -> None:
        """Release resources."""
        self._view.release()
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                # Record views from read_range_views are still exported
                # somewhere (e.g. an uncredited transport replay buffer).
                # Leave the map for the GC instead of crashing teardown.
                pass
        self._fh.close()

    def __enter__(self) -> "TFRecordReader":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


def scan_records(path: str | Path, verify: bool = True) -> Iterator[bytes]:
    """Stream every record in a shard (sequential scan)."""
    with TFRecordReader(path, verify=verify) as reader:
        yield from reader


def read_record_at(path: str | Path, offset: int, verify: bool = True) -> bytes:
    """One-shot random record read (the small-read pattern EMLIO avoids)."""
    with TFRecordReader(path, verify=verify) as reader:
        return reader.read_at(offset)
