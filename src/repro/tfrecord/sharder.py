"""Dataset → TFRecord shard conversion (paper §4.3).

The one-time conversion cost the paper amortizes across training jobs:
take an iterable of ``(sample_bytes, label)`` pairs, pack them into
fixed-record-count TFRecord shards, and emit one ``mapping_shard_*.json``
index per shard.

Record payloads embed the label alongside the raw sample using a tiny
msgpack map so a shard is self-contained even without its index.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.serialize.msgpack import packb, unpackb
from repro.tfrecord.crc32c import first_crc_mismatch
from repro.tfrecord.index import RecordEntry, ShardIndex, load_shard_indexes
from repro.tfrecord.writer import FOOTER_BYTES, HEADER_BYTES, TFRecordWriter

_LEN = struct.Struct("<Q")
_CRC = struct.Struct("<I")
_U16BE = struct.Struct(">H")
_U32BE = struct.Struct(">I")
_U64BE = struct.Struct(">Q")
_I8BE = struct.Struct(">b")
_I16BE = struct.Struct(">h")
_I32BE = struct.Struct(">i")
_I64BE = struct.Struct(">q")


def pack_example(sample: bytes, label: int) -> bytes:
    """Encode one training example as the record payload."""
    return packb({"x": sample, "y": label})


def unpack_example(
    record: bytes | memoryview, zero_copy: bool = False
) -> tuple[bytes | memoryview, int]:
    """Inverse of :func:`pack_example`.

    With ``zero_copy=True`` the sample comes back as a memoryview over
    ``record`` — on the daemon's serve path that is a slice of the
    mmap'ed shard, valid until the reader closes.
    """
    obj = unpackb(record, zero_copy=zero_copy)
    return obj["x"], obj["y"]


def _scan_int(buf, pos: int) -> tuple[int, int]:
    """Decode one msgpack int at ``pos``; returns ``(value, next_pos)``."""
    tag = buf[pos]
    if tag <= 0x7F:  # positive fixint
        return tag, pos + 1
    if tag >= 0xE0:  # negative fixint
        return tag - 0x100, pos + 1
    if tag == 0xCC:
        return buf[pos + 1], pos + 2
    if tag == 0xCD:
        return _U16BE.unpack_from(buf, pos + 1)[0], pos + 3
    if tag == 0xCE:
        return _U32BE.unpack_from(buf, pos + 1)[0], pos + 5
    if tag == 0xCF:
        return _U64BE.unpack_from(buf, pos + 1)[0], pos + 9
    if tag == 0xD0:
        return _I8BE.unpack_from(buf, pos + 1)[0], pos + 2
    if tag == 0xD1:
        return _I16BE.unpack_from(buf, pos + 1)[0], pos + 3
    if tag == 0xD2:
        return _I32BE.unpack_from(buf, pos + 1)[0], pos + 5
    if tag == 0xD3:
        return _I64BE.unpack_from(buf, pos + 1)[0], pos + 9
    raise ValueError(f"unexpected msgpack tag 0x{tag:02x} where int label expected")


def scan_example_spans(
    region, count: int, verify: bool = False
) -> tuple[np.ndarray, list[int]]:
    """Locate every sample's byte span inside a framed record region.

    ``region`` is the raw TFRecord byte range holding exactly ``count``
    consecutive records, each a :func:`pack_example` payload.  This is the
    columnar serve path's scanner (payload schema v3): instead of msgpack-
    decoding every record, it struct-walks the fixed framing plus the
    known ``{"x": bin, "y": int}`` layout and returns

    * a flat u32 vector of ``(start, end)`` offset pairs addressing each
      sample's bytes *inside* ``region``, ready to ship as the columnar
      ``offsets`` alongside ``region`` itself as the blob, and
    * the per-record integer labels.

    With ``verify=True`` the TFRecord length/data CRCs are checked, same
    as the per-record read path.  Raises :class:`ValueError` on any layout
    the scanner does not recognize — callers fall back to the generic
    per-record decode, so unusual-but-valid records degrade, not break.
    """
    buf = memoryview(region)
    if len(buf) > 0xFFFFFFFF:
        raise ValueError(f"region too large for u32 offsets: {len(buf)} bytes")
    offsets = np.empty(2 * count, dtype=np.uint32)
    labels: list[int] = []
    # Span and stored masked CRC of every length/data field met, in walk
    # order; checked in one batch before any other complaint is let out,
    # so the failure reported is the one a record-by-record walk reports.
    fields: tuple[list[int], list[int], list[int]] | None = ([], [], []) if verify else None
    try:
        _scan_layout(buf, count, offsets, labels, fields)
    except ValueError:
        _check_fields(buf, fields)
        raise
    _check_fields(buf, fields)
    return offsets, labels


def _check_fields(buf: memoryview, fields) -> None:
    if not fields or not fields[0]:
        return
    starts, ends, crcs = fields
    bad = first_crc_mismatch(buf, starts, ends, crcs)
    if bad >= 0:
        what = "data" if bad % 2 else "length"  # fields alternate per record
        raise ValueError(f"{what} CRC mismatch at offset {starts[bad - bad % 2]}")


def _scan_layout(
    buf: memoryview,
    count: int,
    offsets: np.ndarray,
    labels: list[int],
    fields: tuple[list[int], list[int], list[int]] | None,
) -> None:
    if fields is not None:
        starts, ends, crcs = fields
    pos = 0
    end = len(buf)
    for i in range(count):
        if pos + HEADER_BYTES > end:
            raise ValueError(f"truncated record header at offset {pos}")
        (length,) = _LEN.unpack_from(buf, pos)
        if fields is not None:
            starts.append(pos)
            ends.append(pos + 8)
            crcs.append(_CRC.unpack_from(buf, pos + 8)[0])
        data_start = pos + HEADER_BYTES
        data_end = data_start + length
        if data_end + FOOTER_BYTES > end:
            raise ValueError(f"truncated record data at offset {pos}")
        if fields is not None:
            starts.append(data_start)
            ends.append(data_end)
            crcs.append(_CRC.unpack_from(buf, data_end)[0])
        # pack_example layout: fixmap{2} "x" <bin> "y" <int>
        if length < 7 or buf[data_start] != 0x82 or bytes(buf[data_start + 1 : data_start + 3]) != b"\xa1x":
            raise ValueError(f"record at offset {pos} is not a pack_example payload")
        p = data_start + 3
        tag = buf[p]
        if tag == 0xC4:
            n, sample_start = buf[p + 1], p + 2
        elif tag == 0xC5:
            n, sample_start = _U16BE.unpack_from(buf, p + 1)[0], p + 3
        elif tag == 0xC6:
            n, sample_start = _U32BE.unpack_from(buf, p + 1)[0], p + 5
        else:
            raise ValueError(f"record at offset {pos}: sample field is not a msgpack bin")
        sample_end = sample_start + n
        if sample_end + 2 > data_end or bytes(buf[sample_end : sample_end + 2]) != b"\xa1y":
            raise ValueError(f"record at offset {pos}: missing label field")
        label, q = _scan_int(buf, sample_end + 2)
        if q != data_end:
            raise ValueError(f"record at offset {pos} has trailing bytes")
        offsets[2 * i] = sample_start
        offsets[2 * i + 1] = sample_end
        labels.append(label)
        pos = data_end + FOOTER_BYTES
    if pos != end:
        raise ValueError(f"region holds more than {count} records ({end - pos} bytes left)")


@dataclass(frozen=True)
class ShardedDataset:
    """A converted dataset: shard files + their indexes under one root."""

    root: Path
    indexes: tuple[ShardIndex, ...]

    @property
    def num_shards(self) -> int:
        """Shard files in the dataset."""
        return len(self.indexes)

    @property
    def num_samples(self) -> int:
        """Total records across shards."""
        return sum(ix.num_records for ix in self.indexes)

    @property
    def nbytes(self) -> int:
        """Size in bytes."""
        return sum(ix.nbytes for ix in self.indexes)

    def shard_path(self, shard: str) -> Path:
        for ix in self.indexes:
            if ix.shard == shard:
                return self.root / ix.path
        raise KeyError(f"unknown shard {shard!r}")

    def labels(self) -> dict[str, list[int]]:
        """Global label map: shard name → per-record labels (Alg. 2 line 2)."""
        return {ix.shard: [e.label for e in ix.entries] for ix in self.indexes}

    @classmethod
    def open(cls, root: str | Path) -> "ShardedDataset":
        root = Path(root)
        return cls(root=root, indexes=tuple(load_shard_indexes(root)))


def write_shards(
    samples: Iterable[tuple[bytes, int]],
    root: str | Path,
    records_per_shard: int = 1024,
) -> ShardedDataset:
    """Convert ``samples`` into TFRecord shards under ``root``.

    Parameters
    ----------
    samples:
        Iterable of ``(sample_bytes, label)``; consumed once, streaming.
    records_per_shard:
        Records per shard file; the last shard may be short.
    """
    if records_per_shard < 1:
        raise ValueError(f"records_per_shard must be >= 1, got {records_per_shard}")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)

    indexes: list[ShardIndex] = []
    it: Iterator[tuple[bytes, int]] = iter(samples)
    shard_no = 0
    exhausted = False
    while not exhausted:
        shard = f"shard_{shard_no:05d}"
        filename = f"{shard}.tfrecord"
        entries: list[RecordEntry] = []
        with TFRecordWriter(root / filename) as writer:
            for _ in range(records_per_shard):
                try:
                    sample, label = next(it)
                except StopIteration:
                    exhausted = True
                    break
                offset, size = writer.write(pack_example(sample, label))
                entries.append(RecordEntry(offset=offset, size=size, label=label))
        if not entries:
            (root / filename).unlink()  # empty trailing shard
            break
        index = ShardIndex(shard=shard, path=filename, entries=tuple(entries))
        index.save(root)
        indexes.append(index)
        shard_no += 1

    if not indexes:
        raise ValueError("write_shards received an empty sample stream")
    return ShardedDataset(root=root, indexes=tuple(indexes))
