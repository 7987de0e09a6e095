"""Batch payload schema exchanged between EMLIO daemon and receiver.

One payload carries ``B`` raw (still-encoded) samples plus their labels and
provenance metadata.  The daemon slices ``B`` contiguous records out of an
mmap'ed TFRecord shard and encodes them here (paper §4.1 serializes such a
group "into a single msgpack payload"; here the batch header is a fixed
binary layout instead, see the README's "Columnar payloads").

The wire schema (version 3, the one encode emits and decode accepts) is a
fixed little-endian header followed by five sections::

    <BBHIIIIII  version, flags (reserved, 0), shard length, epoch, batch
                index, seq, node, count, meta length              (28 bytes)
    shard       UTF-8 shard name                     (shard length bytes)
    meta        msgpack map, only when non-empty       (meta length bytes)
    offsets     2 × count u32 (start, end) pairs into the samples blob
    labels      count i64
    samples     the blob: every byte up to the furthest sample end

When the samples already share one backing region (the daemon's framed
mmap range, wrapped in :class:`~repro.net.buffers.ColumnarSamples`) the
scatter-gather encode emits two segments regardless of B; decode is one
``unpack_from`` plus ``np.frombuffer`` reads of the two vectors, after
checking every length against the frame and every offset pair against
the blob.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.net.buffers import ColumnarSamples
from repro.serialize.msgpack import _byte_view, packb, unpackb

_SCHEMA_VERSION = 3

#: ``meta`` key marking a payload as trace-sampled.  The daemon stamps it
#: (:func:`stamp_trace`) when :func:`repro.obs.trace.trace_sampled` says
#: yes for the batch's ``(epoch, node, seq)``; every downstream component
#: checks :func:`trace_stamped` before paying any tracing cost.  It rides
#: in the payload's meta, so it survives TCP and shm transports alike.
TRACE_META_KEY = "tr"


def stamp_trace(meta: dict | None = None) -> dict:
    """Meta dict marking this payload's batch as trace-sampled."""
    out = dict(meta) if meta else {}
    out[TRACE_META_KEY] = 1
    return out


def trace_stamped(payload: "BatchPayload") -> bool:
    """True when the daemon marked this batch for tracing."""
    return bool(payload.meta) and TRACE_META_KEY in payload.meta

#: Wire dtypes of the columnar vectors — explicitly little-endian so the
#: format is platform-defined, not platform-dependent.
_OFFSET_DTYPE = np.dtype("<u4")
_LABEL_DTYPE = np.dtype("<i8")

_HEADER = struct.Struct("<BBHIIIIII")


@dataclass(frozen=True, eq=False)
class BatchPayload:
    """A pre-batched group of raw samples.

    Attributes
    ----------
    epoch / batch_index:
        Position of this batch in the plan (for logging and ordering checks;
        delivery itself is deliberately out-of-order).
    shard:
        Originating shard name, e.g. ``"shard_00003"``.
    samples:
        Raw encoded sample bytes (e.g. SJPG images), length ``B`` — a list
        of bytes-likes, or a :class:`~repro.net.buffers.ColumnarSamples`
        (one blob + offsets; v3 decode produces these, and the daemon's
        columnar serve path feeds them to encode).
    labels:
        Integer class labels, parallel to ``samples`` (list or i64 array).
    node_id:
        Target compute node the planner assigned this batch to.
    seq:
        Per-(epoch, node) sequence number, stable across resends — the
        receiver's dedup key and the delivery-ledger key (see
        :mod:`repro.core.recovery`).  Defaults to ``batch_index``, which the
        planner already makes unique within (epoch, node).
    """

    epoch: int
    batch_index: int
    shard: str
    samples: Sequence
    labels: Sequence[int]
    node_id: int = 0
    meta: dict = field(default_factory=dict)
    seq: int = -1

    def __post_init__(self) -> None:
        if len(self.samples) != len(self.labels):
            raise ValueError(
                f"samples/labels length mismatch: {len(self.samples)} != {len(self.labels)}"
            )
        if self.seq < 0:
            object.__setattr__(self, "seq", self.batch_index)

    def __eq__(self, other) -> bool:
        """Semantic equality across layouts: a columnar batch equals its
        row-layout twin when every field, sample byte, and label matches —
        so ``decode(encode(p)) == p`` holds whichever layout built ``p``."""
        if not isinstance(other, BatchPayload):
            return NotImplemented
        return (
            self.epoch == other.epoch
            and self.batch_index == other.batch_index
            and self.shard == other.shard
            and self.node_id == other.node_id
            and self.seq == other.seq
            and self.meta == other.meta
            and len(self.samples) == len(other.samples)
            and list(map(int, self.labels)) == list(map(int, other.labels))
            and all(bytes(a) == bytes(b) for a, b in zip(self.samples, other.samples))
        )

    @property
    def batch_size(self) -> int:
        """Samples in this batch."""
        return len(self.samples)

    @property
    def nbytes(self) -> int:
        """Payload body size (sample bytes only), used for throughput math."""
        nbytes = getattr(self.samples, "nbytes", None)
        if nbytes is not None:
            return nbytes
        return sum(len(s) for s in self.samples)


def encode_batch_parts(
    payload: BatchPayload, version: int = _SCHEMA_VERSION
) -> list[memoryview]:
    """Serialize to scatter-gather segments (the zero-copy encode).

    The header, shard, meta and both vectors are one segment; the samples
    follow uncopied — one segment when they share a region, one per
    non-empty sample otherwise.  The caller must keep the sample views
    valid until the segments are on the wire *and* credited (the transport
    replays from the same views on reconnect).  ``version`` must be the
    wire schema's (3), and a field value that does not fit the header
    raises ``ValueError``.
    """
    if version != _SCHEMA_VERSION:
        raise ValueError(
            f"cannot encode batch payload version {version!r} "
            f"(the wire schema is v{_SCHEMA_VERSION})"
        )
    samples = payload.samples
    count = len(samples)
    if isinstance(samples, ColumnarSamples):
        # Already columnar (the daemon's region serve path): the region goes
        # to the wire as one segment, cut after the furthest sample end.
        offsets = np.ascontiguousarray(samples.offsets, dtype=_OFFSET_DTYPE)
        end = int(np.maximum.reduce(offsets)) if count else 0
        blobs = [_byte_view(samples.blob)[:end]] if end else []
    else:
        # Generic path: the per-sample views side by side, offsets built
        # vectorized (one len() sweep + cumsum).
        lengths = np.fromiter(map(len, samples), dtype=np.int64, count=count)
        ends = np.cumsum(lengths)
        total = int(ends[-1]) if count else 0
        if total > 0xFFFFFFFF:
            raise ValueError(f"batch too large for columnar u32 offsets: {total} bytes")
        offsets = np.empty(2 * count, dtype=_OFFSET_DTYPE)
        offsets[0::2] = ends - lengths
        offsets[1::2] = ends
        blobs = [_byte_view(s) for s in samples if len(s)]
    meta_bytes = packb(payload.meta) if payload.meta else b""
    shard = payload.shard.encode("utf-8")
    try:
        header = _HEADER.pack(
            version, 0, len(shard), payload.epoch, payload.batch_index,
            payload.seq, payload.node_id, count, len(meta_bytes),
        )
    except struct.error as exc:
        raise ValueError(
            f"batch header value out of range ({exc}): shard length {len(shard)}, "
            f"epoch {payload.epoch}, batch index {payload.batch_index}, "
            f"seq {payload.seq}, node {payload.node_id}, count {count}, "
            f"meta length {len(meta_bytes)}"
        ) from None
    labels = np.asarray(payload.labels, dtype=_LABEL_DTYPE)
    head = b"".join((header, shard, meta_bytes, offsets, labels))
    return [memoryview(head), *blobs]


def encode_batch(payload: BatchPayload, version: int = _SCHEMA_VERSION) -> bytes:
    """Serialize a :class:`BatchPayload` to one contiguous frame body;
    ``version`` is checked as in :func:`encode_batch_parts`."""
    return b"".join(encode_batch_parts(payload, version))


def decode_batch(
    data: bytes | bytearray | memoryview,
    zero_copy: bool = False,
    release: Callable[[], None] | None = None,
) -> BatchPayload:
    """Inverse of :func:`encode_batch`.

    Strict: a frame of another version, a section that runs past the frame,
    a non-UTF-8 shard, a meta that is not a map, non-zero flags, an offset
    pair out of order or outside the samples blob, or bytes past the last
    sample raise ``ValueError`` naming what is wrong — corrupt bytes never
    reach a tensor as a truncated or empty sample.

    With ``zero_copy=True`` the decoded ``samples`` are a
    :class:`~repro.net.buffers.ColumnarSamples` of views over ``data``, and
    the carrier holds ``release``: the final consumer calls
    ``samples.release()`` once the views are dead, returning ``data``'s
    pooled buffer.  Labels are copied once either way, so they outlive the
    lease (they ride to the training loop after it).
    """
    view = _byte_view(data)
    n = len(view)
    if n and view[0] != _SCHEMA_VERSION:
        raise ValueError(
            f"unsupported batch payload version {view[0]} "
            f"(the wire schema is v{_SCHEMA_VERSION})"
        )
    if n < _HEADER.size:
        raise ValueError(f"batch frame of {n} bytes is shorter than the {_HEADER.size}-byte header")
    (_version, flags, shard_len, epoch, batch_index, seq, node_id, count,
     meta_len) = _HEADER.unpack_from(view)
    if flags:
        raise ValueError(f"unsupported batch header flags 0x{flags:02x}")
    shard_end = _HEADER.size + shard_len
    meta_end = shard_end + meta_len
    offsets_end = meta_end + 8 * count
    labels_end = offsets_end + 8 * count
    if labels_end > n:
        sections = (("shard", shard_end), ("meta", meta_end),
                    ("offsets", offsets_end), ("labels", labels_end))
        name = next(name for name, end in sections if end > n)
        raise ValueError(f"batch {name} runs past the {n}-byte frame (count {count})")
    try:
        shard = str(view[_HEADER.size : shard_end], "utf-8")
    except UnicodeDecodeError:
        raise ValueError("batch shard name is not UTF-8") from None
    meta = {}
    if meta_len:
        meta = unpackb(view[shard_end:meta_end])
        if not isinstance(meta, dict):
            raise ValueError(f"batch meta must be a map, got {type(meta).__name__}")
    # Both vectors are copied once: aligned, the bounds check below runs
    # faster than on views, and labels outlive the receive-buffer lease.
    offsets = np.frombuffer(view, _OFFSET_DTYPE, 2 * count, meta_end).copy()
    labels = np.frombuffer(view, _LABEL_DTYPE, count, offsets_end).copy()
    blob = view[labels_end:]
    # Vectorised bounds check: every span ordered, and the blob ends at the
    # furthest sample end — so a truncated frame never passes.
    if count:
        if np.count_nonzero(offsets[0::2] > offsets[1::2]):
            raise ValueError("columnar offsets run backwards")
        top = int(np.maximum.reduce(offsets))
    else:
        top = 0
    if top > len(blob):
        raise ValueError(
            f"columnar offsets address bytes outside the {len(blob)}-byte samples blob"
        )
    if top < len(blob):
        raise ValueError(
            f"columnar samples blob has {len(blob) - top} bytes past the last sample"
        )
    if zero_copy:
        # The samples stay views: dead once released, per the lease contract.
        samples = ColumnarSamples(blob, offsets, release)
    else:
        samples = [bytes(blob[offsets[2 * i] : offsets[2 * i + 1]]) for i in range(count)]
    return BatchPayload(
        epoch=epoch,
        batch_index=batch_index,
        shard=shard,
        samples=samples,
        labels=labels,
        node_id=node_id,
        meta=meta,
        seq=seq,
    )
