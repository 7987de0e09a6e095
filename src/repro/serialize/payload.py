"""Batch payload schema exchanged between EMLIO daemon and receiver.

One payload carries ``B`` raw (still-encoded) samples plus their labels and
provenance metadata.  The daemon slices ``B`` contiguous records out of an
mmap'ed TFRecord shard and encodes them here (paper §4.1, "serializes groups
of B examples into a single msgpack payload").

The wire schema is columnar (``v`` = 3, the one version encode emits and
decode accepts): ``samples`` is **one** bin blob, ``offsets`` a packed u32
vector of B ``(start, end)`` pairs addressing each sample's bytes inside
the blob, ``labels`` a packed i64 vector, plus a ``count``.  When the
samples already share one backing region (the daemon's framed mmap range,
wrapped in :class:`~repro.net.buffers.ColumnarSamples`) the scatter-gather
encode emits O(1) segments regardless of B; decode reconstructs the batch
by offset slicing with zero per-record work, after checking every field
and every offset pair against the blob.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.net.buffers import ColumnarSamples
from repro.serialize.msgpack import SPILL_THRESHOLD, BinChunks, pack_parts, packb, unpackb

_SCHEMA_VERSION = 3

#: ``meta`` key marking a payload as trace-sampled.  The daemon stamps it
#: (:func:`stamp_trace`) when :func:`repro.obs.trace.trace_sampled` says
#: yes for the batch's ``(epoch, node, seq)``; every downstream component
#: checks :func:`trace_stamped` before paying any tracing cost.  Meta is
#: wire-encoded with the payload, so the mark survives TCP and shm
#: transports alike.
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
        receiver's dedup/reorder key and the delivery-ledger key (see
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


def _schema_dict(payload: BatchPayload, version: int) -> dict:
    if version != _SCHEMA_VERSION:
        raise ValueError(
            f"cannot encode batch payload version {version!r} "
            f"(the wire schema is v{_SCHEMA_VERSION})"
        )
    samples = payload.samples
    count = len(samples)
    if isinstance(samples, ColumnarSamples):
        # Already columnar (the daemon's region serve path): the blob goes
        # to the wire as-is — one scatter-gather segment, no per-record
        # traversal at all.
        offsets = np.ascontiguousarray(samples.offsets, dtype=_OFFSET_DTYPE)
        blob = samples.blob
        if not isinstance(blob, BinChunks):
            blob = BinChunks([blob], nbytes=len(memoryview(blob).cast("B")))
    else:
        # Generic path: pack the per-sample views side by side.  Offsets
        # are built vectorized (one len() sweep + cumsum), and BinChunks
        # concatenates on the wire without copying spill-sized samples.
        lengths = np.fromiter((len(s) for s in samples), dtype=np.int64, count=count)
        ends = np.cumsum(lengths)
        total = int(ends[-1]) if count else 0
        if total > 0xFFFFFFFF:
            raise ValueError(f"batch too large for columnar u32 offsets: {total} bytes")
        offsets = np.empty(2 * count, dtype=_OFFSET_DTYPE)
        offsets[0::2] = ends - lengths
        offsets[1::2] = ends
        blob = BinChunks(list(samples), nbytes=total)
    return {
        "v": version,
        "epoch": payload.epoch,
        "batch_index": payload.batch_index,
        "shard": payload.shard,
        "node_id": payload.node_id,
        "seq": payload.seq,
        "count": count,
        "offsets": offsets,
        "labels": np.asarray(payload.labels, dtype=_LABEL_DTYPE),
        "samples": blob,
        "meta": payload.meta,
    }


def encode_batch(payload: BatchPayload, version: int = _SCHEMA_VERSION) -> bytes:
    """Serialize a :class:`BatchPayload` to msgpack bytes.

    ``version`` must be the wire schema's (3); any other raises
    ``ValueError``.
    """
    return packb(_schema_dict(payload, version))


def encode_batch_parts(
    payload: BatchPayload,
    threshold: int = SPILL_THRESHOLD,
    version: int = _SCHEMA_VERSION,
) -> list[memoryview]:
    """Serialize to scatter-gather segments (the zero-copy encode).

    Sample payloads at or above ``threshold`` bytes — in the daemon these
    are memoryview slices over the mmap'ed shard — become their own
    segments instead of being copied into the msgpack body.  A batch whose
    samples share one backing region encodes to O(1) segments regardless
    of B.  The caller must keep the spilled views valid until the segments
    are on the wire *and* credited (the transport replays from the same
    views on reconnect).  ``version`` is checked as in :func:`encode_batch`.
    """
    return pack_parts(_schema_dict(payload, version), threshold)


def _vector(obj: dict, name: str, dtype: np.dtype) -> np.ndarray:
    raw = obj[name]
    if not isinstance(raw, (bytes, memoryview)):
        raise ValueError(f"columnar {name} must be bin, got {type(raw).__name__}")
    try:
        return np.frombuffer(raw, dtype=dtype)
    except ValueError as err:
        raise ValueError(f"columnar {name}: {err}") from None


def decode_batch(
    data: bytes | bytearray | memoryview,
    zero_copy: bool = False,
    release: Callable[[], None] | None = None,
) -> BatchPayload:
    """Inverse of :func:`encode_batch`.

    Strict: anything but a v3 map with every field present and well-typed,
    and every ``(start, end)`` offset pair ordered and inside the samples
    blob, raises ``ValueError`` naming what is wrong — corrupt bytes never
    reach a tensor as a truncated or empty sample.

    With ``zero_copy=True`` the decoded ``samples`` are a
    :class:`~repro.net.buffers.ColumnarSamples` of views over ``data``, and
    the carrier holds ``release``: the final consumer calls
    ``samples.release()`` once the views are dead, returning ``data``'s
    pooled buffer.  Labels decode as a packed i64 array — never a
    per-record copy.
    """
    obj = unpackb(data, zero_copy=zero_copy)
    if not isinstance(obj, dict):
        raise ValueError(f"batch payload must decode to a map, got {type(obj).__name__}")
    version = obj.get("v")
    if version != _SCHEMA_VERSION:
        raise ValueError(
            f"unsupported batch payload version {version!r} "
            f"(the wire schema is v{_SCHEMA_VERSION})"
        )
    try:
        count = obj["count"]
        if type(count) is not int:
            raise ValueError(f"columnar count must be an int, got {type(count).__name__}")
        offsets = _vector(obj, "offsets", _OFFSET_DTYPE)
        if len(offsets) != 2 * count:
            raise ValueError(
                f"columnar offsets length {len(offsets)} does not match count {count}"
            )
        labels = _vector(obj, "labels", _LABEL_DTYPE)
        if len(labels) != count:
            raise ValueError(
                f"columnar labels length {len(labels)} does not match count {count}"
            )
        blob = obj["samples"]
        if not isinstance(blob, (bytes, memoryview)):
            raise ValueError(f"columnar samples must be bin, got {type(blob).__name__}")
        # Vectorised bounds check: every span ordered and inside the blob.
        # count_nonzero, not any()/max(): no ufunc-reduce setup per batch.
        if np.count_nonzero(offsets > len(blob)) or np.count_nonzero(
            offsets[0::2] > offsets[1::2]
        ):
            raise ValueError(
                f"columnar offsets address bytes outside the {len(blob)}-byte "
                f"samples blob or run backwards"
            )
        epoch, batch_index, shard = obj["epoch"], obj["batch_index"], obj["shard"]
        node_id, seq, meta = obj["node_id"], obj["seq"], obj["meta"]
    except KeyError as err:
        raise ValueError(f"batch payload missing field {err.args[0]!r}") from None
    if zero_copy:
        # Labels outlive the receive-buffer lease (they ride to the training
        # loop after ``release()``), so take the one vectorized copy here —
        # a single allocation per batch, still no per-record work.  Samples
        # and offsets stay views: dead once released, per the lease contract.
        samples = ColumnarSamples(blob, offsets, release)
        labels = labels.copy()
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
