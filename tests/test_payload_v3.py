"""Columnar payload schema (v3): round trips, strict decode, O(1) decode.

The v3 wire layout packs a batch as a fixed little-endian header, the
shard name, an optional msgpack meta map, a u32 offsets vector, an i64
labels vector and one samples blob.  These tests pin the properties the
hot path rests on: lossless round trips across every edge geometry,
rejection of every other schema version and of malformed frames (every
truncation and arbitrary bytes included), O(1) scatter-gather segments
when the daemon serves a shared region, and O(1) Python allocations per
decoded batch under ``zero_copy=True``.
"""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.buffers import ColumnarSamples
from repro.serialize.msgpack import packb
from repro.serialize.payload import (
    BatchPayload,
    decode_batch,
    encode_batch,
    encode_batch_parts,
    stamp_trace,
)
from repro.tfrecord.sharder import pack_example, scan_example_spans
from repro.tfrecord.writer import frame_record

#: A sample size past which a per-sample scatter-gather segment pays off
#: on the wire; the geometries below straddle it.
BIG = 512
#: The wire header: version, flags, shard length, epoch, batch index, seq,
#: node, count, meta length.
HEADER = struct.Struct("<BBHIIIIII")


def make_payload(samples, labels=None, **overrides):
    kwargs = dict(
        epoch=3,
        batch_index=11,
        shard="shard_00001",
        samples=samples,
        labels=list(range(len(samples))) if labels is None else labels,
        node_id=2,
        meta={"rtt_class": "lan"},
    )
    kwargs.update(overrides)
    return BatchPayload(**kwargs)


def columnar_payload(samples, labels=None, **overrides):
    """The daemon's serve-path construction: records framed into one
    region, sample spans found by the framing scanner."""
    labels = list(range(len(samples))) if labels is None else labels
    region = b"".join(
        frame_record(pack_example(s, l)) for s, l in zip(samples, labels)
    )
    offsets, scanned = scan_example_spans(region, len(samples))
    assert scanned == labels
    return make_payload(
        ColumnarSamples(memoryview(region), offsets), labels, **overrides
    )


# -- round trips ---------------------------------------------------------------


@pytest.mark.parametrize(
    "samples",
    [
        [],  # empty batch
        [b""],  # zero-byte sample
        [b"\x00"] * 4,  # 1-byte samples
        [b"x" * (BIG + 1)] * 3,  # every sample its own segment
        [b"a", b"b" * BIG, b""],  # mixed sizes
    ],
    ids=["empty", "zero-byte", "one-byte", "spill", "mixed"],
)
def test_v3_roundtrip_edge_geometries(samples):
    p = make_payload(samples)
    assert decode_batch(encode_batch(p, version=3)) == p
    wire = b"".join(bytes(seg) for seg in encode_batch_parts(p, version=3))
    assert decode_batch(wire, zero_copy=True) == p


def test_columnar_samples_roundtrip():
    samples = [bytes([i]) * (100 + i) for i in range(8)]
    p = columnar_payload(samples)
    assert decode_batch(encode_batch(p)) == make_payload(samples)


@settings(max_examples=75, deadline=None)
@given(
    samples=st.lists(
        st.binary(min_size=0, max_size=BIG + 64),
        min_size=0,
        max_size=12,
    ),
    labels=st.data(),
    zero_copy=st.booleans(),
)
def test_property_v3_roundtrip(samples, labels, zero_copy):
    labels = labels.draw(
        st.lists(
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            min_size=len(samples),
            max_size=len(samples),
        )
    )
    p = make_payload(samples, labels)
    wire = b"".join(bytes(seg) for seg in encode_batch_parts(p, version=3))
    assert decode_batch(wire, zero_copy=zero_copy) == p
    assert decode_batch(encode_batch(p, version=3)) == p


# -- strict decode -------------------------------------------------------------


def _frame(version=3, flags=0, epoch=0, batch_index=1, seq=1, node=0, count=1,
           shard=b"s", meta=b"", offsets=(0, 2), labels=(5,), samples=b"ab",
           shard_len=None, meta_len=None, cut=None):
    """A hand-built v3 frame of one 2-byte sample; any field or section can
    be overridden, and ``cut`` truncates the frame to that many bytes."""
    frame = b"".join((
        HEADER.pack(version, flags, len(shard) if shard_len is None else shard_len,
                    epoch, batch_index, seq, node, count,
                    len(meta) if meta_len is None else meta_len),
        shard, meta,
        np.array(offsets, dtype="<u4").tobytes(),
        np.array(labels, dtype="<i8").tobytes(),
        samples,
    ))
    return frame if cut is None else frame[:cut]


@pytest.mark.parametrize("version", [1, 2])
def test_row_layout_versions_rejected(version):
    """The retired layouts decode nowhere — a frame whose version byte
    names them, or a whole msgpack-era map (its first byte is the map
    marker) — and nothing encodes them any more."""
    msgpack_era = packb({
        "v": version, "epoch": 1, "batch_index": 9, "shard": "shard_00000",
        "node_id": 0, "seq": 9, "samples": [b"aa", b"b"], "labels": [4, 7], "meta": {},
    })
    for zero_copy in (False, True):
        with pytest.raises(ValueError, match=f"version {version} "):
            decode_batch(_frame(version=version), zero_copy=zero_copy)
        with pytest.raises(ValueError, match=f"version {msgpack_era[0]} "):
            decode_batch(msgpack_era, zero_copy=zero_copy)
    p = make_payload([b"q" * 600, b"r"])
    with pytest.raises(ValueError, match=f"version {version}"):
        encode_batch(p, version=version)
    with pytest.raises(ValueError, match=f"version {version}"):
        encode_batch_parts(p, version=version)


def test_unknown_version_rejected():
    wire = bytearray(encode_batch(make_payload([b"x"])))
    assert decode_batch(bytes(wire)) == make_payload([b"x"])
    wire[0] = 4
    with pytest.raises(ValueError, match="version 4"):
        decode_batch(bytes(wire))


def test_corrupt_columnar_vectors_rejected():
    """A frame that stops inside its offsets or labels vector is named by
    the vector, not read past."""
    wire = encode_batch(make_payload([b"ab", b"cd"]))
    blob_and_labels = 4 + 2 * 8
    with pytest.raises(ValueError, match="offsets runs past"):
        decode_batch(wire[: len(wire) - blob_and_labels - 4])
    with pytest.raises(ValueError, match="labels runs past"):
        decode_batch(wire[: len(wire) - 4 - 8])


@pytest.mark.parametrize("zero_copy", [False, True], ids=["copy", "zero_copy"])
@pytest.mark.parametrize(
    "fields,match",
    [
        ({"offsets": (0, 99)}, "outside"),
        ({"offsets": (2, 0)}, "backwards"),
        # A field cannot be left out of a fixed header; a frame that stops
        # inside it can, and is shorter than the header.
        ({"cut": 22}, "22 bytes is shorter than the 28-byte header"),
        ({"cut": 6}, "6 bytes is shorter than the 28-byte header"),
        ({"cut": 14}, "14 bytes is shorter than the 28-byte header"),
        # A count the frame cannot hold (the map's mistyped count).
        ({"count": 1000}, "count 1000"),
        # A vector cut short (the map's non-bin vectors).
        ({"cut": HEADER.size + 1 + 4}, "offsets runs past"),
        ({"cut": HEADER.size + 1 + 8 + 4}, "labels runs past"),
        ({"samples": b"a"}, "outside"),
        # Checks the fixed header adds.
        ({"version": 4}, "version 4"),
        ({"flags": 0x01}, "flags 0x01"),
        ({"shard_len": 200}, "shard runs past"),
        ({"meta_len": 200}, "meta runs past"),
        ({"meta": packb([1])}, "meta must be a map"),
        ({"meta": b"\xc1"}, "unsupported msgpack tag"),
        ({"meta": b"\x91" * 5000}, "nests too deeply"),
        ({"shard": b"\xff"}, "not UTF-8"),
        ({"samples": b"abc"}, "1 bytes past the last sample"),
        ({"count": 0, "offsets": (), "labels": ()}, "2 bytes past the last sample"),
        ({"cut": 0}, "0 bytes is shorter than the 28-byte header"),
    ],
    ids=[
        "end-past-blob", "inverted-pair", "no-count", "no-epoch", "no-seq",
        "str-count", "list-offsets", "list-labels", "list-samples",
        "version", "flags", "shard-overrun", "meta-overrun", "meta-not-map",
        "meta-garbage", "meta-too-deep", "shard-not-utf8", "trailing-byte", "empty-with-blob",
        "empty-frame",
    ],
)
def test_malformed_v3_rejected(fields, match, zero_copy):
    """Corrupt bytes never reach a tensor: a span past the blob or running
    backwards, a frame cut inside any field or section, a count the frame
    cannot hold, or bytes past the last sample is a ValueError that names
    it — not a truncated sample, an empty one, or an IndexError."""
    assert bytes(decode_batch(_frame(), zero_copy=zero_copy).samples[0]) == b"ab"
    with pytest.raises(ValueError, match=match):
        decode_batch(_frame(**fields), zero_copy=zero_copy)


def test_a_header_value_that_does_not_fit_is_named():
    with pytest.raises(ValueError, match="epoch -1"):
        encode_batch(make_payload([b"a"], epoch=-1))
    with pytest.raises(ValueError, match="seq 4294967296"):
        encode_batch(make_payload([b"a"], seq=2**32))
    with pytest.raises(ValueError, match="shard length"):
        encode_batch(make_payload([b"a"], shard="s" * 70_000))


def test_the_trace_stamp_rides_meta():
    """The flags byte stays reserved: a trace stamp is msgpack meta like
    any other, and a batch without meta carries none."""
    plain = encode_batch(make_payload([b"a"], meta={}))
    traced = encode_batch(make_payload([b"a"], meta=stamp_trace()))
    assert len(traced) == len(plain) + len(packb(stamp_trace()))
    assert traced[1] == plain[1] == 0
    assert decode_batch(traced).meta == {"tr": 1}
    both = make_payload([b"a"], meta=stamp_trace({"k": "v"}))
    assert decode_batch(encode_batch(both)) == both


_payloads = st.builds(
    make_payload,
    samples=st.lists(st.binary(max_size=40), max_size=6),
    meta=st.sampled_from([{}, stamp_trace(), {"k": [1, "v"]}]),
    seq=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(p=_payloads, columnar=st.booleans())
def test_every_truncation_of_a_valid_frame_is_rejected(p, columnar):
    if columnar:
        p = columnar_payload(list(p.samples), meta=p.meta, seq=p.seq)
    wire = encode_batch(p)
    assert decode_batch(wire) == p
    for cut in range(len(wire)):
        with pytest.raises(ValueError):
            decode_batch(wire[:cut], zero_copy=True)


def _check_inside(frame: bytes, got: BatchPayload) -> None:
    """Every decoded sample is bytes of ``frame``'s tail blob."""
    blob = got.samples.blob
    assert bytes(blob) == frame[len(frame) - len(blob):]
    for i in range(len(got.samples)):
        start, end = got.samples.offsets[2 * i], got.samples.offsets[2 * i + 1]
        assert start <= end <= len(blob)


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=96),
    st.binary(min_size=HEADER.size - 1, max_size=96).map(lambda b: b"\x03" + b),
    st.tuples(_payloads, st.integers(0, 10**6), st.integers(1, 255)).map(
        lambda t: (lambda w: w[: t[1] % len(w)] + bytes([w[t[1] % len(w)] ^ t[2]])
                   + w[t[1] % len(w) + 1 :])(encode_batch(t[0]))
    ),
))
def test_arbitrary_bytes_raise_only_valueerror(data):
    """Random bytes, a random header behind a valid version byte, or a
    valid frame with one byte flipped: decode raises ValueError or returns
    samples that lie inside the frame — nothing else."""
    try:
        got = decode_batch(data, zero_copy=True)
    except ValueError:
        return
    _check_inside(data, got)


# -- O(1) properties -----------------------------------------------------------


def test_columnar_encode_is_constant_segments():
    """The tentpole claim: segment count does not grow with B when the
    samples share one backing region."""
    counts = {}
    for b in (64, 256, 1024):
        samples = [bytes([i % 256]) * 1024 for i in range(b)]
        counts[b] = len(encode_batch_parts(columnar_payload(samples), version=3))
    # The header and vectors are one segment, the shared region the other.
    assert counts[64] == counts[256] == counts[1024] == 2
    # The generic list path sends every sample uncopied: segments grow with B.
    list_parts = encode_batch_parts(make_payload([b"x" * 1024] * 64))
    assert len(list_parts) > counts[1024]


def test_zero_copy_decode_allocations_are_o1():
    """SATELLITE: decoding B=1024 under zero_copy must not allocate
    per-record Python objects — one blob view, two vectors, a handful of
    header objects.  The old row path allocated O(B) (a bin view per
    sample plus the labels list walk)."""
    B = 1024
    samples = [bytes([i % 256]) * 64 for i in range(B)]
    wire = bytes(encode_batch(columnar_payload(samples), version=3))
    decode_batch(wire, zero_copy=True)  # warm caches/imports

    tracemalloc.start()
    base = tracemalloc.take_snapshot()
    decoded = decode_batch(wire, zero_copy=True)
    snap = tracemalloc.take_snapshot()
    tracemalloc.stop()
    allocated = sum(s.count_diff for s in snap.compare_to(base, "filename")
                    if s.count_diff > 0)
    # O(1): independent of B.  ~20 objects in practice; 64 leaves head
    # room for interpreter noise while still rejecting any O(B) walk.
    assert allocated < 64, f"{allocated} allocations for B={B} decode"
    assert len(decoded.samples) == B
    assert bytes(decoded.samples[B - 1]) == samples[B - 1]


def test_zero_copy_labels_survive_release():
    """Labels ride to the training loop after the receive buffer is
    recycled — they must not alias the released wire bytes."""
    samples = [b"s" * 700, b"t" * 700]
    wire = bytearray(
        b"".join(bytes(seg) for seg in encode_batch_parts(make_payload(samples, [5, -9]), version=3))
    )
    released = []
    p = decode_batch(
        memoryview(wire), zero_copy=True, release=lambda: released.append(True)
    )
    labels = p.labels
    p.samples.release()
    assert released == [True]
    wire[:] = b"\xff" * len(wire)  # simulate pool reuse scribbling the buffer
    assert list(labels) == [5, -9]


def test_zero_copy_decode_release_is_wired():
    p = columnar_payload([b"a" * 600, b"b" * 600])
    wire = b"".join(bytes(seg) for seg in encode_batch_parts(p, version=3))
    released = []
    q = decode_batch(wire, zero_copy=True, release=lambda: released.append(True))
    assert isinstance(q.samples, ColumnarSamples)
    q.samples.release()
    q.samples.release()  # idempotent
    assert released == [True]


# -- the framing scanner -------------------------------------------------------


def test_scan_example_spans_matches_per_record_parse():
    samples = [bytes([i]) * (i * 37 + 1) for i in range(6)]
    labels = [10, -3, 0, 255, 2**40, -(2**40)]
    region = b"".join(
        frame_record(pack_example(s, l)) for s, l in zip(samples, labels)
    )
    offsets, scanned = scan_example_spans(region, 6, verify=True)
    assert scanned == labels
    for i, s in enumerate(samples):
        assert region[offsets[2 * i] : offsets[2 * i + 1]] == s


def test_scan_example_spans_rejects_corruption():
    region = bytearray(frame_record(pack_example(b"payload" * 100, 1)))
    offsets, _ = scan_example_spans(bytes(region), 1)
    region[offsets[0] + 3] ^= 0xFF  # flip a sample byte under the data CRC
    with pytest.raises(ValueError):
        scan_example_spans(bytes(region), 1, verify=True)
    with pytest.raises(ValueError):  # truncated region
        scan_example_spans(bytes(region)[:-3], 1)
