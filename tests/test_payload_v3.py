"""Columnar payload schema (v3): round trips, strict decode, O(1) decode.

The v3 wire layout packs a batch as one samples blob + a u32 offsets
vector + an i64 labels vector.  These tests pin the properties the hot
path rests on: lossless round trips across every edge geometry,
rejection of every other schema version and of malformed v3 maps, O(1)
scatter-gather segments when the daemon serves a shared region, and O(1)
Python allocations per decoded batch under ``zero_copy=True``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.buffers import ColumnarSamples
from repro.serialize.msgpack import SPILL_THRESHOLD, packb, unpackb
from repro.serialize.payload import (
    BatchPayload,
    decode_batch,
    encode_batch,
    encode_batch_parts,
)
from repro.tfrecord.sharder import pack_example, scan_example_spans
from repro.tfrecord.writer import frame_record


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
        [b"x" * (SPILL_THRESHOLD + 1)] * 3,  # every sample spills
        [b"a", b"b" * SPILL_THRESHOLD, b""],  # mixed sizes
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
        st.binary(min_size=0, max_size=SPILL_THRESHOLD + 64),
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


@pytest.mark.parametrize("version", [1, 2])
def test_row_layout_versions_rejected(version):
    """The retired row layouts (v1 had no seq field) decode nowhere, and
    nothing encodes them any more."""
    obj = {
        "v": version,
        "epoch": 1,
        "batch_index": 9,
        "shard": "shard_00000",
        "node_id": 0,
        "seq": 9,
        "samples": [b"aa", b"b"],
        "labels": [4, 7],
        "meta": {},
    }
    for zero_copy in (False, True):
        with pytest.raises(ValueError, match=f"version {version}"):
            decode_batch(packb(obj), zero_copy=zero_copy)
    p = make_payload([b"q" * 600, b"r"])
    with pytest.raises(ValueError, match=f"version {version}"):
        encode_batch(p, version=version)
    with pytest.raises(ValueError, match=f"version {version}"):
        encode_batch_parts(p, version=version)


def test_unknown_version_rejected():
    obj = unpackb(encode_batch(make_payload([b"x"])))
    obj["offsets"] = bytes(obj["offsets"])
    obj["labels"] = bytes(obj["labels"])
    obj["samples"] = bytes(obj["samples"])
    obj["v"] = 4
    with pytest.raises(ValueError, match="version"):
        decode_batch(packb(obj))


def test_corrupt_columnar_vectors_rejected():
    p = make_payload([b"ab", b"cd"])
    obj = unpackb(encode_batch(p, version=3))
    short = dict(obj, offsets=bytes(obj["offsets"])[:-4], labels=bytes(obj["labels"]),
                 samples=bytes(obj["samples"]))
    with pytest.raises(ValueError, match="offsets"):
        decode_batch(packb(short))
    short = dict(obj, offsets=bytes(obj["offsets"]), labels=bytes(obj["labels"])[:-8],
                 samples=bytes(obj["samples"]))
    with pytest.raises(ValueError, match="labels"):
        decode_batch(packb(short))


def _v3_map(**fields):
    """A hand-built v3 wire map of one 2-byte sample; a field set to
    ``None`` is left out."""
    obj = {
        "v": 3,
        "epoch": 0,
        "batch_index": 1,
        "shard": "s",
        "node_id": 0,
        "seq": 1,
        "count": 1,
        "offsets": np.array([0, 2], dtype="<u4").tobytes(),
        "labels": np.array([5], dtype="<i8").tobytes(),
        "samples": b"ab",
        "meta": {},
    }
    obj.update(fields)
    return packb({k: v for k, v in obj.items() if v is not None})


@pytest.mark.parametrize("zero_copy", [False, True], ids=["copy", "zero_copy"])
@pytest.mark.parametrize(
    "fields,match",
    [
        ({"offsets": np.array([0, 99], dtype="<u4").tobytes()}, "outside"),
        ({"offsets": np.array([2, 0], dtype="<u4").tobytes()}, "backwards"),
        ({"count": None}, "missing field 'count'"),
        ({"epoch": None}, "missing field 'epoch'"),
        ({"seq": None}, "missing field 'seq'"),
        ({"count": "1"}, "count must be an int"),
        ({"offsets": [0, 2]}, "offsets must be bin"),
        ({"labels": [5]}, "labels must be bin"),
        ({"samples": [b"ab"]}, "samples must be bin"),
    ],
    ids=[
        "end-past-blob", "inverted-pair", "no-count", "no-epoch", "no-seq",
        "str-count", "list-offsets", "list-labels", "list-samples",
    ],
)
def test_malformed_v3_rejected(fields, match, zero_copy):
    """Corrupt bytes never reach a tensor: a span past the blob or running
    backwards, a missing field, or a mistyped one is a ValueError that
    names it — not a truncated sample, an empty one, or a KeyError."""
    assert bytes(decode_batch(_v3_map(), zero_copy=zero_copy).samples[0]) == b"ab"
    with pytest.raises(ValueError, match=match):
        decode_batch(_v3_map(**fields), zero_copy=zero_copy)


# -- O(1) properties -----------------------------------------------------------


def test_columnar_encode_is_constant_segments():
    """The tentpole claim: segment count does not grow with B when the
    samples share one backing region."""
    counts = {}
    for b in (64, 256, 1024):
        samples = [bytes([i % 256]) * 1024 for i in range(b)]
        counts[b] = len(encode_batch_parts(columnar_payload(samples), version=3))
    # Once the offsets/labels vectors cross the spill threshold the part
    # count saturates: header parts + one spill each for offsets, labels,
    # and the blob — and never grows again.
    assert counts[64] == counts[256] == counts[1024] <= 8
    # The generic list path spills every sample: segments grow with B.
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
