"""Tests for the batch payload schema."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serialize.payload import BatchPayload, decode_batch, encode_batch


def make_payload(**overrides):
    kwargs = dict(
        epoch=2,
        batch_index=17,
        shard="shard_00003",
        samples=[b"aaa", b"bb", b"c"],
        labels=[5, 2, 9],
        node_id=1,
        meta={"rtt_class": "wan"},
    )
    kwargs.update(overrides)
    return BatchPayload(**kwargs)


def test_roundtrip_preserves_fields():
    p = make_payload()
    q = decode_batch(encode_batch(p))
    assert q == p


def test_batch_size_and_nbytes():
    p = make_payload()
    assert p.batch_size == 3
    assert p.nbytes == 6


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        make_payload(labels=[1])


def test_empty_batch_roundtrip():
    p = make_payload(samples=[], labels=[])
    assert decode_batch(encode_batch(p)).batch_size == 0


def test_version_check():
    data = bytearray(encode_batch(make_payload()))
    data[0] = 99  # the header's version byte
    with pytest.raises(ValueError, match="version 99"):
        decode_batch(bytes(data))


def test_non_map_payload_rejected():
    """A msgpack value is not a batch frame: its first byte is read as the
    header's version and rejected."""
    from repro.serialize.msgpack import packb

    with pytest.raises(ValueError, match="unsupported batch payload version"):
        decode_batch(packb([1, 2, 3]))


@settings(max_examples=50, deadline=None)
@given(
    samples=st.lists(st.binary(min_size=0, max_size=256), min_size=0, max_size=16),
    epoch=st.integers(min_value=0, max_value=1000),
    batch_index=st.integers(min_value=0, max_value=10**6),
)
def test_property_roundtrip(samples, epoch, batch_index):
    labels = list(range(len(samples)))
    p = BatchPayload(
        epoch=epoch,
        batch_index=batch_index,
        shard="shard_00000",
        samples=samples,
        labels=labels,
    )
    assert decode_batch(encode_batch(p)) == p
