"""Tests for CRC-32C: known vectors, batch kernel vs reference, masking."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.backend import parse_record_block
from repro.tfrecord.crc32c import (
    _KERNEL_MIN_BYTES,
    _LANE,
    _SEGMENT,
    crc32c,
    crc32c_many,
    crc32c_reference,
    first_crc_mismatch,
    masked_crc32c,
    unmask_crc32c,
)
from repro.tfrecord.reader import TFRecordCorruption
from repro.tfrecord.sharder import pack_example, scan_example_spans
from repro.tfrecord.writer import frame_record

# Known CRC-32C vectors (RFC 3720 / common test suite values).
KNOWN = [
    (b"", 0x00000000),
    (b"a", 0xC1D04330),
    (b"abc", 0x364B3FB7),
    (b"123456789", 0xE3069283),
    (b"\x00" * 32, 0x8A9136AA),
    (b"\xff" * 32, 0x62A8AB43),
    (bytes(range(32)), 0x46DD794E),
]


@pytest.mark.parametrize("data,expected", KNOWN)
def test_known_vectors(data, expected):
    assert crc32c(data) == expected
    assert crc32c_reference(data) == expected


def test_fast_path_matches_reference_across_sizes():
    # The byte-wise path, the hand-over to the kernel, lane boundaries, and
    # the segment split (one, two and three segments) with ragged heads.
    data = bytes((i * 131 + 17) % 256 for i in range(3 * _SEGMENT + 5))
    sizes = {0, 1, 7, 8, 9, 1023, 1024, 1025, 4096, 4097, len(data)}
    for edge in (_KERNEL_MIN_BYTES, _LANE, 2 * _LANE, _SEGMENT, 2 * _SEGMENT, 3 * _SEGMENT):
        sizes.update((edge - 1, edge, edge + 1))
    for n in sorted(sizes):
        assert crc32c(data[:n]) == crc32c_reference(data[:n]), n


@pytest.mark.parametrize("data,expected", KNOWN)
def test_kernel_known_vectors(data, expected):
    # Straight through the kernel, whatever crc32c()'s small-buffer cut-off.
    assert crc32c_many(data, [0], [len(data)]).tolist() == [expected]


def test_kernel_checks_its_spans():
    assert crc32c_many(b"abc", [], []).tolist() == []
    with pytest.raises(ValueError, match="outside"):
        crc32c_many(b"abc", [0], [4])
    with pytest.raises(ValueError, match="outside"):
        crc32c_many(b"abc", [2], [1])
    with pytest.raises(ValueError, match="equal-length"):
        crc32c_many(b"abc", [0, 1], [2])


@st.composite
def _buffer_and_spans(draw):
    # Mixed lengths 0 … 3× the segment capacity in one call: empty spans,
    # sub-lane, multi-lane, and spans cut into two and three segments.
    size = draw(st.integers(0, 3 * _SEGMENT + 64))
    seed = draw(st.integers(0, 2**32 - 1))
    buf = np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()
    spans = draw(
        st.lists(
            st.tuples(
                st.integers(0, size),
                st.sampled_from([0, 1, 8, _LANE - 1, _LANE, _LANE + 1, 4110, _SEGMENT,
                                 _SEGMENT + 1, 2 * _SEGMENT + 7, 3 * _SEGMENT]),
                st.integers(0, 40),
            ),
            min_size=1,
            max_size=12,
        )
    )
    starts = [s for s, _, _ in spans]
    ends = [min(size, s + max(0, length - jitter)) for s, length, jitter in spans]
    return buf, starts, ends


@settings(max_examples=150, deadline=None)
@given(_buffer_and_spans())
def test_property_kernel_equals_reference(case):
    buf, starts, ends = case
    expected = [crc32c_reference(buf[s:e]) for s, e in zip(starts, ends)]
    assert crc32c_many(buf, starts, ends).tolist() == expected
    assert crc32c_many(memoryview(bytearray(buf)), starts, ends).tolist() == expected


def test_kernel_many_small_spans_cross_pass_boundaries():
    # Thousands of spans in one call: the kernel works through them in
    # bounded passes; results must line up span for span.
    buf = np.random.default_rng(5).integers(0, 256, 200_000, dtype=np.uint8).tobytes()
    starts = list(range(0, len(buf) - 300, 97))
    ends = [s + 1 + (s % 300) for s in starts]
    got = crc32c_many(buf, starts, ends).tolist()
    for i in range(0, len(starts), 53):
        assert got[i] == crc32c_reference(buf[starts[i] : ends[i]]), i


def test_first_crc_mismatch_reports_the_first_bad_span():
    buf = b"abcdefghijklmnop"
    starts, ends = [0, 4, 8, 12], [4, 8, 12, 16]
    good = [masked_crc32c(buf[s:e]) for s, e in zip(starts, ends)]
    assert first_crc_mismatch(buf, starts, ends, good) == -1
    bad = list(good)
    bad[3] ^= 1
    bad[1] ^= 0x8000_0000
    assert first_crc_mismatch(buf, starts, ends, bad) == 1


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=0, max_size=4096))
def test_property_fast_equals_reference(data):
    assert crc32c(data) == crc32c_reference(data)


def test_crc_detects_single_bit_flip():
    data = bytearray(b"The quick brown fox jumps over the lazy dog" * 50)
    original = crc32c(bytes(data))
    data[100] ^= 0x01
    assert crc32c(bytes(data)) != original


def test_masking_roundtrip():
    for data, _ in KNOWN:
        masked = masked_crc32c(data)
        assert unmask_crc32c(masked) == crc32c(data)


def test_mask_values_are_32bit():
    assert 0 <= masked_crc32c(b"x" * 100) <= 0xFFFFFFFF


def test_known_tfrecord_masked_crc():
    # masked crc of an 8-byte little-endian length field for length 3.
    import struct

    length_bytes = struct.pack("<Q", 3)
    crc = crc32c(length_bytes)
    expected_mask = (((crc >> 15) | (crc << 17)) + 0xA282EAD8) & 0xFFFFFFFF
    assert masked_crc32c(length_bytes) == expected_mask


def test_memoryview_and_bytearray_inputs():
    data = b"hello world" * 200
    assert crc32c(memoryview(data)) == crc32c(data)
    assert crc32c(bytearray(data)) == crc32c(data)


# -- single-bit corruption: exactly the damaged record fails, as before --------


def _reference_walk(region: bytes, count: int):
    """Record-by-record CRC walk with the byte-wise oracle: the failure a
    verify pass must report, as ``(field, record_offset)`` or ``None``."""
    pos = 0
    for _ in range(count):
        if pos + 12 > len(region):
            return ("truncated", pos)
        (length,) = struct.unpack_from("<Q", region, pos)
        if _masked_reference(region[pos : pos + 8]) != struct.unpack_from("<I", region, pos + 8)[0]:
            return ("length", pos)
        end = pos + 12 + length
        if end + 4 > len(region):
            return ("truncated", pos)
        if _masked_reference(region[pos + 12 : end]) != struct.unpack_from("<I", region, end)[0]:
            return ("data", pos)
        pos = end + 4
    return None


def _masked_reference(data: bytes) -> int:
    crc = crc32c_reference(data)
    return (((crc >> 15) | (crc << 17)) + 0xA282EAD8) & 0xFFFFFFFF


def test_any_single_bit_flip_fails_exactly_that_record():
    samples = [bytes([i]) * (20 + 7 * i) for i in range(4)]
    frames = [frame_record(pack_example(x, 100 + i)) for i, x in enumerate(samples)]
    region = b"".join(frames)
    record_of = [i for i, f in enumerate(frames) for _ in f]
    record_start = [sum(len(f) for f in frames[:i]) for i in range(len(frames))]
    assert scan_example_spans(region, 4, verify=True)[1] == [100, 101, 102, 103]
    assert len(parse_record_block(region, 4, True)) == 4

    for bit in range(8 * len(region)):
        raw = bytearray(region)
        raw[bit // 8] ^= 1 << (bit % 8)
        damaged = bytes(raw)
        field, at = _reference_walk(damaged, 4)
        # Exactly the record holding the flipped bit, and none before it.
        assert field in ("length", "data")
        assert at == record_start[record_of[bit // 8]]
        message = f"{field} CRC mismatch at offset {at}"

        with pytest.raises(ValueError) as scan_err:
            scan_example_spans(damaged, 4, verify=True)
        assert type(scan_err.value) is ValueError
        assert str(scan_err.value) == message

        with pytest.raises(TFRecordCorruption) as block_err:
            parse_record_block(damaged, 4, True, shard_path="s.tfrecord", offset=1000)
        assert str(block_err.value) == (
            f"shard 's.tfrecord': bad range read at byte {1000 + at}: {message}"
        )
        # The records before the damaged one still read clean.
        before = record_of[bit // 8]
        assert len(parse_record_block(damaged[:at], before, True)) == before
