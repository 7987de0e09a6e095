"""Tests for the from-scratch MessagePack codec, including property tests."""

import functools
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serialize.msgpack import UnpackError, packb, unpackb
from repro.tfrecord.sharder import unpack_example

# -- known-answer vectors against the msgpack spec ---------------------------

SPEC_VECTORS = [
    (None, b"\xc0"),
    (False, b"\xc2"),
    (True, b"\xc3"),
    (0, b"\x00"),
    (127, b"\x7f"),
    (128, b"\xcc\x80"),
    (255, b"\xcc\xff"),
    (256, b"\xcd\x01\x00"),
    (65535, b"\xcd\xff\xff"),
    (65536, b"\xce\x00\x01\x00\x00"),
    (2**32 - 1, b"\xce\xff\xff\xff\xff"),
    (2**32, b"\xcf\x00\x00\x00\x01\x00\x00\x00\x00"),
    (-1, b"\xff"),
    (-32, b"\xe0"),
    (-33, b"\xd0\xdf"),
    (-128, b"\xd0\x80"),
    (-129, b"\xd1\xff\x7f"),
    (-32768, b"\xd1\x80\x00"),
    (-32769, b"\xd2\xff\xff\x7f\xff"),
    (-(2**31), b"\xd2\x80\x00\x00\x00"),
    (-(2**31) - 1, b"\xd3\xff\xff\xff\xff\x7f\xff\xff\xff"),
    ("", b"\xa0"),
    ("a", b"\xa1a"),
    ("hello", b"\xa5hello"),
    (b"", b"\xc4\x00"),
    (b"\x01\x02", b"\xc4\x02\x01\x02"),
    ([], b"\x90"),
    ([1, 2, 3], b"\x93\x01\x02\x03"),
    ({}, b"\x80"),
    ({"a": 1}, b"\x81\xa1a\x01"),
    (1.5, b"\xcb" + struct.pack(">d", 1.5)),
]


@pytest.mark.parametrize("obj,encoded", SPEC_VECTORS)
def test_spec_encoding(obj, encoded):
    assert packb(obj) == encoded


@pytest.mark.parametrize("obj,encoded", SPEC_VECTORS)
def test_spec_decoding(obj, encoded):
    assert unpackb(encoded) == obj


def test_float32_decoding():
    data = b"\xca" + struct.pack(">f", 2.5)
    assert unpackb(data) == 2.5


def test_str8_and_long_strings():
    s = "x" * 300
    out = packb(s)
    assert out[0] == 0xDA  # str16
    assert unpackb(out) == s


def test_bin16_and_bin32():
    b16 = b"z" * 70000
    out = packb(b16)
    assert out[0] == 0xC6  # bin32
    assert unpackb(out) == b16


def test_array16():
    arr = list(range(1000))
    out = packb(arr)
    assert out[0] == 0xDC
    assert unpackb(out) == arr


def test_map16():
    m = {f"k{i}": i for i in range(100)}
    out = packb(m)
    assert out[0] == 0xDE
    assert unpackb(out) == m


def test_nested_structure():
    obj = {"a": [1, {"b": b"bytes", "c": None}], "d": [True, False, -5, 3.25]}
    assert unpackb(packb(obj)) == obj


def test_tuple_encodes_as_array():
    assert unpackb(packb((1, 2))) == [1, 2]


def test_memoryview_encodes_as_bin():
    assert unpackb(packb(memoryview(b"abc"))) == b"abc"


def test_unsupported_type_raises():
    with pytest.raises(TypeError):
        packb(object())


def test_int_overflow_raises():
    with pytest.raises(OverflowError):
        packb(2**64)
    with pytest.raises(OverflowError):
        packb(-(2**63) - 1)


def test_trailing_garbage_rejected():
    with pytest.raises(UnpackError):
        unpackb(packb(1) + b"\x00")


def test_truncated_input_rejected():
    data = packb([1, 2, 3, "hello"])
    for cut in range(1, len(data)):
        with pytest.raises(UnpackError):
            unpackb(data[:cut])


def test_unknown_tag_rejected():
    with pytest.raises(UnpackError):
        unpackb(b"\xc1")  # never-used tag per spec


@pytest.mark.parametrize("decode", [unpackb, unpack_example], ids=["unpackb", "unpack_example"])
@pytest.mark.parametrize(
    "data, match",
    [
        (b"\x91" * 100_000 + b"\x01", "nests too deeply"),  # past the interpreter's recursion
        (b"\x81\xa1x" * 200 + b"\x01", "nests too deeply"),  # maps nest too
        (b"\xa2\xff\xfe", "not UTF-8"),  # fixstr
        (b"\xd9\x02\xff\xfe", "not UTF-8"),  # str8
    ],
    ids=["deep-array", "deep-map", "fixstr-not-utf8", "str8-not-utf8"],
)
def test_malformed_input_is_an_unpack_error(decode, data, match):
    """Garbage of any shape is the one documented error, also through the
    daemon's per-record fallback, not a RecursionError or UnicodeDecodeError."""
    with pytest.raises(UnpackError, match=match):
        decode(data)


def test_nesting_up_to_the_bound_decodes():
    assert unpackb(b"\x91" * 128 + b"\x01") == functools.reduce(lambda x, _: [x], range(128), 1)


# -- property-based roundtrip --------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    st.floats(allow_nan=False, allow_infinity=True),
    st.text(max_size=64),
    st.binary(max_size=64),
)

json_like = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=8),
        st.dictionaries(st.text(max_size=8), children, max_size=8),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_like)
def test_roundtrip_identity(obj):
    assert unpackb(packb(obj)) == obj


@settings(max_examples=100, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_float_roundtrip_bitexact(x):
    y = unpackb(packb(x))
    assert (math.isnan(x) and math.isnan(y)) or x == y


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=2048))
def test_decoder_never_hangs_on_garbage(data):
    """Arbitrary bytes either decode to something or raise UnpackError."""
    try:
        unpackb(data)
    except UnpackError:
        pass


# -- zero-copy decode (memoryview bins) ---------------------------------------


@settings(max_examples=200, deadline=None)
@given(json_like)
def test_zero_copy_decode_equals_copying_decode(obj):
    data = packb(obj)
    assert unpackb(data, zero_copy=True) == unpackb(data)


def test_zero_copy_views_alias_the_input_buffer():
    data = bytearray(packb(b"abcd"))
    view = unpackb(data, zero_copy=True)
    assert isinstance(view, memoryview) and view == b"abcd"
    data[-4:] = b"wxyz"  # mutating the buffer shows through the view
    assert view == b"wxyz"
