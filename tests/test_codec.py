"""Tests for the SJPG and RAW codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dctn, idctn

from repro.codec.raw import raw_decode, raw_encode, raw_overhead
from repro.codec.sjpg import (
    _HDR,
    _dct_blocks,
    _quant_table,
    _to_blocks,
    _varint_pack,
    psnr,
    sjpg_decode,
    sjpg_decode_batch,
    sjpg_decode_shape,
    sjpg_encode,
)
from repro.data.samples import smooth_image


@pytest.fixture
def image(rng):
    return smooth_image(rng, 48, 64, channels=3)


def test_roundtrip_shape_and_dtype(image):
    out = sjpg_decode(sjpg_encode(image, quality=75))
    assert out.shape == image.shape
    assert out.dtype == np.uint8


def test_high_quality_high_psnr(image):
    out = sjpg_decode(sjpg_encode(image, quality=95))
    assert psnr(image, out) > 30.0


def test_quality_monotonic_in_fidelity(image):
    p = [psnr(image, sjpg_decode(sjpg_encode(image, quality=q))) for q in (10, 50, 95)]
    assert p[0] < p[1] < p[2]


def test_quality_monotonic_in_size(image):
    sizes = [len(sjpg_encode(image, quality=q)) for q in (10, 50, 95)]
    assert sizes[0] < sizes[1] < sizes[2]


def test_smooth_images_compress(image):
    encoded = sjpg_encode(image, quality=75)
    assert len(encoded) < image.nbytes / 2


def test_grayscale_and_single_channel(rng):
    gray2d = smooth_image(rng, 40, 40, channels=1)[:, :, 0]
    out = sjpg_decode(sjpg_encode(gray2d, quality=85))
    assert out.shape == (40, 40, 1)


def test_non_multiple_of_8_dimensions(rng):
    img = smooth_image(rng, 37, 53, channels=3)
    out = sjpg_decode(sjpg_encode(img, quality=85))
    assert out.shape == img.shape
    assert psnr(img, out) > 25.0


def test_decode_shape_peek(image):
    data = sjpg_encode(image, quality=75)
    assert sjpg_decode_shape(data) == image.shape


def test_bad_magic_rejected(image):
    data = bytearray(sjpg_encode(image))
    data[0] = ord("X")
    with pytest.raises(ValueError, match="magic"):
        sjpg_decode(bytes(data))


def test_quality_bounds():
    img = np.zeros((8, 8, 1), dtype=np.uint8)
    with pytest.raises(ValueError):
        sjpg_encode(img, quality=0)
    with pytest.raises(ValueError):
        sjpg_encode(img, quality=101)


def test_wrong_dtype_rejected():
    with pytest.raises(TypeError):
        sjpg_encode(np.zeros((8, 8, 3), dtype=np.float32))


def test_empty_image_rejected():
    with pytest.raises(ValueError):
        sjpg_encode(np.zeros((0, 8, 3), dtype=np.uint8))


def test_constant_image_roundtrips_exactly_at_high_quality():
    img = np.full((16, 16, 3), 128, dtype=np.uint8)
    out = sjpg_decode(sjpg_encode(img, quality=100))
    assert np.all(np.abs(out.astype(int) - 128) <= 1)


@settings(max_examples=20, deadline=None)
@given(
    h=st.integers(min_value=8, max_value=40),
    w=st.integers(min_value=8, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_roundtrip_psnr(h, w, seed):
    rng = np.random.default_rng(seed)
    img = smooth_image(rng, h, w, channels=3)
    out = sjpg_decode(sjpg_encode(img, quality=90))
    assert out.shape == img.shape
    assert psnr(img, out) > 24.0


# -- the batch decoder: one kernel, exact across batches, strict on input ------


def _reference_decode(img: np.ndarray, quality: int) -> np.ndarray:
    """What sjpg_encode keeps, decoded in float64: the coefficients the
    encoder's own forward transform quantises, dequantised through scipy's
    inverse DCT, level-shifted and rounded."""
    q = _quant_table(quality)
    h, w, channels = img.shape
    out = np.empty_like(img)
    for ch in range(channels):
        blocks, nby, nbx = _to_blocks(img[:, :, ch].astype(np.float64) - 128.0)
        coeffs = np.round(_dct_blocks(blocks) / q) * q
        pixels = idctn(coeffs, axes=(-2, -1), norm="ortho") + 128.0
        plane = pixels.transpose(0, 2, 1, 3).reshape(nby * 8, nbx * 8)[:h, :w]
        out[:, :, ch] = np.clip(np.round(plane), 0, 255)
    return out


_SIDES = st.sampled_from([1, 5, 8, 13, 16, 24, 40])
_IMAGES = st.tuples(_SIDES, _SIDES, st.sampled_from([1, 3]), st.integers(1, 100),
                    st.integers(0, 2**31))


def _encode(spec) -> bytes:
    h, w, channels, quality, seed = spec
    return sjpg_encode(smooth_image(np.random.default_rng(seed), h, w, channels), quality)


@settings(max_examples=40, deadline=None)
@given(st.lists(_IMAGES, min_size=1, max_size=6))
def test_batch_decode_is_bitwise_the_single_decodes(specs):
    """Mixed geometries (non-multiples of 8, one and three channels) and
    qualities in one batch: every image decodes exactly as it does alone."""
    datas = [_encode(spec) for spec in specs]
    batch = sjpg_decode_batch(datas)
    assert len(batch) == len(datas)
    for img, data, (h, w, channels, _q, _s) in zip(batch, datas, specs):
        alone = sjpg_decode(data)
        assert img.shape == alone.shape == (h, w, channels) and img.dtype == np.uint8
        assert np.array_equal(img, alone)
        assert img.flags.c_contiguous


def test_forward_dct_matches_scipy_orthonormal_dctn(rng):
    """The encoder's unquantised coefficients are scipy's orthonormal DCT-II."""
    blocks = rng.uniform(-128.0, 127.0, size=(5, 7, 8, 8))
    np.testing.assert_allclose(
        _dct_blocks(blocks), dctn(blocks, axes=(-2, -1), norm="ortho"), rtol=0, atol=1e-9
    )


@settings(max_examples=30, deadline=None)
@given(_IMAGES)
def test_decode_within_one_level_of_float64_idct(spec):
    h, w, channels, quality, seed = spec
    img = smooth_image(np.random.default_rng(seed), h, w, channels)
    got = sjpg_decode(sjpg_encode(img, quality))
    assert np.abs(got.astype(np.int64) - _reference_decode(img, quality)).max() <= 1


def test_decoded_images_own_their_memory(rng):
    """The kernel's planes are reused scratch; what it returns is not."""
    datas = [sjpg_encode(smooth_image(rng, 8, 8, 1)) for _ in range(2)]
    first = sjpg_decode_batch(datas)
    again = sjpg_decode_batch(datas)
    for a, b in zip(first, again):
        assert np.array_equal(a, b) and not np.shares_memory(a, b)


def test_long_varints_decode():
    """Three-byte runs (a flat 256x256 channel is one 65536-zero run) and a
    five-byte value (the 64-bit unpack path) decode."""
    flat = np.full((256, 256, 1), 128, dtype=np.uint8)
    assert np.array_equal(sjpg_decode(sjpg_encode(flat, quality=75)), flat)
    bright = sjpg_decode(_crafted([0, 2**30, 63, 0]))
    assert np.all(bright == 255)
    dark = sjpg_decode(_crafted([0, -(2**30), 63, 0]))
    assert np.all(dark == 0)


def _crafted(tokens, *, h=8, w=8, channels=1, version=1, magic=b"SJPG", ntok=None, body=None):
    """An SJPG stream around a hand-written token list (8x8 gray by
    default: one block, 64 coefficients)."""
    if body is None:
        body = _varint_pack(np.asarray(tokens, dtype=np.int64))
    count = len(tokens) if ntok is None else ntok
    return _HDR.pack(magic, version, 75, h, w, channels, count) + body


_WIDE = b"\x80" * 10 + b"\x01"  # an 11-byte varint

#: One crafted stream per decoder diagnostic: (stream, exact message).
_MALFORMED = {
    "short header": (b"SJPG\x01", "SJPG data too short for header"),
    "magic": (_crafted([0, 5, 63, 0], magic=b"XJPG"), "bad SJPG magic: b'XJPG'"),
    "version": (_crafted([0, 5, 63, 0], version=2), "unsupported SJPG version 2"),
    "no pixels": (_crafted([63, 0], h=0), "SJPG image has no pixels: 0x8x1"),
    "truncated": (_crafted([0, 5, 63, 0], ntok=6), "truncated varint stream"),
    "trailing": (_crafted([0, 5, 63, 0], ntok=3), "1 trailing bytes in varint stream"),
    "wide": (_crafted([], ntok=4, body=_WIDE + _varint_pack(np.array([5, 63, 0]))),
             "varint exceeds 64 bits"),
    "missing": (_crafted([0, 5, 63, 0], channels=2), "token stream is missing channel terminators"),
    "past end": (_crafted([0, 5, 63, 0, 1, 2]),
                 "token stream continues past its last channel terminator"),
    "odd count": (_crafted([0, 5, 63, 0, 1]),
                  "token stream continues past its last channel terminator"),
    # Decoders before the run rule accepted this: the -1 run moved the write
    # cursor back and 7 silently overwrote 5.
    "negative run": (_crafted([0, 5, -1, 7, 62, 0]), "negative RLE run"),
    "overrun": (_crafted([64, 5, 0, 0]), "RLE stream overruns coefficient array"),
    "huge run": (_crafted([1000, 5, 0, 0]), "RLE stream overruns coefficient array"),
    "short channel": (_crafted([0, 5, 10, 0]), "RLE stream ends short of its channel's coefficients"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_stream_is_rejected_alone_and_in_a_batch(case, rng):
    data, message = _MALFORMED[case]
    good = sjpg_encode(smooth_image(rng, 16, 24), quality=60)
    for call in (lambda: sjpg_decode(data), lambda: sjpg_decode_batch([good, data, good])):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_well_formed_crafted_stream_decodes():
    """The crafted streams above fail for their defect, not their framing."""
    assert sjpg_decode(_crafted([0, 5, 63, 0])).shape == (8, 8, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.lists(st.tuples(st.integers(0, 400), st.integers(0, 255)),
                                       min_size=1, max_size=4), st.integers(0, 400))
def test_corrupt_bytes_only_ever_raise_value_error(seed, flips, cut):
    """Random byte damage: the decoder either returns an image of the
    header's geometry or raises ValueError — never anything else."""
    data = bytearray(sjpg_encode(smooth_image(np.random.default_rng(seed), 13, 21), quality=50))
    for at, byte in flips:
        data[_HDR.size + at % (len(data) - _HDR.size)] = byte
    data = bytes(data[: len(data) - cut % 8])
    try:
        img = sjpg_decode(data)
    except ValueError:
        return
    assert img.shape == (13, 21, 3)


# -- RAW codec ---------------------------------------------------------------


def test_raw_roundtrip():
    payload = b"\x01\x02\x03" * 1000
    assert raw_decode(raw_encode(payload)) == payload


def test_raw_exact_size():
    payload = b"z" * 500
    assert len(raw_encode(payload)) == 500 + raw_overhead()


def test_raw_detects_corruption():
    framed = bytearray(raw_encode(b"data" * 100))
    framed[50] ^= 0xFF
    with pytest.raises(ValueError, match="checksum"):
        raw_decode(bytes(framed))


def test_raw_detects_truncation():
    framed = raw_encode(b"data" * 100)
    with pytest.raises(ValueError, match="length"):
        raw_decode(framed[:-3])


def test_raw_bad_magic():
    framed = bytearray(raw_encode(b"x"))
    framed[0] = ord("Z")
    with pytest.raises(ValueError, match="magic"):
        raw_decode(bytes(framed))


def test_raw_empty_payload():
    assert raw_decode(raw_encode(b"")) == b""


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=0, max_size=4096))
def test_raw_property_roundtrip(payload):
    assert raw_decode(raw_encode(payload)) == payload
