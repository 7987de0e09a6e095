"""SJPG: a simple JPEG-like block-DCT image codec.

Pipeline (encode): uint8 HxWxC image → level shift → 8×8 block 2-D DCT
(scipy, orthonormal) → quality-scaled quantization → zigzag scan → run-length
encoding of zero runs → varint packing.  Decode reverses each stage; the
inverse DCT dominates, so decode cost scales with pixel count exactly like
real JPEG decode does.

Wire format::

    magic   b"SJPG"
    u8      version (=1)
    u8      quality (1..100)
    u16     height, width  (big-endian)
    u8      channels
    u32     number of RLE tokens
    bytes   varint-packed RLE token stream

Each channel's tokens are ``(zero run, value)`` pairs over its zigzag-ordered
coefficients, closed by a ``(trailing zeros, 0)`` terminator.  A negative run
would move the write cursor back over written coefficients: it is malformed
and rejected.

One batch kernel decodes, :func:`sjpg_decode_planes`; :func:`sjpg_decode` is
a batch of one, so an image decodes to the same pixels alone or in any batch.
It unpacks every varint of the batch at once, places every pair with one
cumulative sum, scatters the values still zigzag-ordered into ``(blocks, 64)``
and inverts the DCT as one GEMM, whose 64×64 matrix also undoes zigzag and
quantization.  The codec is lossy; tests bound reconstruction PSNR.
"""

from __future__ import annotations

import functools
import itertools
import struct

import numpy as np
from scipy.fft import dctn

from repro.util.arena import Arena, scratch_arena

_MAGIC = b"SJPG"
_VERSION = 1
_HDR = struct.Struct(">4sBBHHBI")

# Base luminance quantization table (ITU-T T.81 Annex K), used for every
# channel — chroma subsampling is out of scope for a cost-faithful codec.
_QBASE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)


def _quant_table(quality: int) -> np.ndarray:
    """JPEG quality scaling of the base table (libjpeg convention)."""
    if not 1 <= quality <= 100:
        raise ValueError(f"quality must be in [1, 100], got {quality}")
    scale = 5000 / quality if quality < 50 else 200 - 2 * quality
    q = np.floor((_QBASE * scale + 50) / 100)
    return np.clip(q, 1, 255)


def _zigzag_order() -> np.ndarray:
    idx = []
    for s in range(15):
        diag = [(i, s - i) for i in range(8) if 0 <= s - i < 8]
        if s % 2 == 0:
            diag.reverse()
        idx.extend(diag)
    order = np.array([i * 8 + j for i, j in idx], dtype=np.int64)
    return order


_ZIGZAG = _zigzag_order()


def _to_blocks(channel: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Pad to multiples of 8 and reshape to (nby, nbx, 8, 8)."""
    h, w = channel.shape
    ph = (-h) % 8
    pw = (-w) % 8
    if ph or pw:
        channel = np.pad(channel, ((0, ph), (0, pw)), mode="edge")
    hh, ww = channel.shape
    blocks = channel.reshape(hh // 8, 8, ww // 8, 8).transpose(0, 2, 1, 3)
    return np.ascontiguousarray(blocks), hh // 8, ww // 8


@functools.lru_cache(maxsize=None)  # one per quality level: at most 100
def _idct_matrix(quality: int) -> np.ndarray:
    """The (64, 64) float32 ``M`` with ``block_pixels = zigzag_coeffs @ M``.

    Row ``z`` is the orthonormal 2-D DCT basis image of the coefficient at
    zigzag position ``z``, times its quantization step: un-zigzag, dequantize
    and inverse DCT in one matrix (the level shift is left to the caller).
    """
    k = np.arange(8)
    dct = np.sqrt(2 / 8) * np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / 16)
    dct[0] /= np.sqrt(2)  # dct[u, x]: scipy's orthonormal DCT-II matrix
    basis = np.kron(dct, dct)  # basis[u*8 + v, x*8 + y] = dct[u, x] * dct[v, y]
    q = _quant_table(quality).ravel()
    m = (q[_ZIGZAG, None] * basis[_ZIGZAG]).astype(np.float32)
    m.setflags(write=False)
    return m


# -- RLE + varint entropy stage (encoder) ----------------------------------------


def _rle_encode(flat: np.ndarray) -> np.ndarray:
    """Run-length encode: stream of (zero_run_length, nonzero_value) pairs.

    A trailing run of zeros is encoded as a single (run, 0) terminator pair.
    Returns an int64 array of interleaved (run, value) tokens.
    """
    nz = np.flatnonzero(flat)
    runs = np.diff(np.concatenate(([-1], nz))) - 1
    values = flat[nz].astype(np.int64)
    tokens = np.empty(2 * len(nz) + 2, dtype=np.int64)
    tokens[0 : 2 * len(nz) : 2] = runs
    tokens[1 : 2 * len(nz) : 2] = values
    trailing = len(flat) - (int(nz[-1]) + 1 if len(nz) else 0)
    tokens[-2] = trailing
    tokens[-1] = 0  # terminator value
    return tokens


def _varint_pack(tokens: np.ndarray) -> bytes:
    """Pack int64 tokens as LEB128 varints of their zigzag mapping."""
    out = bytearray()
    for t in tokens.tolist():
        u = (t << 1) ^ (t >> 63)
        while True:
            byte = u & 0x7F
            u >>= 7
            if u:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    return bytes(out)


# -- public API ----------------------------------------------------------------


def sjpg_encode(image: np.ndarray, quality: int = 75) -> bytes:
    """Encode an HxW or HxWxC uint8 image to SJPG bytes."""
    if image.dtype != np.uint8:
        raise TypeError(f"image must be uint8, got {image.dtype}")
    if image.ndim == 2:
        image = image[:, :, None]
    if image.ndim != 3:
        raise ValueError(f"image must be HxW or HxWxC, got shape {image.shape}")
    h, w, channels = image.shape
    if h == 0 or w == 0 or channels == 0:
        raise ValueError(f"image must be non-empty, got shape {image.shape}")
    q = _quant_table(quality)

    all_tokens: list[np.ndarray] = []
    for ch in range(channels):
        blocks, _nby, _nbx = _to_blocks(image[:, :, ch].astype(np.float64) - 128.0)
        coeffs = dctn(blocks, axes=(-2, -1), norm="ortho")
        quantized = np.round(coeffs / q).astype(np.int64)
        flat = quantized.reshape(-1, 64)[:, _ZIGZAG].ravel()
        all_tokens.append(_rle_encode(flat))
    tokens = np.concatenate(all_tokens)
    body = _varint_pack(tokens)
    header = _HDR.pack(_MAGIC, _VERSION, quality, h, w, channels, len(tokens))
    return header + body


def _parse_header(data) -> tuple[int, int, int, int, int]:
    if len(data) < _HDR.size:
        raise ValueError("SJPG data too short for header")
    magic, version, quality, h, w, channels, ntok = _HDR.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError(f"bad SJPG magic: {magic!r}")
    if version != _VERSION:
        raise ValueError(f"unsupported SJPG version {version}")
    return quality, h, w, channels, ntok


def sjpg_decode_shape(data: bytes) -> tuple[int, int, int]:
    """Peek (height, width, channels) without decoding the body."""
    _quality, h, w, channels, _ntok = _parse_header(data)
    return h, w, channels


def sjpg_decode_planes(datas, arena: Arena) -> tuple[list[tuple], np.ndarray]:
    """Decode a batch of SJPG images into padded planar uint8 pixels.

    Returns each image's header ``(quality, height, width, channels,
    tokens)`` and one flat uint8 array holding, image after image and
    channel after channel, a row-major ``8⌈h/8⌉ × 8⌈w/8⌉`` plane (the
    image's pixels top-left, the decoded block padding right and below).
    The array lives in ``arena`` and is valid until the arena is next used.
    Raises ``ValueError`` on any malformed image.
    """
    views = [memoryview(d).cast("B") for d in datas]
    heads = [_parse_header(v) for v in views]
    for _q, h, w, c, _n in heads:
        if not (h and w and c):
            raise ValueError(f"SJPG image has no pixels: {h}x{w}x{c}")
    lens = [len(v) - _HDR.size for v in views]
    channels, ntoks = [hd[3] for hd in heads], [hd[4] for hd in heads]
    # One past each plane's last coefficient.
    plane_ends = list(itertools.accumulate(
        -(-h // 8) * -(-w // 8) * 64 for _q, h, w, c, _n in heads for _ in range(c)
    ))
    if not plane_ends:
        return heads, np.empty(0, dtype=np.uint8)
    ncoef = plane_ends[-1]

    # 1. Varints.  Bodies go end to end into one buffer; every token ends at
    # a byte with the continuation bit clear, so image i's bytes must hold
    # exactly ntoks[i] such bytes, the last one final.
    nbytes, ntok = sum(lens), sum(ntoks)
    buf = arena.get("sjpg.bytes", nbytes, np.uint8)
    ends = list(itertools.accumulate(lens))
    for v, n, end in zip(views, lens, ends):
        buf[end - n : end] = v[_HDR.size :]
    cont = arena.get("sjpg.cont", nbytes, np.bool_)
    np.greater_equal(buf, 0x80, out=cont)
    cont_at = np.flatnonzero(cont)
    before = 0
    for n, end, count, cut in zip(lens, ends, ntoks, np.searchsorted(cont_at, ends).tolist()):
        if n - (cut - before) != count or (n and cont[end - 1]):
            finals = np.flatnonzero(buf[end - n : end] < 0x80)
            if len(finals) < count:
                raise ValueError("truncated varint stream")
            last = int(finals[count - 1]) if count else -1
            raise ValueError(f"{n - last - 1} trailing bytes in varint stream")
        before = cut
    # Continuation byte k belongs to token cont_at[k] - k (the number of
    # terminal bytes before it).  LEB128 is little-endian: the terminal byte
    # holds a token's top 7 bits, so a token is rebuilt from there down,
    # shifting in one continuation byte per level, nearest first.
    tok_of = cont_at - np.arange(len(cont_at))
    levels = []
    level = np.flatnonzero(~cont[cont_at + 1])  # every token's last continuation byte
    while len(level):
        levels.append(level)
        if len(levels) == 10:  # a 64-bit zigzag value is at most 10 LEB128 bytes
            raise ValueError("varint exceeds 64 bits")
        level = level[level > 0] - 1
        level = level[tok_of[level] == tok_of[level + 1]]
    wide = np.uint32 if len(levels) < 4 else np.uint64
    u = arena.get("sjpg.u", ntok, wide)
    np.copyto(u, buf[np.logical_not(cont, out=cont)] if levels else buf)
    if levels:
        payload = (buf[cont_at] & 0x7F).astype(wide)
        for level in levels:
            tok = tok_of[level]
            u[tok] = (u[tok] << 7) | payload[level]
    # Zigzag decode in place: (u >> 1) ^ -(u & 1), read back as signed.
    low = arena.get("sjpg.low", ntok, wide)
    np.bitwise_and(u, 1, out=low)
    np.negative(low, out=low)
    np.right_shift(u, 1, out=u)
    np.bitwise_xor(u, low, out=u)
    tokens = u.view(np.int32 if wide is np.uint32 else np.int64)

    # 2. Positions.  Exactly one terminator per channel, the last closing
    # its image's stream; then one cumsum places every pair.
    runs, values = tokens[0::2], tokens[1::2]
    npairs = ntok // 2
    is_term = arena.get("sjpg.term", npairs, np.bool_)
    np.equal(values, 0, out=is_term)
    term_at = np.flatnonzero(is_term)
    last_term = np.cumsum(channels) - 1
    pair_ends = np.cumsum(ntoks) // 2
    if (any(n % 2 for n in ntoks) or len(term_at) != len(plane_ends)
            or not np.array_equal(term_at[last_term], pair_ends - 1)):
        start = 0
        for n, c in zip(ntoks, channels):
            end = start + n // 2
            found = int(np.count_nonzero((term_at >= start) & (term_at < end)))
            if found < c:
                raise ValueError("token stream is missing channel terminators")
            if found > c or n % 2 or term_at[term_at < end].max() != end - 1:
                raise ValueError("token stream continues past its last channel terminator")
            start = end
    if runs.min() < 0:
        raise ValueError("negative RLE run")
    if runs.max() > ncoef:
        raise ValueError("RLE stream overruns coefficient array")
    pos = arena.get("sjpg.pos", npairs, np.intp)
    np.add(runs, 1, out=pos)
    pos[term_at] -= 1  # a terminator's run is its channel's trailing zeros
    pos[0] -= 1  # 0-based: a pair's value lands at pos[k] after the cumsum
    np.cumsum(pos, out=pos)
    plane_last = np.array(plane_ends) - 1
    ends_at = pos[term_at]
    if not np.array_equal(ends_at, plane_last):
        bad = np.flatnonzero(ends_at != plane_last)[0]
        if ends_at[bad] > plane_last[bad]:
            raise ValueError("RLE stream overruns coefficient array")
        raise ValueError("RLE stream ends short of its channel's coefficients")
    pos[term_at] = ncoef  # terminators write their 0 into the zero pad block

    # 3. Scatter, in zigzag order, into (blocks + 1 zero pad block, 64).
    coef = arena.get("sjpg.coef", ncoef + 64, np.float32)
    coef.fill(0)
    vals = arena.get("sjpg.vals", npairs, np.float32)
    np.copyto(vals, values, casting="same_kind")
    coef[pos] = vals

    # 4. One GEMM per run of equal quality (one for a training batch).  A
    # one-row product would take BLAS's gemv path, which rounds differently
    # from gemm: every product gets at least two rows, the pad block if
    # need be, so an image decodes to the same pixels in any batch.
    blocks = coef.reshape(-1, 64)
    pix = arena.get("sjpg.pix", ncoef + 64, np.float32).reshape(-1, 64)
    b0 = 0
    for quality, group in itertools.groupby(heads, key=lambda hd: hd[0]):
        b1 = b0 + sum(c * -(-h // 8) * -(-w // 8) for _q, h, w, c, _n in group)
        top = max(b1, b0 + 2)
        np.matmul(blocks[b0:top], _idct_matrix(quality), out=pix[b0:top])
        b0 = b1

    # 5. Round, clip to int8, +128 as a bit flip, then blocks to planes: an
    # 8-pixel block row is one 8-byte word, so that is a shuffle of words.
    flat = pix.reshape(-1)[:ncoef]
    np.rint(flat, out=flat)
    np.clip(flat, -128, 127, out=flat)
    blk = arena.get("sjpg.blocks", ncoef, np.int8)
    np.copyto(blk, flat, casting="unsafe")
    words = blk.view(np.uint64)
    np.bitwise_xor(words, np.uint64(0x8080808080808080), out=words)
    planes = arena.get("sjpg.planes", ncoef, np.uint8)
    rows = planes.view(np.uint64)
    w0 = 0
    for (h, w), group in itertools.groupby(heads, key=lambda hd: hd[1:3]):
        nbx = -(-w // 8)
        w1 = w0 + sum(c for *_, c, _n in group) * -(-h // 8) * nbx * 8
        rows[w0:w1].reshape(-1, 8, nbx)[...] = words[w0:w1].reshape(-1, nbx, 8).transpose(0, 2, 1)
        w0 = w1
    return heads, planes


def sjpg_decode_batch(datas) -> list[np.ndarray]:
    """Decode many SJPG images to HxWxC uint8 arrays in one kernel pass.

    Images may differ in size, channels and quality; each decodes to the
    same pixels as :func:`sjpg_decode` would give it alone.  Consecutive
    images of one geometry are copied out of the planes in one transpose.
    """
    images: list[np.ndarray] = []
    with scratch_arena() as arena:
        heads, planes = sjpg_decode_planes(datas, arena)
        p0 = 0
        for (h, w, c), group in itertools.groupby(heads, key=lambda hd: hd[1:4]):
            k = len(list(group))
            hh, ww = -(-h // 8) * 8, -(-w // 8) * 8
            p1 = p0 + k * c * hh * ww
            images.extend(planes[p0:p1].reshape(k, c, hh, ww).transpose(0, 2, 3, 1)[:, :h, :w].copy())
            p0 = p1
    return images


def sjpg_decode(data: bytes) -> np.ndarray:
    """Decode SJPG bytes back to an HxWxC uint8 image (a batch of one)."""
    return sjpg_decode_batch([data])[0]


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio between two uint8 images, in dB."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(255.0**2 / mse))
