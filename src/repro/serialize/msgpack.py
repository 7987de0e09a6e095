"""MessagePack encoder/decoder implemented from scratch.

Wire-format reference: https://github.com/msgpack/msgpack/blob/master/spec.md

Supported types (everything EMLIO payloads need, in every width variant):

=============  =====================================================
Python type    MessagePack encodings
=============  =====================================================
None           nil (0xc0)
bool           false/true (0xc2/0xc3)
int            positive fixint, negative fixint, uint8/16/32/64,
               int8/16/32/64
float          float64 (0xcb); float32 (0xca) decoded
str            fixstr, str8/16/32 (UTF-8)
bytes          bin8/16/32
list/tuple     fixarray, array16/32
dict           fixmap, map16/32
=============  =====================================================

Encoding is single-pass into a ``bytearray``; decoding is zero-copy for
``bytes`` payloads via ``memoryview`` slicing until the final ``bytes()``
materialization.  Big-endian ints/floats are packed with :mod:`struct`, as
the spec requires.  ``unpackb(data, zero_copy=True)`` returns
``memoryview`` slices of ``data`` for bin payloads instead of
materializing ``bytes`` — the caller owns ``data``'s lifetime.

Records on disk, the storage-server protocol and a batch's ``meta`` map
use this codec; the batch header itself is a fixed binary layout (see
:mod:`repro.serialize.payload`).
"""

from __future__ import annotations

import struct
from typing import Any

__all__ = ["packb", "unpackb", "UnpackError"]

class UnpackError(ValueError):
    """Raised on malformed or truncated MessagePack input."""


#: Deepest container nesting :func:`unpackb` accepts.  The decoder recurses
#: per level, so without a bound garbage can overflow the stack.
_MAX_DEPTH = 128


def _byte_view(buf) -> memoryview:
    """A flat byte view of any C-contiguous buffer (typed arrays → bytes)."""
    view = memoryview(buf)
    return view if view.ndim == 1 and view.itemsize == 1 else view.cast("B")


# -- encoding ----------------------------------------------------------------

_pack_u8 = struct.Struct(">B").pack
_pack_u16 = struct.Struct(">H").pack
_pack_u32 = struct.Struct(">I").pack
_pack_u64 = struct.Struct(">Q").pack
_pack_i8 = struct.Struct(">b").pack
_pack_i16 = struct.Struct(">h").pack
_pack_i32 = struct.Struct(">i").pack
_pack_i64 = struct.Struct(">q").pack
_pack_f64 = struct.Struct(">d").pack


def _encode(obj: Any, out: bytearray) -> None:
    """Encode ``obj`` by appending to ``out``."""
    if obj is None:
        out.append(0xC0)
    elif obj is True:
        out.append(0xC3)
    elif obj is False:
        out.append(0xC2)
    elif isinstance(obj, int):
        _encode_int(obj, out)
    elif isinstance(obj, float):
        out.append(0xCB)
        out += _pack_f64(obj)
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        n = len(data)
        if n <= 0x1F:
            out.append(0xA0 | n)
        elif n <= 0xFF:
            out.append(0xD9)
            out += _pack_u8(n)
        elif n <= 0xFFFF:
            out.append(0xDA)
            out += _pack_u16(n)
        else:
            out.append(0xDB)
            out += _pack_u32(n)
        out += data
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        if isinstance(obj, memoryview):
            obj = _byte_view(obj)
        n = len(obj)
        _bin_header(n, out)
        out += obj  # bytearray += accepts any buffer, one copy
    elif isinstance(obj, (list, tuple)):
        n = len(obj)
        if n <= 0x0F:
            out.append(0x90 | n)
        elif n <= 0xFFFF:
            out.append(0xDC)
            out += _pack_u16(n)
        else:
            out.append(0xDD)
            out += _pack_u32(n)
        for item in obj:
            _encode(item, out)
    elif isinstance(obj, dict):
        n = len(obj)
        if n <= 0x0F:
            out.append(0x80 | n)
        elif n <= 0xFFFF:
            out.append(0xDE)
            out += _pack_u16(n)
        else:
            out.append(0xDF)
            out += _pack_u32(n)
        for k, v in obj.items():
            _encode(k, out)
            _encode(v, out)
    else:
        # Typed-array fast path: anything exposing a C-contiguous buffer
        # (a numpy vector) encodes as one bin with no per-element Python
        # work.
        try:
            view = memoryview(obj).cast("B")
        except TypeError:
            raise TypeError(f"cannot msgpack-serialize {type(obj).__name__}") from None
        _encode(view, out)


def _bin_header(n: int, out: bytearray) -> None:
    if n <= 0xFF:
        out.append(0xC4)
        out += _pack_u8(n)
    elif n <= 0xFFFF:
        out.append(0xC5)
        out += _pack_u16(n)
    else:
        out.append(0xC6)
        out += _pack_u32(n)


def _encode_int(v: int, out: bytearray) -> None:
    if v >= 0:
        if v <= 0x7F:
            out.append(v)
        elif v <= 0xFF:
            out.append(0xCC)
            out += _pack_u8(v)
        elif v <= 0xFFFF:
            out.append(0xCD)
            out += _pack_u16(v)
        elif v <= 0xFFFFFFFF:
            out.append(0xCE)
            out += _pack_u32(v)
        elif v <= 0xFFFFFFFFFFFFFFFF:
            out.append(0xCF)
            out += _pack_u64(v)
        else:
            raise OverflowError(f"int too large for msgpack: {v}")
    else:
        if v >= -32:
            out.append(v & 0xFF)  # negative fixint
        elif v >= -(1 << 7):
            out.append(0xD0)
            out += _pack_i8(v)
        elif v >= -(1 << 15):
            out.append(0xD1)
            out += _pack_i16(v)
        elif v >= -(1 << 31):
            out.append(0xD2)
            out += _pack_i32(v)
        elif v >= -(1 << 63):
            out.append(0xD3)
            out += _pack_i64(v)
        else:
            raise OverflowError(f"int too small for msgpack: {v}")


def packb(obj: Any) -> bytes:
    """Serialize ``obj`` to MessagePack bytes."""
    out = bytearray()
    _encode(obj, out)
    return bytes(out)


# -- decoding ----------------------------------------------------------------

_unpack_u16 = struct.Struct(">H").unpack_from
_unpack_u32 = struct.Struct(">I").unpack_from
_unpack_u64 = struct.Struct(">Q").unpack_from
_unpack_i8 = struct.Struct(">b").unpack_from
_unpack_i16 = struct.Struct(">h").unpack_from
_unpack_i32 = struct.Struct(">i").unpack_from
_unpack_i64 = struct.Struct(">q").unpack_from
_unpack_f32 = struct.Struct(">f").unpack_from
_unpack_f64 = struct.Struct(">d").unpack_from


class _Decoder:
    __slots__ = ("buf", "pos", "n", "zero_copy", "depth")

    def __init__(self, data: bytes | bytearray | memoryview, zero_copy: bool = False) -> None:
        self.buf = memoryview(data)
        self.pos = 0
        self.n = len(self.buf)
        self.zero_copy = zero_copy
        self.depth = 0

    def _bin(self, k: int) -> bytes | memoryview:
        if self.zero_copy:
            return self._take(k)
        return bytes(self._take(k))

    def _need(self, k: int) -> None:
        if self.pos + k > self.n:
            raise UnpackError(
                f"truncated input: need {k} bytes at offset {self.pos}, have {self.n - self.pos}"
            )

    def _take(self, k: int) -> memoryview:
        self._need(k)
        mv = self.buf[self.pos : self.pos + k]
        self.pos += k
        return mv

    def _str(self, k: int) -> str:
        try:
            return str(self._take(k), "utf-8")
        except UnicodeDecodeError as err:
            raise UnpackError(f"str at offset {self.pos - k} is not UTF-8: {err.reason}") from None

    def _nest(self) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise UnpackError(
                f"msgpack object nests too deeply: over {_MAX_DEPTH} levels at offset {self.pos}"
            )

    def _decode_array(self, count: int) -> list:
        self._nest()
        out = [self.decode() for _ in range(count)]
        self.depth -= 1
        return out

    def decode(self) -> Any:
        self._need(1)
        tag = self.buf[self.pos]
        self.pos += 1

        if tag <= 0x7F:  # positive fixint
            return tag
        if tag >= 0xE0:  # negative fixint
            return tag - 0x100
        if 0xA0 <= tag <= 0xBF:  # fixstr
            return self._str(tag & 0x1F)
        if 0x90 <= tag <= 0x9F:  # fixarray
            return self._decode_array(tag & 0x0F)
        if 0x80 <= tag <= 0x8F:  # fixmap
            return self._decode_map(tag & 0x0F)

        if tag == 0xC0:
            return None
        if tag == 0xC2:
            return False
        if tag == 0xC3:
            return True
        if tag == 0xCC:
            return self._take(1)[0]
        if tag == 0xCD:
            return _unpack_u16(self._take(2))[0]
        if tag == 0xCE:
            return _unpack_u32(self._take(4))[0]
        if tag == 0xCF:
            return _unpack_u64(self._take(8))[0]
        if tag == 0xD0:
            return _unpack_i8(self._take(1))[0]
        if tag == 0xD1:
            return _unpack_i16(self._take(2))[0]
        if tag == 0xD2:
            return _unpack_i32(self._take(4))[0]
        if tag == 0xD3:
            return _unpack_i64(self._take(8))[0]
        if tag == 0xCA:
            return _unpack_f32(self._take(4))[0]
        if tag == 0xCB:
            return _unpack_f64(self._take(8))[0]
        if tag == 0xC4:
            return self._bin(self._take(1)[0])
        if tag == 0xC5:
            return self._bin(_unpack_u16(self._take(2))[0])
        if tag == 0xC6:
            return self._bin(_unpack_u32(self._take(4))[0])
        if tag == 0xD9:
            return self._str(self._take(1)[0])
        if tag == 0xDA:
            return self._str(_unpack_u16(self._take(2))[0])
        if tag == 0xDB:
            return self._str(_unpack_u32(self._take(4))[0])
        if tag == 0xDC:
            return self._decode_array(_unpack_u16(self._take(2))[0])
        if tag == 0xDD:
            return self._decode_array(_unpack_u32(self._take(4))[0])
        if tag == 0xDE:
            return self._decode_map(_unpack_u16(self._take(2))[0])
        if tag == 0xDF:
            return self._decode_map(_unpack_u32(self._take(4))[0])
        raise UnpackError(f"unsupported msgpack tag 0x{tag:02x} at offset {self.pos - 1}")

    def _decode_map(self, count: int) -> dict:
        """Decode ``count`` key/value pairs into a dict.

        A container key (list/map) is valid msgpack but unhashable in
        Python; garbage input can produce one, and it must surface as a
        controlled :class:`UnpackError`, not a ``TypeError``.
        """
        self._nest()
        out = {}
        for _ in range(count):
            key = self.decode()
            value = self.decode()
            try:
                out[key] = value
            except TypeError:
                raise UnpackError(
                    f"unhashable msgpack map key of type {type(key).__name__}"
                ) from None
        self.depth -= 1
        return out


def unpackb(data: bytes | bytearray | memoryview, zero_copy: bool = False) -> Any:
    """Deserialize one MessagePack object; reject trailing garbage.

    Malformed input of any kind — truncated, an unknown tag, a str that is
    not UTF-8, containers nested past :data:`_MAX_DEPTH` — raises
    :class:`UnpackError`.

    With ``zero_copy=True``, bin payloads come back as ``memoryview``
    slices of ``data`` instead of ``bytes`` copies.  The caller must keep
    ``data`` alive (and unmutated) for as long as those views are used —
    on the hot path that lifetime is managed by
    :class:`repro.net.buffers.PooledBuffer`.
    """
    dec = _Decoder(data, zero_copy)
    obj = dec.decode()
    if dec.pos != dec.n:
        raise UnpackError(f"{dec.n - dec.pos} trailing bytes after msgpack object")
    return obj
