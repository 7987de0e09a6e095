"""CRC-32C (Castagnoli) as a batch numpy kernel, plus TFRecord masking.

TFRecord frames each length and data field with a *masked* CRC-32C:

    mask(crc) = ((crc >> 15) | (crc << 17)) + 0xa282ead8   (mod 2**32)

Two implementations:

* byte-at-a-time (:func:`crc32c_reference`) — the test oracle, and the
  path for buffers too small to amortise a numpy call;
* :func:`crc32c_many` — every span of a batch checksummed together with
  whole-array numpy operations.

Why the batch kernel works: the CRC register update
``s' = T[(s ^ b) & 0xff] ^ (s >> 8)`` is linear over GF(2) in ``(s, b)``
jointly, so with a **zero** initial state

* the CRC of a buffer is the xor of each byte's own contribution, and a
  byte's contribution depends only on its value and on how many bytes
  follow it;
* leading zero bytes contribute nothing, so a record can be front-padded
  to whole fixed-width *lanes* that all end where the record ends;
* running a state through ``k`` more zero bytes is a linear map of its 32
  bits, i.e. four 256-entry table lookups (one per state byte) xor-ed.

A span is therefore copied, front-padded, into ``_LANE``-byte lanes; one
gather through the per-byte-position table ``_POS_TABLE`` and an
xor-reduce give each lane's CRC as if it stood alone; the real initial
state ``0xffffffff``, run through the data bytes of the span's first lane,
is xor-ed into that lane; four gathers through ``_LANE_SHIFT[d]`` move
each lane's value ``d`` lanes forward to the span's end; an xor-reduce per
span joins them.  Spans longer than ``_SEGMENT`` bytes are cut into
segments from the end and joined with the ``crc32_combine`` identity
``crc(A‖B) = shift_|B|(crc(A)) ^ crc(B)``, so the kernel is total.
Tables: 128 KiB (position) + 196 KiB (lane shift).  On the 2-vCPU sandbox
it checksums an 8 × 4 KiB batch at ~350 MB/s and a 1 MiB buffer at
~400 MB/s (the byte-wise loop: ~10 MB/s);
``benchmarks/bench_micro_components.py`` (``crc32c`` component) gates it.
"""

from __future__ import annotations

import numpy as np

from repro.util.arena import scratch_arena

_POLY = 0x82F63B78  # reflected CRC-32C polynomial
_MASK_DELTA = 0xA282EAD8
_INIT = 0xFFFFFFFF

#: Bytes per lane (width of the position table).
_LANE = 128
#: Lanes per segment; a span longer than ``_SEGMENT`` bytes is split.
_SEGMENT_LANES = 48
_SEGMENT = _LANE * _SEGMENT_LANES
#: Lanes gathered per pass (40 KiB: one served batch of 8 x 4 KiB records),
#: however much is checksummed in one call (a whole shard at open).
_PASS_LANES = 320
#: Below this many bytes a lone buffer is cheaper byte by byte.
_KERNEL_MIN_BYTES = 256


def _make_table() -> list[int]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ (_POLY if crc & 1 else 0)
        table.append(crc)
    return table


_TABLE = _make_table()


def _crc_update_bytewise(data: bytes, crc: int) -> int:
    table = _TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc


#: Little-endian on every host: the lane shift reads a state's four bytes
#: through a uint8 view.
_U32 = np.dtype("<u4")


def _make_kernel_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    step = np.asarray(_TABLE, dtype=_U32)
    # pos[j][b]: CRC (zero init) of byte b followed by _LANE-1-j zero bytes.
    pos = np.empty((_LANE, 256), dtype=_U32)
    pos[-1] = step
    for j in range(_LANE - 1, 0, -1):
        pos[j - 1] = step[pos[j] & 0xFF] ^ (pos[j] >> 8)
    # shift[d][i][b]: the state ``b << 8*i`` run through d lanes of zeros.
    shift = np.empty((_SEGMENT_LANES + 1, 4, 256), dtype=_U32)
    byte = np.arange(256, dtype=_U32)
    shift[0] = byte[None, :] << (8 * np.arange(4, dtype=_U32))[:, None]
    one_lane = shift[0]
    for _ in range(_LANE):
        one_lane = step[one_lane & 0xFF] ^ (one_lane >> 8)
    for d in range(_SEGMENT_LANES):
        s = shift[d]
        shift[d + 1] = (
            one_lane[0][s & 0xFF]
            ^ one_lane[1][(s >> 8) & 0xFF]
            ^ one_lane[2][(s >> 16) & 0xFF]
            ^ one_lane[3][s >> 24]
        )
    # init[j]: the initial state run through j zero bytes, j <= _LANE.
    init = np.empty(_LANE + 1, dtype=_U32)
    crc = _INIT
    for j in range(_LANE + 1):
        init[j] = crc
        crc = _TABLE[crc & 0xFF] ^ (crc >> 8)
    return pos.reshape(-1), shift.reshape(-1), init


_POS_TABLE, _LANE_SHIFT, _INIT_SHIFT = _make_kernel_tables()
_POS_OFFSETS = np.arange(_LANE, dtype=np.intp) * 256
_BYTE_OFFSETS = np.arange(4, dtype=np.intp) * 256
#: Scalar form of "one whole segment of zeros", for joining long spans.
_SEGMENT_SHIFT = _LANE_SHIFT.reshape(-1, 4, 256)[_SEGMENT_LANES].tolist()


def _crc_pass(
    src: np.ndarray, starts: list[int], ends: list[int], lanes_per: list[int]
) -> np.ndarray:
    """Finished CRC of each span; span ``i`` is at most ``_SEGMENT`` bytes
    and is given ``lanes_per[i]`` >= 1 lanes.

    The per-span geometry is plain Python on purpose: a served batch is a
    dozen spans, and a dozen numpy calls on 16-element arrays cost more
    than these loops (far more once the instruction cache has gone cold).
    """
    row_start: list[int] = []  # each span's first lane
    head: list[int] = []  # data bytes in that lane (the rest is padding)
    to_end: list[int] = []  # per lane: lanes between it and its span's end
    rows = 0
    for s, e, lanes in zip(starts, ends, lanes_per):
        row_start.append(rows)
        head.append(e - s - (lanes - 1) * _LANE)
        to_end.extend(range(lanes - 1, -1, -1))
        rows += lanes
    # Scratch (13 bytes per padded byte, ~0.5 MB at a full pass) comes from
    # an arena: arrays this size sit right at glibc's mmap/trim thresholds,
    # where malloc maps, faults and unmaps them on every call (2.3x the
    # whole kernel's time under default settings).
    size = rows * _LANE
    with scratch_arena() as arena:
        padded = arena.get("crc.padded", size, np.uint8)
        padded.fill(0)
        for s, e, stop in zip(starts, ends, row_start[1:] + [rows]):
            stop *= _LANE
            padded[stop - (e - s) : stop] = src[s:e]
        # Indices are in range by construction; "wrap" only skips the check.
        idx = np.add(
            padded.reshape(rows, _LANE),
            _POS_OFFSETS,
            out=arena.get("crc.idx", size, np.intp).reshape(rows, _LANE),
        )
        contrib = _POS_TABLE.take(
            idx, mode="wrap", out=arena.get("crc.contrib", size, _U32).reshape(rows, _LANE)
        )
        lane_crc = np.bitwise_xor.reduce(contrib, axis=1)
    # The initial state rides in each span's first lane, run through the
    # data bytes that lane holds; the lane shift below does the rest.
    lane_crc[row_start] ^= _INIT_SHIFT[head]
    idx = lane_crc.view(np.uint8).reshape(rows, 4) + (
        np.array(to_end, dtype=np.intp)[:, None] * 1024 + _BYTE_OFFSETS
    )
    at_end = np.bitwise_xor.reduce(_LANE_SHIFT.take(idx, mode="wrap"), axis=1)
    return np.bitwise_xor.reduceat(at_end, row_start) ^ _U32.type(_INIT)


def crc32c_many(buf, starts, ends) -> np.ndarray:
    """CRC-32C (unmasked) of every ``buf[starts[i]:ends[i]]``, as uint32.

    The spans may overlap, repeat, be empty, and have any mix of lengths;
    they are checksummed together (see the module docstring).
    """
    src = np.frombuffer(memoryview(buf).cast("B"), dtype=np.uint8)
    starts = starts.tolist() if isinstance(starts, np.ndarray) else list(starts)
    ends = ends.tolist() if isinstance(ends, np.ndarray) else list(ends)
    if len(starts) != len(ends):
        raise ValueError("starts and ends must be equal-length sequences")
    size = len(src)
    # Segments of at most _SEGMENT bytes.  A longer span is cut from the
    # end, so every segment but its first is exactly _SEGMENT bytes and one
    # fixed shift joins finished CRCs: crc(A‖B) = shift_|B|(crc(A)) ^ crc(B).
    seg_starts: list[int] = []
    seg_ends: list[int] = []
    seg_lanes: list[int] = []
    first: list[int] = []  # each span's first segment
    passes = [0]  # segment index where each kernel pass starts
    pass_lanes = 0
    for s, e in zip(starts, ends):
        if not 0 <= s <= e <= size:
            raise ValueError(f"span [{s}, {e}) outside the {size}-byte buffer")
        first.append(len(seg_starts))
        cut = s + (e - s) % _SEGMENT if e - s > _SEGMENT else e
        while True:
            lanes = -((s - cut) // _LANE) or 1
            pass_lanes += lanes
            if pass_lanes > _PASS_LANES and len(seg_starts) > passes[-1]:
                passes.append(len(seg_starts))
                pass_lanes = lanes
            seg_starts.append(s)
            seg_ends.append(cut)
            seg_lanes.append(lanes)
            if cut == e:
                break
            s, cut = cut, cut + _SEGMENT
    if not seg_starts:
        return np.empty(0, dtype=_U32)
    passes.append(len(seg_starts))
    parts = [
        _crc_pass(src, seg_starts[lo:hi], seg_ends[lo:hi], seg_lanes[lo:hi])
        for lo, hi in zip(passes, passes[1:])
    ]
    crcs = parts[0] if len(parts) == 1 else np.concatenate(parts)
    if len(seg_starts) == len(starts):
        return crcs
    part = crcs.tolist()
    t0, t1, t2, t3 = _SEGMENT_SHIFT
    out = np.empty(len(starts), dtype=_U32)
    for i, (lo, hi) in enumerate(zip(first, first[1:] + [len(part)])):
        crc = part[lo]
        for k in range(lo + 1, hi):
            crc = t0[crc & 0xFF] ^ t1[(crc >> 8) & 0xFF] ^ t2[(crc >> 16) & 0xFF] ^ t3[crc >> 24] ^ part[k]
        out[i] = crc
    return out


def first_crc_mismatch(buf, starts, ends, masked) -> int:
    """Index of the first span whose *masked* CRC differs from ``masked[i]``.

    Returns ``-1`` when every span verifies — the one call the TFRecord
    verify paths make per batch of records.
    """
    for i, (crc, want) in enumerate(zip(crc32c_many(buf, starts, ends).tolist(), masked)):
        if (((crc >> 15) | (crc << 17)) + _MASK_DELTA) & 0xFFFFFFFF != want:
            return i
    return -1


def crc32c(data: bytes | bytearray | memoryview) -> int:
    """CRC-32C of ``data`` (unmasked)."""
    mv = memoryview(data).cast("B")
    if len(mv) < _KERNEL_MIN_BYTES:
        return crc32c_reference(mv)
    return int(crc32c_many(mv, (0,), (len(mv),))[0])


def crc32c_reference(data: bytes | bytearray | memoryview) -> int:
    """Byte-at-a-time CRC-32C: the oracle the kernel is tested against."""
    return _crc_update_bytewise(bytes(memoryview(data).cast("B")), _INIT) ^ _INIT


def masked_crc32c(data: bytes | bytearray | memoryview) -> int:
    """TFRecord's masked CRC: rotate right 15 and add the mask delta."""
    crc = crc32c(data)
    return (((crc >> 15) | (crc << 17)) + _MASK_DELTA) & 0xFFFFFFFF


def unmask_crc32c(masked: int) -> int:
    """Inverse of the TFRecord mask (used by validation tooling)."""
    rot = (masked - _MASK_DELTA) & 0xFFFFFFFF
    return ((rot << 15) | (rot >> 17)) & 0xFFFFFFFF
