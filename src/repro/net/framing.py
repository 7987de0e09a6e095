"""Length-prefixed frames over stream sockets.

Wire format: ``u32 big-endian length`` followed by ``length`` payload bytes.
A length of 0 is a valid (empty) frame.  ``MAX_FRAME`` guards against a
corrupted length prefix making us allocate gigabytes.

The zero-copy hot path (paper §4.1) uses the scatter-gather variants:
:func:`send_frame_parts` hands header + payload segments to
``socket.sendmsg`` in one syscall — the legacy two-``sendall`` shape
emitted a separate 4-byte packet under ``TCP_NODELAY`` — and
:func:`recv_frame_into` fills a caller-owned (pooled) buffer instead of
materializing fresh ``bytes`` per frame.

Frame payload sizes are what the send/recv trace spans record as
``nbytes`` (:mod:`repro.obs.trace`).
"""

from __future__ import annotations

import socket
import struct
from typing import Sequence

_LEN = struct.Struct(">I")

MAX_FRAME = 256 * 1024 * 1024  # 256 MiB

#: Cap on iovec entries per ``sendmsg`` call.  POSIX guarantees IOV_MAX >=
#: 16; Linux allows 1024.  64 keeps us portable while still batching any
#: realistic frame (header + per-sample spill segments) into 1-2 syscalls.
_IOV_BATCH = 64

_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")


class ConnectionClosed(ConnectionError):
    """Peer closed the connection at a frame boundary (clean EOF)."""


def send_frame(sock: socket.socket, payload: bytes | bytearray | memoryview) -> None:
    """Send one frame; partial writes are handled internally."""
    send_frame_parts(sock, (payload,))


def send_frame_parts(
    sock: socket.socket, parts: Sequence[bytes | bytearray | memoryview]
) -> int:
    """Send one frame whose payload is the concatenation of ``parts``.

    Header and payload segments go out through ``socket.sendmsg`` so the
    whole frame is one syscall (and one TCP segment when it fits) —
    no copy, no separate header packet.  Returns the payload length.
    """
    total = 0
    for p in parts:
        total += len(p)
    if total > MAX_FRAME:
        raise ValueError(f"frame of {total} bytes exceeds MAX_FRAME ({MAX_FRAME})")
    segs: list[bytes | bytearray | memoryview] = [_LEN.pack(total)]
    for p in parts:
        if len(p):
            segs.append(p)
    _sendmsg_all(sock, segs)
    return total


def _sendmsg_all(sock: socket.socket, segs: list) -> None:
    """``sendmsg`` the segments fully, resuming after partial sends."""
    if not _HAS_SENDMSG:  # exotic platforms: degrade to sequential sendall
        for seg in segs:
            sock.sendall(seg)
        return
    # Normalize to memoryviews once so partial-send resume can slice.
    iov = [m if isinstance(m, memoryview) else memoryview(m) for m in segs]
    i = 0
    while i < len(iov):
        sent = sock.sendmsg(iov[i : i + _IOV_BATCH])
        # Advance past fully-sent segments, trim a partially-sent one.
        while sent:
            n = len(iov[i])
            if sent >= n:
                sent -= n
                i += 1
            else:
                iov[i] = iov[i][sent:]
                sent = 0


def _recv_into(sock: socket.socket, view: memoryview, n: int) -> None:
    """Fill ``view[:n]`` from the socket or raise on EOF/drop."""
    got = 0
    while got < n:
        k = sock.recv_into(view[got:n], n - got)
        if k == 0:
            if got == 0:
                raise ConnectionClosed("peer closed connection")
            raise ConnectionError(f"connection dropped mid-frame ({got}/{n} bytes)")
        got += k


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray(n)
    _recv_into(sock, memoryview(buf), n)
    return bytes(buf)


def recv_frame(sock: socket.socket) -> bytes:
    """Receive one frame; raises :class:`ConnectionClosed` on clean EOF."""
    header = _recv_exact(sock, 4)
    (n,) = _LEN.unpack(header)
    if n > MAX_FRAME:
        raise ValueError(f"incoming frame of {n} bytes exceeds MAX_FRAME")
    if n == 0:
        return b""
    return _recv_exact(sock, n)


def recv_frame_into(sock: socket.socket, buf: bytearray) -> memoryview:
    """Receive one frame into ``buf``, growing it as needed.

    Returns a ``memoryview`` over the payload bytes (``buf[:n]``).  The
    caller owns ``buf`` — typically a pooled receive buffer that keeps its
    high-water capacity across frames, so steady state allocates nothing.
    The view aliases ``buf``: it is invalidated by the next recv into (or
    resize of) the same buffer.

    A ``bytearray`` cannot be resized while anything still exports it — a
    pooled buffer can come back while views from the previous frame it
    held are alive.  Then the frame lands in a fresh buffer instead:
    ``view.obj is not buf`` tells the caller to adopt ``view.obj`` and
    drop the exported one.
    """
    header = bytearray(4)
    _recv_into(sock, memoryview(header), 4)
    (n,) = _LEN.unpack(header)
    if n > MAX_FRAME:
        raise ValueError(f"incoming frame of {n} bytes exceeds MAX_FRAME")
    if len(buf) < n:
        try:
            buf += bytes(n - len(buf))
        except BufferError:
            buf = bytearray(n)
    view = memoryview(buf)[:n]
    if n:
        _recv_into(sock, view, n)
    return view
