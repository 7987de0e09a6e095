"""Framed, optionally latency-shaped TCP channels.

A :class:`Channel` wraps one connected socket with:

* length-prefixed framing (:mod:`repro.net.framing`);
* thread-safe ``send`` (one mutex per direction);
* optional egress emulation — when built with a
  :class:`~repro.net.emulation.NetworkProfile`, sends are routed through a
  :class:`~repro.net.emulation.DelayPipe` so the peer observes one-way
  latency and line-rate serialization without the sender blocking.

Both sides of a connection shaped with profile ``p`` observe a full
``p.rtt_s`` per request/response exchange.
"""

from __future__ import annotations

import socket
import threading
from typing import Callable, Sequence

from repro.net.emulation import DelayPipe, LinkShaper, NetworkProfile
from repro.net.framing import recv_frame, recv_frame_into, send_frame, send_frame_parts


class Channel:
    """One framed, bidirectional connection.

    The ``bytes_sent``/``bytes_received`` counters roll up through the
    push/pull sockets into the transport registry series
    (``emlio_transport_bytes_sent_total`` et al., :mod:`repro.obs.metrics`).
    """

    def __init__(self, sock: socket.socket, profile: NetworkProfile | None = None) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (e.g. AF_UNIX socketpair in tests)
        self._sock = sock
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._acct_lock = threading.Lock()  # guards the byte counters
        self._closed = False
        self.profile = profile
        self.bytes_sent = 0
        self.bytes_received = 0
        if profile is not None and (profile.rtt_s > 0 or profile.bandwidth_bps != float("inf")):
            self._shaper: LinkShaper | None = LinkShaper(profile)
            self._pipe: DelayPipe | None = DelayPipe(self._deliver, name="chan-egress")
        else:
            self._shaper = None
            self._pipe = None

    def _deliver(self, payload: bytes) -> None:
        with self._send_lock:
            send_frame(self._sock, payload)

    def send(self, payload: bytes | bytearray | memoryview) -> None:
        """Send one frame (returns as soon as the frame is queued/written)."""
        self.send_parts((payload,))

    def send_parts(self, parts: Sequence[bytes | bytearray | memoryview]) -> None:
        """Send one frame assembled from scatter-gather ``parts``.

        On the unshaped path the segments go straight to ``sendmsg`` —
        memoryviews over a daemon's mmap'ed shard are never copied.  The
        shaped path must copy once: :class:`DelayPipe` delivers
        asynchronously, after the caller may have moved on.
        """
        if self._closed:
            raise ConnectionError("send() on closed channel")
        n = sum(len(p) for p in parts)
        with self._acct_lock:
            self.bytes_sent += n
        if self._pipe is not None:
            assert self._shaper is not None
            data = parts[0] if len(parts) == 1 else b"".join(parts)
            self._pipe.submit(bytes(data), self._shaper.delay_for(n + 4))
        else:
            with self._send_lock:
                send_frame_parts(self._sock, parts)

    def send_oob(self, payload: bytes | bytearray | memoryview) -> None:
        """Send one control frame around the emulated link (no shaping delay).

        The shm handshake ack/nack is transport negotiation, not traffic on
        the modeled network, so it must not pay the link's propagation
        delay.  Ordering caveat: an OOB frame can overtake shaped frames
        still queued in the delay pipe — only use this when no earlier
        same-direction frame is in flight (e.g. the first reply on an
        accepted channel).
        """
        if self._closed:
            raise ConnectionError("send() on closed channel")
        with self._acct_lock:
            self.bytes_sent += len(payload)
        with self._send_lock:
            send_frame(self._sock, payload)

    def recv(self) -> bytes:
        """Receive one frame (blocking)."""
        with self._recv_lock:
            data = recv_frame(self._sock)
        with self._acct_lock:
            self.bytes_received += len(data)
        return data

    def recv_into(self, buf: bytearray) -> memoryview:
        """Receive one frame into ``buf`` (pooled mode); returns the payload view."""
        with self._recv_lock:
            view = recv_frame_into(self._sock, buf)
        with self._acct_lock:
            self.bytes_received += len(view)
        return view

    def shutdown_write(self) -> None:
        """Send EOF after every frame sent so far; receiving goes on."""
        if self._pipe is not None:
            self._pipe.close(drain=True)
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def close(self) -> None:
        """Release resources."""
        if self._closed:
            return
        self._closed = True
        if self._pipe is not None:
            self._pipe.close(drain=True)
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "Channel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Listener:
    """TCP listener producing :class:`Channel` objects.

    The profile given here shapes the *server→client* direction of accepted
    channels; clients shape their own egress.  A loopback connection shaped
    on both ends therefore experiences the full RTT per round trip.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        profile: NetworkProfile | None = None,
        backlog: int = 64,
    ) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)
        self.profile = profile
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` address."""
        return self._sock.getsockname()

    @property
    def port(self) -> int:
        """Bound TCP port."""
        return self.address[1]

    def accept(self, timeout: float | None = None) -> Channel:
        self._sock.settimeout(timeout)
        sock, _addr = self._sock.accept()
        return Channel(sock, profile=self.profile)

    def serve_forever(self, handler: Callable[[Channel], None]) -> threading.Thread:
        """Spawn a daemon thread accepting connections into ``handler``."""

        def loop() -> None:
            while not self._closed:
                try:
                    chan = self.accept()
                except OSError:
                    return  # listener closed
                threading.Thread(
                    target=handler, args=(chan,), daemon=True, name="chan-handler"
                ).start()

        t = threading.Thread(target=loop, daemon=True, name="chan-accept")
        t.start()
        return t

    def close(self) -> None:
        """Release resources.  Shutting the socket down first wakes a
        ``serve_forever`` thread blocked in ``accept()``, which ``close()``
        alone does not."""
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed, or never listening
        self._sock.close()

    def __enter__(self) -> "Listener":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect_channel(
    host: str,
    port: int,
    profile: NetworkProfile | None = None,
    timeout: float = 10.0,
) -> Channel:
    """Connect to a listener; ``profile`` shapes the client→server direction."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return Channel(sock, profile=profile)
