"""Shared-memory ring transport for co-located daemon→receiver pairs.

PR 6 made the TCP byte path nearly allocation-free, but a daemon and a
receiver on the *same host* still pay kernel socket round-trips, framing
syscalls, and credit messages for bytes that never leave the machine.
This module removes that tax: a single-producer/single-consumer ring
buffer over :mod:`multiprocessing.shared_memory` carries framed payloads
with in-place reads — the consumer gets a lease whose payload is a
memoryview directly over the ring, released back to the producer via a
consumption cursor instead of a credit message.

Layout (one segment per ring)::

    0   u32  magic ("EMLR")
    4   u32  capacity (data bytes)
    8   u64  write cursor   (monotonic; producer-owned)
    16  u64  read cursor    (monotonic; consumer-owned, = reclaimed bytes)
    24  u64  frames written (producer-owned)
    32  u64  frames released(consumer-owned; the credit-return equivalent)
    40  u8   producer alive
    41  u8   consumer alive
    64  ...  capacity data bytes

Frames are ``u32 length + payload``, always contiguous.  A frame that
would straddle the end of the data region is preceded by a pad: a
``0xFFFFFFFF`` wrap marker (or an implicit pad when fewer than 4 bytes
remain), and the frame restarts at offset 0.  Cursors are monotonic
64-bit byte counts; offsets are ``cursor % capacity`` and used bytes are
``write - read``, so full-vs-empty is never ambiguous.

Backpressure is HWM-equivalent by construction: the producer refuses a
write while ``frames_written - frames_released >= hwm`` (the credit
window) or while the pad + frame do not fit in the free span (the byte
bound).  Releasing a lease *is* the credit grant.

Ownership rules
---------------
* The producer creates the segment, unlinks it on close; the consumer
  attaches and closes only its own mapping.  Either side's mapping (and
  every frame view derived from it) stays valid after the other side
  closes or unlinks.
* Leases may be released out of order (reorder windows, dedup drops,
  holdovers); the shared read cursor advances only over the longest
  *released prefix* of outstanding leases, while the frame-credit count
  advances per release — so HWM room frees immediately and byte reclaim
  stays exact.
* Peer death is two signals: the alive flags in the header (clean
  close / kill) and EOF on the TCP control channel the handshake rode in
  on (hard crash).  A dead consumer turns producer sends into
  ``ConnectionError`` — the same vocabulary the daemon's failover path
  already maps to ``NodeUnreachable``.

The handshake runs over the existing TCP path (see
:class:`~repro.net.mq.PullSocket`): the producer connects normally and
sends a ``0x02`` hello frame naming the segment; the receiver proves
co-location by attaching (attach *is* the proof) and answers ``0x03``
ack or ``0x04`` nack — on nack the producer falls back to plain TCP.
After the ack the producer rings a one-byte ``0x05`` doorbell down the
same channel per published frame, so the receiver's drain loop blocks on
a socket wakeup instead of polling the ring on a scheduler-slack timer.
"""

from __future__ import annotations

import collections
import json
import os
import socket as _socket
import struct
import threading
import time
from functools import lru_cache
from multiprocessing import shared_memory
from typing import Sequence

from repro.net.channel import connect_channel
from repro.net.emulation import NetworkProfile
from repro.net.framing import ConnectionClosed

__all__ = [
    "DEFAULT_RING_BYTES",
    "RingLease",
    "RingReceiver",
    "ShmAttachError",
    "ShmHandshakeRefused",
    "ShmPushSocket",
    "ShmRing",
    "is_local_host",
    "shm_eligible",
]

#: Wire type bytes shared with :mod:`repro.net.mq` (0x00 data / 0x01 credit).
SHM_HELLO = b"\x02"
SHM_ACK = b"\x03"
SHM_NACK = b"\x04"
SHM_DOORBELL = b"\x05"

DEFAULT_RING_BYTES = 8 * 1024 * 1024
MIN_RING_BYTES = 64 * 1024

_MAGIC = 0x454D4C52  # "EMLR"
_WRAP = 0xFFFFFFFF  # length-field wrap marker: skip to the ring start
_HDR = 64
_LEN = struct.Struct("<I")
_HEAD = struct.Struct("<II")  # magic + capacity
_U64 = struct.Struct("<Q")

_OFF_WRITE = 8
_OFF_READ = 16
_OFF_FRAMES_W = 24
_OFF_FRAMES_R = 32
_OFF_PRODUCER = 40
_OFF_CONSUMER = 41

_SEND_POLL_S = 0.002  # producer back-off while the ring is full: long enough
# that a blocked writer isn't a GIL-stealing spin against the consumer that
# must run to unblock it
_CLOSE_POLL_S = 0.01  # close()'s drain-wait ceiling (consumer paces itself)
_CLOSE_POLL_MIN_S = 0.001  # drain-wait floor once the backlog is nearly gone


class ShmAttachError(RuntimeError):
    """The receiver could not attach/validate the announced segment."""


class ShmHandshakeRefused(RuntimeError):
    """The peer nacked (or never completed) the shm handshake — fall back
    to TCP; the endpoint itself is reachable."""


class RingLease:
    """Consumer-side lease on one frame's bytes inside the ring.

    Duck-compatible with :class:`~repro.net.buffers.PooledBuffer`:
    ``release()`` is idempotent and returns the frame's span to the
    producer (the credit grant); ``released`` reads the lease state.
    """

    __slots__ = ("end", "nbytes", "_ring", "_released")

    def __init__(self, ring: "ShmRing", end: int, nbytes: int) -> None:
        self.end = end  # the consumption cursor after this frame (+pads before it)
        self.nbytes = nbytes
        self._ring = ring
        self._released = False

    def release(self) -> None:
        """Return the frame's ring span to the producer (idempotent)."""
        ring, self._ring = self._ring, None
        if ring is not None:
            ring._release(self)

    @property
    def released(self) -> bool:
        """Whether the lease was already returned."""
        return self._released


class ShmRing:
    """One SPSC ring over one shared-memory segment.

    Each process uses exactly one side: :meth:`create` builds the
    producer end, :meth:`attach` the consumer end.  Producer calls:
    :meth:`try_write`, :meth:`close`.  Consumer calls: :meth:`try_read`
    (single drain thread), lease ``release()`` (any thread),
    :meth:`close`.
    """

    def __init__(self, shm: shared_memory.SharedMemory, capacity: int, role: str) -> None:
        self.shm = shm
        self.capacity = capacity
        self._buf = shm.buf
        self._role = role
        self._closed = False
        self._unlinked = role != "producer"  # only the creator owns the name
        # Consumer-side state: the private consumption cursor runs ahead
        # of the shared read cursor by exactly the outstanding leases.
        self._next = self._get(_OFF_READ)
        self._outstanding: collections.deque[RingLease] = collections.deque()
        self._lock = threading.Lock()

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(cls, capacity: int) -> "ShmRing":
        """Create the producer end (a fresh, named segment)."""
        if capacity < MIN_RING_BYTES:
            raise ValueError(f"ring capacity must be >= {MIN_RING_BYTES}, got {capacity}")
        shm = shared_memory.SharedMemory(create=True, size=_HDR + capacity)
        shm.buf[:_HDR] = bytes(_HDR)
        _HEAD.pack_into(shm.buf, 0, _MAGIC, capacity)
        shm.buf[_OFF_PRODUCER] = 1
        return cls(shm, capacity, "producer")

    @classmethod
    def attach(cls, name: str, capacity: int) -> "ShmRing":
        """Attach the consumer end to a producer-announced segment.

        A successful attach is the co-location proof the handshake rests
        on: the name only resolves on the producer's host.
        """
        try:
            shm = shared_memory.SharedMemory(name=name)
        except (OSError, ValueError) as err:
            raise ShmAttachError(f"cannot attach shm segment {name!r}: {err}") from None
        # Note: attach re-registers the name with the resource tracker;
        # that is idempotent (one tracker per process tree) and the
        # producer's unlink() unregisters it exactly once.
        magic, cap = _HEAD.unpack_from(shm.buf, 0)
        if magic != _MAGIC or cap != capacity or shm.size < _HDR + capacity:
            shm.close()
            raise ShmAttachError(
                f"shm segment {name!r} has an unexpected layout "
                f"(magic={magic:#x}, capacity={cap})"
            )
        ring = cls(shm, capacity, "consumer")
        shm.buf[_OFF_CONSUMER] = 1
        return ring

    # -- header accessors ------------------------------------------------------

    def _get(self, off: int) -> int:
        return _U64.unpack_from(self._buf, off)[0]

    def _set(self, off: int, value: int) -> None:
        _U64.pack_into(self._buf, off, value)

    @property
    def name(self) -> str:
        """The segment name (what the hello announces)."""
        return self.shm.name

    @property
    def closed(self) -> bool:
        """Whether this side's mapping was closed."""
        return self._closed

    @property
    def producer_alive(self) -> bool:
        return not self._closed and self._buf[_OFF_PRODUCER] == 1

    @property
    def consumer_alive(self) -> bool:
        return not self._closed and self._buf[_OFF_CONSUMER] == 1

    @property
    def frames_written(self) -> int:
        return self._get(_OFF_FRAMES_W)

    @property
    def frames_released(self) -> int:
        return self._get(_OFF_FRAMES_R)

    @property
    def used_bytes(self) -> int:
        """Bytes written and not yet reclaimed (pads included)."""
        return self._get(_OFF_WRITE) - self._get(_OFF_READ)

    @property
    def drained(self) -> bool:
        """Consumer side: nothing left between the write cursor and us."""
        return self._closed or self._get(_OFF_WRITE) == self._next

    # -- producer side ---------------------------------------------------------

    def try_write(self, parts: Sequence, total: int, hwm: int) -> bool:
        """Copy one frame into the ring; False when it does not fit yet.

        "Fit" is both bounds at once: fewer than ``hwm`` unreleased
        frames (the credit window) and a contiguous span for the frame
        (after an eventual pad to the ring start).  A pad may be written
        as progress even when the frame body still has to wait — the
        next attempt then starts from offset 0.
        """
        if self._closed:
            raise ConnectionError("write on a closed shm ring")
        if total > self.capacity - _LEN.size:
            raise ValueError(
                f"frame of {total} bytes exceeds the shm ring's maximum "
                f"({self.capacity - _LEN.size}); raise shm_ring_bytes or "
                f"use transport='tcp'"
            )
        if self.frames_written - self.frames_released >= hwm:
            return False
        write = self._get(_OFF_WRITE)
        free = self.capacity - (write - self._get(_OFF_READ))
        woff = write % self.capacity
        contig = self.capacity - woff
        if contig < _LEN.size + total:
            # The frame would straddle the end: pad to the ring start
            # first (explicit wrap marker when a length field fits,
            # implicit otherwise), publishing the pad as progress.
            if free < contig:
                return False
            if contig >= _LEN.size:
                _LEN.pack_into(self._buf, _HDR + woff, _WRAP)
            write += contig
            self._set(_OFF_WRITE, write)
            free -= contig
            woff = 0
        if free < _LEN.size + total:
            return False
        _LEN.pack_into(self._buf, _HDR + woff, total)
        pos = _HDR + woff + _LEN.size
        for part in parts:
            n = len(part)
            if n:
                self._buf[pos : pos + n] = part
                pos += n
        # Publish order matters cross-process: payload bytes first, then
        # the write cursor the consumer polls.
        self._set(_OFF_WRITE, write + _LEN.size + total)
        self._set(_OFF_FRAMES_W, self.frames_written + 1)
        return True

    # -- consumer side ---------------------------------------------------------

    def try_read(self) -> tuple[memoryview, RingLease] | None:
        """Next frame as ``(view, lease)`` — in place, no copy — or None.

        Single-threaded by contract (one drain thread per ring); lease
        releases may come from any thread.
        """
        if self._closed:
            return None
        while True:
            write = self._get(_OFF_WRITE)
            avail = write - self._next
            if avail <= 0:
                return None
            roff = self._next % self.capacity
            contig = self.capacity - roff
            if contig < _LEN.size:
                self._skip_pad(contig)  # implicit pad: no room for a marker
                continue
            if avail < _LEN.size:
                return None  # header not fully published (defensive)
            length = _LEN.unpack_from(self._buf, _HDR + roff)[0]
            if length == _WRAP:
                self._skip_pad(contig)
                continue
            if avail < _LEN.size + length:
                return None  # body not fully published (defensive)
            start = _HDR + roff + _LEN.size
            view = self.shm.buf[start : start + length]
            with self._lock:
                self._next += _LEN.size + length
                lease = RingLease(self, self._next, length)
                self._outstanding.append(lease)
            return view, lease

    def _skip_pad(self, pad: int) -> None:
        with self._lock:
            self._next += pad
            if not self._outstanding:
                # No lease will ever cover this pad — reclaim it now, or
                # a producer waiting on exactly these bytes deadlocks.
                self._set(_OFF_READ, self._next)

    def _release(self, lease: RingLease) -> None:
        """Advance the credit count, and the read cursor over the
        released prefix (out-of-order releases park until the prefix
        clears — arrival order is producer FIFO, so it always does)."""
        with self._lock:
            if lease._released:
                return
            lease._released = True
            if self._closed:
                return
            self._set(_OFF_FRAMES_R, self.frames_released + 1)
            advanced = None
            while self._outstanding and self._outstanding[0]._released:
                advanced = self._outstanding.popleft().end
            if not self._outstanding:
                # Cover trailing pads consumed after the last lease.
                advanced = self._next
            if advanced is not None:
                self._set(_OFF_READ, advanced)

    # -- teardown --------------------------------------------------------------

    def unlink(self) -> None:
        """Remove the segment name (producer side; idempotent)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass

    def close(self) -> None:
        """Drop this side's alive flag and mapping (idempotent).

        The producer also unlinks the name.  Frame views still held
        downstream keep the consumer's mapping alive — the close is then
        deferred to their garbage collection rather than invalidating
        live memory.
        """
        with self._lock:
            if self._closed:
                return
            if self._role == "consumer":
                for lease in self._outstanding:
                    lease._released = True
                self._outstanding.clear()
                self._buf[_OFF_CONSUMER] = 0
            else:
                self._buf[_OFF_PRODUCER] = 0
            self._closed = True
        if self._role == "producer":
            self.unlink()
        try:
            self.shm.close()
        except BufferError:
            # Live frame views (decoded batches, parked leases) pin the
            # mapping; the kernel reclaims it at process exit.  Shadow the
            # method so SharedMemory.__del__'s retry can't raise at GC time.
            self.shm.close = lambda: None  # type: ignore[method-assign]


class RingReceiver:
    """Server-side endpoint of one ring: attach from a hello, drain,
    account.  Lives inside :class:`~repro.net.mq.PullSocket`; quacks
    enough like a :class:`~repro.net.channel.Channel` (``send`` /
    ``bytes_received``) that the shared recv path needs no branching."""

    def __init__(self, ring: ShmRing, hwm: int) -> None:
        self.ring = ring
        self.hwm = hwm
        self.chan = None  # the control channel, set by the PullSocket
        self.bytes_received = 0
        self.frames_received = 0
        self._producer_gone = False
        # Set by the control channel's reader on each ``0x05`` doorbell
        # (and on channel death): the drain loop blocks here instead of
        # polling the ring, so frame wakeup rides the kernel's socket
        # wakeup path rather than a sleep with scheduler-dependent slack.
        self.doorbell = threading.Event()

    @classmethod
    def from_hello(cls, payload: bytes | memoryview) -> "RingReceiver":
        """Attach from a ``0x02`` hello payload; raises :class:`ShmAttachError`."""
        try:
            meta = json.loads(bytes(payload).decode())
            name = meta["name"]
            capacity = int(meta["capacity"])
            hwm = int(meta.get("hwm", 16))
            host = meta.get("host")
        except (ValueError, KeyError, TypeError) as err:
            raise ShmAttachError(f"malformed shm hello: {err!r}") from None
        if host is not None and host != _socket.gethostname():
            raise ShmAttachError(f"producer host {host!r} is not this host")
        return cls(ShmRing.attach(name, capacity), hwm)

    def try_read(self) -> tuple[memoryview, RingLease] | None:
        item = self.ring.try_read()
        if item is not None:
            self.frames_received += 1
            self.bytes_received += len(item[0])
        return item

    def send(self, payload) -> None:
        """No-op: the ring's credit grant is the lease release."""

    def control_lost(self) -> None:
        """The control channel died — treat the producer as gone (after
        the ring drains; in-flight frames are already delivered bytes)."""
        self._producer_gone = True
        self.doorbell.set()  # wake the drain loop so it observes `finished`

    @property
    def finished(self) -> bool:
        """Drain-loop exit condition: closed, or producer gone and drained."""
        if self.ring.closed:
            return True
        return (self._producer_gone or not self.ring.producer_alive) and self.ring.drained

    def close(self) -> None:
        self.ring.close()


class ShmPushSocket:
    """PUSH-socket contract over one shm ring (the co-located fast path).

    Drop-in for :class:`~repro.net.mq.PushSocket` where the daemon uses
    it: ``send/send_parts/try_send/try_send_parts``, ``bytes_sent``,
    ``num_streams``, ``closed``, ``alive``, ``drop_connection``,
    ``close(timeout)`` with drain.
    Construction performs the handshake: connect TCP, announce the
    segment, await ack.  A nack (or handshake timeout) raises
    :class:`ShmHandshakeRefused` — the caller falls back to TCP; a
    connection refusal raises ``OSError`` exactly like ``PushSocket``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        hwm: int = 16,
        ring_bytes: int = DEFAULT_RING_BYTES,
        handshake_timeout_s: float = 10.0,
    ) -> None:
        if hwm < 1:
            raise ValueError(f"hwm must be >= 1, got {hwm}")
        self.hwm = hwm
        self.reconnects = 0  # rings never resurrect; parity with PushSocket
        self._closed = False
        self._peer_gone = threading.Event()
        self._send_lock = threading.Lock()  # serializes T send workers
        self._bytes_sent = 0
        self.frames_sent = 0
        chan = connect_channel(host, port)  # OSError = endpoint down: caller retries
        ring = ShmRing.create(ring_bytes)
        try:
            hello = {
                "name": ring.name,
                "capacity": ring.capacity,
                "hwm": hwm,
                "host": _socket.gethostname(),
                "pid": os.getpid(),
            }
            # Bound the handshake on the raw socket: a peer that never
            # answers (not a PullSocket at all) must read as "refused",
            # not hang the daemon's connect path.
            chan._sock.settimeout(handshake_timeout_s)
            try:
                chan.send(SHM_HELLO + json.dumps(hello).encode())
                reply = chan.recv()
            finally:
                chan._sock.settimeout(None)
        except (ConnectionClosed, ConnectionError, OSError) as err:
            ring.close()
            chan.close()
            raise ShmHandshakeRefused(f"shm handshake failed: {err}") from None
        if reply[:1] != SHM_ACK:
            reason = reply[1:].decode("utf-8", "replace") or "peer refused shm attach"
            ring.close()
            chan.close()
            raise ShmHandshakeRefused(reason)
        self._ring = ring
        self._chan = chan
        threading.Thread(target=self._watch_peer, daemon=True, name="shm-watch").start()

    @property
    def num_streams(self) -> int:
        """One ring (streams exist to hide RTT; there is none to hide)."""
        return 1

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called."""
        return self._closed

    @property
    def alive(self) -> bool:
        """Open with the consumer still attached: sends can still succeed."""
        return (
            not self._closed
            and not self._peer_gone.is_set()
            and self._ring.consumer_alive
        )

    @property
    def bytes_sent(self) -> int:
        """Payload bytes through the ring plus control-channel bytes.

        Counts toward the same ``emlio_transport_bytes_sent_total``
        registry series as the TCP path (:mod:`repro.obs.metrics`).
        """
        return self._bytes_sent + self._chan.bytes_sent

    def _watch_peer(self) -> None:
        # The receiver sends nothing after the ack, so a read only ever
        # returns by failing — EOF/reset is the hard-crash death signal
        # the alive flags cannot deliver.
        try:
            while True:
                self._chan.recv()
        except (ConnectionClosed, ConnectionError, OSError):
            self._peer_gone.set()

    def _try_write(self, parts: tuple, total: int) -> bool:
        if self._peer_gone.is_set() or not self._ring.consumer_alive:
            raise ConnectionError("shm ring consumer is gone")
        with self._send_lock:
            if not self._ring.try_write(parts, total, self.hwm):
                return False
            self._bytes_sent += total
            self.frames_sent += 1
        # Doorbell: one byte on the (co-located, unshaped) control channel
        # per published frame.  The receiver's drain loop blocks on it
        # instead of polling the ring — a nap-based poll adds milliseconds
        # of wakeup latency per frame whenever the box is busy, which is
        # exactly when it hurts.  The send syscall also drops the GIL, so
        # a serialize→write burst can't starve the consumer's drain thread
        # (GIL convoy) the way a pure-memcpy loop would.
        try:
            self._chan.send(SHM_DOORBELL)
        except (ConnectionClosed, ConnectionError, OSError):
            self._peer_gone.set()
            raise ConnectionError("shm ring consumer is gone") from None
        return True

    def send(self, payload) -> None:
        """Blocking send; raises ``ConnectionError`` when the peer dies."""
        self.send_parts((payload,))

    def send_parts(self, parts: Sequence) -> None:
        """Blocking scatter-gather send.  Unlike TCP, segments are copied
        into the ring before returning — no lifetime obligation remains."""
        if self._closed:
            raise RuntimeError("send() on closed ShmPushSocket")
        item = tuple(parts)
        total = sum(len(p) for p in item)
        while not self._try_write(item, total):
            if self._closed:
                raise RuntimeError("send() on closed ShmPushSocket")
            time.sleep(_SEND_POLL_S)

    def try_send(self, payload) -> bool:
        """Non-blocking send; False while the ring is at its HWM bound."""
        return self.try_send_parts((payload,))

    def try_send_parts(self, parts: Sequence) -> bool:
        """Non-blocking :meth:`send_parts`; raises ``ConnectionError``
        when the consumer is gone (the total-failure contract callers'
        retry loops rely on)."""
        if self._closed:
            raise RuntimeError("try_send() on closed ShmPushSocket")
        item = tuple(parts)
        return self._try_write(item, sum(len(p) for p in item))

    def drop_connection(self, index: int = 0) -> None:
        """Chaos hook: sever the control channel — both sides observe the
        hard-crash signature (EOF) and declare the peer dead."""
        self._chan.close()

    def close(self, timeout: float = 30.0) -> None:
        """Drain (wait for the consumer to release every frame, bounded
        by ``timeout``), then drop the alive flag and unlink."""
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + max(timeout, 0.0)
        while (
            timeout > 0
            and not self._peer_gone.is_set()
            and self._ring.consumer_alive
            and self._ring.frames_released < self._ring.frames_written
            and time.monotonic() < deadline
        ):
            # Nap roughly as long as the backlog will take to drain: few
            # wakeups (no GIL theft from the consumer doing the draining)
            # while frames remain, sub-ms latency once the last one goes.
            outstanding = self._ring.frames_written - self._ring.frames_released
            time.sleep(min(_CLOSE_POLL_S, _CLOSE_POLL_MIN_S * max(outstanding, 1)))
        self._ring.close()
        self._chan.close()


# -- transport selection -------------------------------------------------------

_LOCAL_HOSTS = frozenset({"127.0.0.1", "::1", "localhost", "0.0.0.0"})


@lru_cache(maxsize=64)
def is_local_host(host: str) -> bool:
    """Cheap same-host check gating ``transport="auto"``.

    Deliberately conservative: loopback literals, our hostname, or a name
    resolving to loopback.  The handshake's attach remains the real
    proof — this only avoids pointless attempts at clearly-remote peers.
    """
    if host in _LOCAL_HOSTS or host == _socket.gethostname():
        return True
    try:
        return _socket.gethostbyname(host).startswith("127.")
    except OSError:
        return False


def shm_eligible(transport: str, host: str, profile: NetworkProfile | None) -> bool:
    """Whether a daemon→receiver pair should *attempt* the shm handshake.

    ``"shm"`` forces the attempt (TCP fallback still applies on nack).
    ``"auto"`` attempts only for a local endpoint with no link shaping —
    an emulated RTT/bandwidth declares the pair "not co-located" for the
    experiment's purposes, and shm would silently bypass it.
    """
    if transport == "shm":
        return True
    if transport != "auto":
        return False
    if profile is not None and (
        profile.rtt_s > 0 or profile.bandwidth_bps != float("inf")
    ):
        return False
    return is_local_host(host)
