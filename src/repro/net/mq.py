"""PUSH/PULL message sockets with high-water-mark backpressure.

The ZeroMQ substitute.  EMLIO's daemon PUSHes serialized batches and relies
on two ZMQ behaviours (paper §4.5):

* **HWM backpressure** — a bounded number of in-flight messages per stream;
  when the receiver is slow, ``send`` blocks ("blocking send to infinity")
  so storage-side workers naturally back off.
* **Multi-stream fan-in** — a PULL socket accepts many PUSH peers and merges
  their messages into one stream.

Flow control is explicit and credit-based (TCP socket buffers on loopback
are megabytes deep, so relying on kernel backpressure would make the HWM a
fiction), with one rule: **``hwm`` = frames a receiver holds per stream;
window = ``hwm`` + the link's bandwidth-delay product; a credit is a
buffer release.**

* The PULL side grants a frame's credit when the frame's receive buffer is
  released — after decode and preprocess, not when the frame is dequeued
  — so frames parked in any receiver queue still hold their credit.  The
  shm ring works the same way (releasing a lease is the credit).  Over
  TCP, credits travel in small batches (:class:`_Credits`).
* Each PUSH stream keeps at most ``window`` messages sent but uncredited:
  ``hwm`` plus its share of the frames its endpoint has had credited per
  link RTT lately (:class:`_Link`) — the frames a full link carries.  The
  RTT is measured from the credits themselves: each carries how long the
  receiver held its frame (u32 µs), and the sender takes the windowed
  minimum of ``credit arrival − send − hold``.  A reconnect resets the
  window to ``hwm``.

Wire format: 1 type byte + payload.  0x00 data; 0x01 credit, whose payload
is the u32 hold time and the u16 count of frames it credits; 0x06 nudge
(PUSH → PULL, no payload): "my window is full and I have waited — send the
credits you are batching".  Types
0x02/0x03/0x04/0x05 carry the shared-memory transport handshake and
doorbell (see :mod:`repro.net.shm`): a co-located pusher may announce a
shm ring over its freshly-connected channel; an acked ring replaces the
channel as the data path (the channel stays open as the liveness/control
path, ringing a 0x05 doorbell per published frame) and its frames merge
into the same receive queue.

Fault tolerance: with a :class:`ReconnectPolicy`, a PUSH stream that hits a
transport error reconnects with exponential backoff and resends every
message it cannot prove was consumed (sent but not yet credited).  That
makes the transport *at-least-once* — a resend can duplicate a message the
receiver already dequeued — so receivers that care pair this with
application-level dedup (see :class:`~repro.core.deliverywindow.DeliveryWindow`).
"""

from __future__ import annotations

import collections
import logging
import queue
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.net import shm as _shm
from repro.net.buffers import BufferPool, PooledBuffer, PooledFrame
from repro.net.channel import Channel, Listener, connect_channel
from repro.net.emulation import NetworkProfile
from repro.net.framing import ConnectionClosed

_log = logging.getLogger(__name__)

_DATA = b"\x00"
_CREDIT = b"\x01"
_NUDGE = b"\x06"
#: A credit frame: the type byte, the receiver's hold time in µs, and the
#: number of frames it credits.
_CREDIT_FRAME = struct.Struct("<cIH")
_HOLD_MAX_US = 0xFFFFFFFF
_COUNT_MAX = 0xFFFF
#: A PULL socket batches up to ``hwm // this`` credits into one frame.
_CREDIT_BATCH_DIVISOR = 4
#: A PUSH stream that has waited this long with a full window nudges the
#: receiver for the credits it is batching.  A liveness net: in a steady
#: stream batches fill long before it fires.
_NUDGE_AFTER_S = 0.02
#: What :meth:`PushSocket._wait_room` found.
_ROOM, _STOPPED, _STARVED, _BROKEN = range(4)
#: The link RTT is the minimum RTT sample of the current and the previous
#: bucket of this length, so it follows a path change within two buckets.
_RTT_BUCKET_NS = 1_000_000_000
#: The bandwidth-delay product is the frames credited per link RTT,
#: averaged over this many RTTs: one RTT's count follows every burst and
#: stall of a consumer that shares its CPU, and the window then oscillates.
_RTTS_AVERAGED = 4
#: An RTT counts as RTT less RTT / this: a release that lands a hair after
#: the refill it paid for (timer jitter on either leg) must not count as
#: room twice.
_JITTER_DIVISOR = 8
#: Ceiling on an endpoint's bandwidth-delay term, in frames.
_MAX_BDP_FRAMES = 1024
#: Put into a stream's queue (and its room condition notified) to wake its
#: writer for a stop or a broken connection — the writer never polls.
_WAKE = object()
#: Put into a PullSocket's queue by close(): wakes blocked receivers.
_CLOSED = (None, None)
_RING_WAIT_S = 0.02  # ring drain safety-net wait: wakeup is doorbell-driven
# (see PullSocket._ring_loop), so this timer only covers a producer dying
# between a ring write and its doorbell — it can be long without costing
# latency, and long means an idle drain thread never steals the GIL.


@dataclass(frozen=True)
class ReconnectPolicy:
    """Backoff schedule for resurrecting a dead PUSH stream.

    ``max_retries`` counts connection attempts per failure episode; delays
    double from ``base_delay_s`` up to ``max_delay_s``.  ``max_retries=0``
    disables reconnection (the stream dies on the first transport error, the
    pre-recovery behaviour).
    """

    max_retries: int = 5
    base_delay_s: float = 0.02
    max_delay_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ValueError(
                f"need 0 <= base_delay_s <= max_delay_s, got "
                f"{self.base_delay_s}/{self.max_delay_s}"
            )


class _Link:
    """What a PUSH socket's streams to one endpoint know of their link:
    its RTT, and its bandwidth-delay product in frames.

    Every credit is an RTT sample — its arrival minus the message's send
    stamp, minus the hold time the receiver reports — and the link RTT is
    the windowed minimum of the samples.  Subtracting the hold keeps a
    standing receive queue out of the estimate; the minimum keeps
    scheduling noise out.  The bandwidth-delay product is the frames
    credited per link RTT (less a jitter margin), averaged over the last
    few RTTs and bar the newest credit frame's: the frames the link
    carries beside the ones a credit's arrival refills, so a steady
    consumer finds at most ``hwm`` frames held per stream.  A consumer
    that stalls still receives what is already on the link: up to ``hwm``
    plus this product per stream.

    One link serves all of an endpoint's streams: one consumer drains
    them, so each stream's own credits come in bursts, and per-stream
    counts would add up to more than the link carries.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget the link (a reconnect): the bandwidth-delay term drops to 0."""
        with self._lock:
            self.rtt_ns = 0  # 0 = no sample yet
            self._min_cur = self._min_prev = 0
            self._bucket_ns: int | None = None
            # (arrival, frames credited) per credit frame, and their sum.
            self._credits: collections.deque[tuple[int, int]] = collections.deque()
            self._credited = 0

    def on_credit(self, now_ns: int, sample_ns: int, count: int = 1) -> None:
        """Record a credit for ``count`` frames arriving at ``now_ns`` with
        RTT sample ``sample_ns``."""
        sample = max(sample_ns, 1)
        with self._lock:
            if self._bucket_ns is None or now_ns - self._bucket_ns >= _RTT_BUCKET_NS:
                self._min_prev, self._min_cur, self._bucket_ns = self._min_cur, sample, now_ns
            elif sample < self._min_cur:
                self._min_cur = sample
            self.rtt_ns = min(self._min_cur, self._min_prev or self._min_cur)
            self._credits.append((now_ns, count))
            self._credited += count
            self._age(now_ns)

    def bdp(self, now_ns: int) -> int:
        """The bandwidth-delay product at ``now_ns``, in frames."""
        with self._lock:
            return self._age(now_ns)

    def _age(self, now_ns: int) -> int:
        credits = self._credits
        rtt = self.rtt_ns - self.rtt_ns // _JITTER_DIVISOR
        horizon = now_ns - _RTTS_AVERAGED * rtt
        while credits and credits[0][0] <= horizon:
            self._credited -= credits.popleft()[1]
        if not credits:
            return 0
        per_rtt = (self._credited - credits[-1][1]) // _RTTS_AVERAGED
        return min(per_rtt, _MAX_BDP_FRAMES)


class _PushStream:
    """One connection's worth of PUSH state (queue, window, in-flight).

    Its window is ``hwm`` plus its share of the endpoint's bandwidth-delay
    product: stream ``index`` of ``count`` gets ``(bdp + index) // count``
    frames, so the shares sum to the whole.
    """

    def __init__(
        self,
        host: str,
        port: int,
        profile: NetworkProfile | None,
        hwm: int,
        link: _Link,
        index: int,
        count: int,
    ) -> None:
        self.host = host
        self.port = port
        self.profile = profile
        self.chan = connect_channel(host, port, profile=profile)
        self.queue: queue.Queue = queue.Queue(maxsize=hwm)
        self.hwm = hwm
        self.link = link
        self.index = index
        self.count = count
        # Sent but not yet credited, oldest first, as [message, send stamp]
        # pairs.  A credit proves only that *some* frame of this connection
        # was released; frames arrive in send order (FIFO per TCP stream),
        # so k credits mean the first k arrived and a credit retires the
        # head.  Messages are tuples of buffer-likes (scatter-gather
        # segments); the sender must keep segment backing memory valid
        # until credited, since a reconnect replays straight from here.
        self.inflight: collections.deque[list] = collections.deque()
        # Messages accepted for this stream but not yet on the wire (in
        # the queue, or popped by the writer and awaiting a credit).
        # Guarded by ``lock``; incremented *before* the queue put and
        # decremented when the message reaches ``inflight``, so close()'s
        # flush wait can never observe a message-in-hand as "flushed"
        # (queue size alone goes to zero the moment the writer picks a
        # message up).
        self.unflushed = 0
        self.lock = threading.Lock()
        # Notified on every credit and wake; the writer waits here for room.
        self.room = threading.Condition(self.lock)
        self.generation = 0  # bumped on every reconnect
        self.broken = threading.Event()  # credit reader saw the connection die
        self.dead = False
        self.retired_bytes = 0  # bytes_sent of replaced channels

    def window(self, now_ns: int) -> int:
        """Messages this stream may keep uncredited at ``now_ns``."""
        return self.hwm + (self.link.bdp(now_ns) + self.index) // self.count

    def full(self, unsent: int = 0) -> bool:
        """Whether the window has no room (the caller holds ``lock``).
        ``unsent`` trailing in-flight entries are not on the wire yet."""
        return len(self.inflight) - unsent >= self.window(time.perf_counter_ns())

    def wake(self, broken_gen: int | None = None) -> None:
        """Unblock the writer wherever it waits — on the queue or for
        window room — so it re-checks the stop and broken flags.

        With ``broken_gen`` (a credit reader whose connection died) the
        stream is first flagged broken, unless the writer already replaced
        that connection.
        """
        with self.lock:
            if broken_gen is not None:
                if self.generation != broken_gen:
                    return  # stale reader of a replaced connection
                self.broken.set()
            self.room.notify_all()
        try:
            self.queue.put_nowait(_WAKE)
        except queue.Full:
            pass  # a non-empty queue never blocks the writer's get()


class PushSocket:
    """Connect-side socket distributing messages across one or more streams.

    Messages go to the stream with the shortest outbound queue (least-loaded,
    round-robin tiebreak).  ``hwm`` is the number of frames a receiver
    holds per stream; each stream may keep ``hwm`` plus its share of the
    link's bandwidth-delay product uncredited (see the module docstring),
    so even one stream fills a long link.
    """

    def __init__(
        self,
        endpoints: Iterable[tuple[str, int]],
        hwm: int = 16,
        profile: NetworkProfile | None = None,
        streams_per_endpoint: int = 1,
        reconnect: ReconnectPolicy | None = None,
    ) -> None:
        if hwm < 1:
            raise ValueError(f"hwm must be >= 1, got {hwm}")
        if streams_per_endpoint < 1:
            raise ValueError(f"streams_per_endpoint must be >= 1, got {streams_per_endpoint}")
        endpoints = list(endpoints)
        if not endpoints:
            raise ValueError("PushSocket needs at least one endpoint")
        self.hwm = hwm
        self.reconnect = reconnect
        self.reconnects = 0  # successful stream resurrections
        self._streams: list[_PushStream] = []
        self._threads: list[threading.Thread] = []
        self._rr = 0
        self._lock = threading.Lock()
        self._closed = False
        self._stop_event = threading.Event()
        # Notified as messages leave ``unflushed`` while close() flushes.
        self._flushed = threading.Condition()
        try:
            self._connect(endpoints, profile, hwm, streams_per_endpoint)
        except BaseException:
            # A later stream's connect failed: stop the ones already running.
            self.close(timeout=0.0)
            raise

    def _connect(self, endpoints, profile, hwm: int, streams_per_endpoint: int) -> None:
        for host, port in endpoints:
            link = _Link()
            for i in range(streams_per_endpoint):
                stream = _PushStream(host, port, profile, hwm, link, i, streams_per_endpoint)
                writer = threading.Thread(
                    target=self._writer, args=(stream,), daemon=True, name="push-writer"
                )
                reader = threading.Thread(
                    target=self._credit_reader,
                    args=(stream, stream.chan, stream.generation),
                    daemon=True,
                    name="push-credits",
                )
                writer.start()
                reader.start()
                self._streams.append(stream)
                self._threads.append(writer)

    @property
    def num_streams(self) -> int:
        """Number of PUSH streams (dead ones included)."""
        return len(self._streams)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called."""
        return self._closed

    @property
    def alive(self) -> bool:
        """Open with at least one live stream: sends can still succeed."""
        return not self._closed and any(not s.dead for s in self._streams)

    def _writer(self, stream: _PushStream) -> None:
        while True:
            # The writer owns healing: a break noticed here (flagged by the
            # credit reader, which wakes us, or hit directly on send)
            # reconnects and replays in-flight messages even when no
            # further sends are queued.
            if stream.broken.is_set() and not self._resurrect(stream):
                self._abandon(stream)
                return
            # Once close() has stopped us (its flush deadline expired),
            # send what is queued and creditable right now; wait for nothing.
            try:
                item = stream.queue.get(block=not self._stop_event.is_set())
            except queue.Empty:
                return
            if item is _WAKE:
                continue
            # Blocking send: wait for room in the credit window.  Only
            # after close()'s flush deadline has expired is a message that
            # finds no room dropped.
            while True:
                with stream.lock:
                    found = self._wait_room(stream)
                    if found == _ROOM:
                        # In-flight from here: a reconnect replays it, so it
                        # no longer counts against the flush wait.
                        stream.inflight.append([item, time.perf_counter_ns()])
                        stream.unflushed -= 1
                        break
                if found == _STOPPED:
                    return
                if found == _STARVED:
                    self._nudge(stream.chan)
                elif not self._resurrect(stream):
                    self._abandon(stream, carry=item)
                    return
            self._note_flush_progress()
            try:
                stream.chan.send_parts((_DATA,) + item)
            except (ConnectionError, OSError):
                if not self._resurrect(stream):
                    self._abandon(stream)
                    return

    def _wait_room(self, stream: _PushStream, unsent: int = 0) -> int:
        """Wait (holding ``stream.lock``) for room in the stream's window.

        Returns ``_ROOM``; ``_BROKEN`` once the credit reader flagged the
        connection; ``_STOPPED`` when close() stopped the writer and there
        is no room; ``_STARVED`` after :data:`_NUDGE_AFTER_S` without a
        credit — the caller nudges the receiver and waits again.
        """
        while not stream.broken.is_set():
            if not stream.full(unsent):
                return _ROOM
            if self._stop_event.is_set():
                return _STOPPED
            if not stream.room.wait(_NUDGE_AFTER_S) and stream.full(unsent):
                return _STARVED
        return _BROKEN

    @staticmethod
    def _nudge(chan: Channel) -> None:
        """Ask the receiver for the credits it is batching."""
        try:
            chan.send(_NUDGE)
        except (ConnectionError, OSError):
            pass  # the credit reader sees the break

    def _abandon(self, stream: _PushStream, carry: tuple | None = None) -> None:
        """Declare a stream dead and move its backlog to surviving streams.

        Backlog = the carried item (if any), queued-but-unsent messages, and
        unacknowledged in-flight messages.  With no survivor left the
        backlog is dropped — send()/try_send() then raise ConnectionError,
        so callers observe total failure instead of silent loss.
        """
        stream.dead = True
        if carry is not None:
            self._redistribute(carry)
            with stream.lock:
                stream.unflushed -= 1
        while True:
            try:
                item = stream.queue.get_nowait()
            except queue.Empty:
                break
            if item is _WAKE:
                continue
            self._redistribute(item)
            with stream.lock:
                stream.unflushed -= 1
        with stream.lock:
            pending = [item for item, _sent in stream.inflight]
            stream.inflight.clear()
        for item in pending:
            self._redistribute(item)
        self._note_flush_progress()

    def _note_flush_progress(self) -> None:
        """Wake a flushing close(): a message left ``unflushed`` (or a
        stream died).  Free until close() starts waiting."""
        if self._closed:
            with self._flushed:
                self._flushed.notify_all()

    def _redistribute(self, item: tuple) -> None:
        """Re-queue one rescued message onto the least-loaded live stream."""
        with self._lock:
            streams = [s for s in self._streams if not s.dead]
        if not streams:
            return  # total failure: the caller-facing sockets raise instead
        target = min(streams, key=lambda s: s.queue.qsize())
        with target.lock:
            target.unflushed += 1
        target.queue.put(item)
        # The target may have died between selection and put: rescue again
        # so the message is never stranded in a dead stream's queue.
        if target.dead:
            self._abandon(target)

    def _credit_reader(self, stream: _PushStream, chan: Channel, gen: int) -> None:
        while True:
            try:
                frame = chan.recv()
            except (ConnectionClosed, ConnectionError, OSError):
                stream.wake(broken_gen=gen)
                return
            if frame[:1] != _CREDIT:
                continue
            now = time.perf_counter_ns()
            hold_ns = int.from_bytes(frame[1:5], "little") * 1000
            count = int.from_bytes(frame[5:7], "little") or 1
            with stream.lock:
                if stream.generation != gen:
                    return  # stale reader of a replaced connection
                # Credits beyond what is in flight are spurious or duplicate
                # (e.g. from a replay the receiver double-acked).  Counting
                # them would add room no released frame made.
                count = min(count, len(stream.inflight))
                if not count:
                    continue
                # The hold is the oldest credited frame's: pair it with the
                # oldest in-flight message.
                _item, sent_ns = stream.inflight.popleft()
                for _ in range(count - 1):
                    stream.inflight.popleft()
                stream.link.on_credit(now, now - sent_ns - hold_ns, count)
                stream.room.notify()

    def _resurrect(self, stream: _PushStream) -> bool:
        """Reconnect a failed stream and resend its unacknowledged messages.

        Returns True once the backlog is back on the wire; False when the
        policy is exhausted (or absent), leaving the stream dead.  Resent
        messages may duplicate ones the receiver already consumed — the
        at-least-once contract.
        """
        policy = self.reconnect
        if policy is None or policy.max_retries < 1:
            return False
        delay = policy.base_delay_s
        attempts = policy.max_retries
        while attempts > 0:
            attempts -= 1
            if self._stop_event.wait(delay):  # close() cuts the back-off short
                return False
            delay = min(delay * 2 if delay > 0 else policy.base_delay_s, policy.max_delay_s)
            try:
                chan = connect_channel(stream.host, stream.port, profile=stream.profile)
            except OSError:
                continue
            with stream.lock:
                stream.generation += 1
                gen = stream.generation
                old = stream.chan
                stream.retired_bytes += old.bytes_sent
                stream.chan = chan
                # Fresh connection, fresh window: the receiver holds nothing
                # of ours on it, and the path is measured anew.
                stream.link.reset()
                stream.broken.clear()
                pending = list(stream.inflight)
            old.close()
            threading.Thread(
                target=self._credit_reader, args=(stream, chan, gen), daemon=True,
                name="push-credits",
            ).start()
            replayed = True
            for n, entry in enumerate(pending):
                # Credits on the new connection retire replayed entries
                # from the head; the len(pending) - n at the tail are unsent.
                found = _STARVED
                while found == _STARVED:
                    if self._stop_event.is_set():
                        return False
                    with stream.lock:
                        found = self._wait_room(stream, unsent=len(pending) - n)
                        if found == _ROOM:
                            entry[1] = time.perf_counter_ns()
                    if found == _STARVED:
                        self._nudge(chan)
                if found == _STOPPED:
                    return False
                if found == _BROKEN:
                    replayed = False
                    break
                try:
                    chan.send_parts((_DATA,) + entry[0])
                except (ConnectionError, OSError):
                    replayed = False
                    break
            if replayed:
                self.reconnects += 1
                return True
        return False

    def _alive_streams(self) -> list[_PushStream]:
        alive = [s for s in self._streams if not s.dead]
        if not alive:
            raise ConnectionError("every PUSH stream is dead (reconnects exhausted)")
        return alive

    def send(self, payload: bytes | bytearray | memoryview) -> None:
        """Queue one message; blocks while every live stream is at its HWM."""
        self.send_parts((payload,))

    def send_parts(self, parts: Sequence[bytes | bytearray | memoryview]) -> None:
        """Queue one message given as scatter-gather segments (zero-copy).

        Segments are referenced, not copied: their backing memory must stay
        valid and unmutated until the message is credited by the receiver
        (a reconnect replays the same segments).
        """
        if self._closed:
            raise RuntimeError("send() on closed PushSocket")
        item = tuple(parts)
        with self._lock:
            streams = self._alive_streams()
            sizes = [s.queue.qsize() for s in streams]
            best = min(range(len(sizes)), key=lambda i: (sizes[i], (i - self._rr) % len(sizes)))
            self._rr = (best + 1) % len(sizes)
            chosen = streams[best]
        with chosen.lock:
            chosen.unflushed += 1
        chosen.queue.put(item)
        if chosen.dead:
            # Died between selection and put: rescue what we just queued.
            self._abandon(chosen)

    def try_send(self, payload: bytes | bytearray | memoryview) -> bool:
        """Non-blocking send; False when every live stream queue is at HWM.

        Raises ``ConnectionError`` when no live stream remains, so callers
        polling in a retry loop fail instead of spinning forever.
        """
        return self.try_send_parts((payload,))

    def try_send_parts(self, parts: Sequence[bytes | bytearray | memoryview]) -> bool:
        """Non-blocking :meth:`send_parts`; same lifetime contract."""
        if self._closed:
            raise RuntimeError("try_send() on closed PushSocket")
        item = tuple(parts)
        with self._lock:
            streams = sorted(self._alive_streams(), key=lambda s: s.queue.qsize())
        for s in streams:
            with s.lock:
                s.unflushed += 1
            try:
                s.queue.put_nowait(item)
            except queue.Full:
                with s.lock:
                    s.unflushed -= 1
                continue
            if s.dead:
                self._abandon(s)  # died between selection and put
            return True
        return False

    def drop_connection(self, index: int = 0) -> None:
        """Chaos hook: force-close one stream's underlying channel.

        The next send on that stream observes a transport error and, with a
        :class:`ReconnectPolicy`, reconnects and replays — exactly what a
        mid-epoch TCP reset looks like.
        """
        self._streams[index].chan.close()

    @property
    def window(self) -> int:
        """Current credit window summed over live streams, in frames.

        Exported per daemon→node socket as the registry gauge
        ``emlio_transport_window_frames``.
        """
        now = time.perf_counter_ns()
        return sum(s.window(now) for s in self._streams if not s.dead)

    @property
    def link_rtt_s(self) -> float:
        """Measured link RTT (the lowest over live streams' endpoints);
        0.0 before the first credit.  Exported as
        ``emlio_transport_link_rtt_seconds``."""
        rtts = [s.link.rtt_ns for s in self._streams if not s.dead and s.link.rtt_ns]
        return min(rtts) / 1e9 if rtts else 0.0

    @property
    def bytes_sent(self) -> int:
        """Total payload bytes sent (across reconnects).

        Summed over all daemons into the registry series
        ``emlio_transport_bytes_sent_total`` (:mod:`repro.obs.metrics`).

        Each stream is read under its lock: ``_resurrect`` folds the dying
        channel's count into ``retired_bytes`` and swaps ``chan`` as one
        critical section, so an unlocked reader could see the old channel
        counted twice (once live, once retired).
        """
        total = 0
        for s in self._streams:
            with s.lock:
                total += s.chan.bytes_sent + s.retired_bytes
        return total

    def close(self, timeout: float = 30.0) -> None:
        """Flush queued messages (bounded by ``timeout``), then close streams.

        Messages the receiver never grants credits for within the deadline
        are dropped — close cannot block forever on a dead peer.
        """
        if self._closed:
            return
        self._closed = True
        # A stream is flushed only when no accepted message remains off the
        # wire — queued *or* popped by the writer and awaiting a credit.
        # With a small HWM over a slow link the queue empties long before
        # the last messages are actually sent, so queue size alone would
        # drop the tail.  Writers notify as messages go out.
        with self._flushed:
            self._flushed.wait_for(
                lambda: not any(s.unflushed for s in self._streams if not s.dead),
                timeout=max(timeout, 0.0),
            )
        self._stop_event.set()
        for s in self._streams:
            s.wake()
        for t in self._threads:
            t.join(timeout=5.0)
        for s in self._streams:
            s.chan.close()
            # Drop references to un-credited segments: senders pin their
            # backing memory (e.g. mmap views) only until the socket closes.
            with s.lock:
                s.inflight.clear()


class _Credits:
    """The PULL side of one TCP connection's flow control.

    Every data frame read holds a credit until its buffer is released.
    Released credits go back in batches of up to ``batch`` per credit
    frame — every credit frame costs a wakeup at each hop of the link, and
    a consumer releasing one frame at a time would otherwise pace them one
    by one — and at once when the connection has nothing left unreleased
    or the pusher nudges.  A batch reports the hold of its oldest frame,
    up to the send, so the pusher's RTT sample stays the link's.
    """

    __slots__ = ("_chan", "_batch", "_lock", "_held", "_pending", "_oldest_ns", "_hook")

    def __init__(self, chan: Channel, batch: int) -> None:
        self._chan = chan
        self._batch = batch
        self._lock = threading.Lock()
        self._held = 0  # frames read and not yet released
        self._pending = 0  # released frames not yet credited
        self._oldest_ns = 0  # arrival of the oldest of them
        self._hook: Callable[[PooledBuffer], None] = self._released

    def lease(self, buf: PooledBuffer) -> None:
        """Put a frame just read under this connection's credit."""
        buf.arrived_ns = time.perf_counter_ns()
        buf.on_release = self._hook
        with self._lock:
            self._held += 1

    def _released(self, buf: PooledBuffer) -> None:
        with self._lock:
            self._held -= 1
            if not self._pending:
                self._oldest_ns = buf.arrived_ns
            self._pending += 1
            if self._pending < self._batch and self._held:
                return
            count, self._pending = self._pending, 0
            oldest_ns = self._oldest_ns
        self._send(count, oldest_ns)

    def flush(self) -> None:
        """Send every batched credit now (the pusher nudged)."""
        with self._lock:
            count, self._pending = self._pending, 0
            oldest_ns = self._oldest_ns
        if count:
            self._send(count, oldest_ns)

    def _send(self, count: int, oldest_ns: int) -> None:
        hold_us = (time.perf_counter_ns() - oldest_ns) // 1000
        try:
            self._chan.send(_CREDIT_FRAME.pack(_CREDIT, min(hold_us, _HOLD_MAX_US), count))
        except (ConnectionError, OSError):
            pass  # peer already gone; nothing to grant


class PullSocket:
    """Bind-side socket merging messages from any number of PUSH peers.

    Every frame is held under a lease until released, and releasing it
    grants the frame's credit back to the stream it arrived on (a TCP
    credit frame, or the shm ring's lease release).  :meth:`recv_frame`
    hands the lease to the caller as a :class:`~repro.net.buffers.
    PooledFrame`, so a frame still queued anywhere downstream keeps its
    credit; ``recv``/``try_recv`` copy to ``bytes`` and release at once.
    ``hwm`` names the frames a receiver holds per stream — the pushers'
    windows enforce it (see the module docstring) — and sizes the credit
    batches: up to ``hwm // 4`` credits per credit frame.

    With ``pooled=True`` each frame lands in a buffer leased from a
    :class:`~repro.net.buffers.BufferPool` and the frame's payload is a
    memoryview over it, which the consumer releases after decode (the
    zero-copy receive path).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        hwm: int = 16,
        profile: NetworkProfile | None = None,
        pooled: bool = False,
        pool: BufferPool | None = None,
    ) -> None:
        if hwm < 1:
            raise ValueError(f"hwm must be >= 1, got {hwm}")
        self.hwm = hwm
        self._credit_batch = max(1, min(hwm // _CREDIT_BATCH_DIVISOR, _COUNT_MAX))
        self.pool = pool if pool is not None else (BufferPool() if pooled else None)
        self._listener = Listener(host=host, port=port, profile=profile)
        # (payload, lease) pairs.  Unreleased frames are bounded by the
        # pushers' credit windows, so the shared queue needs no own bound.
        self._queue: queue.Queue = queue.Queue()
        self._channels: list[Channel] = []
        # Shm rings announced by co-located pushers (drained alongside the
        # TCP channels into the same queue); pruned like channels.
        self._rings: list[_shm.RingReceiver] = []
        self._shm_attaches = 0
        self._reader_errors = 0
        self._closed = False
        self._reader_lock = threading.Lock()
        # bytes_received of pruned (disconnected) channels — reconnect-heavy
        # runs must not grow _channels without bound just for accounting.
        self._retired_bytes = 0
        self._listener.serve_forever(self._on_connect)

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` address."""
        return self._listener.address

    @property
    def port(self) -> int:
        """Bound TCP port."""
        return self._listener.port

    def _on_connect(self, chan: Channel) -> None:
        with self._reader_lock:
            if self._closed:
                chan.close()
                return
            self._channels.append(chan)
        try:
            if self.pool is not None:
                self._read_loop_pooled(chan)
            else:
                self._read_loop(chan)
        except Exception:  # noqa: BLE001 — a reader must not die unseen
            _log.exception("pull-socket reader died; dropping its connection")
            with self._reader_lock:
                self._reader_errors += 1
        finally:
            # Sever the link: after a reader bug the pusher sees a dead
            # stream (and, with a reconnect policy, replays what was
            # unacknowledged) instead of feeding a socket nobody reads;
            # after a disconnect, credits still owed for queued frames
            # fail as ConnectionError instead of reaching a dead peer.
            chan.close()
            # Prune the dead channel, folding its count into the retired
            # total so bytes_received stays exact without keeping corpses.
            with self._reader_lock:
                try:
                    self._channels.remove(chan)
                except ValueError:
                    pass  # close() raced us and already dropped the list
                else:
                    self._retired_bytes += chan.bytes_received
                rings = [r for r in self._rings if r.chan is chan]
            # A dead control channel is the hard-crash signal for its
            # ring: the producer is gone once the ring drains.
            for ring in rings:
                ring.control_lost()

    def _read_loop(self, chan: Channel) -> None:
        ring = None  # this channel's ring, once a hello is accepted
        credits = _Credits(chan, self._credit_batch)
        while True:
            try:
                frame = chan.recv()
            except (ConnectionClosed, ConnectionError, OSError):
                return
            if frame[:1] == _DATA:
                # Unpooled, the message bytes are the buffer under lease.
                msg = frame[1:]
                lease = PooledBuffer(msg, None)
                credits.lease(lease)
                self._queue.put((msg, lease))
            elif frame[:1] == _NUDGE:
                credits.flush()
            elif frame[:1] == _shm.SHM_DOORBELL:
                if ring is not None:
                    ring.doorbell.set()
            elif frame[:1] == _shm.SHM_HELLO:
                ring = self._accept_ring(chan, frame[1:])

    def _read_loop_pooled(self, chan: Channel) -> None:
        ring = None  # this channel's ring, once a hello is accepted
        credits = _Credits(chan, self._credit_batch)
        while True:
            buf = self.pool.acquire()
            try:
                view = chan.recv_into(buf.data)
            except (ConnectionClosed, ConnectionError, OSError):
                buf.release()
                return
            if view.obj is not buf.data:
                # Could not grow in place (an earlier frame's views still
                # export it): the lease now covers the fresh buffer.
                buf.data = view.obj
            if view[:1] == _DATA:
                # The frame owns the buffer lease until the consumer
                # releases it — which grants its credit; the next frame
                # gets its own buffer.
                credits.lease(buf)
                self._queue.put((view[1:], buf))
            elif view[:1] == _NUDGE:
                buf.release()
                credits.flush()
            elif view[:1] == _shm.SHM_DOORBELL:
                buf.release()
                if ring is not None:
                    ring.doorbell.set()
            elif view[:1] == _shm.SHM_HELLO:
                hello = bytes(view[1:])
                buf.release()
                ring = self._accept_ring(chan, hello)
            else:
                buf.release()

    def _accept_ring(self, chan: Channel, hello: bytes) -> "_shm.RingReceiver | None":
        """Handle a shm handshake: attach, ack/nack, start the drain.

        Attach success is the co-location proof; any failure nacks with
        the reason and the pusher falls back to TCP.  After an ack the
        channel carries only ``0x05`` doorbells — the read loop keeps
        running to ring them through (returned ring) and to observe EOF,
        the peer-death signal.
        """
        try:
            ring = _shm.RingReceiver.from_hello(hello)
        except _shm.ShmAttachError as err:
            try:
                chan.send_oob(_shm.SHM_NACK + str(err).encode())
            except (ConnectionError, OSError):
                pass  # peer already gone; it will fall back on its own
            return None
        ring.chan = chan
        with self._reader_lock:
            if self._closed:
                ring.close()
                try:
                    chan.send_oob(_shm.SHM_NACK + b"pull socket closed")
                except (ConnectionError, OSError):
                    pass
                return None
            self._rings.append(ring)
            self._shm_attaches += 1
        try:
            chan.send_oob(_shm.SHM_ACK)
        except (ConnectionError, OSError):
            with self._reader_lock:
                self._rings.remove(ring)
            ring.close()
            return None
        threading.Thread(
            target=self._ring_loop, args=(ring,), daemon=True, name="pull-ring"
        ).start()
        return ring

    def _ring_loop(self, ring: "_shm.RingReceiver") -> None:
        """Drain one ring into the shared queue (in-place views + leases).

        Wakeup is doorbell-driven: the producer rings a byte down the
        control channel per frame, the channel's read loop sets the event.
        The timed wait is only a safety net (producer death between write
        and doorbell, clean close without a final bell) — its period can
        be long because nothing normally depends on it.
        """
        try:
            while True:
                ring.doorbell.clear()
                item = ring.try_read()
                if item is None:
                    if ring.finished:
                        return
                    ring.doorbell.wait(_RING_WAIT_S)
                    continue
                self._queue.put(item)  # (view, lease): the release is the credit
        finally:
            ring.close()
            with self._reader_lock:
                try:
                    self._rings.remove(ring)
                except ValueError:
                    pass  # close() raced us and already dropped the list
                else:
                    self._retired_bytes += ring.bytes_received

    def _pop(self, timeout: float | None = None, block: bool = True) -> tuple:
        """Next queued ``(msg, lease)``; raises ``ConnectionClosed`` once
        the socket is closed (close() wakes blocked callers)."""
        item = self._queue.get(block, timeout)
        if item is _CLOSED:
            self._queue.put(_CLOSED)  # keep waking every later caller
            raise ConnectionClosed("recv() on a closed PullSocket")
        return item

    def recv(self, timeout: float | None = None) -> bytes:
        """Pop the next message from any peer as ``bytes`` (its credit is
        granted at once); raises ``queue.Empty`` on timeout and
        ``ConnectionClosed`` once the socket is closed."""
        msg, lease = self._pop(timeout)
        msg = bytes(msg)
        lease.release()
        return msg

    def recv_frame(self, timeout: float | None = None) -> PooledFrame:
        """Pop the next message as a :class:`PooledFrame` (zero-copy mode).

        The frame's ``data`` aliases the receive buffer; the caller must
        ``release()`` it after the last use of any view derived from it —
        the release grants the sender its credit, so an unreleased frame
        keeps a slot of its stream's window.  Raises ``queue.Empty`` on
        timeout and ``ConnectionClosed`` once the socket is closed.
        """
        msg, lease = self._pop(timeout)
        return PooledFrame(msg, lease)

    def try_recv(self) -> bytes | None:
        """Non-blocking recv; ``None`` when no message is ready."""
        try:
            msg, lease = self._pop(block=False)
        except queue.Empty:
            return None
        msg = bytes(msg)
        lease.release()
        return msg

    @property
    def pending(self) -> int:
        """Messages buffered and not yet recv()ed."""
        return self._queue.qsize()

    @property
    def bytes_received(self) -> int:
        """Total payload bytes received, TCP and shm alike (pruned
        connections and drained rings included)."""
        with self._reader_lock:
            return (
                self._retired_bytes
                + sum(c.bytes_received for c in self._channels)
                + sum(r.bytes_received for r in self._rings)
            )

    @property
    def num_channels(self) -> int:
        """Currently-connected peer channels (dead ones are pruned)."""
        with self._reader_lock:
            return len(self._channels)

    @property
    def num_rings(self) -> int:
        """Currently-attached shm rings (finished ones are pruned)."""
        with self._reader_lock:
            return len(self._rings)

    @property
    def shm_attaches(self) -> int:
        """Total shm handshakes accepted over this socket's lifetime.

        Summed over all receivers into the registry series
        ``emlio_transport_shm_attaches_total`` (:mod:`repro.obs.metrics`).
        """
        with self._reader_lock:
            return self._shm_attaches

    @property
    def reader_errors(self) -> int:
        """Reader threads that died on an unexpected exception (not a
        disconnect).  Summed over all receivers into the registry series
        ``emlio_transport_reader_errors_total``; anything but 0 is a bug.
        """
        with self._reader_lock:
            return self._reader_errors

    def close(self) -> None:
        """Release resources — including every outstanding buffer lease.

        Queued-but-unconsumed frames are dropped and their pooled
        buffers / ring leases released, so a mid-stream close (receiver
        kill, epoch abort) never strands pool capacity or ring bytes.
        A receiver blocked in :meth:`recv`/:meth:`recv_frame` wakes with
        ``ConnectionClosed``.
        """
        with self._reader_lock:
            if self._closed:
                return
            self._closed = True
            channels = list(self._channels)
            rings = list(self._rings)
        self._listener.close()
        for c in channels:
            c.close()
        for r in rings:
            r.close()
        while True:
            try:
                _msg, lease = self._queue.get_nowait()
            except queue.Empty:
                break
            lease.release()
        self._queue.put(_CLOSED)
