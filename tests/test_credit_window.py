"""TCP flow control: ``hwm`` = frames a receiver holds per stream; window =
``hwm`` + the link's bandwidth-delay product; a credit is a buffer release.
"""

from __future__ import annotations

import queue
import sys
import threading
import time

from repro.core import EMLIOConfig, EMLIOService
from repro.net.channel import connect_channel
from repro.net.emulation import NetworkProfile
from repro.net.mq import (
    _MAX_BDP_FRAMES,
    PullSocket,
    PushSocket,
    ReconnectPolicy,
    _Link,
    _PushStream,
)
from repro.obs import Telemetry

MS = 1_000_000  # ns


# -- the window arithmetic -----------------------------------------------------


def test_link_counts_the_credits_of_one_rtt():
    link = _Link()
    assert link.bdp(0) == 0 and link.rtt_ns == 0
    # One credit per ms, each an RTT sample of 10 ms (plus noise).
    for t in range(100):
        link.on_credit(t * MS, 10 * MS + (t % 3) * MS)
    assert link.rtt_ns == 10 * MS  # the minimum, not the mean
    # An RTT less its jitter margin is 8.75 ms; the 35 credits of the last
    # four such RTTs, bar the newest (it refills a slot rather than
    # widening the pipe), make 8 frames per RTT.
    assert link.bdp(99 * MS) == 8
    # No credit for four RTTs: the bandwidth-delay term has aged out.
    assert link.bdp(135 * MS) == 0
    link.reset()
    assert link.bdp(135 * MS) == 0 and link.rtt_ns == 0


def test_link_rtt_is_a_windowed_minimum_and_the_bdp_is_capped():
    link = _Link()
    link.on_credit(0, 5 * MS)
    link.on_credit(MS, 50 * MS)
    assert link.rtt_ns == 5 * MS
    # The path got longer: two RTT buckets later the old minimum is gone.
    for t in (1200, 2400, 2401):
        link.on_credit(t * MS, 50 * MS)
    assert link.rtt_ns == 50 * MS
    # A credit storm cannot grow the window past the cap.
    storm = 8 * _MAX_BDP_FRAMES
    for i in range(storm):
        link.on_credit(3000 * MS + i, 50 * MS)
    assert link.bdp(3000 * MS + storm) == _MAX_BDP_FRAMES


def test_link_counts_frames_not_credit_frames():
    link = _Link()
    for t in range(10):  # a batch of 4 credits every ms
        link.on_credit(t * MS, 20 * MS, count=4)
    # 40 frames credited within the last four RTTs; the newest batch
    # refills: (40 - 4) // 4 frames per RTT.
    assert link.bdp(9 * MS) == 9


def test_streams_to_one_endpoint_split_its_bdp():
    pull = PullSocket(hwm=4)
    push = PushSocket([pull.address], hwm=4, streams_per_endpoint=3)
    try:
        link = push._streams[0].link
        assert all(s.link is link for s in push._streams)
        now = time.perf_counter_ns()
        for t in range(33):  # 8 frames per RTT beside the newest
            link.on_credit(now + t, 10_000 * MS)
        assert [s.window(now + 33) for s in push._streams] == [4 + 2, 4 + 3, 4 + 3]
        assert push.window == 3 * 4 + 8
    finally:
        push.close(timeout=0.2)
        pull.close()


# -- live sockets over a shaped link -------------------------------------------


def _shaped(rtt_s: float, hwm: int, streams: int = 1, reconnect=None):
    profile = NetworkProfile(f"window-{rtt_s * 1e3:.0f}ms", rtt_s=rtt_s)
    pull = PullSocket(hwm=hwm, profile=profile, pooled=True)
    push = PushSocket(
        [pull.address], hwm=hwm, profile=profile, streams_per_endpoint=streams,
        reconnect=reconnect,
    )
    return pull, push


def _produce(push: PushSocket, total: int | None, size: int = 1024) -> threading.Thread:
    """Send ``total`` frames (forever when None) until the socket closes."""

    def run():
        i = 0
        try:
            while total is None or i < total:
                push.send(bytes([i % 251]) * size)
                i += 1
        except (RuntimeError, ConnectionError):
            pass  # closed under us

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t


def _inflight(push: PushSocket) -> int:
    return sum(len(s.inflight) for s in push._streams)


def test_credits_travel_in_batches():
    pull = PullSocket(hwm=16, pooled=True)  # batches of 16 // 4 credits
    chan = connect_channel(*pull.address)
    chan._sock.settimeout(5)  # a missing credit fails the test, not hangs it
    try:
        for i in range(10):
            chan.send(b"\x00" + bytes([i]) * 64)
        deadline = time.monotonic() + 5
        while pull.pending < 10 and time.monotonic() < deadline:
            time.sleep(0.005)
        for frame in [pull.recv_frame(timeout=5) for _ in range(10)]:
            frame.release()
        counts = [int.from_bytes(chan.recv()[5:7], "little") for _ in range(3)]
        # Two full batches, then the rest once nothing is left unreleased.
        assert counts == [4, 4, 2]
    finally:
        chan.close()
        pull.close()


def test_concurrent_releases_credit_every_frame_exactly_once():
    """Seven consumer threads release frames at once, with the interpreter
    switching threads every microsecond: a lost update to the batching
    counters would strand or duplicate credits.  The total is no multiple
    of the batch, so the last credits go out only once nothing is held."""
    consumers = 7
    total = consumers * 573
    pull = PullSocket(hwm=16, pooled=True)
    chan = connect_channel(*pull.address)
    chan._sock.settimeout(10)
    credited = []
    go = threading.Barrier(consumers)

    def count_credits():
        try:
            while sum(credited) < total:
                credited.append(int.from_bytes(chan.recv()[5:7], "little"))
        except (ConnectionError, OSError):
            pass

    def consume(n):
        frames = [pull.recv_frame(timeout=10) for _ in range(n)]
        go.wait(timeout=30)
        for frame in frames:
            frame.release()

    for i in range(total):
        chan.send(b"\x00" + i.to_bytes(4, "little"))
    deadline = time.monotonic() + 30
    while pull.pending < total and time.monotonic() < deadline:
        time.sleep(0.01)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        counter = threading.Thread(target=count_credits, daemon=True)
        counter.start()
        workers = [
            threading.Thread(target=consume, args=(total // consumers,), daemon=True)
            for _ in range(consumers)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        counter.join(timeout=10)
    finally:
        sys.setswitchinterval(switch)
        chan.close()
        pull.close()
    assert not any(w.is_alive() for w in workers) and not counter.is_alive()
    assert sum(credited) == total
    assert max(credited) <= 4  # batches of 16 // 4


def test_a_nudge_frees_the_credits_a_double_buffering_consumer_holds_back():
    """The consumer keeps each frame until the next one arrives, and the
    pusher's window (2) is smaller than the receiver's credit batch (4):
    each release leaves one frame held and one credit batched.  Without
    the pusher's nudge this deadlocks after the first frames."""
    pull = PullSocket(hwm=16, pooled=True)
    push = PushSocket([pull.address], hwm=2)
    try:
        _produce(push, 12)
        prev = pull.recv_frame(timeout=5)
        for _ in range(11):
            frame = pull.recv_frame(timeout=5)
            prev.release()
            prev = frame
        prev.release()
    finally:
        push.close(timeout=1.0)
        pull.close()


def test_tcp_hwm_bounds_the_frames_a_receiver_holds():
    """Regression: credits used to return when a frame was dequeued, so
    frames parked downstream — a decoded-payload queue, a reorder window,
    a prefetching pipeline — held none, and a consumer slower than the
    link let them pile up without bound.  Held = the PULL socket's queue +
    the receive thread's payload queue + frames not yet released."""
    hwm, streams, size, total = 4, 2, 1024, 80
    pull, push = _shaped(0.03, hwm, streams)
    payloads: queue.Queue = queue.Queue()  # unbounded, like the receiver's
    released = [0]
    held: list[int] = []

    def sample():
        arrived = pull.bytes_received // (size + 1)  # read first: never overcounts
        held.append(arrived - released[0])

    def receive():  # the receive thread: pop at once, hand on
        for _ in range(total):
            payloads.put(pull.recv_frame(timeout=10))
            sample()

    _produce(push, total, size)
    receiver = threading.Thread(target=receive, daemon=True)
    receiver.start()
    try:
        for _ in range(total):  # the consumer, slower than the link
            frame = payloads.get(timeout=10)
            sample()
            time.sleep(0.01)
            released[0] += 1
            frame.release()
        receiver.join(timeout=10)
    finally:
        push.close(timeout=1.0)
        pull.close()
    assert len(held) == 2 * total
    assert max(held) <= hwm * streams, f"receiver held {max(held)} frames"


def test_one_stream_fills_a_long_link():
    """A fast consumer is not capped at hwm / RTT: the window grows by the
    frames the link carries."""
    hwm, rtt, total = 4, 0.02, 800
    pull, push = _shaped(rtt, hwm)
    try:
        t0 = time.perf_counter()
        _produce(push, total)
        for _ in range(total):
            pull.recv_frame(timeout=10).release()
        rate = total / (time.perf_counter() - t0)
    finally:
        push.close(timeout=1.0)
        pull.close()
    assert rate >= 3 * hwm / rtt, f"{rate:.0f} frames/s vs the hwm/RTT cap {hwm / rtt:.0f}"


def test_link_rtt_ignores_a_standing_receive_queue():
    """The consumer is slower than the link, so frames wait at the receiver
    and every credit cycle is RTT + tens of ms of queueing.  The hold time
    each credit carries takes the queueing back out."""
    hwm, rtt, total = 4, 0.03, 50
    pull, push = _shaped(rtt, hwm)
    depth = []
    try:
        _produce(push, total)
        for _ in range(total):
            frame = pull.recv_frame(timeout=10)
            depth.append(pull.pending)
            time.sleep(0.012)  # every hold alone is 40 % of the RTT
            frame.release()
        measured = push.link_rtt_s
    finally:
        push.close(timeout=1.0)
        pull.close()
    assert max(depth) >= 2  # the queue really stood
    assert 0.75 * rtt <= measured <= 1.25 * rtt, f"link RTT {measured * 1e3:.1f} ms"


def test_window_stops_growing_while_the_consumer_stalls(monkeypatch):
    hwm, rtt = 4, 0.02
    sizes: list[tuple[float, int]] = []  # every window the writer consulted
    real_window = _PushStream.window

    def window(self, now_ns):
        value = real_window(self, now_ns)
        sizes.append((time.perf_counter(), value))
        return value

    monkeypatch.setattr(_PushStream, "window", window)
    pull, push = _shaped(rtt, hwm)
    try:
        _produce(push, None)
        for _ in range(300):
            pull.recv_frame(timeout=10).release()
        grown = push.window
        stall = time.perf_counter()  # from here nothing is released
        time.sleep(3 * rtt)
        plateau = _inflight(push)
        time.sleep(0.2)
        assert push.window == hwm  # no credit for four RTTs: back to hwm
        assert _inflight(push) == plateau  # the sender is blocked
        assert pull.pending == plateau  # ... on frames the receiver holds
        late = [v for t, v in sizes if t >= stall + rtt]
        # Once the last credits have landed the window only shrinks.
        assert all(a >= b for a, b in zip(late, late[1:]))
        assert plateau <= max(v for _t, v in sizes)
    finally:
        push.close(timeout=0.2)
        pull.close()
    assert grown > hwm


def test_reconnect_resets_the_window_to_hwm():
    hwm, rtt = 4, 0.02
    policy = ReconnectPolicy(max_retries=5, base_delay_s=0.01)
    pull, push = _shaped(rtt, hwm, reconnect=policy)
    stream = push._streams[0]
    try:
        _produce(push, None)
        for _ in range(300):
            pull.recv_frame(timeout=10).release()
        assert push.window > hwm
        push.drop_connection(0)  # consumer paused: no credit on the new link
        deadline = time.monotonic() + 5
        while stream.generation == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert stream.generation == 1
        assert push.window == hwm
        assert push.link_rtt_s == 0.0  # the new link is not measured yet
        for _ in range(100):  # resume: the replay and new sends flow again
            pull.recv_frame(timeout=10).release()
        assert push.reconnects == 1
    finally:
        push.close(timeout=0.2)
        pull.close()


def test_window_and_link_rtt_are_registry_gauges(small_imagenet):
    """Each daemon→node TCP socket's window and link RTT are read at
    scrape time (labels: daemon index, node id)."""
    rtt = 0.02
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16), hwm=4, streams_per_node=2, epochs=2)
    telemetry = Telemetry()
    with EMLIOService(
        cfg, small_imagenet, profile=NetworkProfile("gauge-20ms", rtt_s=rtt),
        telemetry=telemetry,
    ) as svc:
        for epoch in range(2):  # the first epoch's credits land in the second
            assert sum(len(labels) for _t, labels in svc.epoch(epoch)) == 24
        snap = telemetry.registry.snapshot()
        text = telemetry.registry.render_prometheus()
    assert snap["emlio_transport_window_frames"]["0|0"] >= cfg.hwm * cfg.streams_per_node
    assert 0.9 * rtt <= snap["emlio_transport_link_rtt_seconds"]["0|0"] <= 3 * rtt
    assert 'emlio_transport_window_frames{daemon="0",node="0"}' in text
    assert 'emlio_transport_link_rtt_seconds{daemon="0",node="0"}' in text
