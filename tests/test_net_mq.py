"""Tests for PUSH/PULL message sockets: fan-in, HWM backpressure, streams."""

import queue
import threading
import time

import pytest

from repro.net.buffers import BufferPool
from repro.net.channel import Channel, Listener, connect_channel
from repro.net.mq import PullSocket, PushSocket, ReconnectPolicy


@pytest.fixture
def pull():
    sock = PullSocket(hwm=16)
    yield sock
    sock.close()


def test_basic_push_pull(pull):
    push = PushSocket([pull.address], hwm=4)
    push.send(b"hello")
    assert pull.recv(timeout=5) == b"hello"
    push.close()


def test_messages_from_one_stream_arrive_in_order(pull):
    push = PushSocket([pull.address], hwm=64)
    msgs = [f"m{i}".encode() for i in range(50)]
    for m in msgs:
        push.send(m)
    got = [pull.recv(timeout=5) for _ in range(50)]
    assert got == msgs
    push.close()


def test_multiple_pushers_fan_in(pull):
    pushers = [PushSocket([pull.address], hwm=8) for _ in range(3)]
    for i, p in enumerate(pushers):
        for j in range(10):
            p.send(f"p{i}-{j}".encode())
    got = {pull.recv(timeout=5) for _ in range(30)}
    assert got == {f"p{i}-{j}".encode() for i in range(3) for j in range(10)}
    for p in pushers:
        p.close()


def test_multi_stream_push(pull):
    push = PushSocket([pull.address], hwm=8, streams_per_endpoint=4)
    assert push.num_streams == 4
    for i in range(40):
        push.send(f"{i}".encode())
    got = {pull.recv(timeout=5) for _ in range(40)}
    assert got == {f"{i}".encode() for i in range(40)}
    push.close()


def test_hwm_blocks_sender_until_receiver_drains():
    """With a tiny receive HWM and no reader, a pusher eventually blocks;
    draining unblocks it — the §4.5 backpressure behaviour."""
    pull = PullSocket(hwm=1)
    push = PushSocket([pull.address], hwm=1)
    sent = []
    finished = threading.Event()

    def producer():
        for i in range(30):
            push.send(b"x" * 2048)
            sent.append(i)
        finished.set()

    t = threading.Thread(target=producer, daemon=True)
    t.start()
    time.sleep(0.3)
    stalled_at = len(sent)
    # Without a consumer the producer must not complete all 30 sends.
    assert not finished.is_set()
    assert stalled_at < 30
    # Drain: the producer finishes.
    got = 0
    deadline = time.monotonic() + 10
    while got < 30 and time.monotonic() < deadline:
        try:
            pull.recv(timeout=1)
            got += 1
        except queue.Empty:
            break
    assert got == 30
    assert finished.wait(timeout=5)
    push.close()
    pull.close()


def test_try_send_reports_full():
    pull = PullSocket(hwm=1)
    push = PushSocket([pull.address], hwm=1)
    # Fill sender queue + receiver pipeline; eventually try_send returns False.
    filled = False
    for _ in range(200):
        if not push.try_send(b"y" * 1024):
            filled = True
            break
        time.sleep(0.002)
    assert filled
    # The stranded message can never earn a credit (no consumer); close must
    # drop it after the deadline instead of hanging.
    push.close(timeout=0.3)
    pull.close()


def test_try_recv_nonblocking(pull):
    assert pull.try_recv() is None
    push = PushSocket([pull.address], hwm=4)
    push.send(b"z")
    deadline = time.monotonic() + 5
    msg = None
    while msg is None and time.monotonic() < deadline:
        msg = pull.try_recv()
    assert msg == b"z"
    push.close()


def test_recv_timeout_raises(pull):
    with pytest.raises(queue.Empty):
        pull.recv(timeout=0.05)


def test_byte_accounting(pull):
    push = PushSocket([pull.address], hwm=4)
    push.send(b"12345")
    assert pull.recv(timeout=5) == b"12345"
    # Wire size = payload + 1 type byte.
    assert push.bytes_sent == 6
    deadline = time.monotonic() + 2
    while pull.bytes_received < 6 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pull.bytes_received == 6
    push.close()


def test_validation():
    with pytest.raises(ValueError):
        PushSocket([], hwm=4)
    with pytest.raises(ValueError):
        PullSocket(hwm=0)
    pull = PullSocket()
    with pytest.raises(ValueError):
        PushSocket([pull.address], hwm=0)
    with pytest.raises(ValueError):
        PushSocket([pull.address], hwm=1, streams_per_endpoint=0)
    pull.close()


def test_send_after_close_raises(pull):
    push = PushSocket([pull.address], hwm=4)
    push.close()
    with pytest.raises(RuntimeError):
        push.send(b"late")


def test_close_flushes_pending_messages():
    pull = PullSocket(hwm=64)
    push = PushSocket([pull.address], hwm=64)
    for i in range(20):
        push.send(f"{i}".encode())
    push.close()  # must flush, not drop
    got = sorted(int(pull.recv(timeout=5)) for _ in range(20))
    assert got == list(range(20))
    pull.close()


# -- transport bug regressions (credit inflation, pruning, accounting) --------


def test_spurious_credit_does_not_inflate_hwm():
    """Regression: a credit arriving with nothing in flight (e.g. a receiver
    double-acking a replayed message) must be ignored.  Counting it anyway
    adds window room no released frame made, voiding the hwm bound."""
    hwm = 2
    with Listener() as listener:
        chans: queue.Queue = queue.Queue()

        def server():  # reads every frame, credits none: the test does
            chan = listener.accept(timeout=5)
            chans.put(chan)
            while True:
                try:
                    chan.recv()
                except (ConnectionError, OSError):
                    return

        threading.Thread(target=server, daemon=True).start()
        push = PushSocket([listener.address], hwm=hwm)
        server_chan = chans.get(timeout=5)
        stream = push._streams[0]
        for _ in range(3):
            server_chan.send(b"\x01")  # bogus credits: nothing is in flight
        time.sleep(0.05)
        for i in range(hwm + 2):
            push.send(b"payload%d" % i)

        def settled(unflushed):
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                with stream.lock:
                    if stream.unflushed == unflushed and len(stream.inflight) == hwm:
                        return True
                time.sleep(0.01)
            return False

        # Nothing released yet: exactly hwm in flight, the rest wait.
        assert settled(unflushed=2)
        assert push.window == hwm
        # One real release frees exactly one slot.
        server_chan.send(b"\x01" + (0).to_bytes(4, "little"))
        assert settled(unflushed=1)
        time.sleep(0.05)
        with stream.lock:
            assert len(stream.inflight) == hwm, "a spurious credit added room"
        push.close(timeout=0.2)
        server_chan.close()


def test_disconnected_channel_is_pruned(pull):
    """Regression: a PULL socket kept every disconnected channel forever —
    reconnect-heavy runs grew the channel list (and its accounting scan)
    without bound.  Dead channels must be pruned, with their byte counts
    folded into the retained total."""
    chan = connect_channel("127.0.0.1", pull.port)
    chan.send(b"\x00" + b"hello")
    assert pull.recv(timeout=5) == b"hello"
    assert pull.num_channels == 1
    chan.close()
    deadline = time.monotonic() + 5
    while pull.num_channels and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pull.num_channels == 0  # corpse pruned
    assert pull.bytes_received == 6  # accounting survives the prune


def test_bytes_sent_not_double_counted_during_resurrect(pull):
    """Regression: ``PushSocket.bytes_sent`` read stream counters without the
    stream lock, so a read racing ``_resurrect``'s retire-and-swap critical
    section counted the dying channel twice (once live, once retired).

    Deterministic replay: a thread holds the stream lock mid-swap — retired
    already bumped, the channel counter not yet replaced — while the main
    thread reads the property."""
    push = PushSocket([pull.address], hwm=4)
    stream = push._streams[0]
    with stream.lock:
        stream.chan.bytes_sent = 100
        stream.retired_bytes = 0
    mid_swap = threading.Event()

    def fake_resurrect():
        with stream.lock:
            stream.retired_bytes += stream.chan.bytes_sent
            mid_swap.set()
            time.sleep(0.3)  # hold the critical section open
            stream.chan.bytes_sent = 0  # the swap completes

    t = threading.Thread(target=fake_resurrect, daemon=True)
    t.start()
    assert mid_swap.wait(timeout=5)
    observed = push.bytes_sent  # must block until the swap completes
    t.join(timeout=5)
    assert observed == 100, f"double-counted mid-swap: {observed}"
    push.close(timeout=1.0)


# -- pooled (zero-copy) receive mode ------------------------------------------


def test_pooled_pull_recv_frame_zero_copy():
    pull = PullSocket(hwm=8, pooled=True)
    push = PushSocket([pull.address], hwm=8)
    push.send(b"p" * 2000)
    frame = pull.recv_frame(timeout=5)
    assert isinstance(frame.data, memoryview)
    assert frame.data == b"p" * 2000
    frame.release()
    frame.release()  # idempotent
    assert pull.pool.free >= 1
    # The released buffer is reused for a later frame (pool hit), and the
    # copying recv() still works in pooled mode.
    push.send(b"q" * 100)
    msg = pull.recv(timeout=5)
    assert msg == b"q" * 100 and isinstance(msg, bytes)
    deadline = time.monotonic() + 2
    while pull.pool.hits == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pull.pool.hits >= 1
    push.close()
    pull.close()


def test_pooled_pull_outgrows_a_buffer_that_is_still_exported():
    """Regression (bench defect a): a pooled buffer released while views
    of its last frame are alive cannot grow in place; the reader thread
    used to die on the BufferError and the epoch stalled."""
    pool = BufferPool(max_buffers=4, initial_size=64)
    pull = PullSocket(hwm=8, pooled=True, pool=pool)
    push = PushSocket([pull.address], hwm=8)
    push.send(b"a" * 32)
    first = pull.recv_frame(timeout=5)
    lingering = first.data[:8]  # e.g. a sample view nobody dropped yet
    first.release()  # back in the pool, still exported
    # The reader already holds a second buffer for the next frame; the
    # one after that comes out of the pool — the exported one.
    push.send(b"b" * 32)
    pull.recv_frame(timeout=5).release()
    big = bytes(range(256)) * 8
    push.send(big)
    frame = pull.recv_frame(timeout=5)
    assert frame.data == big
    assert lingering == b"a" * 8
    assert pull.reader_errors == 0
    frame.release()
    push.send(b"c" * 16)  # and the stream goes on
    assert pull.recv(timeout=5) == b"c" * 16
    push.close()
    pull.close()


def test_reader_death_is_counted_and_drops_the_connection(monkeypatch, caplog):
    pull = PullSocket(hwm=8, pooled=True)
    real = Channel.recv_into
    armed = [True]

    def recv_into(self, buf):
        if armed[0]:
            armed[0] = False
            raise RuntimeError("reader bug")
        return real(self, buf)

    monkeypatch.setattr(Channel, "recv_into", recv_into)
    push = PushSocket([pull.address], hwm=8, reconnect=ReconnectPolicy())
    deadline = time.monotonic() + 5
    while pull.reader_errors == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pull.reader_errors == 1
    assert "reader died" in caplog.text
    # The pusher sees the drop, reconnects, and delivery carries on.
    push.send(b"after")
    assert pull.recv(timeout=5) == b"after"
    push.close()
    pull.close()


def test_pooled_send_parts_roundtrip():
    pull = PullSocket(hwm=8, pooled=True)
    push = PushSocket([pull.address], hwm=8)
    segments = (b"head|", b"x" * 1500, b"|tail")
    push.send_parts(segments)
    frame = pull.recv_frame(timeout=5)
    assert frame.data == b"".join(segments)
    frame.release()
    push.close()
    pull.close()


def test_close_flushes_credit_starved_writer():
    """Regression: with a small HWM the stream queue empties while the
    writer still holds popped-but-unsent messages hostage to outstanding
    credits; close() must wait for those too, not just empty queues —
    otherwise the tail of an epoch is silently dropped (surfaced as a
    receiver stall over narrow shaped links)."""
    pull = PullSocket(hwm=1)
    push = PushSocket([pull.address], hwm=1)
    done = threading.Event()

    def send_and_close():
        for i in range(6):
            push.send(f"{i}".encode())
        push.close(timeout=10.0)  # returns only once everything is on the wire
        done.set()

    t = threading.Thread(target=send_and_close, daemon=True)
    t.start()
    # Drain slowly: each recv returns one credit, releasing the next send.
    got = []
    for _ in range(6):
        time.sleep(0.05)
        got.append(int(pull.recv(timeout=5)))
    t.join(timeout=10.0)
    assert done.is_set()
    assert sorted(got) == list(range(6))
    pull.close()
