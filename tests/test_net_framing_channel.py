"""Tests for framing and channels, including latency emulation."""

import socket
import sys
import threading
import time

import pytest

from repro.net.channel import Channel, Listener, connect_channel
from repro.net.emulation import NetworkProfile
from repro.net.framing import (
    ConnectionClosed,
    recv_frame,
    recv_frame_into,
    send_frame,
    send_frame_parts,
)


def socket_pair():
    a, b = socket.socketpair()
    return a, b


def test_frame_roundtrip():
    a, b = socket_pair()
    send_frame(a, b"hello world")
    assert recv_frame(b) == b"hello world"
    a.close(), b.close()


def test_empty_frame():
    a, b = socket_pair()
    send_frame(a, b"")
    assert recv_frame(b) == b""
    a.close(), b.close()


def test_multiple_frames_in_order():
    a, b = socket_pair()
    frames = [f"frame-{i}".encode() for i in range(10)]
    for f in frames:
        send_frame(a, f)
    assert [recv_frame(b) for _ in range(10)] == frames
    a.close(), b.close()


def test_large_frame():
    a, b = socket_pair()
    payload = bytes(range(256)) * 4096  # 1 MiB
    t = threading.Thread(target=send_frame, args=(a, payload))
    t.start()
    assert recv_frame(b) == payload
    t.join()
    a.close(), b.close()


# -- scatter-gather framing (the zero-copy wire format) ------------------------


def test_send_frame_parts_multi_segment_roundtrip():
    a, b = socket_pair()
    n = send_frame_parts(a, [b"head", bytearray(b"-mid-"), memoryview(b"tail")])
    assert n == 13
    assert recv_frame(b) == b"head-mid-tail"
    a.close(), b.close()


def test_send_frame_parts_more_segments_than_iov_batch():
    a, b = socket_pair()
    parts = [bytes([i % 256]) * 3 for i in range(200)]  # > _IOV_BATCH entries
    t = threading.Thread(target=send_frame_parts, args=(a, parts))
    t.start()
    assert recv_frame(b) == b"".join(parts)
    t.join()
    a.close(), b.close()


def test_send_frame_parts_skips_empty_segments():
    a, b = socket_pair()
    send_frame_parts(a, [b"", b"x", b"", b"y", b""])
    assert recv_frame(b) == b"xy"
    a.close(), b.close()


def test_send_frame_parts_large_payload_partial_sends():
    a, b = socket_pair()
    parts = [bytes(range(256)) * 2048] * 2  # 1 MiB total: forces partial sends
    t = threading.Thread(target=send_frame_parts, args=(a, parts))
    t.start()
    assert recv_frame(b) == b"".join(parts)
    t.join()
    a.close(), b.close()


def test_recv_frame_into_reuses_and_grows_buffer():
    a, b = socket_pair()
    buf = bytearray()
    send_frame(a, b"abc")
    assert bytes(recv_frame_into(b, buf)) == b"abc"
    capacity = len(buf)
    assert capacity >= 3
    send_frame(a, b"xy")
    assert bytes(recv_frame_into(b, buf)) == b"xy"
    assert len(buf) == capacity  # smaller frame: no shrink, no realloc
    big = b"z" * (capacity + 100)
    t = threading.Thread(target=send_frame, args=(a, big))
    t.start()
    assert bytes(recv_frame_into(b, buf)) == big
    t.join()
    assert len(buf) >= len(big)  # grew in place
    a.close(), b.close()


def test_recv_frame_into_leaves_an_exported_buffer_alone():
    # A bytearray cannot be resized while a view exports it (a pooled
    # buffer handed back while the previous batch's samples still alias
    # it): the frame must land in a fresh buffer, not kill the reader.
    a, b = socket_pair()
    buf = bytearray(b"old-frame")
    lingering = memoryview(buf)
    big = b"n" * 1000
    send_frame(a, big)
    view = recv_frame_into(b, buf)
    assert bytes(view) == big
    assert view.obj is not buf  # the caller adopts view.obj
    assert bytes(lingering) == b"old-frame"  # and the old views stay valid
    a.close(), b.close()


def test_recv_frame_into_empty_frame():
    a, b = socket_pair()
    send_frame(a, b"")
    assert bytes(recv_frame_into(b, bytearray())) == b""
    a.close(), b.close()


def test_channel_send_parts_and_recv_into():
    a, b = socket_pair()
    ca, cb = Channel(a), Channel(b)
    ca.send_parts([b"ab", b"cd", b"ef"])
    buf = bytearray(64)
    view = cb.recv_into(buf)
    assert bytes(view) == b"abcdef"
    assert ca.bytes_sent == 6 and cb.bytes_received == 6
    ca.close(), cb.close()


def test_channel_send_parts_shaped_path_joins():
    profile = NetworkProfile("t", rtt_s=0.005)
    with Listener() as listener:
        got = {}

        def server():
            chan = listener.accept(timeout=5)
            got["msg"] = chan.recv()
            chan.close()

        t = threading.Thread(target=server)
        t.start()
        client = connect_channel("127.0.0.1", listener.port, profile=profile)
        client.send_parts([b"sha", b"ped"])
        t.join(timeout=5)
        assert got["msg"] == b"shaped"
        client.close()


def test_concurrent_senders_byte_accounting_is_exact(monkeypatch):
    """``bytes_sent`` updates are serialized under the accounting lock, so
    the total is exact no matter how many threads share the channel (an
    unlocked read-modify-write may drop increments; CPython's bytecode-level
    atomicity is an implementation detail, not a contract).

    The wire write is stubbed out so the counter update dominates each send
    and thread switches are forced every microsecond."""
    import repro.net.channel as channel_module

    for name in ("send_frame", "send_frame_parts"):
        if hasattr(channel_module, name):
            monkeypatch.setattr(channel_module, name, lambda *a, **k: None)
    a, b = socket_pair()
    chan = Channel(a)
    nthreads, per_thread, size = 8, 5000, 32
    payload = b"x" * size

    def sender():
        for _ in range(per_thread):
            chan.send(payload)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hammer the increment window
    try:
        threads = [threading.Thread(target=sender) for _ in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old)
    assert chan.bytes_sent == nthreads * per_thread * size
    chan.close()
    b.close()


def test_clean_eof_raises_connection_closed():
    a, b = socket_pair()
    a.close()
    with pytest.raises(ConnectionClosed):
        recv_frame(b)
    b.close()


def test_oversized_incoming_frame_rejected():
    import struct

    from repro.net.framing import MAX_FRAME

    a, b = socket_pair()
    a.sendall(struct.pack(">I", MAX_FRAME + 1))  # corrupted length prefix
    with pytest.raises(ValueError, match="exceeds MAX_FRAME"):
        recv_frame(b)
    a.close(), b.close()


def test_channel_roundtrip_unshaped():
    with Listener() as listener:
        results = {}

        def server():
            chan = listener.accept(timeout=5)
            results["got"] = chan.recv()
            chan.send(b"pong")
            chan.close()

        t = threading.Thread(target=server)
        t.start()
        client = connect_channel("127.0.0.1", listener.port)
        client.send(b"ping")
        assert client.recv() == b"pong"
        t.join()
        assert results["got"] == b"ping"
        assert client.bytes_sent == 4 and client.bytes_received == 4
        client.close()


@pytest.mark.parametrize("rtt_ms", [20.0, 60.0])
def test_emulated_rtt_on_request_response(rtt_ms):
    profile = NetworkProfile("test", rtt_s=rtt_ms / 1000.0)
    with Listener(profile=profile) as listener:

        def server():
            chan = listener.accept(timeout=5)
            while True:
                try:
                    msg = chan.recv()
                except (ConnectionError, OSError):
                    return
                chan.send(msg)

        t = threading.Thread(target=server, daemon=True)
        t.start()
        client = connect_channel("127.0.0.1", listener.port, profile=profile)
        client.send(b"warmup")
        client.recv()
        start = time.monotonic()
        rounds = 3
        for _ in range(rounds):
            client.send(b"x")
            client.recv()
        elapsed = time.monotonic() - start
        expected = rounds * rtt_ms / 1000.0
        assert elapsed >= expected * 0.9
        assert elapsed < expected * 3.0 + 0.2
        client.close()


def test_emulated_latency_does_not_serialize_pipelined_sends():
    """10 pipelined messages over a 50 ms one-way link must take ~1 RTT,
    not 10 RTTs — the netem property EMLIO's prefetching exploits."""
    profile = NetworkProfile("test", rtt_s=0.1)
    with Listener() as listener:  # server replies unshaped
        received = []
        done = threading.Event()

        def server():
            chan = listener.accept(timeout=5)
            for _ in range(10):
                received.append(chan.recv())
            done.set()

        t = threading.Thread(target=server, daemon=True)
        t.start()
        client = connect_channel("127.0.0.1", listener.port, profile=profile)
        start = time.monotonic()
        for i in range(10):
            client.send(f"msg{i}".encode())
        assert done.wait(timeout=5)
        elapsed = time.monotonic() - start
        # one-way 50 ms: all 10 messages should land well within 3x one-way.
        assert elapsed < 0.15
        assert received == [f"msg{i}".encode() for i in range(10)]
        client.close()


def test_bandwidth_shaping_slows_bulk_transfer():
    # 1 MiB over a 4 MiB/s emulated link: >= ~0.2 s (allowing burst capacity).
    profile = NetworkProfile("slow", rtt_s=0.0, bandwidth_bps=4 * 1024 * 1024)
    with Listener() as listener:
        got = []
        done = threading.Event()

        def server():
            chan = listener.accept(timeout=5)
            got.append(chan.recv())
            done.set()

        threading.Thread(target=server, daemon=True).start()
        client = connect_channel("127.0.0.1", listener.port, profile=profile)
        payload = b"z" * (1024 * 1024)
        start = time.monotonic()
        client.send(payload)
        assert done.wait(timeout=10)
        elapsed = time.monotonic() - start
        assert elapsed >= 0.15
        assert got[0] == payload
        client.close()


def test_profile_validation():
    with pytest.raises(ValueError):
        NetworkProfile("bad", rtt_s=-1.0)
    with pytest.raises(ValueError):
        NetworkProfile("bad", rtt_s=0.0, bandwidth_bps=0.0)


def test_profile_transfer_time():
    p = NetworkProfile("x", rtt_s=0.01, bandwidth_bps=1000.0)
    assert p.transfer_time(500) == pytest.approx(0.5)
    assert p.one_way_s == pytest.approx(0.005)
    assert NetworkProfile("y", rtt_s=0.0).transfer_time(10**9) == 0.0


def test_send_on_closed_channel_raises():
    a, _b = socket_pair()
    chan = Channel(a)
    chan.close()
    with pytest.raises(ConnectionError):
        chan.send(b"x")
