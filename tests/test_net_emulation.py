"""Unit tests for the DelayPipe and LinkShaper (netem substitute)."""

import threading
import time

import pytest

from repro.net.emulation import PROFILES, DelayPipe, LinkShaper, NetworkProfile


def collect_pipe(delays_items):
    """Run a DelayPipe over (delay, item) pairs; return delivery order."""
    received = []
    done = threading.Event()
    n = len(delays_items)

    def deliver(item):
        received.append(item)
        if len(received) == n:
            done.set()

    pipe = DelayPipe(deliver)
    for delay, item in delays_items:
        pipe.submit(item, delay)
    assert done.wait(timeout=5)
    pipe.close()
    return received


def test_delay_pipe_delivers_everything():
    assert collect_pipe([(0.01, i) for i in range(20)]) == list(range(20))


def test_delay_pipe_preserves_fifo_even_with_shrinking_delays():
    """A later item with a smaller delay must not overtake (TCP ordering)."""
    items = [(0.05, "slow"), (0.0, "fast")]
    assert collect_pipe(items) == ["slow", "fast"]


def test_delay_pipe_applies_delay():
    received = []
    done = threading.Event()
    pipe = DelayPipe(lambda item: (received.append(time.monotonic()), done.set()))
    t0 = time.monotonic()
    pipe.submit("x", 0.05)
    assert done.wait(timeout=5)
    assert received[0] - t0 >= 0.045
    pipe.close()


def test_delay_pipe_rejects_negative_delay():
    pipe = DelayPipe(lambda item: None)
    with pytest.raises(ValueError):
        pipe.submit("x", -0.1)
    pipe.close()


def test_delay_pipe_submit_after_close_rejected():
    pipe = DelayPipe(lambda item: None)
    pipe.close()
    with pytest.raises(RuntimeError):
        pipe.submit("x", 0.0)


def test_delay_pipe_close_drains():
    received = []
    pipe = DelayPipe(received.append)
    for i in range(5):
        pipe.submit(i, 0.02)
    pipe.close(drain=True)
    assert received == [0, 1, 2, 3, 4]


def test_delay_pipe_failed_delivery_closes_as_a_connection_error(caplog):
    """A delivery that raises (the receiving side went away) closes the
    pipe: the failure is logged and counted, and a later submit reads as
    the peer's absence — a ConnectionError, like an unshaped socket's."""

    def deliver(item):
        raise BrokenPipeError("peer gone")

    before = DelayPipe.delivery_failures
    pipe = DelayPipe(deliver, name="gone")
    with caplog.at_level("DEBUG", logger="repro.net.emulation"):
        pipe.submit("credit", 0.02)
        pipe.submit("queued", 0.05)
        deadline = time.monotonic() + 5
        while DelayPipe.delivery_failures == before and time.monotonic() < deadline:
            time.sleep(0.005)
    assert DelayPipe.delivery_failures == before + 1
    assert "gone: delivery failed" in caplog.text and "dropped 1" in caplog.text
    with pytest.raises(ConnectionError):
        pipe.submit("late", 0.0)
    pipe.close()


def test_link_shaper_delay_components():
    shaper = LinkShaper(NetworkProfile("x", rtt_s=0.02, bandwidth_bps=1e6))
    # Propagation floor is always paid.
    assert shaper.delay_for(0) >= 0.01
    # Large payloads add serialization backlog.
    big = shaper.delay_for(2_000_000)
    assert big > 1.0  # 2 MB over 1 MB/s


def test_link_shaper_unshaped_bandwidth():
    shaper = LinkShaper(NetworkProfile("x", rtt_s=0.01))
    assert shaper.delay_for(10**9) == pytest.approx(0.005)


def test_builtin_profiles_cover_paper_regimes():
    assert set(PROFILES) == {
        "local", "lan-0.1ms", "lan-1ms", "lan-10ms", "wan-30ms", "shm"
    }
    assert PROFILES["wan-30ms"].rtt_s == pytest.approx(0.03)
    assert PROFILES["local"].rtt_s == 0.0
    # The shm profile is a co-located pair: nothing to shape.
    assert PROFILES["shm"].rtt_s == 0.0
    assert PROFILES["shm"].bandwidth_bps == float("inf")
    # All emulated regimes ride the testbed's 10 GbE.
    for name, p in PROFILES.items():
        if name != "shm":
            assert p.bandwidth_bps == pytest.approx(10e9 / 8)
