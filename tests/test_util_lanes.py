"""Lane: one kept thread that runs submitted calls in order until closed."""

import threading

import pytest

from repro.util.lanes import Lane


def test_calls_run_in_order_on_one_thread_and_outlive_a_raising_call():
    lane = Lane("lane-test")
    seen: list = []

    def boom():
        raise ValueError("one bad call")

    try:
        events = [
            lane.submit(seen.append, 1),
            lane.submit(boom),
            lane.submit(lambda: seen.append(threading.current_thread().name)),
        ]
        assert all(done.wait(5.0) for done in events)
        assert seen == [1, "lane-test"]
    finally:
        lane.close(timeout=5.0)
    assert not lane._thread.is_alive()


def test_close_runs_what_was_queued_and_refuses_later_calls():
    lane = Lane("lane-test")
    gate = threading.Event()
    ran: list = []
    first = lane.submit(gate.wait, 5.0)
    queued = lane.submit(ran.append, "queued")
    lane.close()  # does not wait: the first call still blocks
    with pytest.raises(RuntimeError, match="closed"):
        lane.submit(ran.append, "late")
    gate.set()
    assert first.wait(5.0) and queued.wait(5.0)
    lane._thread.join(5.0)
    assert ran == ["queued"] and not lane._thread.is_alive()
