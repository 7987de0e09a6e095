"""Kept worker threads: a :class:`Lane` runs the calls submitted to it, in
order, on one daemon thread until it is closed — so an owner that keeps its
lanes hands each epoch's work to threads that already exist."""

from __future__ import annotations

import logging
import queue
import threading
from typing import Callable

_log = logging.getLogger(__name__)


class Lane:
    """One kept daemon thread fed by a queue of calls."""

    def __init__(self, name: str) -> None:
        self._calls: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()  # no call is queued behind the stop
        self._closed = False
        self._thread = threading.Thread(target=self._loop, daemon=True, name=name)
        self._thread.start()

    def submit(self, fn: Callable[..., object], *args) -> threading.Event:
        """Queue ``fn(*args)``; the event is set once it returned or raised."""
        done = threading.Event()
        with self._lock:
            if self._closed:
                raise RuntimeError(f"lane {self._thread.name} is closed")
            self._calls.put((fn, args, done))
        return done

    def close(self, timeout: float = 0.0) -> None:
        """Stop after the calls already queued, waiting up to ``timeout`` s."""
        with self._lock:
            if not self._closed:
                self._closed = True
                self._calls.put(None)
        if timeout > 0:
            self._thread.join(timeout)

    def _loop(self) -> None:
        while (call := self._calls.get()) is not None:
            fn, args, done = call
            try:
                fn(*args)
            except Exception:  # noqa: BLE001 - the lane outlives one bad call
                _log.exception("lane %s: submitted call raised", self._thread.name)
            finally:
                done.set()
