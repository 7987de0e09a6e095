"""DES resources: bounded stores and counted resources.

:class:`Store` is the workhorse — a simulated queue (a daemon's output
queue, an MQ high-water mark, a receiver's prefetch queue) is a bounded
Store.  ``put`` blocks when full, which is exactly the HWM backpressure
semantics of EMLIO's PUSH sockets (paper §4.5).

:class:`Resource` models counted capacity (worker threads, NIC streams):
``request`` blocks until a slot frees.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.core import Event, Simulator


class Store:
    """FIFO store with optional capacity bound.

    ``put(item)`` returns an Event that fires once the item is accepted;
    ``get()`` returns an Event that fires with the next item.  Items are
    delivered in put order; waiters are served in arrival order.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf")) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def level(self) -> int:
        """Items currently stored."""
        return len(self.items)

    def put(self, item: Any) -> Event:
        ev = Event(self.sim)
        self._putters.append((ev, item))
        self._dispatch()
        return ev

    def get(self) -> Event:
        ev = Event(self.sim)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self.items:
            item = self.items.popleft()
            self._dispatch()
            return True, item
        return False, None

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Admit pending puts while there is room.
            while self._putters and len(self.items) < self.capacity:
                ev, item = self._putters.popleft()
                self.items.append(item)
                ev.succeed(item)
                progressed = True
            # Serve pending gets while there are items.
            while self._getters and self.items:
                ev = self._getters.popleft()
                ev.succeed(self.items.popleft())
                progressed = True


class Resource:
    """Counted resource with ``capacity`` slots.

    ``request()`` yields an Event firing when a slot is acquired; callers
    must ``release()`` exactly once per acquired slot.  Over-release raises —
    a leaked release means a model accounted the same thread twice.
    """

    def __init__(self, sim: Simulator, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def available(self) -> int:
        """Free capacity slots."""
        return self.capacity - self.in_use

    def request(self) -> Event:
        ev = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed(None)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError("release() without matching request()")
        if self._waiters:
            # Hand the slot directly to the next waiter.
            self._waiters.popleft().succeed(None)
        else:
            self.in_use -= 1

    def use(self, duration: float):
        """Process helper: hold one slot for ``duration`` virtual seconds."""

        def _use():
            yield self.request()
            try:
                yield self.sim.timeout(duration)
            finally:
                self.release()

        return self.sim.process(_use(), name="resource.use")
