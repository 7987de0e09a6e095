"""Clock abstractions.

EMLIO's measurement framework (paper §3) depends on NTP-aligned timestamps so
energy tuples from different nodes can be joined on the same instant.  Inside
one process we get the same property by routing *every* time read through a
:class:`Clock` object:

* :class:`WallClock` / :class:`MonotonicClock` — real time, used by the live
  networked implementation.
* :class:`VirtualClock` — a settable clock advanced by the discrete-event
  simulator (:mod:`repro.sim`), so a simulated 30 ms-RTT exchange does not
  take 30 ms of wall time per round trip.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Minimal time source: a single ``now()`` returning seconds as float."""

    def now(self) -> float:  # pragma: no cover - protocol stub
        ...


class WallClock:
    """Real wall-clock time (``time.time``), for NTP-style absolute stamps."""

    def now(self) -> float:
        """Current time in seconds."""
        return time.time()

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds`` of real time."""
        if seconds > 0:
            time.sleep(seconds)


class MonotonicClock:
    """Monotonic time (``time.monotonic``), for durations and rate limiting."""

    def now(self) -> float:
        """Current time in seconds."""
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds`` of real time."""
        if seconds > 0:
            time.sleep(seconds)


class VirtualClock:
    """A clock whose time only moves when explicitly advanced.

    The simulator owns instances of this class; model code reads ``now()``
    exactly like it would from a :class:`WallClock`.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        """Current time in seconds."""
        return self._now

    def advance(self, dt: float) -> None:
        """Move time forward by ``dt`` seconds (must be non-negative)."""
        if dt < 0:
            raise ValueError(f"cannot advance a clock backwards (dt={dt})")
        self._now += dt

    def set(self, t: float) -> None:
        """Jump to absolute time ``t`` (must not be in the past)."""
        if t < self._now:
            raise ValueError(f"cannot set clock backwards ({t} < {self._now})")
        self._now = float(t)
