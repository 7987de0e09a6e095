"""Token-bucket rate limiter used for bandwidth shaping.

The network emulator (:mod:`repro.net.emulation`) shapes each direction of a
link to a configured line rate.  A token bucket is the standard way to do
this: tokens refill at ``rate`` bytes/second up to ``capacity``; a payload of
``n`` bytes may pass once ``n`` tokens are available.

The bucket is clock-agnostic so the same shaping logic serves both the live
transport (monotonic clock, real sleeps) and a virtual clock (where
``reserve`` returns the *delay* a simulator should apply).
"""

from __future__ import annotations

import threading

from repro.util.clock import Clock, MonotonicClock


class TokenBucket:
    """Classic token bucket.

    Parameters
    ----------
    rate:
        Refill rate in tokens (bytes) per second.  ``float("inf")`` disables
        shaping.
    capacity:
        Maximum burst size in tokens.  Defaults to one second of tokens.
    clock:
        Time source used to compute refill; defaults to monotonic time.
    """

    def __init__(
        self,
        rate: float,
        capacity: float | None = None,
        clock: Clock | None = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.capacity = float(capacity if capacity is not None else rate)
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._clock = clock or MonotonicClock()
        self._tokens = self.capacity
        self._last = self._clock.now()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
            self._last = now

    def reserve(self, n: float) -> float:
        """Debit ``n`` tokens and return the delay (s) until they are earned.

        The debit always succeeds — the bucket may go negative — and the
        returned delay tells the caller how long to wait before the payload
        is considered "on the wire".  Reserving more than ``capacity`` is
        allowed (a single payload larger than the burst size just takes
        ``n/rate`` seconds); this mirrors how a serializing link behaves.
        """
        if n < 0:
            raise ValueError(f"cannot reserve negative tokens ({n})")
        if self.rate == float("inf") or n == 0:
            return 0.0
        with self._lock:
            now = self._clock.now()
            self._refill(now)
            self._tokens -= n
            if self._tokens >= 0:
                return 0.0
            return -self._tokens / self.rate

    def would_delay(self, n: float) -> float:
        """Delay ``reserve(n)`` would return, without debiting."""
        if self.rate == float("inf") or n == 0:
            return 0.0
        with self._lock:
            now = self._clock.now()
            self._refill(now)
            deficit = n - self._tokens
            return max(0.0, deficit / self.rate)

    @property
    def tokens(self) -> float:
        """Current token level (after refill), mainly for tests."""
        with self._lock:
            self._refill(self._clock.now())
            return self._tokens
