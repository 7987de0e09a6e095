"""Network emulation: the ``tc``/``qdisc`` substitute (paper §5.1 setup).

A :class:`NetworkProfile` describes one link: round-trip time and line rate.
:class:`DelayPipe` implements the netem behaviour for the live transport:
each payload is scheduled for delivery ``one_way_delay + serialization``
seconds after submission, preserving order, *without blocking the sender* —
so a pipelined sender keeps the link full exactly as over a real WAN, while
a request/response protocol pays the full RTT per round trip.

The same profile objects parameterize the DES models (:mod:`repro.modelsim`),
so live integration tests and full-scale simulations share one vocabulary.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.util.clock import MonotonicClock
from repro.util.rate import TokenBucket

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NetworkProfile:
    """One emulated link.

    Attributes
    ----------
    name:
        Regime label used in reports (e.g. ``"LAN 10ms"``).
    rtt_s:
        Round-trip time in seconds.  One-way delay is ``rtt_s / 2``.
    bandwidth_bps:
        Line rate in *bytes* per second.  ``inf`` disables shaping.
    """

    name: str
    rtt_s: float
    bandwidth_bps: float = float("inf")

    def __post_init__(self) -> None:
        if self.rtt_s < 0:
            raise ValueError(f"rtt_s must be >= 0, got {self.rtt_s}")
        if self.bandwidth_bps <= 0:
            raise ValueError(f"bandwidth_bps must be > 0, got {self.bandwidth_bps}")

    @property
    def one_way_s(self) -> float:
        """One-way propagation delay in seconds."""
        return self.rtt_s / 2.0

    def transfer_time(self, nbytes: int) -> float:
        """Serialization time for ``nbytes`` on this link (no queueing)."""
        if self.bandwidth_bps == float("inf"):
            return 0.0
        return nbytes / self.bandwidth_bps


_10GBE = 10e9 / 8  # the testbed's 10 Gbps NICs, in bytes/s

# The paper's four-plus regimes (§5.1): local disk, LAN 0.1 ms, emulated
# 1/10 ms, WAN 30 ms.  All over 10 GbE.
LOCAL = NetworkProfile("local", rtt_s=0.0, bandwidth_bps=_10GBE)
LAN_0_1MS = NetworkProfile("lan-0.1ms", rtt_s=0.1e-3, bandwidth_bps=_10GBE)
LAN_1MS = NetworkProfile("lan-1ms", rtt_s=1e-3, bandwidth_bps=_10GBE)
LAN_10MS = NetworkProfile("lan-10ms", rtt_s=10e-3, bandwidth_bps=_10GBE)
WAN_30MS = NetworkProfile("wan-30ms", rtt_s=30e-3, bandwidth_bps=_10GBE)
# Co-located pair over the shared-memory ring (repro.net.shm): no link to
# shape, so no delay and no rate cap.  Selecting this profile forces
# ``transport="shm"`` on the data path (see repro.api.spec.NetworkSpec).
SHM = NetworkProfile("shm", rtt_s=0.0)

PROFILES = {p.name: p for p in (LOCAL, LAN_0_1MS, LAN_1MS, LAN_10MS, WAN_30MS, SHM)}


def register_profile(profile: NetworkProfile, replace: bool = False) -> NetworkProfile:
    """Add a profile to the shared :data:`PROFILES` table.

    The same table backs :data:`repro.api.registry.NETWORK_PROFILES`, so a
    profile registered here is resolvable from deployment specs (and vice
    versa).  Duplicate names are rejected unless ``replace=True``.
    """
    if profile.name in PROFILES and not replace:
        raise ValueError(
            f"network profile {profile.name!r} already registered; "
            f"pass replace=True to override"
        )
    PROFILES[profile.name] = profile
    return profile


class PipeClosed(ConnectionError, RuntimeError):
    """``submit()`` on a closed :class:`DelayPipe`.

    A pipe closes when its owner closes it or when a delivery fails (the
    receiving side went away).  Either way the emulated link is gone, so
    senders see the same ``ConnectionError`` an unshaped socket raises.
    """


class DelayPipe:
    """Deliver submitted items after a per-item delay, preserving order.

    One background thread pops a time-ordered heap and invokes the delivery
    callback.  FIFO order between items is guaranteed even when a later item
    computes a smaller delay (delivery time is clamped to be monotone), which
    matches in-order TCP delivery.

    A delivery that raises closes the pipe: the remaining items are dropped,
    the failure is logged once and counted in :attr:`delivery_failures`,
    and later submits raise :class:`PipeClosed`.
    """

    #: Pipes (process-wide) whose delivery callback raised.
    delivery_failures = 0
    _failures_lock = threading.Lock()

    def __init__(self, deliver: Callable[[Any], None], name: str = "delaypipe") -> None:
        self._deliver = deliver
        self._clock = MonotonicClock()
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = itertools.count()
        self._cond = threading.Condition()
        self._closed = False
        self._last_delivery_at = 0.0
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def submit(self, item: Any, delay: float) -> None:
        """Schedule ``item`` for delivery ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        with self._cond:
            if self._closed:
                raise PipeClosed("submit() on a closed DelayPipe")
            at = self._clock.now() + delay
            # Clamp to preserve FIFO: never deliver before an earlier item.
            at = max(at, self._last_delivery_at)
            self._last_delivery_at = at
            heapq.heappush(self._heap, (at, next(self._seq), item))
            if len(self._heap) == 1:
                # Only an empty pipe's thread needs waking: otherwise it is
                # timed on a head that is due no later than this item.
                self._cond.notify()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._heap and not self._closed:
                    self._cond.wait()
                if self._closed and not self._heap:
                    return
                at, _seq, item = self._heap[0]
                now = self._clock.now()
                if at > now:
                    self._cond.wait(timeout=at - now)
                    continue
                heapq.heappop(self._heap)
                if not self._heap:
                    self._cond.notify_all()  # wake a draining close()
            try:
                self._deliver(item)
            except Exception as err:  # noqa: BLE001 - logged and counted below
                with self._cond:
                    dropped = len(self._heap)
                    self._closed = True
                    self._heap.clear()
                    self._cond.notify_all()
                # A vanished peer (OSError) is the usual cause and expected
                # at teardown; anything else is a bug in the callback.
                _log.log(
                    logging.DEBUG if isinstance(err, OSError) else logging.ERROR,
                    "%s: delivery failed (%r); dropped %d queued item(s)",
                    self._thread.name, err, dropped,
                )
                # Counted after logging: the counter never runs ahead of it.
                with DelayPipe._failures_lock:
                    DelayPipe.delivery_failures += 1
                return

    def close(self, drain: bool = True) -> None:
        """Stop the pipe; by default wait for queued items to deliver."""
        if drain:
            with self._cond:
                while self._heap and not self._closed:
                    self._cond.wait()
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout=5.0)


class LinkShaper:
    """Combines a profile's delay and bandwidth into per-payload delays.

    ``delay_for(nbytes)`` = one-way propagation + token-bucket serialization
    backlog.  Each direction of a connection owns its own shaper.
    """

    def __init__(self, profile: NetworkProfile) -> None:
        self.profile = profile
        self._bucket = (
            TokenBucket(profile.bandwidth_bps, capacity=profile.bandwidth_bps * 0.01)
            if profile.bandwidth_bps != float("inf")
            else None
        )

    def delay_for(self, nbytes: int) -> float:
        delay = self.profile.one_way_s
        if self._bucket is not None:
            delay += self._bucket.reserve(nbytes)
        return delay
