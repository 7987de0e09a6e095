"""Cluster membership — who is alive, and who owns what.

The control plane extracted from PR 1's ad-hoc failover: every participant
(storage daemon, compute-node receiver) publishes heartbeats over
:mod:`repro.net.heartbeat`; a :class:`ClusterView` folds those beats into a
per-member liveness state machine and emits :class:`MembershipEvent`\\ s the
supervisor (:class:`~repro.core.supervisor.Supervisor`) consumes to drive
failover.  Nothing in here knows about batch plans or sockets — membership
is a pure fact base, which is what lets every future scaling PR (sharding,
elastic membership) build on it.

Failure detection covers three distinct signatures:

* **crash** — beats stop (or an explicit ``failed`` beat arrives: the fast
  path a supervisor wires when it *observes* the death firsthand).  After
  ``miss_threshold`` silent intervals the member is SUSPECT; after
  ``dead_threshold`` it is DEAD.
* **hang** — beats keep arriving with ``state == "serving"`` but the
  progress counter is frozen for longer than ``hung_after_s`` (counted
  from the last advance or the last switch into ``serving``).  A hung
  serve thread is alive, error-free, and utterly useless; thread-state
  polling can never see this.
* **partition** — indistinguishable from a crash on this side of the
  partition, by design; the member is declared DEAD and, should its beats
  return with the same incarnation, a ``recovered`` event fires (the
  supervisor decides whether to reintegrate — re-planned work is never
  clawed back).
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.net.heartbeat import (
    STATE_FAILED,
    STATE_LEAVING,
    STATE_SERVING,
    Heartbeat,
)


class MemberStatus(enum.Enum):
    """Liveness verdict for one member."""

    ALIVE = "alive"
    SUSPECT = "suspect"  # missed beats; failover not yet triggered
    DEAD = "dead"  # miss/hang/explicit failure — failover territory
    LEFT = "left"  # clean departure — never failed over


@dataclass(frozen=True)
class MembershipConfig:
    """Tunables of the failure detector.

    Attributes
    ----------
    interval_s:
        Expected beat period (publishers should use the same value).
    miss_threshold:
        Silent intervals before a member turns SUSPECT.
    dead_threshold:
        Silent intervals before a member turns DEAD (must exceed
        ``miss_threshold``).
    hung_after_s:
        Seconds of frozen progress (while beating and ``serving``) before a
        member is declared DEAD with reason ``"hung"``.  ``0`` disables
        hang detection.  Receivers advance progress from the
        pipeline-*consumption* boundary, so this must exceed the
        worst-case time the consumer spends between batches (e.g. one
        training step) — a slower-than-threshold consumer with payloads
        queued is indistinguishable from a wedged one.
    """

    interval_s: float = 0.5
    miss_threshold: int = 2
    dead_threshold: int = 4
    hung_after_s: float = 5.0

    def __post_init__(self) -> None:
        # Float bounds are written so that NaN, which fails every
        # comparison, fails them too.
        if not self.interval_s > 0:
            raise ValueError(f"interval_s must be > 0, got {self.interval_s}")
        if self.miss_threshold < 1:
            raise ValueError(f"miss_threshold must be >= 1, got {self.miss_threshold}")
        if self.dead_threshold <= self.miss_threshold:
            raise ValueError(
                f"dead_threshold ({self.dead_threshold}) must exceed "
                f"miss_threshold ({self.miss_threshold})"
            )
        if not self.hung_after_s >= 0:
            raise ValueError(f"hung_after_s must be >= 0, got {self.hung_after_s}")


@dataclass(frozen=True)
class MembershipEvent:
    """One liveness transition the supervisor should react to."""

    kind: str  # joined | suspect | dead | recovered | left
    member_id: str
    role: str
    reason: str = ""
    incarnation: int = 0


#: Smoothing factor of the per-member observed-throughput EWMA: high enough
#: to follow a genuine load shift within a few beats, low enough that one
#: bursty beat does not whipsaw the placement engine's weights.
RATE_EWMA_ALPHA = 0.3


@dataclass
class Member:
    """Mutable tracked state of one cluster member."""

    member_id: str
    role: str
    incarnation: int
    status: MemberStatus = MemberStatus.ALIVE
    last_seen: float = 0.0  # monotonic clock
    progress: int = 0
    progress_changed: float = 0.0
    state: str = STATE_SERVING
    beats: int = 0
    death_reason: str = ""  # "hung" | "missed" | explicit failure detail
    queue_depth: int = 0  # received-but-unconsumed payloads, from beats
    rate: float = 0.0  # observed throughput: EWMA of progress deltas per second
    cache_hits: int = 0  # cumulative storage-cache hits, from beats
    cache_misses: int = 0  # cumulative storage-cache misses, from beats
    prefetch_depth: int = 0  # storage-cache range-GETs in flight, from beats
    decode_ns: int = 0  # mean payload-deserialize ns per batch, from beats
    preprocess_ns: int = 0  # mean decode/augment ns per batch, from beats
    starved_ns: int = 0  # mean consumer-starved ns per batch, from beats

    @property
    def cache_hit_rate(self) -> float | None:
        """Hit fraction of the member's storage cache; None before any read."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else None

    def snapshot(self) -> dict:
        """JSON-able copy for status tooling."""
        rate = self.cache_hit_rate
        return {
            "member_id": self.member_id,
            "role": self.role,
            "incarnation": self.incarnation,
            "status": self.status.value,
            "state": self.state,
            "progress": self.progress,
            "queue_depth": self.queue_depth,
            "rate": round(self.rate, 3),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": None if rate is None else round(rate, 3),
            "prefetch_depth": self.prefetch_depth,
            "decode_ns": self.decode_ns,
            "preprocess_ns": self.preprocess_ns,
            "starved_ns": self.starved_ns,
            "beats": self.beats,
            "last_seen": self.last_seen,
        }


class ClusterView:
    """Thread-safe membership state machine fed by heartbeats.

    ``observe`` is called from heartbeat-listener reader threads;
    ``poll`` from the supervisor's monitor loop (timeout + hang sweeps).
    Both return the events they generated *and* forward them to
    ``on_event`` (typically ``queue.Queue.put``), so a supervisor can
    consume a single ordered stream.
    """

    def __init__(
        self,
        config: MembershipConfig | None = None,
        on_event: Callable[[MembershipEvent], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or MembershipConfig()
        self.on_event = on_event
        self._clock = clock
        self._members: dict[str, Member] = {}
        self._lock = threading.Lock()

    def _emit(self, events: list[MembershipEvent]) -> list[MembershipEvent]:
        if self.on_event is not None:
            for ev in events:
                self.on_event(ev)
        return events

    def expect(self, member_id: str, role: str, incarnation: int = 0) -> None:
        """Register a member the supervisor knows must exist.

        A participant that crashes before its *first* beat would otherwise
        be invisible — never joined, never declared dead.  Expecting it
        starts the miss clock immediately: no beat within the dead
        threshold and the usual ``dead`` event fires.
        """
        now = self._clock()
        with self._lock:
            if member_id not in self._members:
                self._members[member_id] = Member(
                    member_id=member_id,
                    role=role,
                    incarnation=incarnation,
                    last_seen=now,
                    progress_changed=now,
                )

    def observe(self, hb: Heartbeat) -> list[MembershipEvent]:
        """Fold one heartbeat into the view; returns resulting events."""
        now = self._clock()
        events: list[MembershipEvent] = []
        with self._lock:
            m = self._members.get(hb.member_id)
            if m is not None and hb.incarnation < m.incarnation:
                return []  # stale beat from a previous life
            if m is None or hb.incarnation > m.incarnation:
                # First sight of this identity/incarnation: a join.  A dead
                # member rejoining with a bumped incarnation is a fresh join
                # too — its old life's work was already re-planned.
                m = Member(
                    member_id=hb.member_id,
                    role=hb.role,
                    incarnation=hb.incarnation,
                    last_seen=now,
                    progress=hb.progress,
                    progress_changed=now,
                )
                self._members[hb.member_id] = m
                events.append(
                    MembershipEvent("joined", hb.member_id, hb.role, incarnation=hb.incarnation)
                )
            if hb.state == STATE_FAILED:
                if m.status not in (MemberStatus.DEAD, MemberStatus.LEFT):
                    m.status = MemberStatus.DEAD
                    m.death_reason = "failed"
                    events.append(
                        MembershipEvent(
                            "dead", m.member_id, m.role,
                            reason=hb.detail or "reported failure",
                            incarnation=m.incarnation,
                        )
                    )
                return self._emit(events)
            if hb.state == STATE_LEAVING:
                if m.status is not MemberStatus.LEFT:
                    m.status = MemberStatus.LEFT
                    events.append(
                        MembershipEvent("left", m.member_id, m.role, incarnation=m.incarnation)
                    )
                return self._emit(events)
            dt = now - m.last_seen
            if m.beats > 0 and dt > 0:
                inst = max(0, hb.progress - m.progress) / dt
                m.rate += RATE_EWMA_ALPHA * (inst - m.rate)
            m.beats += 1
            m.last_seen = now
            if hb.state == STATE_SERVING and m.state != STATE_SERVING:
                # The hang clock starts when serving does: progress frozen
                # while idle (e.g. a daemon between epochs) is not a hang.
                m.progress_changed = now
            m.state = hb.state
            m.queue_depth = hb.queue_depth
            m.cache_hits = hb.cache_hits
            m.cache_misses = hb.cache_misses
            m.prefetch_depth = hb.prefetch_depth
            m.decode_ns = hb.decode_ns
            m.preprocess_ns = hb.preprocess_ns
            m.starved_ns = hb.starved_ns
            advanced = hb.progress != m.progress
            if advanced:
                m.progress = hb.progress
                m.progress_changed = now
            if m.status is MemberStatus.SUSPECT:
                m.status = MemberStatus.ALIVE
                events.append(
                    MembershipEvent(
                        "recovered", m.member_id, m.role, reason="beats resumed",
                        incarnation=m.incarnation,
                    )
                )
            elif m.status is MemberStatus.DEAD:
                # Revival needs the *right* evidence for this incarnation:
                # a member dead for silence revives when beats return (the
                # partition healed); a hung member keeps beating by
                # definition, so only renewed progress clears it; an
                # explicit failure is terminal — rejoin with a bumped
                # incarnation or stay dead.
                if m.death_reason == "failed" or (
                    m.death_reason == "hung" and not advanced
                ):
                    return self._emit(events)
                m.status = MemberStatus.ALIVE
                m.death_reason = ""
                m.progress_changed = now
                events.append(
                    MembershipEvent(
                        "recovered", m.member_id, m.role, reason="returned from dead",
                        incarnation=m.incarnation,
                    )
                )
        return self._emit(events)

    def report_failed(self, member_id: str, reason: str = "") -> list[MembershipEvent]:
        """Supervisor-observed death (e.g. it reaped the thread itself)."""
        events: list[MembershipEvent] = []
        with self._lock:
            m = self._members.get(member_id)
            if m is not None and m.status not in (MemberStatus.DEAD, MemberStatus.LEFT):
                m.status = MemberStatus.DEAD
                m.death_reason = "failed"
                events.append(
                    MembershipEvent("dead", m.member_id, m.role, reason=reason or "reported",
                                    incarnation=m.incarnation)
                )
        return self._emit(events)

    def poll(self) -> list[MembershipEvent]:
        """Timeout + hang sweep; call periodically (≲ every interval)."""
        now = self._clock()
        cfg = self.config
        events: list[MembershipEvent] = []
        with self._lock:
            for m in self._members.values():
                if m.status in (MemberStatus.DEAD, MemberStatus.LEFT):
                    continue
                silent = now - m.last_seen
                if silent > cfg.dead_threshold * cfg.interval_s:
                    m.status = MemberStatus.DEAD
                    m.death_reason = "missed"
                    events.append(
                        MembershipEvent(
                            "dead", m.member_id, m.role,
                            reason=f"missed heartbeats for {silent:.2f}s",
                            incarnation=m.incarnation,
                        )
                    )
                    continue
                if (
                    cfg.hung_after_s > 0
                    and m.state == STATE_SERVING
                    and silent <= cfg.miss_threshold * cfg.interval_s  # still beating
                    and now - m.progress_changed > cfg.hung_after_s
                ):
                    m.status = MemberStatus.DEAD
                    m.death_reason = "hung"
                    events.append(
                        MembershipEvent(
                            "dead", m.member_id, m.role,
                            reason=f"hung: no progress for "
                                   f"{now - m.progress_changed:.2f}s while serving",
                            incarnation=m.incarnation,
                        )
                    )
                    continue
                if (
                    m.status is MemberStatus.ALIVE
                    and silent > cfg.miss_threshold * cfg.interval_s
                ):
                    m.status = MemberStatus.SUSPECT
                    events.append(
                        MembershipEvent(
                            "suspect", m.member_id, m.role,
                            reason=f"missed heartbeats for {silent:.2f}s",
                            incarnation=m.incarnation,
                        )
                    )
        return self._emit(events)

    def forget(self, member_id: str) -> None:
        """Drop a member whose lifecycle is fully settled.

        Supervisors call this for per-epoch participants (daemon entries)
        once their epoch is over, so the view, its poll sweep, and status
        snapshots stay bounded by *live* membership instead of growing
        with every epoch served — the membership analogue of ledger
        compaction.
        """
        with self._lock:
            self._members.pop(member_id, None)

    # -- queries ---------------------------------------------------------------

    def members(self) -> dict[str, Member]:
        """Snapshot (shallow copies) of every tracked member."""
        with self._lock:
            return {k: replace_member(m) for k, m in self._members.items()}

    def status_of(self, member_id: str) -> MemberStatus | None:
        with self._lock:
            m = self._members.get(member_id)
            return m.status if m is not None else None

    def alive(self, role: str | None = None) -> list[str]:
        """Member ids currently ALIVE or SUSPECT (not yet given up on)."""
        with self._lock:
            return sorted(
                m.member_id
                for m in self._members.values()
                if m.status in (MemberStatus.ALIVE, MemberStatus.SUSPECT)
                and (role is None or m.role == role)
            )

    def snapshot(self) -> dict:
        """JSON-able view for the status CLI."""
        with self._lock:
            return {
                "config": {
                    "interval_s": self.config.interval_s,
                    "miss_threshold": self.config.miss_threshold,
                    "dead_threshold": self.config.dead_threshold,
                    "hung_after_s": self.config.hung_after_s,
                },
                "members": [m.snapshot() for m in self._members.values()],
            }


def replace_member(m: Member) -> Member:
    """Shallow copy of a Member (dataclasses.replace with no changes)."""
    return replace(m)


__all__ = [
    "ClusterView",
    "Member",
    "MemberStatus",
    "MembershipConfig",
    "MembershipEvent",
]
