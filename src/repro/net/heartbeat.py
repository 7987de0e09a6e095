"""Heartbeat channel — the control plane's liveness substrate.

Every cluster participant (storage daemon, compute-node receiver) runs a
:class:`HeartbeatPublisher` that periodically pushes a small framed JSON
:class:`Heartbeat` to the control plane's :class:`HeartbeatListener` over
its own TCP connection (reusing :mod:`repro.net.framing` via
:class:`~repro.net.channel.Channel` — one frame per beat, no credits: a
heartbeat that can't be sent *is* the signal).

Design points:

* Beats carry a **progress** counter (batches sent/received) sampled from
  the member at publish time — the membership layer uses it to distinguish
  a *hung* member (beating but not progressing) from a healthy one.  A
  crashed thread stops beating; a hung thread keeps beating with frozen
  progress; a network partition silences an otherwise healthy member.
  All three are detectable, which thread-state polling can never do.
* The publisher reconnects lazily: a failed send drops the connection and
  the next tick retries.  Missed beats are never replayed — liveness is a
  *current* fact, not a log.
* ``suspend()`` / ``resume()`` are chaos hooks emulating a partition (the
  member is healthy but its beats stop arriving); :meth:`kill` emulates a
  process crash (silence, no goodbye); :meth:`fail`/:meth:`stop` send a
  final explicit beat so supervisors can react faster than a timeout.
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass
from typing import Callable

from repro.net.channel import Channel, Listener, connect_channel

_log = logging.getLogger(__name__)

#: Member lifecycle states carried in a heartbeat's ``state`` field.
STATE_SERVING = "serving"
STATE_IDLE = "idle"
STATE_FAILED = "failed"  # explicit crash notification (fast path)
STATE_LEAVING = "leaving"  # clean shutdown — not a failure

_VALID_STATES = (STATE_SERVING, STATE_IDLE, STATE_FAILED, STATE_LEAVING)


@dataclass(frozen=True)
class Heartbeat:
    """One liveness beat from a cluster member.

    Attributes
    ----------
    member_id:
        Stable identity, e.g. ``"daemon:0@/data/site_a"`` or ``"receiver:1"``.
    role:
        ``"daemon"`` or ``"receiver"`` (free-form for future roles).
    incarnation:
        Monotonic per-identity restart counter; a beat from a higher
        incarnation supersedes any older state (rejoin after a declared
        death is a *new* member, not a resurrection).
    seq:
        Per-connection beat counter (diagnostics only).
    progress:
        Monotonic work counter (batches sent/received); frozen progress
        while ``state == "serving"`` is the hung-member signature.
    queue_depth:
        Payloads received but not yet consumed (receiver backpressure) —
        the load signal the placement engine weighs re-plans by.  ``0``
        for members with no queue (or pre-queue-depth publishers).
    cache_hits / cache_misses:
        Cumulative storage-cache counters (daemons with a tiered cache);
        ``0`` for members without one (or pre-cache publishers).
    prefetch_depth:
        Range-GETs the storage cache has in flight right now (its fetch
        window's plus any serve-path miss) — at most the fetcher pool
        size while the window keeps ahead of the serve path.
    decode_ns / preprocess_ns / starved_ns:
        Mean per-batch pipeline stage costs in nanoseconds (receivers with
        a consume pipeline; ``0`` elsewhere) — payload deserialize, decode/
        augment work, and consumer time starved waiting on ``run()``.
    state:
        One of ``serving | idle | failed | leaving``.
    detail:
        Optional free-form reason (carried on ``failed`` beats).
    """

    member_id: str
    role: str
    incarnation: int = 0
    seq: int = 0
    progress: int = 0
    queue_depth: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    prefetch_depth: int = 0
    decode_ns: int = 0
    preprocess_ns: int = 0
    starved_ns: int = 0
    state: str = STATE_SERVING
    detail: str = ""

    def __post_init__(self) -> None:
        if self.state not in _VALID_STATES:
            raise ValueError(f"invalid heartbeat state: {self.state!r}")


def encode_heartbeat(hb: Heartbeat) -> bytes:
    """Serialize one beat as a compact JSON frame body."""
    return json.dumps(
        {
            "id": hb.member_id,
            "role": hb.role,
            "inc": hb.incarnation,
            "seq": hb.seq,
            "progress": hb.progress,
            "qd": hb.queue_depth,
            "ch": hb.cache_hits,
            "cm": hb.cache_misses,
            "pf": hb.prefetch_depth,
            "dns": hb.decode_ns,
            "pns": hb.preprocess_ns,
            "sns": hb.starved_ns,
            "state": hb.state,
            "detail": hb.detail,
        },
        separators=(",", ":"),
    ).encode("utf-8")


#: Every wire key this version understands; anything else came from a
#: newer (or foreign) publisher in a mixed-version cluster.
_KNOWN_KEYS = frozenset({
    "id", "role", "inc", "seq", "progress", "qd", "ch", "cm", "pf",
    "dns", "pns", "sns", "state", "detail",
})

# Field names already warned about (log-once per process, not per beat —
# a mixed-version cluster beats several times a second, forever).
_warned_unknown: set[str] = set()
_warned_lock = threading.Lock()


def decode_heartbeat(
    data: bytes, on_unknown: Callable[[frozenset], None] | None = None
) -> Heartbeat:
    """Inverse of :func:`encode_heartbeat`; raises ``ValueError`` on junk.

    Unknown fields are tolerated (forward compatibility in mixed-version
    clusters) but no longer *silently* dropped: each new field name is
    warned about once per process, and ``on_unknown(fields)`` lets the
    listener count them — exported as
    ``emlio_heartbeat_unknown_fields_total`` through the metrics registry
    (:mod:`repro.obs.metrics`), so version skew is diagnosable.
    """
    try:
        obj = json.loads(data.decode("utf-8"))
        if isinstance(obj, dict):
            unknown = frozenset(obj) - _KNOWN_KEYS
            if unknown:
                fresh = []
                with _warned_lock:
                    for name in sorted(unknown):
                        if name not in _warned_unknown:
                            _warned_unknown.add(name)
                            fresh.append(name)
                if fresh:
                    _log.warning(
                        "heartbeat carries unknown field(s) %s "
                        "(mixed-version cluster?); ignoring them",
                        ", ".join(repr(n) for n in fresh),
                    )
                if on_unknown is not None:
                    on_unknown(unknown)
        return Heartbeat(
            member_id=obj["id"],
            role=obj["role"],
            incarnation=int(obj.get("inc", 0)),
            seq=int(obj.get("seq", 0)),
            progress=int(obj.get("progress", 0)),
            queue_depth=int(obj.get("qd", 0)),
            cache_hits=int(obj.get("ch", 0)),
            cache_misses=int(obj.get("cm", 0)),
            prefetch_depth=int(obj.get("pf", 0)),
            decode_ns=int(obj.get("dns", 0)),
            preprocess_ns=int(obj.get("pns", 0)),
            starved_ns=int(obj.get("sns", 0)),
            state=obj.get("state", STATE_SERVING),
            detail=obj.get("detail", ""),
        )
    except (KeyError, TypeError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ValueError(f"malformed heartbeat frame: {data[:64]!r}") from err


class HeartbeatListener:
    """Bind-side of the heartbeat channel: decodes beats into a callback.

    The callback runs on per-connection reader threads — it must be
    thread-safe (:meth:`~repro.core.membership.ClusterView.observe` is).
    Malformed frames are counted and dropped, never fatal: a control plane
    that dies on garbage is a worse failure mode than the one it monitors.
    """

    def __init__(
        self,
        on_heartbeat: Callable[[Heartbeat], None],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.on_heartbeat = on_heartbeat
        self.malformed = 0
        # Beats that carried fields unknown to this version (counted per
        # beat; the field names are log-onced by decode_heartbeat).
        self.unknown_fields = 0
        self._channels: list[Channel] = []
        self._chan_lock = threading.Lock()
        self._closed = False
        self._listener = Listener(host=host, port=port)
        self._listener.serve_forever(self._handle)

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` publishers connect to."""
        return self._listener.address

    @property
    def port(self) -> int:
        """Bound TCP port."""
        return self._listener.port

    def _count_unknown(self, fields: frozenset) -> None:
        self.unknown_fields += 1

    def _handle(self, chan: Channel) -> None:
        with self._chan_lock:
            if self._closed:
                chan.close()
                return
            self._channels.append(chan)
        try:
            with chan:
                while True:
                    try:
                        frame = chan.recv()
                    except (ConnectionError, OSError):
                        return
                    try:
                        hb = decode_heartbeat(frame, on_unknown=self._count_unknown)
                    except ValueError:
                        self.malformed += 1
                        continue
                    self.on_heartbeat(hb)
        finally:
            # Publishers reconnect on every blip; don't accumulate corpses.
            with self._chan_lock:
                if chan in self._channels:
                    self._channels.remove(chan)

    def close(self) -> None:
        """Stop accepting beats and drop every publisher connection.

        Dropping established connections matters: publishers then observe
        the send failure and reconnect lazily, so a restarted control plane
        on the same port picks every member back up.
        """
        with self._chan_lock:
            self._closed = True
            channels = list(self._channels)
        self._listener.close()
        for chan in channels:
            chan.close()


class HeartbeatPublisher:
    """One member's periodic beat emitter.

    Parameters
    ----------
    member_id / role / incarnation:
        Identity stamped on every beat.
    endpoint:
        The listener's ``(host, port)``.
    interval_s:
        Beat period.  The membership layer's miss thresholds are multiples
        of this.
    progress_fn:
        Sampled at each tick for the beat's ``progress`` field.
    queue_depth_fn:
        Sampled at each tick for the ``queue_depth`` field (received but
        unconsumed payloads); defaults to 0.
    cache_fn:
        Sampled at each tick for the cache fields; returns
        ``(cache_hits, cache_misses, prefetch_depth)``.  Defaults to
        all-zero (members without a storage cache).
    stages_fn:
        Sampled at each tick for the pipeline stage fields; returns
        ``(decode_ns, preprocess_ns, starved_ns)`` per-batch means.
        Defaults to all-zero (members without a consume pipeline).
    state_fn:
        Sampled at each tick for the ``state`` field; defaults to
        ``serving``.
    """

    def __init__(
        self,
        member_id: str,
        role: str,
        endpoint: tuple[str, int],
        interval_s: float = 0.5,
        progress_fn: Callable[[], int] | None = None,
        state_fn: Callable[[], str] | None = None,
        incarnation: int = 0,
        queue_depth_fn: Callable[[], int] | None = None,
        cache_fn: Callable[[], tuple[int, int, int]] | None = None,
        stages_fn: Callable[[], tuple[int, int, int]] | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.member_id = member_id
        self.role = role
        self.endpoint = endpoint
        self.interval_s = interval_s
        self.progress_fn = progress_fn or (lambda: 0)
        self.queue_depth_fn = queue_depth_fn or (lambda: 0)
        self.cache_fn = cache_fn or (lambda: (0, 0, 0))
        self.stages_fn = stages_fn or (lambda: (0, 0, 0))
        self.state_fn = state_fn
        self.incarnation = incarnation
        self.beats_sent = 0
        self._seq = 0
        self._chan: Channel | None = None
        self._suspended = threading.Event()
        self._stop = threading.Event()
        self._lock = threading.Lock()  # serializes sends vs. stop/fail
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name=f"heartbeat-{member_id}"
        )

    def start(self) -> "HeartbeatPublisher":
        """Begin beating (idempotent)."""
        if not self._thread.is_alive() and not self._stop.is_set():
            self._thread.start()
        return self

    @property
    def stopped(self) -> bool:
        """Whether the publisher went silent for good (stop/fail/kill)."""
        return self._stop.is_set()

    def _send(self, state: str, detail: str = "") -> bool:
        """Send one beat; on transport error drop the connection (a miss)."""
        with self._lock:
            if self._chan is None:
                try:
                    self._chan = connect_channel(*self.endpoint, timeout=2.0)
                except OSError:
                    return False
            hits, misses, prefetch_depth = self.cache_fn()
            decode_ns, preprocess_ns, starved_ns = self.stages_fn()
            hb = Heartbeat(
                member_id=self.member_id,
                role=self.role,
                incarnation=self.incarnation,
                seq=self._seq,
                progress=int(self.progress_fn()),
                queue_depth=int(self.queue_depth_fn()),
                cache_hits=int(hits),
                cache_misses=int(misses),
                prefetch_depth=int(prefetch_depth),
                decode_ns=int(decode_ns),
                preprocess_ns=int(preprocess_ns),
                starved_ns=int(starved_ns),
                state=state,
                detail=detail,
            )
            try:
                self._chan.send(encode_heartbeat(hb))
            except (ConnectionError, OSError):
                self._chan.close()
                self._chan = None
                return False
            self._seq += 1
            self.beats_sent += 1
            return True

    def _loop(self) -> None:
        while not self._stop.is_set():
            if not self._suspended.is_set():
                state = self.state_fn() if self.state_fn is not None else STATE_SERVING
                self._send(state)
            self._stop.wait(self.interval_s)

    # -- chaos hooks -----------------------------------------------------------

    def suspend(self) -> None:
        """Stop beats from *arriving* (partition emulation); member unaware."""
        self._suspended.set()

    def resume(self) -> None:
        """Heal the emulated partition."""
        self._suspended.clear()

    def kill(self) -> None:
        """Crash emulation: go silent immediately, no goodbye beat."""
        self._stop.set()
        with self._lock:
            if self._chan is not None:
                self._chan.close()
                self._chan = None

    # -- clean lifecycle -------------------------------------------------------

    def fail(self, detail: str = "") -> None:
        """Announce failure explicitly (fast path), then go silent.

        Supervisors react to the ``failed`` beat immediately instead of
        waiting out the miss threshold; if the beat is lost, the timeout
        path still catches the death.
        """
        if self._stop.is_set():
            return
        self._stop.set()
        self._send("failed", detail=detail)
        self._close_chan()

    def stop(self) -> None:
        """Leave the cluster cleanly (a ``leaving`` beat, not a death)."""
        if self._stop.is_set():
            return
        self._stop.set()
        self._send("leaving")
        self._close_chan()

    def _close_chan(self) -> None:
        with self._lock:
            if self._chan is not None:
                self._chan.close()
                self._chan = None
        if self._thread.is_alive() and threading.current_thread() is not self._thread:
            self._thread.join(timeout=5.0)
