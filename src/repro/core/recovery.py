"""Recovery subsystem — fault-tolerant, resumable streaming.

EMLIO's push pipeline is fire-and-forget: the planner decides everything up
front, daemons push, the receiver consumes.  This module adds the pieces that
make a mid-epoch failure (dead daemon, dead receiver, dropped connection,
restarted receiver) degrade throughput instead of killing the epoch:

* :class:`DeliveryLedger` — a persistent record of every batch the receiver
  has handed to the pipeline, keyed by ``(epoch, node, seq)``.  Survives
  receiver restarts; the source of truth for "what is still owed".  Epochs
  are compacted on completion (per-batch lines collapse into one
  ``epoch-complete`` checkpoint line) so the file and the in-memory key set
  stay bounded by the *live* epochs, not the run's lifetime.  Mid-epoch
  receiver failovers persist their key re-mappings as ``reassign`` lines so
  a restart never double-serves a re-owned batch.
* :class:`RecoveryConfig` — the policy knob bundle consumed by
  :class:`~repro.core.service.EMLIOService` (``EMLIOService(recovery=...)``),
  including the :class:`~repro.core.membership.MembershipConfig` thresholds
  of the heartbeat failure detector.
* :class:`EpochServeError` / :class:`DaemonKilled` / :class:`FailoverError`
  / :class:`NodeUnreachable` — the failure vocabulary shared by daemon,
  service and tests.

Re-planning a dead member's undelivered batches onto survivors is
:class:`~repro.core.placement.PlacementEngine`'s job.

Delivery semantics: daemons + reconnecting PUSH streams give *at-least-once*
transport; the receiver's :class:`~repro.core.deliverywindow.DeliveryWindow`
(dedup) plus the ledger turn that into *exactly-once* delivery to
the training pipeline.  Receiver failover preserves exactly-once end to end:
an original key counts as covered when either it or its reassigned
descendant is in the ledger.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.core.membership import MembershipConfig
from repro.core.placement import FailoverError, ReceiverReassignment  # noqa: F401 - re-exported
from repro.net.mq import ReconnectPolicy

#: A delivery key: (epoch, node_id, seq).  ``seq`` is the per-(epoch, node)
#: sequence number stamped into each BatchPayload — the planner's
#: ``batch_index`` dispatch order, unique within (epoch, node), extended
#: past the planned range by receiver-failover re-targeting.
DeliveryKey = tuple[int, int, int]


class DaemonKilled(RuntimeError):
    """A daemon was killed (chaos injection or operator action) mid-epoch."""


class NodeUnreachable(ConnectionError):
    """Every PUSH stream to one compute node is dead.

    Raised by a send worker so the daemon can distinguish "this target node
    is gone" (survivable once the control plane drops the node) from "my own
    transport is broken" (fatal for the daemon).
    """

    def __init__(self, node_id: int, message: str = "") -> None:
        super().__init__(message or f"compute node {node_id} unreachable")
        self.node_id = node_id


class EpochServeError(ExceptionGroup):
    """All worker errors of one ``serve_epoch`` call, none dropped."""

    def derive(self, excs):
        return EpochServeError(self.message, excs)


@dataclass(frozen=True)
class RecoveryConfig:
    """Policy bundle for ``EMLIOService(recovery=...)``.

    Attributes
    ----------
    ledger_path:
        Where the delivery ledger persists.  ``None`` keeps it in memory —
        dedup and failover still work, but a receiver restart starts blank.
    dedup:
        Receiver-side duplicate tolerance.  Required for at-least-once
        transport (reconnect resends, failover overlap): turning it off
        while reconnect is active is rejected at construction.
    reorder_window:
        Receiver-side bounded reorder window (batches buffered to emit in
        roughly sequence order); ``None`` (default) inherits
        ``EMLIOConfig.reorder_window``; 0 disables reordering;
        ``AUTO_REORDER`` (-1) derives it from ``streams_per_node × hwm``.
    failover:
        Re-plan a dead member's undelivered batches onto survivors.
    reconnect:
        Backoff policy for daemon PUSH streams surviving transport errors.
    membership:
        Heartbeat failure-detector thresholds (interval, miss/dead
        thresholds, hung-progress window); see
        :class:`~repro.core.membership.MembershipConfig`.
    compact_ledger:
        Collapse an epoch's per-batch ledger lines into one checkpoint line
        once the epoch completes.
    """

    ledger_path: str | Path | None = None
    dedup: bool = True
    reorder_window: int | None = None
    failover: bool = True
    reconnect: ReconnectPolicy = field(default_factory=ReconnectPolicy)
    membership: MembershipConfig = field(default_factory=MembershipConfig)
    compact_ledger: bool = True

    def __post_init__(self) -> None:
        if self.reorder_window is not None and self.reorder_window < -1:
            raise ValueError(
                f"reorder_window must be >= 0, AUTO_REORDER (-1) or None, "
                f"got {self.reorder_window}"
            )
        if not self.dedup and self.reconnect.max_retries >= 1:
            raise ValueError(
                "dedup=False with an active ReconnectPolicy would turn every "
                "reconnect replay into a fatal duplicate-delivery error; "
                "enable dedup or disable reconnection (max_retries=0)"
            )


class DeliveryLedger:
    """Persistent, thread-safe set of delivered ``(epoch, node, seq)`` keys.

    Text file, flushed on every record so a crash loses at most the
    in-flight write.  Three line forms (the first is the only one v2
    ledgers contain, so old files load unchanged):

    * ``epoch node seq`` — one delivered batch;
    * ``epoch-complete <epoch> <count>`` — checkpoint written by
      :meth:`complete_epoch`: the epoch's per-batch lines were compacted
      away, ``count`` batches landed, the whole epoch counts as delivered;
    * ``reassign <epoch> <dead_node> <old_seq> <new_node> <new_seq>`` —
      a receiver failover re-owned one batch; the old key is covered iff
      the new key (or a further reassignment of it) is.

    An *unterminated* final line (a crash interrupting that write) is
    dropped and the file repaired on load — the batch simply counts as
    undelivered and is resent (dedup absorbs it if it did land).  A
    malformed but newline-terminated line — anywhere, tail included — is
    not a torn append (each record is written whole); it means the file is
    not a ledger, and loading fails loudly.
    With ``path=None`` the ledger is memory-only (tests, ephemeral runs).
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._keys: set[DeliveryKey] = set()
        self._completed: dict[int, int] = {}  # epoch -> delivered batch count
        self._reassigned: dict[DeliveryKey, DeliveryKey] = {}
        self._lock = threading.Lock()
        self._fh = None
        if self.path is not None:
            if self.path.exists():
                self._load(self.path)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="ascii")

    def _parse_line(self, line: str) -> None:
        parts = line.split()
        try:
            if parts[0] == "epoch-complete":
                if len(parts) != 3:
                    raise ValueError
                self._completed[int(parts[1])] = int(parts[2])
            elif parts[0] == "reassign":
                if len(parts) != 6:
                    raise ValueError
                e = int(parts[1])
                self._reassigned[(e, int(parts[2]), int(parts[3]))] = (
                    e, int(parts[4]), int(parts[5]),
                )
            else:
                if len(parts) != 3:
                    raise ValueError
                self._keys.add((int(parts[0]), int(parts[1]), int(parts[2])))
        except (IndexError, ValueError):
            raise ValueError(f"corrupt ledger line: {line!r}") from None

    def _load(self, path: Path) -> None:
        raw = path.read_text()
        lines = raw.splitlines()
        # No trailing newline ⇒ the final write was interrupted.  The line
        # may still *parse* (truncated digits: '0 0 35\n' torn to '0 0 3'),
        # so an unterminated tail is always dropped — the batch merely
        # counts as undelivered and is resent (dedup absorbs a replay).
        torn_tail = bool(raw) and not raw.endswith("\n")
        for i, line in enumerate(lines):
            if torn_tail and i == len(lines) - 1:
                self._collapse_chains()
                self._rewrite(path)
                return
            self._parse_line(line)
        self._collapse_chains()

    def _collapse_chains(self) -> None:
        """Flatten reassignment chains left by pre-GC ledger files.

        Re-target keys are always synthetic (fresh seqs past the planned
        range), so any key that also appears as a *value* is an
        intermediate hop: follow it to its final owner and drop the hop.
        """
        values = set(self._reassigned.values())
        collapsed: dict[DeliveryKey, DeliveryKey] = {}
        for key, target in self._reassigned.items():
            if key in values:
                continue  # synthetic intermediate; its referrer covers it
            seen = set()
            while target in self._reassigned and target not in seen:
                seen.add(target)
                target = self._reassigned[target]
            collapsed[key] = target
        self._reassigned = collapsed

    def _lines(self) -> str:
        """Serialize current state; summary/reassign lines lead for clarity."""
        out = [f"epoch-complete {e} {c}\n" for e, c in sorted(self._completed.items())]
        out.extend(
            f"reassign {oe} {on} {os_} {ne[1]} {ne[2]}\n"
            for (oe, on, os_), ne in sorted(self._reassigned.items())
        )
        out.extend(f"{e} {n} {s}\n" for (e, n, s) in sorted(self._keys))
        return "".join(out)

    def _rewrite(self, path: Path) -> None:
        """Atomically replace the file with current state, clean for appends."""
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(self._lines())
        os.replace(tmp, path)
        if self._fh is not None:
            self._fh.close()
            self._fh = open(path, "a", encoding="ascii")

    def _append(self, line: str) -> None:
        if self._fh is not None:
            self._fh.write(line)
            self._fh.flush()

    def record(self, epoch: int, node_id: int, seq: int) -> bool:
        """Mark one batch delivered; returns False when already recorded."""
        key = (epoch, node_id, seq)
        with self._lock:
            if key in self._keys or epoch in self._completed:
                return False
            self._keys.add(key)
            self._append(f"{epoch} {node_id} {seq}\n")
            return True

    def record_reassignment(self, old: DeliveryKey, new: DeliveryKey) -> None:
        """Persist a receiver-failover key re-mapping (old → new owner).

        Chains are GC'd as they form: if ``old`` is itself the target of
        earlier mappings (a re-targeted batch whose new owner died too),
        those are rewritten in place to point at ``new`` and the
        ``old -> new`` link is dropped — ``old`` was a synthetic re-target
        key (fresh seqs are always past the planned range), so nothing but
        its referrers ever looks it up.  The map therefore stays bounded
        by *planned* keys per live epoch and :meth:`resolve`/:meth:`covered`
        chains stay depth 1, no matter how many failovers pile up before
        an epoch completes (the ROADMAP's churn item).  Later ``reassign``
        lines override earlier ones on load, so the rewrite persists by
        appending, not rewriting the file.
        """
        if old[0] != new[0]:
            raise ValueError(f"reassignment crosses epochs: {old} -> {new}")
        with self._lock:
            referrers = [k for k, v in self._reassigned.items() if v == old]
            for k in referrers:
                self._reassigned[k] = new
                self._append(f"reassign {k[0]} {k[1]} {k[2]} {new[1]} {new[2]}\n")
            if not referrers:
                self._reassigned[old] = new
                self._append(
                    f"reassign {old[0]} {old[1]} {old[2]} {new[1]} {new[2]}\n"
                )

    def reassignments(self, epoch: int | None = None) -> dict[DeliveryKey, DeliveryKey]:
        """Snapshot of recorded key re-mappings."""
        with self._lock:
            return {
                k: v
                for k, v in self._reassigned.items()
                if epoch is None or k[0] == epoch
            }

    def resolve(self, key: DeliveryKey) -> DeliveryKey:
        """Follow reassignment chains to the key's current owner."""
        with self._lock:
            seen = set()
            while key in self._reassigned and key not in seen:
                seen.add(key)
                key = self._reassigned[key]
            return key

    def covered(self, key: DeliveryKey) -> bool:
        """Whether ``key`` (or its reassigned descendant) was delivered."""
        return bool(self.covered_set((key,)))

    def covered_set(self, keys: Iterable[DeliveryKey]) -> set[DeliveryKey]:
        """The ``keys`` that were delivered (or whose reassigned descendant
        was), under one lock acquisition; a compacted epoch's key costs one
        lookup."""
        out = set()
        with self._lock:
            for key in keys:
                if key[0] in self._completed:
                    out.add(key)
                    continue
                k, seen = key, set()
                while k not in self._keys and k in self._reassigned and k not in seen:
                    seen.add(k)
                    k = self._reassigned[k]
                if k in self._keys:
                    out.add(key)
        return out

    def complete_epoch(self, epoch: int) -> int:
        """Compact one finished epoch to a single checkpoint line.

        Drops the epoch's per-batch keys and reassignment entries from
        memory and rewrites the file with only live epochs — the ROADMAP's
        ledger-compaction item.  Returns the batch count checkpointed.
        Idempotent; re-completing keeps the original count.
        """
        with self._lock:
            if epoch in self._completed:
                return self._completed[epoch]
            epoch_keys = {k for k in self._keys if k[0] == epoch}
            self._completed[epoch] = len(epoch_keys)
            self._keys -= epoch_keys
            self._reassigned = {
                k: v for k, v in self._reassigned.items() if k[0] != epoch
            }
            # The atomic rewrite is the sole persistence step — its output
            # already leads with the epoch-complete checkpoint line.
            if self.path is not None:
                self._rewrite(self.path)
            return self._completed[epoch]

    def epoch_complete(self, epoch: int) -> bool:
        """Whether ``epoch`` was checkpointed by :meth:`complete_epoch`."""
        with self._lock:
            return epoch in self._completed

    def completed_epochs(self) -> dict[int, int]:
        """``epoch -> batch count`` of every checkpointed epoch."""
        with self._lock:
            return dict(self._completed)

    def delivered(self, epoch: int | None = None, node: int | None = None) -> set[DeliveryKey]:
        """Snapshot of live (uncompacted) delivered keys, optionally filtered."""
        with self._lock:
            return {
                k
                for k in self._keys
                if (epoch is None or k[0] == epoch) and (node is None or k[1] == node)
            }

    def __contains__(self, key: DeliveryKey) -> bool:
        with self._lock:
            return key in self._keys or key[0] in self._completed

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)

    def close(self) -> None:
        """Release the backing file handle."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

