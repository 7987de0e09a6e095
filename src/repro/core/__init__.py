"""EMLIO core: the paper's primary contribution.

* :class:`~repro.core.planner.Planner` — Algorithm 2's batch-aligned
  data-parallel planning: maps contiguous TFRecord shard ranges to per-node,
  per-epoch batches from index metadata alone.
* :class:`~repro.core.daemon.EMLIODaemon` — the storage-side service:
  mmap → slice B records → msgpack-serialize → PUSH over parallel streams
  with HWM backpressure, ``T`` worker threads per target node, driving
  the pure :class:`~repro.core.sendqueue.SendQueue` of what it still owes.
* :class:`~repro.core.receiver.EMLIOReceiver` — Algorithm 3: PULL socket →
  deserialize thread → shared queue → :class:`BatchProvider`
  (``external_source``, driving the pure
  :class:`~repro.core.deliverywindow.DeliveryWindow`) → DALI-like pipeline
  with prefetch ``Q``.
* :class:`~repro.core.service.EMLIOService` — single-call orchestration of
  daemon(s) + receiver over (emulated) TCP for examples and tests.
* :mod:`~repro.core.recovery` — fault tolerance: persistent delivery
  ledger (with per-epoch compaction), receiver dedup/reorder and
  reconnecting PUSH streams; with :mod:`~repro.core.placement`'s daemon +
  receiver failover re-planning, exactly-once delivery over an
  at-least-once transport.
* :mod:`~repro.core.membership` — the control plane: heartbeat-fed
  :class:`ClusterView` tracking every participant's liveness (crashed,
  hung, partitioned) and emitting the events the service's failover
  monitor consumes.
"""

from repro.core.config import AUTO_REORDER, EMLIOConfig
from repro.core.daemon import DaemonStats, EMLIODaemon
from repro.core.membership import (
    ClusterView,
    Member,
    MemberStatus,
    MembershipConfig,
    MembershipEvent,
)
from repro.core.planner import BatchAssignment, BatchPlan, Planner
from repro.core.provider import BatchProvider
from repro.core.receiver import EMLIOReceiver, ReceiverKilled
from repro.core.recovery import (
    DaemonKilled,
    DeliveryLedger,
    EpochServeError,
    FailoverError,
    NodeUnreachable,
    ReceiverReassignment,
    RecoveryConfig,
)
from repro.core.service import EMLIOService

__all__ = [
    "AUTO_REORDER",
    "EMLIOConfig",
    "DaemonStats",
    "EMLIODaemon",
    "BatchAssignment",
    "BatchPlan",
    "Planner",
    "BatchProvider",
    "ClusterView",
    "Member",
    "MemberStatus",
    "MembershipConfig",
    "MembershipEvent",
    "EMLIOReceiver",
    "EMLIOService",
    "DaemonKilled",
    "DeliveryLedger",
    "EpochServeError",
    "FailoverError",
    "NodeUnreachable",
    "ReceiverKilled",
    "ReceiverReassignment",
    "RecoveryConfig",
]
