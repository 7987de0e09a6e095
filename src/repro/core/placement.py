"""PlacementEngine — the one owner of every batch→owner decision.

Until this module existed, placement logic was split across three one-way
code paths: initial epoch planning (:mod:`repro.core.planner`), daemon
failover and receiver failover (:mod:`repro.core.recovery`).  None of them
could *add* capacity, and all balanced by batch count alone.  The engine
unifies them: join, leave, death and load skew are one rebalancing problem
over the same vocabulary — residual assignments, reachable storage roots,
fresh sequence numbers, and ``reassign`` ledger lines.

Decisions are **load-weighted**.  Each member's weight comes from the
signals the heartbeat substrate already carries:

* *observed throughput* — the EWMA of progress deltas the
  :class:`~repro.core.membership.ClusterView` keeps per member;
* *queue depth* — received-but-unconsumed payloads, reported in each beat.

A member with twice the observed throughput adopts roughly twice the
re-planned work; a member sitting on a deep queue adopts less.  With no
load signal at all (cold start, unit tests) every weight degenerates to 1
and placement reduces to the old count-balanced behaviour — deliberately,
so the engine is a strict generalization.

Exactly-once guarantees hold through scale-out exactly as through
failover: every ownership change is expressed as an ``old key → new key``
re-mapping the supervisor persists via
:meth:`~repro.core.recovery.DeliveryLedger.record_reassignment`, and the
planner's invariants carry into every residual by construction (re-planned
assignments are copies of planned ones — same shard slice, same labels).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping

from repro.core.config import EMLIOConfig
from repro.core.planner import BatchAssignment, BatchPlan, Planner
from repro.tfrecord.sharder import ShardedDataset
from repro.util.logging import TimestampLogger

#: A delivery key: (epoch, node_id, seq) — see :mod:`repro.core.recovery`.
DeliveryKey = tuple[int, int, int]


class FailoverError(RuntimeError):
    """A dead member's residual work cannot be re-planned onto survivors."""


@dataclass(frozen=True)
class MemberLoad:
    """One member's load signal, as the placement engine consumes it.

    Attributes
    ----------
    throughput:
        Observed work rate (heartbeat progress per second, EWMA).  ``0``
        means "no signal yet", not "stalled" — the engine substitutes the
        peer average so a cold member still gets a fair share.
    queue_depth:
        Received-but-unconsumed payloads (receiver backpressure), added to
        a member's outstanding work before weighting.
    cached_shards:
        Shard paths whose bytes this member's storage cache already holds
        (daemon roots only).  A pure tie-breaker: when load costs are
        equal, placement prefers the root that won't have to re-fetch.
    """

    throughput: float = 0.0
    queue_depth: int = 0
    cached_shards: frozenset = frozenset()

    def __post_init__(self) -> None:
        if self.throughput < 0:
            raise ValueError(f"throughput must be >= 0, got {self.throughput}")
        if self.queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {self.queue_depth}")
        object.__setattr__(self, "cached_shards", frozenset(self.cached_shards))


@dataclass(frozen=True)
class ElasticPolicy:
    """Admission and rebalancing policy for elastic membership.

    Attributes
    ----------
    admit:
        ``"auto"`` admits any member that registers and starts beating;
        ``"closed"`` rejects joins (the pre-elastic behaviour).
    min_members:
        Deployment floor, checked once at deploy time: a spec asking for
        fewer receivers than this is invalid.  Nothing scales in.
    max_members:
        Join ceiling; ``0`` means unbounded.
    rebalance_threshold:
        Minimum fraction of the outstanding work that a rebalance must
        move to be worth acting on; below it a join is admitted but the
        load shift is skipped (it would churn more than it balances).
    """

    admit: str = "auto"
    min_members: int = 1
    max_members: int = 0
    rebalance_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.admit not in ("auto", "closed"):
            raise ValueError(f"admit must be 'auto' or 'closed', got {self.admit!r}")
        if self.min_members < 1:
            raise ValueError(f"min_members must be >= 1, got {self.min_members}")
        if self.max_members < 0:
            raise ValueError(f"max_members must be >= 0, got {self.max_members}")
        if self.max_members and self.max_members < self.min_members:
            raise ValueError(
                f"max_members ({self.max_members}) must be 0 (unbounded) or "
                f">= min_members ({self.min_members})"
            )
        if not 0.0 <= self.rebalance_threshold < 1.0:
            raise ValueError(
                f"rebalance_threshold must be in [0, 1), got {self.rebalance_threshold}"
            )


@dataclass(frozen=True)
class ReceiverReassignment:
    """The outcome of re-targeting batches onto other receivers.

    Produced by :meth:`PlacementEngine.plan_receiver_failover` (dead node)
    and :meth:`PlacementEngine.retarget` (scale-out onto a joined node); a
    daemon failover's re-plan is one with only ``by_root`` filled in.

    Attributes
    ----------
    assignments:
        Re-targeted copies of the source assignments: ``node_id`` points at
        a target receiver and ``batch_index`` (== payload seq) is fresh,
        past anything that node has seen this epoch.
    key_map:
        ``old delivery key -> new delivery key`` for every re-target; the
        supervisor persists these via
        :meth:`~repro.core.recovery.DeliveryLedger.record_reassignment`.
    by_root:
        ``storage root -> assignments`` it should serve (every assignment
        appears under exactly one reachable root).
    extra_per_node:
        ``target node -> batch count`` it must additionally consume.
    """

    assignments: tuple[BatchAssignment, ...]
    key_map: dict[DeliveryKey, DeliveryKey]
    by_root: dict[str, tuple[BatchAssignment, ...]]
    extra_per_node: dict[int, int]


def _shard_file_exists(root: str, shard_path: str) -> bool:
    return (Path(root) / shard_path).exists()


def _weights(keys: Iterable, loads: Mapping) -> dict:
    """Throughput weight per key; unknown/cold members get the peer mean.

    Substituting the mean (rather than a constant) keeps known and unknown
    weights on the same scale: a joining member with no history is assumed
    average, and with *no* history anywhere every weight is 1 — the
    count-balanced degenerate case.
    """
    rates = {
        k: (loads.get(k).throughput if loads.get(k) is not None else 0.0)
        for k in keys
    }
    positive = [r for r in rates.values() if r > 0]
    default = sum(positive) / len(positive) if positive else 1.0
    return {k: (r if r > 0 else default) for k, r in rates.items()}


class PlacementEngine:
    """Owns all batch→owner assignment: plans, failover re-plans, scale-out.

    Outcomes of the re-plans surface in the metrics registry as
    ``emlio_failovers_total{kind=...}``, ``emlio_rebalances_total`` and
    ``emlio_ledger_reassigned_batches`` (:mod:`repro.obs.metrics`).

    Parameters
    ----------
    plan:
        The epoch plan (source of residual assignments); build one with
        :meth:`plan_epochs`.
    ledger:
        Delivery ledger consulted for what already arrived (anything with
        ``delivered()``/``reassignments()``; ``None`` only for pure
        planning uses that never compute residuals).
    roots:
        ``storage_root -> owned shard names`` for every daemon; ``None``
        as a value means "all shards in the plan" (the single-daemon case).
    reachable:
        ``(root, shard_path) -> bool`` predicate deciding whether a root
        can serve a shard.  Defaults to a file-existence check, which
        covers both replicated storage and shared mounts.
    node_loads / root_loads:
        Load signals per receiver node id / per storage root; missing
        entries weigh as the peer average (see :class:`MemberLoad`).
    policy:
        Elastic admission/rebalance policy; defaults to an open policy
        with no rebalance threshold.
    """

    def __init__(
        self,
        plan: BatchPlan,
        ledger=None,
        roots: Mapping[str, Collection[str] | None] | None = None,
        reachable: Callable[[str, str], bool] | None = None,
        logger: TimestampLogger | None = None,
        node_loads: Mapping[int, MemberLoad] | None = None,
        root_loads: Mapping[str, MemberLoad] | None = None,
        policy: ElasticPolicy | None = None,
    ) -> None:
        self.plan = plan
        self.ledger = ledger
        self.roots = dict(roots or {})
        self.reachable = reachable or _shard_file_exists
        self.logger = logger or TimestampLogger(name="placement")
        self.node_loads = dict(node_loads or {})
        self.root_loads = dict(root_loads or {})
        self.policy = policy or ElasticPolicy()

    # -- initial planning ------------------------------------------------------

    @staticmethod
    def plan_epochs(
        dataset: ShardedDataset, num_nodes: int, config: EMLIOConfig
    ) -> BatchPlan:
        """The initial epoch plan (Algorithm 2's planning half)."""
        return Planner(dataset, num_nodes=num_nodes, config=config).plan()

    # -- residuals -------------------------------------------------------------

    def shards_of(self, root: str) -> set[str]:
        """Shard names the daemon at ``root`` was responsible for."""
        owned = self.roots.get(root)
        if owned is None:
            return {a.shard for a in self.plan.assignments}
        return set(owned)

    def residual_plan(self, epoch: int, shards: Iterable[str] | None = None) -> BatchPlan:
        """Sub-plan of not-yet-delivered assignments (optionally per shard set).

        Keys already re-owned by a receiver failover or a scale-out count
        as handled here — their re-targeted copies live outside the
        original plan.
        """
        delivered = self.ledger.delivered(epoch=epoch)
        delivered |= set(self.ledger.reassignments(epoch=epoch))
        return self.plan.residual(delivered, epoch=epoch, shards=shards)

    # -- load-weighted choice helpers ------------------------------------------

    def _node_backlog(self, node: int) -> int:
        load = self.node_loads.get(node)
        return load.queue_depth if load is not None else 0

    def _root_cost(
        self,
        root: str,
        shard_path: str,
        placed: int,
        weights: Mapping[str, float],
    ) -> tuple[float, int]:
        """``(load cost, locality)`` for placing one shard on one root.

        Locality is 0 when the root's cache already holds the shard's
        bytes, 1 otherwise — strictly subordinate to load, so it only
        decides between otherwise-equal candidates.
        """
        load = self.root_loads.get(root)
        qd = load.queue_depth if load is not None else 0
        hot = 0 if load is not None and shard_path in load.cached_shards else 1
        return ((placed + qd) / weights.get(root, 1.0), hot)

    def _place_root(
        self,
        shard_path: str,
        survivors: Collection[str],
        placed: dict[str, int],
        weights: Mapping[str, float],
    ) -> str | None:
        """Cheapest reachable survivor root for one shard, or None.

        Cost is (batches already placed here + reported queue depth) over
        the root's throughput weight — least-*loaded*, not least-counted —
        with cache locality breaking ties: among equally loaded roots the
        one whose hot-set cache already holds the shard's bytes wins, so a
        failover or scale-out re-plan doesn't re-fetch what a survivor
        already prefetched.
        """

        def cost(r: str):
            return (*self._root_cost(r, shard_path, placed.get(r, 0), weights), r)

        for root in sorted(survivors, key=cost):
            if self.reachable(root, shard_path):
                return root
        return None

    def place_assignments(
        self,
        assignments: Collection[BatchAssignment],
        survivors: Collection[str],
    ) -> dict[str, tuple[BatchAssignment, ...]]:
        """Place loose assignments on reachable roots, cheapest-first.

        Used for re-targeted assignments, which live outside the original
        plan and therefore outside any root's shard ownership.  Raises
        :class:`FailoverError` when a shard is unreachable by every
        survivor.
        """
        weights = _weights(survivors, self.root_loads)
        by_root: dict[str, list[BatchAssignment]] = {}
        placed: dict[str, int] = {}
        unreachable: list[str] = []
        for a in assignments:
            root = self._place_root(a.shard_path, survivors, placed, weights)
            if root is None:
                unreachable.append(a.shard)
                continue
            by_root.setdefault(root, []).append(a)
            placed[root] = placed.get(root, 0) + 1
        if unreachable:
            raise FailoverError(
                f"no surviving root can reach shards {sorted(set(unreachable))[:3]} "
                f"({len(unreachable)} assignments)"
            )
        return {r: tuple(v) for r, v in by_root.items()}

    # -- daemon failover -------------------------------------------------------

    def plan_failover(
        self,
        dead_root: str,
        epoch: int,
        survivors: Collection[str] | None = None,
    ) -> dict[str, set[str]]:
        """Decide which survivor takes over each of the dead root's shards.

        Only shards with *undelivered* batches need a new home.  Shards are
        placed cheapest-first (load-weighted) across reachable survivors.
        Raises :class:`FailoverError` if any needed shard is unreachable by
        every survivor.

        ``survivors`` overrides the default "every root but the dead one" —
        the supervisor passes the roots of daemons that are actually alive,
        so a root stays a valid takeover target while any daemon on it
        lives.
        """
        residual = self.residual_plan(epoch, shards=self.shards_of(dead_root))
        needed = {a.shard: a.shard_path for a in residual.assignments}
        if survivors is None:
            survivors = [r for r in self.roots if r != dead_root]
        else:
            survivors = list(survivors)
        weights = _weights(survivors, self.root_loads)
        takeover: dict[str, set[str]] = {}
        placed: dict[str, int] = {}
        unreachable: list[str] = []
        for shard in sorted(needed):
            root = self._place_root(needed[shard], survivors, placed, weights)
            if root is None:
                unreachable.append(shard)
                continue
            takeover.setdefault(root, set()).add(shard)
            placed[root] = placed.get(root, 0) + 1
        if unreachable:
            raise FailoverError(
                f"no surviving daemon can reach shards {unreachable[:3]} "
                f"({len(unreachable)} total) of dead root {dead_root}"
            )
        self.logger.log(
            "failover_planned",
            dead_root=dead_root,
            epoch=epoch,
            residual_batches=len(residual.assignments),
            takeover={r: sorted(s) for r, s in takeover.items()},
        )
        return takeover

    # -- receiver re-targeting (failover and scale-out share this core) --------

    def retarget(
        self,
        assignments: Collection[BatchAssignment],
        targets: Collection[int],
        next_seq: Mapping[int, int],
        survivor_roots: Collection[str] | None = None,
        context: str = "",
    ) -> ReceiverReassignment:
        """Re-own loose assignments across ``targets``, load-weighted.

        Every assignment is copied with ``node_id`` pointing at a target
        receiver and a fresh ``batch_index``/seq starting at that node's
        ``next_seq`` — fresh so the re-target can never collide with a seq
        the target has already seen (dedup would silently eat the batch).
        Each re-target is also placed on a reachable storage root.

        Targets adopt in inverse proportion to their cost — (already
        adopted + reported queue depth) over throughput weight — so a fast
        idle node takes more than a slow or backlogged one.  Raises
        :class:`FailoverError` with no targets, or when a needed shard is
        unreachable by every surviving root.
        """
        targets = sorted(set(targets))
        if not assignments:
            return ReceiverReassignment((), {}, {}, {})
        if not targets:
            raise FailoverError(
                f"no surviving receiver can adopt {len(assignments)} undelivered "
                f"batches{context}"
            )
        if survivor_roots is None:
            survivor_roots = list(self.roots)
        weights = _weights(targets, self.node_loads)
        root_weights = _weights(survivor_roots, self.root_loads)
        seq = {n: int(next_seq.get(n, 0)) for n in targets}
        extra: dict[int, int] = {n: 0 for n in targets}
        key_map: dict[DeliveryKey, DeliveryKey] = {}
        by_root: dict[str, list[BatchAssignment]] = {}
        placed: dict[str, int] = {}
        unreachable: list[str] = []

        def cost(n: int):
            return ((extra[n] + self._node_backlog(n)) / weights[n], n)

        for a in sorted(assignments, key=lambda a: (a.node_id, a.batch_index)):
            root = self._place_root(a.shard_path, survivor_roots, placed, root_weights)
            if root is None:
                unreachable.append(a.shard)
                continue
            node = min(targets, key=cost)
            new_a = replace(a, node_id=node, batch_index=seq[node])
            key_map[(a.epoch, a.node_id, a.batch_index)] = (a.epoch, node, seq[node])
            seq[node] += 1
            extra[node] += 1
            by_root.setdefault(root, []).append(new_a)
            placed[root] = placed.get(root, 0) + 1
        if unreachable:
            raise FailoverError(
                f"no surviving root can reach shards {sorted(set(unreachable))[:3]} "
                f"({len(unreachable)} batches){context}"
            )
        return ReceiverReassignment(
            assignments=tuple(a for root in by_root.values() for a in root),
            key_map=key_map,
            by_root={r: tuple(v) for r, v in by_root.items()},
            extra_per_node={n: c for n, c in extra.items() if c},
        )

    def plan_receiver_failover(
        self,
        dead_node: int,
        epoch: int,
        surviving_nodes: Collection[int],
        next_seq: Mapping[int, int],
        survivor_roots: Collection[str] | None = None,
        residual: Collection[BatchAssignment] | None = None,
    ) -> ReceiverReassignment:
        """Re-target a dead compute node's undelivered batches onto survivors.

        ``residual`` overrides the default ledger-diffed computation — the
        supervisor passes it when earlier failovers created assignments
        outside the original plan (a re-targeted batch whose *new* owner
        died too).

        Raises :class:`FailoverError` with no surviving receiver, or when a
        needed shard is unreachable by every surviving root.
        """
        surviving_nodes = sorted(set(surviving_nodes) - {dead_node})
        if residual is None:
            base = self.residual_plan(epoch)
            residual = [a for a in base.assignments if a.node_id == dead_node]
        else:
            residual = [a for a in residual if a.node_id == dead_node]
        if not residual:
            return ReceiverReassignment((), {}, {}, {})
        result = self.retarget(
            residual,
            surviving_nodes,
            next_seq,
            survivor_roots=survivor_roots,
            context=f" of dead node {dead_node}",
        )
        self.logger.log(
            "receiver_failover_planned",
            dead_node=dead_node,
            epoch=epoch,
            residual_batches=len(result.assignments),
            adopted={str(n): c for n, c in result.extra_per_node.items()},
            roots={r: len(v) for r, v in result.by_root.items()},
        )
        return result

    # -- scale-out -------------------------------------------------------------

    def select_scale_out(
        self,
        assignments: Collection[BatchAssignment],
        new_node: int,
        threshold: float | None = None,
    ) -> list[BatchAssignment]:
        """Pick which donors' outstanding batches shift onto a joined node.

        ``assignments`` is the donors' undelivered residual; the joined
        node's fair share is its throughput weight over the total (a node
        with no history weighs as the donor average — an equal share).
        Batches are drafted from the currently most expensive donor,
        highest dispatch index first (the batches least likely to already
        be in flight, so the supervisor's claim step loses little).

        Returns an empty list when the shift would move less than the
        rebalance threshold's fraction of the outstanding work.
        """
        donors = sorted({a.node_id for a in assignments if a.node_id != new_node})
        if not donors:
            return []
        weights = _weights([*donors, new_node], self.node_loads)
        total = len(assignments)
        target = int(total * weights[new_node] / sum(weights.values()))
        thr = self.policy.rebalance_threshold if threshold is None else threshold
        if target <= 0 or target < thr * total:
            self.logger.log(
                "scale_out_below_threshold",
                new_node=new_node,
                outstanding=total,
                target=target,
                threshold=thr,
            )
            return []
        by_donor = {
            n: sorted(
                (a for a in assignments if a.node_id == n),
                key=lambda a: a.batch_index,
            )
            for n in donors
        }

        def cost(n: int):
            return (
                (len(by_donor[n]) + self._node_backlog(n)) / weights[n],
                n,
            )

        picked: list[BatchAssignment] = []
        for _ in range(target):
            donor = max((n for n in donors if by_donor[n]), key=cost, default=None)
            if donor is None:
                break
            picked.append(by_donor[donor].pop())
        return picked

    # -- daemon scale-out: shard ownership rebalance ---------------------------

    def plan_shard_ownership(
        self,
        roots: Collection[str] | None = None,
        only: Collection[str] | None = None,
    ) -> dict[str, set[str]]:
        """Weighted ownership of planned shards across daemon roots.

        Used when a storage daemon joins mid-run: at the next epoch start
        the supervisor re-divides the plan's shards across all roots —
        heaviest shards first, each to the cheapest reachable root — and
        updates the daemons' shard filters.  ``only`` restricts the
        division to a subset of shard names (the rest are pinned
        elsewhere).  Raises :class:`FailoverError` when a shard is
        reachable by no root at all.
        """
        roots = sorted(roots if roots is not None else self.roots)
        weights = _weights(roots, self.root_loads)
        shard_paths: dict[str, str] = {}
        shard_batches: dict[str, int] = {}
        for a in self.plan.assignments:
            if only is not None and a.shard not in only:
                continue
            shard_paths.setdefault(a.shard, a.shard_path)
            shard_batches[a.shard] = shard_batches.get(a.shard, 0) + 1
        ownership: dict[str, set[str]] = {r: set() for r in roots}
        assigned: dict[str, int] = {r: 0 for r in roots}
        unreachable: list[str] = []
        for shard in sorted(shard_paths, key=lambda s: (-shard_batches[s], s)):
            candidates = [r for r in roots if self.reachable(r, shard_paths[shard])]
            if not candidates:
                unreachable.append(shard)
                continue

            def cost(r: str):
                return (
                    *self._root_cost(r, shard_paths[shard], assigned[r], weights),
                    r,
                )

            root = min(candidates, key=cost)
            ownership[root].add(shard)
            assigned[root] += shard_batches[shard]
        if unreachable:
            raise FailoverError(
                f"no daemon root can reach shards {unreachable[:3]} "
                f"({len(unreachable)} total)"
            )
        self.logger.log(
            "shard_ownership_planned",
            roots={r: sorted(s) for r, s in ownership.items()},
            weights={r: round(w, 3) for r, w in weights.items()},
        )
        return ownership


__all__ = [
    "DeliveryKey",
    "ElasticPolicy",
    "FailoverError",
    "MemberLoad",
    "PlacementEngine",
    "ReceiverReassignment",
]
