"""Supervisor — every control-plane placement decision, as data.

With ``EMLIOService(recovery=RecoveryConfig(...))`` every participant
publishes heartbeats and a :class:`~repro.core.membership.ClusterView`
turns them into membership events; **liveness is never inferred from
thread state**.  The supervisor reacts:

* a daemon that crashed (``failed`` beat, or silence) or hung (beats with
  frozen progress while serving) is killed, and the
  :class:`~repro.core.placement.PlacementEngine` re-plans its undelivered
  batches onto surviving storage roots;
* a dead *receiver* is buried (daemons drop its endpoint) and its
  undelivered batches, diffed against the
  :class:`~repro.core.recovery.DeliveryLedger`, are re-targeted onto
  surviving receivers with fresh sequence numbers; the key re-mapping is
  persisted so restarts stay exactly-once;
* a joining receiver takes load when its first beat arrives — at once
  while the merged consume loop runs (live daemons atomically give up
  unsent batches), else at the next epoch start; a joining daemon is
  admitted at the next epoch start, where shard ownership re-divides
  across every root.  Both are weighted by observed throughput and queue
  depth.

Between epochs a death is only recorded (a receiver buried, a daemon
killed); the next epoch start fails it over before anything serves.
Failover daemons are members too, so cascading failures keep recovering
while a reachable root and a live receiver survive.

:class:`Supervisor` owns no socket, thread or clock.  Its inputs are
membership events, epoch boundaries and an :class:`Observation`
(heartbeat loads, what the driver knows crashed); it reads the plan and
the ledger, and writes the ledger's ``reassign`` lines.  Each call returns a :class:`Decision` — its inputs and the
commands that carry it out: :class:`Serve`, :class:`Kill`, :class:`Bury`,
:class:`Reassign`, :class:`Adopt`, :class:`Relinquish`, :class:`Notify`
and :class:`Claim`.  A :class:`Claim` or an :class:`Adopt` ends a
decision; the driver (:class:`~repro.core.service.EMLIOService`) runs the
commands in order and passes the answer to :meth:`Supervisor.claimed` /
:meth:`Supervisor.adopted` for the rest.  Every re-plan ends in the same
sequence, :meth:`Supervisor._land`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Generator, Mapping

from repro.core.placement import (
    ElasticPolicy,
    FailoverError,
    MemberLoad,
    PlacementEngine,
    ReceiverReassignment,
)
from repro.core.planner import BatchAssignment, BatchPlan
from repro.core.recovery import DeliveryKey, DeliveryLedger
from repro.core.membership import MembershipEvent
from repro.util.logging import TimestampLogger


# -- inputs and outputs --------------------------------------------------------


@dataclass(frozen=True)
class Observation:
    """What the driver saw when it asked: receivers ever registered,
    heartbeat loads per node and per root (dead and idle members left out),
    the shards each root's caches hold, and the members it knows are gone
    (``receiver:N`` killed; a daemon member killed or whose serve raised)."""

    receivers: int = 1
    nodes: Mapping[int, MemberLoad] = field(default_factory=dict)
    roots: Mapping[str, MemberLoad] = field(default_factory=dict)
    hot: Mapping[str, set] = field(default_factory=dict)
    down: frozenset = frozenset()


@dataclass(frozen=True)
class Serve:
    """Serve the running epoch from ``root`` as member ``member``: a planned
    daemon (``assignments`` None; created on first use) serves its
    ``shards`` of the plan (None: all), else a new daemon serves exactly
    ``assignments``.  Keys in ``skip`` are not sent."""

    member: str
    root: str
    assignments: tuple[BatchAssignment, ...] | None
    skip: frozenset | None = None
    shards: frozenset | None = None


@dataclass(frozen=True)
class Kill:
    """Silence a daemon member: kill the daemon and its heartbeats."""

    member: str


@dataclass(frozen=True)
class Bury:
    """Silence a dead receiver and close every daemon's stream to it."""

    node: int


@dataclass(frozen=True)
class Reassign:
    """One ``old -> new`` re-ownership, written to the ledger as a
    ``reassign`` line when decided (later steps read it back)."""

    old: DeliveryKey
    new: DeliveryKey


@dataclass(frozen=True)
class Adopt:
    """Grow ``node``'s epoch expectation by ``n``; answer via :meth:`Supervisor.adopted`."""

    node: int
    n: int


@dataclass(frozen=True)
class Relinquish:
    """Shrink ``node``'s expectation by ``(epoch, seq)`` keys re-owned elsewhere."""

    node: int
    keys: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Claim:
    """Ask the live daemons to give up unsent keys; answer via :meth:`Supervisor.claimed`."""

    keys: frozenset


@dataclass(frozen=True)
class Notify:
    """Write log line ``kind`` with ``info``; observer kinds also reach observers."""

    kind: str
    info: dict


@dataclass(frozen=True)
class Decision:
    """One supervisor call: what it was given and the commands it chose."""

    inputs: dict
    commands: tuple


# -- the supervisor ------------------------------------------------------------


@dataclass
class _Daemon:
    """A daemon member as the supervisor tracks it."""

    member: str
    root: str
    shards: set[str] | None  # planned: owned shards (None: all); spawned: none
    work: tuple[BatchAssignment, ...] = ()  # spawned: its explicit work list
    handled: bool = False  # dead and failed over (a planned daemon for good)


def _key(a: BatchAssignment) -> DeliveryKey:
    return (a.epoch, a.node_id, a.batch_index)


def _node(member_id: str) -> int:
    return int(member_id.split(":", 1)[1])


class Supervisor:
    """The control plane's decisions over one plan and delivery ledger.

    ``daemons`` lists each planned daemon's ``(storage root, owned shards)``
    (shards ``None``: all); :attr:`planned` maps their members to them.
    Without a ledger (no recovery) or with ``failover`` off, an epoch start
    only serves the planned daemons and nothing is admitted.  ``logger``
    receives the placement engine's plans.
    """

    def __init__(
        self,
        plan: BatchPlan,
        ledger: DeliveryLedger | None,
        daemons: list[tuple[str, set[str] | None]],
        policy: ElasticPolicy | None = None,
        logger: TimestampLogger | None = None,
        failover: bool = True,
    ) -> None:
        self.plan = plan
        self.ledger = ledger
        self.policy = policy or ElasticPolicy()
        self.logger = logger
        self.failover = failover
        self._ids = itertools.count()
        self.planned: dict[str, _Daemon] = {}  # member -> a planned daemon
        for root, shards in daemons:
            d = _Daemon(self._member(root), root, shards)
            self.planned[d.member] = d
        self._serving: list[_Daemon] = []  # this epoch: planned first, then spawned
        self.epoch: int | None = None  # the running epoch; None between epochs
        self.errors: list[BaseException] = []  # the running epoch's, raised at its end
        self.dead_nodes: set[int] = set()
        self._extra: list[BatchAssignment] = []  # re-targeted copies, outside the plan
        self._pending_scale_out: set[str] = set()  # registered, first beat not seen
        self._pending_joins: list[int] = []  # receivers admitted between epochs
        self._pending_daemons: list[tuple[str, set[str] | None]] = []
        self._root_rates: dict[str, float] = {}  # last observed rate per root
        self._merging = False  # the merged consume loop can drain a join now
        self._obs = Observation()
        self._proc: Generator | None = None  # a decision awaiting its answer
        self.failovers = 0
        self.receiver_failovers = 0
        self.rebalances = 0
        self.last_rebalance: dict | None = None

    # -- calls -----------------------------------------------------------------

    def event(self, ev: MembershipEvent, obs: Observation) -> Decision:
        """React to one membership event (mid-epoch or between epochs)."""
        return self._decide(self._guarded(self._react(ev)), obs, event=ev)

    def start_epoch(self, epoch: int, obs: Observation) -> Decision:
        """The epoch-start safe boundary: admit joined daemons, fail over
        what died between epochs, serve the plan, rebalance onto joins."""
        self.epoch = epoch
        self.errors = []
        self._merging = obs.receivers > 1
        return self._decide(self._start(epoch), obs, epoch=epoch)

    def claimed(self, keys) -> Decision:
        """The keys the live daemons gave up for the pending :class:`Claim`."""
        return self._resume(frozenset(keys), claimed=keys)

    def adopted(self, ok: bool) -> Decision:
        """Whether the receiver took the pending :class:`Adopt`."""
        return self._resume(ok, adopted=ok)

    def end_epoch(self, rates: Mapping[str, float]) -> None:
        """The epoch is over; ``rates`` (member -> observed rate) keep each
        root's last throughput for rebalances while its daemons idle."""
        for d in self._serving:
            if rates.get(d.member, 0.0) > 0:
                self._root_rates[d.root] = rates[d.member]
        self.epoch = None
        self._merging = False
        self._serving = []

    def fail(self, err: BaseException) -> bool:
        """The driver could not carry a decision out: drop the rest of it.
        True when the running epoch takes ``err`` to raise at its end."""
        self._proc = None
        if self.epoch is None:
            return False
        self.errors.append(err)
        return True

    def admit_receiver(self, node: int, live: int) -> None:
        """Admit receiver ``node`` (``live`` receivers serve now); it
        rebalances once its first beat arrives."""
        self._check_admission("receiver", live)
        self._pending_scale_out.add(f"receiver:{node}")

    def admit_daemon(self, root: str, shards: set[str] | None) -> None:
        """Admit a daemon at ``root``; it takes shards at the next epoch start."""
        self._check_admission("daemon", len(self.planned))
        roots = [d.root for d in self.planned.values()] + [r for r, _s in self._pending_daemons]
        if root in roots:
            raise FailoverError(f"daemon root already registered: {root}")
        self._pending_daemons.append((root, set(shards) if shards is not None else None))

    def member_loads(self, obs: Observation) -> tuple[dict[int, MemberLoad], dict[str, MemberLoad]]:
        """Receiver-node and storage-root loads a placement engine weighs:
        the observed heartbeat loads, each root's last observed rate where
        its daemons idle, and the shards its caches hold."""
        root_loads = dict(obs.roots)
        for root, rate in self._root_rates.items():
            root_loads.setdefault(root, MemberLoad(throughput=rate))
        for root, shards in obs.hot.items():
            root_loads[root] = replace(root_loads.get(root, MemberLoad()), cached_shards=shards)
        return dict(obs.nodes), root_loads

    def epoch_covered(self, epoch: int) -> bool:
        """Whether every planned batch of ``epoch`` landed (incl. re-owned)."""
        if self.ledger is None:
            return False
        if self.ledger.epoch_complete(epoch):
            return True
        keys = self.plan.keys(epoch=epoch)
        return len(self.ledger.covered_set(keys)) == len(keys)

    # -- the decision runner ---------------------------------------------------

    def _decide(self, proc: Generator, obs: Observation, **inputs) -> Decision:
        self._obs = obs
        self._proc = proc
        return self._resume(None, observation=obs, **inputs)

    def _resume(self, answer, **inputs) -> Decision:
        """Run the pending decision up to its next question or its end."""
        commands = []
        while self._proc is not None:
            try:
                cmd = self._proc.send(answer)
            except StopIteration:
                self._proc = None
                break
            commands.append(cmd)
            if isinstance(cmd, (Claim, Adopt)):
                break
            answer = None
        return Decision(inputs, tuple(commands))

    def _guarded(self, step: Generator) -> Generator:
        """Run one decision; a failure is the epoch's to raise (logged
        between epochs) and the decisions after it still run."""
        try:
            yield from step
        except Exception as err:  # noqa: BLE001 - surfaced by the epoch
            if self.epoch is None:
                yield Notify("monitor_error", {"error": repr(err)})
            else:
                self.errors.append(err)

    # -- decisions -------------------------------------------------------------

    def _react(self, ev: MembershipEvent) -> Generator:
        epoch = self.epoch
        yield Notify("member_event", dict(
            event=ev.kind, member_id=ev.member_id, role=ev.role, reason=ev.reason,
            incarnation=ev.incarnation, epoch=epoch))
        if ev.kind == "joined" and ev.member_id in self._pending_scale_out:
            self._pending_scale_out.discard(ev.member_id)
            yield Notify("member_admitted", dict(member=ev.member_id, role=ev.role, epoch=epoch))
            if ev.role == "receiver":
                # Mid-epoch only while the merged consume loop can drain it.
                if self._merging:
                    yield from self._scale_out(_node(ev.member_id))
                else:
                    self._pending_joins.append(_node(ev.member_id))
            return
        if ev.kind != "dead":
            return
        yield Notify("member_dead", dict(
            member=ev.member_id, role=ev.role, reason=ev.reason, epoch=epoch))
        if ev.role == "receiver":
            if _node(ev.member_id) not in self.dead_nodes:  # else already failed over
                yield from self._fail_over_receiver(_node(ev.member_id))
            return
        members = (*self._serving, *self.planned.values())
        dead = next((d for d in members if d.member == ev.member_id), None)
        if dead is not None and not dead.handled:  # else stale, or handled already
            yield from self._fail_over_daemon(dead)

    def _start(self, epoch: int) -> Generator:
        # Without failover nothing is admitted and no death is seen, so only
        # the planned serves below remain.
        if self._pending_daemons:
            yield from self._guarded(self._admit(epoch))
        self._serving = list(self.planned.values())
        # What died between epochs (or in an earlier one) owes this epoch
        # its share: fail it over before anything serves.
        for d in self.planned.values():
            if self.failover and (d.handled or d.member in self._obs.down):
                yield from self._guarded(self._fail_over_daemon(d))
        for node in sorted(self.dead_nodes):
            yield from self._guarded(self._fail_over_receiver(node))
        skip = None
        if self.ledger is not None:
            skip = frozenset(self.ledger.covered_set(self.plan.keys(epoch=epoch)))
        for d in self.planned.values():
            if not d.handled:
                shards = frozenset(d.shards) if d.shards is not None else None
                yield Serve(d.member, d.root, None, skip, shards)
        # Joins land after the planned serves exist, so the claim reaches
        # every daemon that could send a moved batch.
        pending, self._pending_joins = self._pending_joins, []
        for node in sorted(set(pending)):
            yield from self._guarded(self._scale_out(node))

    def _admit(self, epoch: int) -> Generator:
        """Fold joined roots in: re-divide shard ownership across every
        root, weighted by observed throughput; pinned roots keep theirs."""
        joined, self._pending_daemons = self._pending_daemons, []
        pinned = {root: shards for root, shards in joined if shards is not None}
        roots = {d.root: d.shards for d in self.planned.values()}
        roots.update(joined)
        pool = {a.shard for a in self.plan.assignments}
        for shards in pinned.values():
            pool -= shards
        unpinned = [r for r in roots if r not in pinned]
        ownership = self._engine(roots).plan_shard_ownership(unpinned, only=pool)
        ownership.update(pinned)
        for root, _shards in joined:
            d = _Daemon(self._member(root), root, None)
            self.planned[d.member] = d
        for d in self.planned.values():
            d.shards = set(ownership.get(d.root, set()))
        self.rebalances += 1
        self.last_rebalance = dict(
            kind="daemon_join", epoch=epoch, roots={r: sorted(s) for r, s in ownership.items()})
        yield Notify("rebalance", dict(
            variant="daemon_join", epoch=epoch, joined=[r for r, _s in joined]))

    def _fail_over_daemon(self, dead: _Daemon) -> Generator:
        """Kill a dead daemon and, in an epoch, re-plan its undelivered
        batches onto live roots (between epochs the next start does)."""
        # A hung daemon is alive and might wake mid-failover: kill it so the
        # re-plan is the only writer.
        dead.handled = True
        yield Kill(dead.member)
        epoch = self.epoch
        if epoch is None:
            return
        live = self._live_roots(exclude=dead)
        # Dead daemon last so its shards win if a survivor shares the root.
        engine = self._engine({**live, dead.root: dead.shards})
        takeover = engine.plan_failover(dead.root, epoch, survivors=list(live))
        excluded = self._excluded(epoch)
        work = [a for a in dead.work if _key(a) not in excluded]
        extra = engine.place_assignments(work, list(live))
        by_root = {}
        for root in sorted(set(takeover) | set(extra)):
            owed = self.plan.residual(excluded, epoch=epoch, shards=takeover.get(root, ()))
            # A dead node's batches are its receiver failover's to move.
            owed = [a for a in (*owed.assignments, *extra.get(root, ()))
                    if a.node_id not in self.dead_nodes]
            if owed:
                by_root[root] = tuple(owed)
        yield from self._land(epoch, ReceiverReassignment((), {}, by_root, {}))
        self.failovers += 1
        yield Notify("failover", dict(
            epoch=epoch, dead_root=dead.root, replacements=len(set(takeover) | set(extra))))

    def _fail_over_receiver(self, node: int) -> Generator:
        """Bury a dead node and, in an epoch, re-target its undelivered
        batches onto live receivers (between epochs the next start does)."""
        epoch = self.epoch
        self.dead_nodes.add(node)
        yield Bury(node)
        if epoch is None:
            return
        # Planned batches plus re-targets an earlier re-plan pointed at it.
        excluded = self._excluded(epoch)
        owed = [a for a in (*self.plan.assignments, *self._extra)
                if a.epoch == epoch and a.node_id == node and _key(a) not in excluded]
        if not owed:
            yield Notify("receiver_dead_nothing_owed", dict(epoch=epoch, node=node))
            return
        live = self._live_roots()
        plan = self._engine(live).plan_receiver_failover(
            node, epoch, surviving_nodes=self._live_nodes(), next_seq=self._next_seq(epoch),
            survivor_roots=list(live), residual=owed)
        if not (yield from self._land(epoch, plan)):
            raise FailoverError(f"a survivor died adopting dead node {node}'s batches")
        self.receiver_failovers += 1
        yield Notify("receiver_failover", dict(
            epoch=epoch, dead_node=node, re_targeted=len(plan.assignments)))

    def _scale_out(self, node: int) -> Generator:
        """Shift a load-weighted share of the donors' undelivered batches
        onto a joined node — only what the daemons can still give up."""
        epoch = self.epoch
        live_nodes = self._live_nodes()
        if node not in live_nodes:
            return  # joined and died before the rebalance landed
        excluded = self._excluded(epoch)
        donors = [a for a in self.plan.residual(excluded, epoch=epoch).assignments
                  if a.node_id != node and a.node_id in live_nodes]
        live = self._live_roots()
        engine = self._engine(live)
        candidates = engine.select_scale_out(donors, node)
        if not candidates:
            yield Notify("scale_out_noop", dict(epoch=epoch, node=node))
            return
        given_up = yield Claim(frozenset(map(_key, candidates)))
        claimed = [a for a in candidates if _key(a) in given_up]
        if not claimed:
            yield Notify("scale_out_nothing_claimable", dict(epoch=epoch, node=node))
            return
        plan = engine.retarget(claimed, targets=[node], next_seq=self._next_seq(epoch),
                               survivor_roots=list(live), context=f" for joined node {node}")
        if not (yield from self._land(epoch, plan)):
            # The joiner died before adopting.  Its moved keys stay re-owned
            # by it; its death event (on the way) re-targets them.
            yield Notify("scale_out_joiner_died", dict(
                epoch=epoch, node=node, stranded=len(plan.assignments)))
            return
        self.rebalances += 1
        moved = len(plan.assignments)
        self.last_rebalance = dict(kind="receiver_join", epoch=epoch, node=node, moved=moved)
        yield Notify("rebalance", dict(
            variant="receiver_join", epoch=epoch, node=node, moved=moved))

    def _land(self, epoch: int, plan: ReceiverReassignment) -> Generator:
        """The one re-plan path every failover and rebalance ends in.

        Persist the re-ownings, let live donors give the moved keys up
        before any target's expectation grows (no pass can end with a key
        both expected and re-owned), grow the targets, and only then spawn
        the serving daemons — adopting after spawning could let a target
        finish its epoch early while re-targets are in flight.  Returns
        False, serving nothing, when a target died before adopting.
        """
        for old, new in plan.key_map.items():
            self.ledger.record_reassignment(old, new)
            yield Reassign(old, new)
        self._extra.extend(plan.assignments)
        donors: dict[int, list[tuple[int, int]]] = {}
        for e, donor, seq in plan.key_map:
            if donor not in self.dead_nodes:
                donors.setdefault(donor, []).append((e, seq))
        for donor, keys in donors.items():
            yield Relinquish(donor, tuple(keys))
        for node, n in plan.extra_per_node.items():
            if not (yield Adopt(node, n)):
                return False
        skip = frozenset(self._excluded(epoch)) if self.ledger is not None else None
        for root, assignments in plan.by_root.items():
            d = _Daemon(self._member(root), root, set(), assignments)
            self._serving.append(d)
            yield Serve(d.member, root, assignments, skip)
        return True

    # -- helpers ---------------------------------------------------------------

    def _member(self, root: str) -> str:
        return f"daemon:{next(self._ids)}@{root}"

    def _check_admission(self, role: str, current: int) -> None:
        if not self.failover:
            raise RuntimeError(
                "elastic scale-out needs the control plane: construct the service "
                "with EMLIOService(recovery=RecoveryConfig(failover=True))"
            )
        if self.policy.admit != "auto":
            raise FailoverError(
                f"elastic admit policy {self.policy.admit!r} rejects a joining {role}"
            )
        if self.policy.max_members and current >= self.policy.max_members:
            raise FailoverError(
                f"elastic max_members={self.policy.max_members} reached; "
                f"refusing a joining {role}"
            )

    def _engine(self, roots: Mapping[str, set[str] | None]) -> PlacementEngine:
        """A placement engine over ``roots`` with the observed loads."""
        node_loads, root_loads = self.member_loads(self._obs)
        return PlacementEngine(self.plan, self.ledger, roots, logger=self.logger,
                               node_loads=node_loads, root_loads=root_loads, policy=self.policy)

    def _live_roots(self, exclude: _Daemon | None = None) -> dict[str, set[str] | None]:
        """Roots of this epoch's daemons still alive, with their shard sets."""
        live: dict[str, set[str] | None] = {}
        for d in self._serving:
            if d is not exclude and not d.handled and d.member not in self._obs.down:
                live.setdefault(d.root, d.shards)
        return live

    def _live_nodes(self) -> list[int]:
        return [n for n in range(self._obs.receivers)
                if n not in self.dead_nodes and f"receiver:{n}" not in self._obs.down]

    def _excluded(self, epoch: int) -> set[DeliveryKey]:
        """Keys no daemon should serve: delivered, or re-owned elsewhere."""
        return self.ledger.delivered(epoch=epoch) | set(self.ledger.reassignments(epoch=epoch))

    def _next_seq(self, epoch: int) -> dict[int, int]:
        """First unused payload seq per node for ``epoch``: re-targets get
        fresh seqs past anything planned or re-assigned before."""
        top = {n: -1 for n in range(self._obs.receivers)}
        for a in (*self.plan.assignments, *self._extra):
            if a.epoch == epoch:
                top[a.node_id] = max(top.get(a.node_id, -1), a.batch_index)
        for _e, node, seq in self.ledger.reassignments(epoch=epoch).values():
            top[node] = max(top.get(node, -1), seq)
        return {n: t + 1 for n, t in top.items()}

