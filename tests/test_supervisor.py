"""The socket-free supervisor: decisions as data, replayed and fuzzed.

* structure — ``core/supervisor.py`` and the data plane's policy objects
  (``core/sendqueue.py``, ``core/deliverywindow.py``) import no thread,
  socket, clock, queue or transport module, and ``core/service.py`` makes
  no placement call of its own;
* replay — a recorded membership sequence (receiver death mid-epoch →
  daemon death → receiver join → next epoch start) yields exactly the
  recorded command list;
* property — hypothesis drives seeded schedules of receiver/daemon deaths
  and joins, sends, duplicate and out-of-order deliveries and epoch
  boundaries through the supervisor with an in-memory driver over the real
  :class:`SendQueue` and :class:`DeliveryWindow` objects: every planned
  batch of each epoch is emitted exactly once, and no batch is ever owed
  by two live senders.
"""

from __future__ import annotations

import ast
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.deliverywindow as deliverywindow_module
import repro.core.sendqueue as sendqueue_module
import repro.core.service as service_module
import repro.core.supervisor as supervisor_module
from repro.core.deliverywindow import DONE, WAIT, DeliveryWindow
from repro.core.membership import MembershipEvent
from repro.core.planner import BatchAssignment, BatchPlan
from repro.core.recovery import DeliveryLedger
from repro.core.sendqueue import SendQueue
from repro.core.supervisor import (
    Adopt,
    Bury,
    Claim,
    Kill,
    Notify,
    Observation,
    Reassign,
    Relinquish,
    Serve,
    Supervisor,
)

SHARDS = ("s0", "s1")


# -- structure -----------------------------------------------------------------


@pytest.mark.parametrize(
    "module", [supervisor_module, sendqueue_module, deliverywindow_module],
    ids=["supervisor", "sendqueue", "deliverywindow"],
)
def test_policy_module_imports_no_threads_sockets_clocks_or_transport(module):
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    banned = {"threading", "socket", "time", "queue"}
    assert not imported & banned
    assert not [m for m in imported if m == "repro.net" or m.startswith("repro.net.")]


def test_service_makes_no_placement_decision_itself():
    source = Path(service_module.__file__).read_text()
    for name in (
        "PlacementEngine(", "plan_failover", "plan_receiver_failover", "retarget",
        "select_scale_out", "plan_shard_ownership", "record_reassignment",
    ):
        assert name not in source, name


# -- an in-memory cluster ------------------------------------------------------


def _plan(nodes: int = 2, epochs: int = 2, per_shard: int = 2) -> BatchPlan:
    """Each shard's ``per_shard`` batches dealt round-robin over the nodes."""
    out = []
    for e in range(epochs):
        seq = [0] * nodes
        for shard in SHARDS:
            for i in range(per_shard):
                node = i % nodes
                out.append(BatchAssignment(
                    epoch=e, node_id=node, batch_index=seq[node], shard=shard,
                    shard_path=f"{shard}.tfrecord", start_record=i, offset=i,
                    nbytes=1, count=1, labels=(i,),
                ))
                seq[node] += 1
    return BatchPlan(tuple(out), num_nodes=nodes, epochs=epochs, batch_size=1,
                     coverage="partition")


@pytest.fixture(scope="module")
def roots(tmp_path_factory):
    """Three storage roots, each able to reach every shard."""
    base = tmp_path_factory.mktemp("roots")
    for name in "abc":
        (base / name).mkdir()
        for shard in SHARDS:
            (base / name / f"{shard}.tfrecord").touch()
    return {name: str(base / name) for name in "abc"}


def _batch(a: BatchAssignment) -> tuple:
    """A batch's content identity: re-targeted copies keep it."""
    return (a.epoch, a.shard, a.start_record)


def _key(a: BatchAssignment) -> tuple:
    return (a.epoch, a.node_id, a.batch_index)


@dataclass(frozen=True)
class Payload:
    """One batch on the wire: its delivery key and what it carries."""

    epoch: int
    node_id: int
    seq: int
    batch: tuple


def _payload(a: BatchAssignment) -> Payload:
    return Payload(a.epoch, a.node_id, a.batch_index, _batch(a))


class FakeCluster:
    """The driver, in memory, over the real data-plane policy.  A Serve
    builds (or re-owns) the member's :class:`SendQueue`; a send commits a
    batch and puts it on its node's wire, maybe twice; a node consumes its
    wire in any order through its :class:`DeliveryWindow`, writing what it
    emits to the ledger; a Claim races the send workers, which win a key
    with chance ``1 - give_up``.  (A Reassign needs nothing: the supervisor
    wrote the ledger line.)"""

    def __init__(self, plan, roots, seed=0, give_up=0.7, dup=0.0):
        self.plan = plan
        self.give_up = give_up
        self.dup = dup  # chance a send is delivered twice
        self.ledger = DeliveryLedger(None)
        self.rng = random.Random(seed)
        self.sup = Supervisor(
            plan, self.ledger, [(roots["a"], {"s0"}), (roots["b"], {"s1"})]
        )
        self.receivers = plan.num_nodes
        self.dead_receivers: set[int] = set()
        self.dead_daemons: set[str] = set()
        self.queues: dict[str, SendQueue] = {}  # member -> its queue
        self.work: dict[str, list[BatchAssignment]] = {}  # member -> this epoch's unsent
        self.windows: dict[int, DeliveryWindow] = {}
        self.wire: dict[int, list[Payload]] = {}  # node -> arrived, not yet taken
        self.sent: list[Payload] = []  # every payload ever sent, for replays
        self.landed: Counter = Counter()
        self.log: list = []

    def observe(self) -> Observation:
        down = {f"receiver:{n}" for n in self.dead_receivers} | self.dead_daemons
        return Observation(receivers=self.receivers, down=frozenset(down))

    def run(self, decision) -> None:
        commands = decision.commands
        while commands:
            for cmd in commands:
                answer = self.do(cmd)
            if isinstance(commands[-1], Claim):
                commands = self.sup.claimed(answer).commands
            elif isinstance(commands[-1], Adopt):
                commands = self.sup.adopted(answer).commands
            else:
                commands = ()

    def window(self, node: int) -> DeliveryWindow:
        return self.windows.setdefault(node, DeliveryWindow(dedup=True, reorder=2))

    def do(self, cmd):
        self.log.append(cmd)
        if isinstance(cmd, Serve):
            queue = self.queues.get(cmd.member)
            if queue is None:
                queue = SendQueue(self.plan, cmd.shards, cmd.assignments, self.sup.dead_nodes)
                self.queues[cmd.member] = queue
            else:
                queue.own(cmd.shards)
            per_node = queue.serve(self.sup.epoch, cmd.skip)
            self.work[cmd.member] = [a for node in per_node for a in per_node[node]]
        elif isinstance(cmd, Kill):
            self.dead_daemons.add(cmd.member)
            self.work.pop(cmd.member, None)
        elif isinstance(cmd, Bury):
            self.dead_receivers.add(cmd.node)
            for queue in self.queues.values():
                queue.drop(cmd.node)
            self.wire.pop(cmd.node, None)  # what reached a dead node is lost
        elif isinstance(cmd, Adopt):
            if cmd.node in self.dead_receivers:
                return False
            self.window(cmd.node).adopt(self.sup.epoch, cmd.n)
            return True
        elif isinstance(cmd, Relinquish):
            self.window(cmd.node).relinquish(cmd.keys)
        elif isinstance(cmd, Claim):
            # The send workers race the claim: each wins a key with chance
            # 1 - give_up and sends it before the queues are asked.
            for member, a in self.sendable():
                if _key(a) in cmd.keys and self.rng.random() >= self.give_up:
                    self.send(member, a)
            given = set()
            for member in sorted(self.work):
                queue = self.queues[member]
                taken = queue.claim(cmd.keys)
                # A claimed key is never committed here again.
                assert not [a for a in self.work[member] if _key(a) in taken and queue.commit(a)]
                self.work[member] = [a for a in self.work[member] if _key(a) not in taken]
                given |= taken
            return given
        return None

    def sendable(self) -> list[tuple[str, BatchAssignment]]:
        return [
            (member, a) for member in sorted(self.work) for a in self.work[member]
            if a.node_id not in self.dead_receivers
        ]

    def send(self, member: str, a: BatchAssignment) -> None:
        self.work[member].remove(a)
        if self.queues[member].commit(a):
            copies = 2 if self.rng.random() < self.dup else 1
            for _ in range(copies):
                self.wire.setdefault(a.node_id, []).append(_payload(a))
            self.sent.append(_payload(a))

    def deliver(self, fraction: float) -> None:
        for member, a in self.sendable():
            if self.rng.random() < fraction:
                self.send(member, a)

    def replay(self) -> None:
        """An at-least-once transport re-delivers something already sent
        (maybe of an earlier epoch) to its node, if the node lives."""
        if self.sent:
            p = self.rng.choice(self.sent)
            if p.node_id not in self.dead_receivers:
                self.wire.setdefault(p.node_id, []).append(p)

    def consume(self, node: int) -> None:
        """``node`` takes what arrived, in any order, and emits what its
        window lets out into the ledger."""
        window = self.window(node)
        if window.epoch != self.sup.epoch:
            planned = [a.batch_index for a in self.plan.assignments
                       if a.epoch == self.sup.epoch and a.node_id == node]
            keys = self.ledger.covered_set((self.sup.epoch, node, s) for s in planned)
            window.open(self.sup.epoch, planned, [s for _e, _n, s in keys])
        arrived = self.wire.pop(node, [])
        self.rng.shuffle(arrived)
        for p in arrived:
            window.offer(p)
        while (p := window.pop(more=False)) not in (DONE, WAIT):
            assert self.ledger.record(p.epoch, p.node_id, p.seq), "a key emitted twice"
            self.landed[p.batch] += 1
            assert self.landed[p.batch] == 1, f"batch {p.batch} emitted twice"

    def live_nodes(self) -> list[int]:
        return [n for n in range(self.receivers) if n not in self.dead_receivers]

    # -- the schedule's steps --------------------------------------------------

    def start(self, epoch: int) -> None:
        self.run(self.sup.start_epoch(epoch, self.observe()))
        for node in self.live_nodes():
            self.consume(node)

    def end(self) -> None:
        self.deliver(1.0)
        for node in self.live_nodes():
            self.consume(node)
            assert self.window(node).remaining(self.sup.epoch) == 0, f"node {node} owed more"
        self.sup.end_epoch({})
        self.work.clear()

    def kill_receiver(self, node: int) -> None:
        self.dead_receivers.add(node)
        ev = MembershipEvent("dead", f"receiver:{node}", "receiver", reason="missed")
        self.run(self.sup.event(ev, self.observe()))

    def kill_daemon(self, member: str) -> None:
        self.dead_daemons.add(member)
        self.work.pop(member, None)
        ev = MembershipEvent("dead", member, "daemon", reason="failed")
        self.run(self.sup.event(ev, self.observe()))

    def join_receiver(self) -> int:
        node = self.receivers
        self.sup.admit_receiver(node, self.receivers - len(self.dead_receivers))
        self.receivers += 1
        ev = MembershipEvent("joined", f"receiver:{node}", "receiver")
        self.run(self.sup.event(ev, self.observe()))
        return node


# -- replay --------------------------------------------------------------------


def _render(cmd, roots) -> str:
    """A command as one line; roots print as their short names."""
    short = {path: name for name, path in roots.items()}

    def keys(items):
        return " ".join(f"{a.node_id}.{a.batch_index}" for a in items)

    match cmd:
        case Serve(member=m, root=r, assignments=None, shards=shards):
            member = m.replace(r, short[r])
            return f"serve {member} planned {','.join(sorted(shards))}"
        case Serve(member=m, root=r, assignments=work):
            return f"serve {m.replace(r, short[r])} {keys(work)}"
        case Kill(member=m):
            return "kill " + m.rsplit("@", 1)[0] + "@" + short[m.rsplit("@", 1)[1]]
        case Bury(node=n):
            return f"bury {n}"
        case Reassign(old=(_e, on, os_), new=(_e2, nn, ns)):
            return f"reassign {on}.{os_}->{nn}.{ns}"
        case Relinquish(node=n, keys=ks):
            return f"relinquish {n} " + " ".join(f"{s}" for _e, s in ks)
        case Adopt(node=n, n=count):
            return f"adopt {n} {count}"
        case Claim(keys=ks):
            return "claim " + " ".join(f"{n}.{s}" for _e, n, s in sorted(ks))
        case Notify(kind=kind, info=info):
            return f"notify {kind}"
    raise AssertionError(cmd)


def test_replay_recorded_membership_sequence(roots):
    """Receiver 1 dies mid-epoch, then daemon 0, then receiver 2 joins; the
    next epoch starts with daemon 0 and receiver 1 still owed their shares."""
    cluster = FakeCluster(_plan(per_shard=4), roots, give_up=1.0)
    cluster.start(0)
    # Node 0's first s0 batch landed; everything else is still owed.
    cluster.send("daemon:0@" + roots["a"], cluster.plan.assignments[0])
    cluster.consume(0)
    cluster.kill_receiver(1)
    cluster.kill_daemon("daemon:0@" + roots["a"])
    cluster.join_receiver()
    cluster.end()
    cluster.start(1)
    assert [_render(c, roots) for c in cluster.log] == [
        # epoch 0: the planned serves
        "serve daemon:0@a planned s0",
        "serve daemon:1@b planned s1",
        # receiver 1 dies: its four batches move to node 0, spread over roots
        "notify member_event",
        "notify member_dead",
        "bury 1",
        "reassign 1.0->0.4",
        "reassign 1.1->0.5",
        "reassign 1.2->0.6",
        "reassign 1.3->0.7",
        "adopt 0 4",
        "serve daemon:2@a 0.4 0.6",
        "serve daemon:3@b 0.5 0.7",
        "notify receiver_failover",
        # daemon 0 dies: of its s0 share only 0.1 is still owed
        "notify member_event",
        "notify member_dead",
        "kill daemon:0@a",
        "serve daemon:4@a 0.1",
        "notify failover",
        # receiver 2 joins: it drafts its share of node 0's planned backlog
        "notify member_event",
        "notify member_admitted",
        "claim 0.3",
        "reassign 0.3->2.0",
        "relinquish 0 3",
        "adopt 2 1",
        "serve daemon:5@a 2.0",
        "notify rebalance",
        # epoch 1: the dead daemon's s0 share, then the dead node's partition
        "kill daemon:0@a",
        "serve daemon:6@b 0.0 0.1",
        "notify failover",
        "bury 1",
        "reassign 1.0->0.4",
        "reassign 1.1->2.0",
        "reassign 1.2->0.5",
        "reassign 1.3->2.1",
        "adopt 0 2",
        "adopt 2 2",
        "serve daemon:7@b 0.4 2.0 0.5 2.1",
        "notify receiver_failover",
        "serve daemon:1@b planned s1",
    ]
    assert [c.info for c in cluster.log if isinstance(c, Notify) and c.kind == "rebalance"] == [
        {"variant": "receiver_join", "epoch": 0, "node": 2, "moved": 1}
    ]
    assert cluster.sup.errors == []
    # Epoch 0 emitted every planned batch exactly once.
    assert cluster.landed == Counter(_batch(a) for a in cluster.plan.assignments if a.epoch == 0)


# -- property ------------------------------------------------------------------

STEPS = (
    "deliver", "consume", "replay", "kill_receiver", "kill_daemon", "join_receiver",
    "join_daemon", "epoch",
)


@settings(max_examples=80, deadline=None)
@given(
    steps=st.lists(st.sampled_from(STEPS), max_size=16),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_any_schedule_lands_every_batch_exactly_once(roots, steps, seed, data):
    plan = _plan(nodes=3, epochs=3, per_shard=6)
    cluster = FakeCluster(plan, roots, seed=seed, dup=0.3)
    epoch, daemon_joined = 0, False

    def finish_epoch() -> None:
        cluster.end()
        assert cluster.sup.errors == []
        planned = Counter(_batch(a) for a in plan.assignments if a.epoch == epoch)
        landed = Counter({b: n for b, n in cluster.landed.items() if b[0] == epoch})
        assert landed == planned, f"epoch {epoch}: lost or duplicated batches"

    cluster.start(epoch)
    for step in steps:
        live_nodes = cluster.live_nodes()
        live_daemons = sorted(m for m in cluster.work if m not in cluster.dead_daemons)
        live_planned = [m for m in live_daemons if m in cluster.sup.planned]
        if step == "deliver":
            cluster.deliver(0.5)
        elif step == "consume":
            cluster.consume(data.draw(st.sampled_from(live_nodes), label="consumer"))
        elif step == "replay":
            cluster.replay()
        elif step == "kill_receiver" and len(live_nodes) > 1:
            cluster.kill_receiver(data.draw(st.sampled_from(live_nodes), label="receiver"))
        elif step == "kill_daemon" and len(live_daemons) > 1:
            # Keep one planned daemon alive: with every original root's
            # daemon dead no root is left to fail over onto.
            victims = [m for m in live_daemons if m not in live_planned or len(live_planned) > 1]
            cluster.kill_daemon(data.draw(st.sampled_from(victims), label="daemon"))
        elif step == "join_receiver" and cluster.receivers < 6:
            cluster.join_receiver()
        elif step == "join_daemon" and not daemon_joined:
            cluster.sup.admit_daemon(roots["c"], None)
            daemon_joined = True
        elif step == "epoch" and epoch + 1 < plan.epochs:
            finish_epoch()
            epoch += 1
            cluster.start(epoch)
        # No batch is ever owed by two live senders.
        owed = [_batch(a) for _member, a in cluster.sendable()]
        assert len(owed) == len(set(owed)), "a batch owed by two live senders"
    finish_epoch()
