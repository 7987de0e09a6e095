"""The data plane's policy as data: SendQueue and DeliveryWindow, fuzzed.

* property — hypothesis drives two planned daemons' :class:`SendQueue`\\ s
  and one :class:`DeliveryWindow` per receiver through random sends,
  duplicate and out-of-order deliveries, stale replays, early (future
  epoch) deliveries, scale-out moves (claim → relinquish → adopt) and
  receiver deaths (drop → re-target → adopt): every planned batch of each
  epoch is emitted exactly once, and no key is ever both committed and
  claimed;
* the window's lifetime — adopted batches wait for the epoch to open, an
  epoch that owes nothing is netted afresh, and what a torn-down pass
  emitted but nobody consumed is owed again;
* the receiver's driver path under racing adopt/relinquish threads;
* :meth:`DeliveryLedger.covered_set` equals per-key coverage, followed
  through the ledger's snapshots, over random ledgers with reassignment
  chains and compaction.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deliverywindow import DONE, WAIT, DeliveryWindow
from repro.core.planner import BatchAssignment, BatchPlan
from repro.core.recovery import DeliveryLedger
from repro.core.sendqueue import SendQueue

SHARDS = ("s0", "s1")
NODES = 3
EPOCHS = 2


def _plan(per_shard: int = 6) -> BatchPlan:
    out = []
    for e in range(EPOCHS):
        seq = [0] * NODES
        for shard in SHARDS:
            for i in range(per_shard):
                node = i % NODES
                out.append(BatchAssignment(
                    epoch=e, node_id=node, batch_index=seq[node], shard=shard,
                    shard_path=f"{shard}.tfrecord", start_record=i, offset=i,
                    nbytes=1, count=1, labels=(i,),
                ))
                seq[node] += 1
    return BatchPlan(tuple(out), num_nodes=NODES, epochs=EPOCHS, batch_size=1,
                     coverage="partition")


def _key(a: BatchAssignment) -> tuple:
    return (a.epoch, a.node_id, a.batch_index)


def _batch(a: BatchAssignment) -> tuple:
    return (a.epoch, a.shard, a.start_record)


@dataclass(frozen=True)
class Payload:
    epoch: int
    node_id: int
    seq: int
    batch: tuple


class DataPlane:
    """Daemons' queues, receivers' windows and the wire between them."""

    def __init__(self, plan: BatchPlan, rng: random.Random) -> None:
        self.plan = plan
        self.rng = rng
        self.queues = [SendQueue(plan, {shard}) for shard in SHARDS]
        self.windows = {n: DeliveryWindow(dedup=True) for n in range(NODES)}
        self.dead: set[int] = set()
        self.epoch = -1
        self.work: list[tuple[SendQueue, BatchAssignment]] = []  # owed, unsent
        self.wire: dict[int, list[Payload]] = {}
        self.sent: list[Payload] = []
        self.owner: dict[tuple, tuple] = {}  # batch -> (epoch, node, seq) owning it now
        self.next_seq: dict[int, int] = {}
        self.landed: Counter = Counter()

    def live(self) -> list[int]:
        return [n for n in range(NODES) if n not in self.dead]

    def check(self) -> None:
        for queue in self.queues:
            assert not queue._taken & queue._claimed, "a key committed and claimed"

    def start(self, epoch: int) -> None:
        self.epoch = epoch
        self.work = []
        for queue in self.queues:
            for items in queue.serve(epoch).values():
                self.work.extend((queue, a) for a in items)
        planned = [a for a in self.plan.assignments if a.epoch == epoch]
        self.owner = {_batch(a): _key(a) for a in planned}
        self.next_seq = {n: 1 + max(a.batch_index for a in planned if a.node_id == n)
                         for n in range(NODES)}
        for n in self.live():
            self.windows[n].open(epoch, [a.batch_index for a in planned if a.node_id == n])
        for n in sorted(self.dead):  # a dead node's partition moves at once
            self.retarget(sorted(b for b, k in self.owner.items() if k[1] == n), self.live()[0])

    def send(self, i: int) -> None:
        queue, a = self.work.pop(i % len(self.work))
        if queue.commit(a):
            p = Payload(a.epoch, a.node_id, a.batch_index, _batch(a))
            self.sent.append(p)
            for _ in range(1 + (self.rng.random() < 0.3)):
                self.wire.setdefault(a.node_id, []).append(p)

    def consume(self, node: int, limit: int = -1) -> None:
        """``node`` takes what arrived, in any order, and emits up to
        ``limit`` batches (-1: all it can)."""
        window = self.windows[node]
        arrived = self.wire.pop(node, [])
        self.rng.shuffle(arrived)  # any arrival order
        for p in arrived:
            window.offer(p)
        while limit != 0 and (p := window.pop()) not in (DONE, WAIT):
            limit -= 1
            assert self.owner[p.batch] == (p.epoch, p.node_id, p.seq), "emitted by a non-owner"
            self.landed[p.batch] += 1
            assert self.landed[p.batch] == 1, f"batch {p.batch} emitted twice"

    def replay(self) -> None:
        """An at-least-once transport delivers an old payload again (a
        duplicate, or stale once its epoch is over)."""
        if self.sent:
            p = self.rng.choice(self.sent)
            if p.node_id not in self.dead:
                self.wire.setdefault(p.node_id, []).append(p)

    def early(self) -> None:
        """A daemon runs ahead: it commits a next-epoch batch and the
        batch arrives now."""
        ahead = [(q, a) for q in self.queues[:len(SHARDS)] for a in q.assignments
                 if a.epoch == self.epoch + 1]
        if ahead:
            queue, a = self.rng.choice(ahead)
            if queue.commit(a):
                p = Payload(a.epoch, a.node_id, a.batch_index, _batch(a))
                self.wire.setdefault(a.node_id, []).append(p)

    def retarget(self, batches: list[tuple], to: int) -> None:
        """Serve ``batches`` to node ``to`` under fresh keys, from a new
        queue with explicit assignments; ``to`` adopts them."""
        by_batch = {_batch(a): a for a in self.plan.assignments if a.epoch == self.epoch}
        moved = []
        for b in batches:
            seq = self.next_seq[to]
            self.next_seq[to] += 1
            moved.append(BatchAssignment(**{
                **by_batch[b].__dict__, "node_id": to, "batch_index": seq}))
            self.owner[b] = (self.epoch, to, seq)
        queue = SendQueue(self.plan, assignments=moved, dropped=self.dead)
        self.queues.append(queue)
        for items in queue.serve(self.epoch).values():
            self.work.extend((queue, a) for a in items)
        self.windows[to].adopt(self.epoch, len(moved))

    def move(self, src: int, dst: int, share: float) -> None:
        """Scale-out: the queues give up what they still owe ``src``;
        ``src`` relinquishes it, ``dst`` adopts it."""
        # Asked of everything not yet emitted, sent or not, as the
        # supervisor asks of what the ledger does not hold.
        keys = {k for b, k in self.owner.items()
                if k[1] == src and not self.landed[b] and self.rng.random() < share}
        claimed = set().union(*(q.claim(keys) for q in self.queues))
        assert claimed <= keys
        for queue, a in self.work:
            if _key(a) in claimed:
                assert not queue.commit(a), "a claimed key committed"
        self.work = [(q, a) for q, a in self.work if _key(a) not in claimed]
        self.windows[src].relinquish([(e, s) for e, _n, s in claimed])
        by_key = {k: b for b, k in self.owner.items()}
        self.retarget(sorted(by_key[k] for k in claimed), dst)

    def kill(self, node: int, heir: int) -> None:
        """A receiver dies: every queue drops it, what reached it unemitted
        is lost, and its residual is re-targeted onto ``heir``."""
        self.dead.add(node)
        for queue in self.queues:
            queue.drop(node)
        self.wire.pop(node, None)
        owed = sorted(b for b, (_e, n, _s) in self.owner.items()
                      if n == node and not self.landed[b])
        self.retarget(owed, heir)

    def finish(self) -> None:
        while self.work:
            self.send(0)
        for n in self.live():
            self.consume(n)
            assert self.windows[n].remaining(self.epoch) == 0, f"node {n} owes more"
        planned = Counter(_batch(a) for a in self.plan.assignments if a.epoch == self.epoch)
        landed = Counter({b: c for b, c in self.landed.items() if b[0] == self.epoch})
        assert landed == planned, f"epoch {self.epoch}: lost or duplicated batches"


STEPS = ("send", "consume", "replay", "early", "move", "kill", "epoch")


@settings(max_examples=150, deadline=None)
@given(
    steps=st.lists(st.sampled_from(STEPS), max_size=40),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_any_interleaving_emits_every_planned_batch_exactly_once(steps, seed, data):
    plane = DataPlane(_plan(), random.Random(seed))
    plane.start(0)
    for step in steps:
        live = plane.live()
        if step == "send" and plane.work:
            plane.send(data.draw(st.integers(0, 10**6), label="batch"))
        elif step == "consume":
            node = data.draw(st.sampled_from(live), label="consumer")
            plane.consume(node, data.draw(st.integers(0, 4), label="emits"))
        elif step == "replay":
            plane.replay()
        elif step == "early" and plane.epoch + 1 < EPOCHS:
            plane.early()
        elif step == "move" and len(live) > 1:
            src, dst = data.draw(st.permutations(live), label="move")[:2]
            plane.move(src, dst, data.draw(st.floats(0, 1), label="share"))
        elif step == "kill" and len(live) > 1:
            node, heir = data.draw(st.permutations(live), label="kill")[:2]
            plane.kill(node, heir)
        elif step == "epoch" and plane.epoch + 1 < EPOCHS:
            plane.finish()
            plane.start(plane.epoch + 1)
        plane.check()
    plane.finish()


# -- the window's lifetime -----------------------------------------------------


def _p(epoch: int, seq: int, node: int = 0) -> Payload:
    return Payload(epoch, node, seq, (epoch, "s", seq))


def _drain(window: DeliveryWindow, *payloads) -> list[int]:
    for p in payloads:
        window.offer(p)
    out = []
    while (p := window.pop()) not in (DONE, WAIT):
        out.append(p.seq)
    return out


def test_adopted_batches_wait_for_the_epoch_to_open():
    window = DeliveryWindow(dedup=True)
    window.adopt(0, 2)  # re-targeted here before this node's pass started
    assert window.remaining(0) == 2
    window.open(0, planned=[0, 1], covered=[1])
    assert window.remaining(0) == 3  # planned 0, plus the two adopted
    assert _drain(window, _p(0, 0), _p(0, 7), _p(0, 8)) == [0, 7, 8]
    assert window.pop() is DONE
    window.adopt(0, 1)  # after the pass finished: the next pass emits it
    window.open(0, planned=[0, 1], covered=[0, 1])
    assert window.remaining(0) == 1
    assert _drain(window, _p(0, 7), _p(0, 9)) == [9]  # 7 is a duplicate
    assert window.duplicates == 1


def test_an_epoch_that_owes_nothing_is_netted_afresh():
    """Re-running an epoch index without a ledger serves it again."""
    window = DeliveryWindow()
    window.open(0, planned=[0, 1])
    assert _drain(window, _p(0, 1), _p(0, 0)) == [1, 0]  # arrival order
    window.open(0, planned=[0, 1])
    assert window.remaining(0) == 2
    assert _drain(window, _p(0, 0), _p(0, 1)) == [0, 1]


def test_a_torn_down_pass_owes_what_nobody_consumed():
    window = DeliveryWindow(dedup=True)
    window.open(0, planned=[0, 1, 2])
    assert _drain(window, _p(0, 0), _p(0, 1)) == [0, 1]
    window.rewind(0, consumed=1)  # the pipeline dropped seq 1 unconsumed
    assert window.remaining(0) == 2
    window.open(0, planned=[0, 1, 2], covered=[0])
    assert _drain(window, _p(0, 0), _p(0, 1), _p(0, 2)) == [1, 2]


def test_relinquished_keys_stay_gone_and_late_copies_dedup():
    window = DeliveryWindow(dedup=True)
    assert not window.relinquish([(0, 2)])  # before the epoch opens
    window.open(0, planned=[0, 1, 2])
    assert window.remaining(0) == 2
    assert window.relinquish([(0, 1)])
    assert not window.relinquish([(0, 1)])  # idempotent
    assert _drain(window, _p(0, 1), _p(0, 2), _p(0, 0)) == [0]
    assert window.duplicates == 2


def test_held_and_stale_payloads():
    window = DeliveryWindow(dedup=True)
    window.open(1, planned=[0])
    assert window.offer(_p(2, 0))  # a later epoch: held
    assert not window.offer(_p(0, 5))  # an earlier one: stale
    assert window.stale == 1
    assert _drain(window, _p(1, 0)) == [0]
    assert window.open(2, planned=[0]) == []
    assert _drain(window) == [0]  # the held payload, no arrival needed
    strict = DeliveryWindow()
    strict.open(1, planned=[0])
    with pytest.raises(RuntimeError, match="epoch 0 payload in epoch 1"):
        strict.offer(_p(0, 0))


def test_send_queue_serves_in_dispatch_order_and_forgets_dropped_nodes():
    plan = _plan(per_shard=6)
    queue = SendQueue(plan)
    per_node = queue.serve(0, skip={(0, 0, 0)})
    assert sorted(per_node) == [0, 1, 2]
    assert [a.batch_index for a in per_node[0]] == [1, 2, 3]
    a = per_node[1][0]
    queue.drop(1)
    assert not queue.commit(a)
    assert 1 not in {a.node_id for a in queue.assignments}
    assert queue.claim({_key(a)}) == set()
    assert all(r[0] for r in queue.ranges(1))
    assert len(queue.ranges(0)) == 2 * len(queue.ranges(1))


def test_receiver_driver_under_racing_adopt_and_relinquish():
    """The receiver's real driver path under thread churn: a producer
    sends (with duplicates, shuffled), a control thread relinquishes
    unsent keys and adopts re-targets while the provider consumes; every
    key still owed is emitted exactly once and the pass ends."""
    import sys
    import threading
    import time

    from repro.core.config import EMLIOConfig
    from repro.core.receiver import EMLIOReceiver
    from repro.gpu.pipeline import EndOfData
    from repro.net.buffers import release_samples
    from repro.net.mq import PushSocket
    from repro.serialize.payload import BatchPayload, encode_batch

    plan = _plan(per_shard=60)
    planned = [a.batch_index for a in plan.assignments if a.epoch == 0 and a.node_id == 0]
    receiver = EMLIOReceiver(node_id=0, plan=plan, config=EMLIOConfig(batch_size=1), dedup=True,
                             stall_timeout=5.0)
    rng = random.Random(5)
    gone = set(rng.sample(planned, len(planned) // 4))
    adopted = list(range(1000, 1010))
    sent = [s for s in planned if s not in gone] + adopted
    wire = sent + rng.sample(sent, len(sent) // 3)  # duplicates
    rng.shuffle(wire)
    emitted: list = []
    errors: list = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    push = PushSocket([receiver.address], hwm=4)
    try:
        provider = receiver._open(0)

        def consume():
            try:
                while True:
                    emitted.append(provider())
                    release_samples(emitted[-1][0])  # as the pipeline does
            except EndOfData:
                pass
            except BaseException as err:  # noqa: BLE001 - asserted below
                errors.append(err)

        def control():
            receiver.adopt(0, len(adopted))
            late = sorted(gone)
            for seq in late[: len(late) // 2]:  # while payloads flow
                receiver.relinquish([(0, seq)])
            while len(emitted) < len(sent) and not errors:
                time.sleep(0.001)
            # The consumer now blocks on a socket with nothing left to send:
            # only the relinquish's wake-up ends its pass.
            receiver.relinquish([(0, seq) for seq in late[len(late) // 2:]])

        def produce():
            for seq in wire:
                push.send(encode_batch(BatchPayload(
                    epoch=0, batch_index=seq, shard="s", samples=[b"x"], labels=[seq],
                    node_id=0, seq=seq)))

        threads = [threading.Thread(target=f, daemon=True) for f in (control, consume, produce)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
        push.close()
        receiver.close()
    assert errors == []
    assert sorted(labels[0] for _samples, labels in emitted) == sorted(sent)
    assert provider.complete


# -- covered_set ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.integers(0, 1), st.integers(0, 1), st.integers(0, 7)),
        # a re-targeted key lands (its seq is past the planned 0..5)
        st.tuples(st.just("record"), st.integers(0, 1), st.integers(0, 1), st.integers(6, 7)),
        st.tuples(st.just("reassign"), st.integers(0, 1), st.integers(0, 1), st.integers(0, 7),
                  st.integers(0, 1), st.integers(6, 7)),
        st.tuples(st.just("complete"), st.integers(0, 1)),
    ),
    max_size=30,
))
def test_covered_set_equals_per_key_covered(ops):
    ledger = DeliveryLedger(None)
    for op in ops:
        if op[0] == "record":
            ledger.record(*op[1:])
        elif op[0] == "reassign":
            e, n, s, nn, ns = op[1:]
            ledger.record_reassignment((e, n, s), (e, nn, ns))
        else:
            ledger.complete_epoch(op[1])
    done, landed, moved = ledger.completed_epochs(), ledger.delivered(), ledger.reassignments()

    def covered(key) -> bool:  # from the ledger's snapshots, not its lookup
        seen = set()
        while key not in landed and key in moved and key not in seen:
            seen.add(key)
            key = moved[key]
        return key[0] in done or key in landed

    keys = [(e, n, s) for e in range(2) for n in range(2) for s in range(8)]
    assert ledger.covered_set(keys) == {k for k in keys if covered(k)}
    assert all(ledger.covered(k) == covered(k) for k in keys)
