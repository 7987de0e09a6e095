"""Control-plane tests: heartbeat channel, ClusterView, receiver re-planning.

Fast unit tests drive the :class:`ClusterView` state machine with a fake
clock (crash, hang, partition-and-return, incarnation supersession) and the
heartbeat publisher/listener pair over real loopback TCP.  Hypothesis
properties pin the receiver-failover re-planner's invariants: no batch
lost, no batch double-owned, fresh sequence numbers that can never collide
with anything a survivor has already seen.
"""

import queue
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AUTO_REORDER, EMLIOConfig
from repro.core.membership import (
    ClusterView,
    MemberStatus,
    MembershipConfig,
    MembershipEvent,
)
from repro.core.planner import BatchAssignment, BatchPlan
from repro.core.placement import PlacementEngine
from repro.core.recovery import DeliveryLedger, FailoverError, RecoveryConfig
from repro.core.service import EMLIOService
from repro.net.channel import connect_channel
from repro.net.heartbeat import (
    Heartbeat,
    HeartbeatListener,
    HeartbeatPublisher,
    decode_heartbeat,
    encode_heartbeat,
)

FAST = MembershipConfig(interval_s=0.02, miss_threshold=2, dead_threshold=4,
                        hung_after_s=0.0)


# -- heartbeat codec -----------------------------------------------------------


def test_heartbeat_roundtrip():
    hb = Heartbeat(member_id="daemon:0@/data", role="daemon", incarnation=3,
                   seq=17, progress=42, state="serving", detail="")
    assert decode_heartbeat(encode_heartbeat(hb)) == hb


def test_heartbeat_stage_timing_roundtrip_and_back_compat():
    """Per-stage pipeline costs ride the beat; old beats without the
    fields decode as zeros (mixed-version clusters keep talking)."""
    hb = Heartbeat(member_id="receiver:1", role="receiver", incarnation=0,
                   seq=5, progress=9, state="serving",
                   decode_ns=120_000, preprocess_ns=3_400_000, starved_ns=80_000)
    assert decode_heartbeat(encode_heartbeat(hb)) == hb

    import json

    wire = json.loads(encode_heartbeat(hb).decode())
    for key in ("dns", "pns", "sns"):
        wire.pop(key)
    decoded = decode_heartbeat(json.dumps(wire).encode())
    assert (decoded.decode_ns, decoded.preprocess_ns, decoded.starved_ns) == (0, 0, 0)


def test_heartbeat_rejects_bad_state_and_junk():
    with pytest.raises(ValueError, match="invalid heartbeat state"):
        Heartbeat(member_id="x", role="daemon", state="zombie")
    with pytest.raises(ValueError, match="malformed"):
        decode_heartbeat(b"not json at all")
    with pytest.raises(ValueError, match="malformed"):
        decode_heartbeat(b'{"role": "daemon"}')  # missing id


def test_heartbeat_unknown_fields_are_counted_not_silent():
    """Forward-compat beats decode, but the extra fields are surfaced —
    once to the log, always to the ``on_unknown`` callback (which feeds
    the registry's ``emlio_heartbeat_unknown_fields_total``)."""
    import json

    hb = Heartbeat(member_id="daemon:0", role="daemon")
    wire = json.loads(encode_heartbeat(hb).decode())
    wire["future_field"] = 1
    wire["other_new"] = "x"
    seen: list[frozenset] = []
    decoded = decode_heartbeat(
        json.dumps(wire).encode(), on_unknown=seen.append
    )
    assert decoded.member_id == "daemon:0"  # still decodes
    assert seen == [frozenset({"future_field", "other_new"})]
    # Without the callback nothing breaks either.
    assert decode_heartbeat(json.dumps(wire).encode()) == decoded


def test_heartbeat_listener_counts_unknown_fields():
    import json

    got = queue.Queue()
    listener = HeartbeatListener(got.put)
    try:
        hb = Heartbeat(member_id="daemon:0", role="daemon")
        wire = json.loads(encode_heartbeat(hb).decode())
        wire["future_field"] = 1
        chan = connect_channel("127.0.0.1", listener.port)
        try:
            chan.send(json.dumps(wire).encode())
            chan.send(json.dumps(wire).encode())
            chan.send(encode_heartbeat(hb))
            for _ in range(3):
                assert got.get(timeout=5).member_id == "daemon:0"
        finally:
            chan.close()
        assert listener.unknown_fields == 2
        assert listener.malformed == 0
    finally:
        listener.close()


def test_membership_config_validation():
    with pytest.raises(ValueError):
        MembershipConfig(interval_s=0)
    with pytest.raises(ValueError):
        MembershipConfig(miss_threshold=0)
    with pytest.raises(ValueError):
        MembershipConfig(miss_threshold=3, dead_threshold=3)
    with pytest.raises(ValueError):
        MembershipConfig(hung_after_s=-1)


# -- ClusterView state machine (fake clock) ------------------------------------


def _beat(member="daemon:0", role="daemon", inc=0, progress=0, state="serving"):
    return Heartbeat(member_id=member, role=role, incarnation=inc,
                     progress=progress, state=state)


def _view(hung_after=0.0):
    t = [0.0]
    cfg = MembershipConfig(interval_s=1.0, miss_threshold=2, dead_threshold=4,
                           hung_after_s=hung_after)
    events: list[MembershipEvent] = []
    view = ClusterView(cfg, on_event=events.append, clock=lambda: t[0])
    return view, t, events


def _kinds(events):
    return [(e.kind, e.member_id) for e in events]


def test_view_join_then_miss_then_dead():
    view, t, events = _view()
    view.observe(_beat())
    assert _kinds(events) == [("joined", "daemon:0")]
    t[0] = 1.5
    assert view.poll() == []  # within the miss budget
    t[0] = 2.5  # > miss_threshold * interval
    view.poll()
    assert view.status_of("daemon:0") is MemberStatus.SUSPECT
    t[0] = 4.5  # > dead_threshold * interval
    view.poll()
    assert view.status_of("daemon:0") is MemberStatus.DEAD
    assert [k for k, _ in _kinds(events)] == ["joined", "suspect", "dead"]
    assert "missed heartbeats" in events[-1].reason


def test_view_suspect_recovers_on_resumed_beats():
    view, t, events = _view()
    view.observe(_beat(progress=1))
    t[0] = 2.5
    view.poll()
    assert view.status_of("daemon:0") is MemberStatus.SUSPECT
    view.observe(_beat(progress=2))  # the partition heals in time
    assert view.status_of("daemon:0") is MemberStatus.ALIVE
    assert _kinds(events)[-1] == ("recovered", "daemon:0")


def test_view_dead_member_returning_surfaces_recovery():
    view, t, events = _view()
    view.observe(_beat())
    t[0] = 10.0
    view.poll()
    assert view.status_of("daemon:0") is MemberStatus.DEAD
    view.observe(_beat())  # zombie beats return, same incarnation
    assert view.status_of("daemon:0") is MemberStatus.ALIVE
    assert events[-1].kind == "recovered"
    assert "returned from dead" in events[-1].reason


def test_view_hung_member_detected_while_still_beating():
    view, t, events = _view(hung_after=3.0)
    view.observe(_beat(progress=5))
    for i in range(1, 6):  # keeps beating every interval, progress frozen
        t[0] = float(i)
        view.observe(_beat(progress=5))
        view.poll()
    assert view.status_of("daemon:0") is MemberStatus.DEAD
    dead = [e for e in events if e.kind == "dead"]
    assert len(dead) == 1 and "hung" in dead[0].reason


def test_view_progress_resets_hung_timer():
    view, t, events = _view(hung_after=3.0)
    view.observe(_beat(progress=0))
    for i in range(1, 8):  # progress advances every beat: never hung
        t[0] = float(i)
        view.observe(_beat(progress=i))
        view.poll()
    assert view.status_of("daemon:0") is MemberStatus.ALIVE
    assert not [e for e in events if e.kind == "dead"]


def test_view_idle_member_is_never_hung():
    view, t, events = _view(hung_after=3.0)
    view.observe(_beat(state="idle"))
    for i in range(1, 8):
        t[0] = float(i)
        view.observe(_beat(state="idle"))
        view.poll()
    assert view.status_of("daemon:0") is MemberStatus.ALIVE
    # Back to serving (a daemon's next epoch): the hang clock starts now,
    # not at the last progress change, which lies in the idle stretch.
    for i in range(8, 11):
        t[0] = float(i)
        view.observe(_beat(state="serving"))
        view.poll()
    assert view.status_of("daemon:0") is MemberStatus.ALIVE
    t[0] = 11.5
    view.observe(_beat(state="serving"))
    view.poll()
    assert view.status_of("daemon:0") is MemberStatus.DEAD
    assert "hung" in events[-1].reason


def test_view_explicit_failure_and_clean_leave():
    view, _t, events = _view()
    view.observe(_beat(member="a"))
    view.observe(_beat(member="b"))
    view.observe(_beat(member="a", state="failed"))
    view.observe(_beat(member="b", state="leaving"))
    assert view.status_of("a") is MemberStatus.DEAD
    assert view.status_of("b") is MemberStatus.LEFT
    kinds = _kinds(events)
    assert ("dead", "a") in kinds and ("left", "b") in kinds
    # LEFT/DEAD members never re-trigger from the timeout sweep.
    assert view.poll() == []


def test_view_incarnation_supersedes_and_ignores_stale():
    view, _t, events = _view()
    view.observe(_beat(inc=1, progress=9))
    assert view.observe(_beat(inc=0)) == []  # stale previous life
    view.observe(_beat(inc=2))  # restart: a fresh join
    assert [k for k, _ in _kinds(events)] == ["joined", "joined"]
    assert view.members()["daemon:0"].incarnation == 2


def test_view_report_failed_fast_path():
    view, _t, events = _view()
    view.observe(_beat())
    view.report_failed("daemon:0", reason="thread reaped")
    assert view.status_of("daemon:0") is MemberStatus.DEAD
    assert events[-1].reason == "thread reaped"


def test_view_alive_filters_by_role_and_snapshot_is_jsonable():
    import json

    view, _t, _events = _view()
    view.observe(_beat(member="daemon:0", role="daemon"))
    view.observe(_beat(member="receiver:0", role="receiver"))
    assert view.alive() == ["daemon:0", "receiver:0"]
    assert view.alive(role="receiver") == ["receiver:0"]
    snap = json.loads(json.dumps(view.snapshot()))
    assert {m["member_id"] for m in snap["members"]} == {"daemon:0", "receiver:0"}


# -- publisher/listener over real TCP ------------------------------------------


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


def test_heartbeat_loss_and_recovery_over_tcp():
    """A suspended publisher (emulated partition) turns SUSPECT then DEAD;
    resuming beats surfaces a recovery event."""
    events: "queue.Queue[MembershipEvent]" = queue.Queue()
    view = ClusterView(FAST, on_event=events.put)
    listener = HeartbeatListener(view.observe)
    pub = HeartbeatPublisher("daemon:0", "daemon", listener.address,
                             interval_s=FAST.interval_s).start()
    try:
        assert _wait_until(lambda: view.status_of("daemon:0") is MemberStatus.ALIVE)
        pub.suspend()
        assert _wait_until(
            lambda: view.poll() is not None
            and view.status_of("daemon:0") is MemberStatus.DEAD
        )
        pub.resume()
        assert _wait_until(lambda: view.status_of("daemon:0") is MemberStatus.ALIVE)
        kinds = []
        while not events.empty():
            kinds.append(events.get().kind)
        assert kinds[0] == "joined" and "dead" in kinds and kinds[-1] == "recovered"
    finally:
        pub.kill()
        listener.close()


def test_heartbeat_fail_fast_path_and_clean_stop():
    events: "queue.Queue[MembershipEvent]" = queue.Queue()
    view = ClusterView(FAST, on_event=events.put)
    listener = HeartbeatListener(view.observe)
    try:
        a = HeartbeatPublisher("a", "daemon", listener.address,
                               interval_s=FAST.interval_s).start()
        b = HeartbeatPublisher("b", "daemon", listener.address,
                               interval_s=FAST.interval_s).start()
        assert _wait_until(lambda: len(view.alive()) == 2)
        a.fail("disk on fire")
        b.stop()
        assert _wait_until(lambda: view.status_of("a") is MemberStatus.DEAD)
        assert _wait_until(lambda: view.status_of("b") is MemberStatus.LEFT)
        dead = [e for e in _drain(events) if e.kind == "dead"]
        assert dead and "disk on fire" in dead[0].reason
    finally:
        listener.close()


def _drain(q):
    out = []
    while not q.empty():
        out.append(q.get())
    return out


def test_listener_survives_malformed_frames():
    view = ClusterView(FAST)
    listener = HeartbeatListener(view.observe)
    chan = connect_channel(*listener.address)
    try:
        chan.send(b"\xff\xfe garbage")
        chan.send(encode_heartbeat(_beat(member="ok")))
        assert _wait_until(lambda: view.status_of("ok") is not None)
        assert listener.malformed == 1
    finally:
        chan.close()
        listener.close()


def test_publisher_reconnects_after_listener_restart():
    """Beats resume on a fresh listener at the same port after an outage."""
    view = ClusterView(FAST)
    listener = HeartbeatListener(view.observe)
    port = listener.port
    pub = HeartbeatPublisher("daemon:0", "daemon", ("127.0.0.1", port),
                             interval_s=FAST.interval_s).start()
    try:
        assert _wait_until(lambda: view.status_of("daemon:0") is MemberStatus.ALIVE)
        listener.close()
        time.sleep(5 * FAST.interval_s)  # outage: sends fail, publisher retries
        view2 = ClusterView(FAST)
        listener = HeartbeatListener(view2.observe, port=port)
        assert _wait_until(lambda: view2.status_of("daemon:0") is MemberStatus.ALIVE)
    finally:
        pub.kill()
        listener.close()


# -- reorder-window autotuning -------------------------------------------------


def test_auto_reorder_window_derives_from_streams_and_hwm():
    cfg = EMLIOConfig(reorder_window=AUTO_REORDER, streams_per_node=3, hwm=8)
    assert cfg.effective_reorder_window == 24
    assert EMLIOConfig(reorder_window=7).effective_reorder_window == 7
    assert EMLIOConfig().effective_reorder_window == 0  # default: passthrough
    with pytest.raises(ValueError, match="reorder_window"):
        EMLIOConfig(reorder_window=-2)
    with pytest.raises(ValueError, match="reorder_window"):
        RecoveryConfig(reorder_window=-2)


def test_receiver_resolves_auto_reorder_window(small_imagenet, tmp_path):
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16),
                      reorder_window=AUTO_REORDER, streams_per_node=2, hwm=16)
    with EMLIOService(cfg, small_imagenet, stall_timeout=5.0) as svc:
        assert svc.receiver.reorder_window == 32
    # RecoveryConfig can also request auto explicitly, overriding the config.
    plain = EMLIOConfig(batch_size=4, output_hw=(16, 16), streams_per_node=2, hwm=4)
    with EMLIOService(
        plain, small_imagenet, stall_timeout=5.0,
        recovery=RecoveryConfig(ledger_path=tmp_path / "l.txt",
                                reorder_window=AUTO_REORDER),
    ) as svc:
        assert svc.receiver.reorder_window == 8


# -- service-level membership wiring (fast) ------------------------------------


def test_service_registers_members_and_daemons_idle_between_epochs(small_imagenet, tmp_path):
    """A daemon is one member for the deployment: it beats ``idle`` once
    its epoch is served and keeps the same member id into the next."""
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16), epochs=2)
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt",
        membership=MembershipConfig(interval_s=0.02, miss_threshold=2,
                                    dead_threshold=50, hung_after_s=0.0),
    )
    with EMLIOService(cfg, small_imagenet, stall_timeout=30.0, recovery=recovery) as svc:
        assert _wait_until(lambda: view_has(svc, "receiver:0"))
        for _ in svc.epoch(0):
            pass

        def daemon_members():
            return {
                mid: m for mid, m in svc.view.members().items() if m.role == "daemon"
            }

        def daemons_idle():
            daemons = daemon_members().values()
            return daemons and all(
                m.status is MemberStatus.ALIVE and m.state == "idle" for m in daemons
            )

        # Beats are folded in by a listener thread: wait for the idle one.
        assert _wait_until(daemons_idle)
        members = set(daemon_members())
        for _ in svc.epoch(1):
            pass
        assert _wait_until(daemons_idle)
        assert set(daemon_members()) == members  # no new member per epoch
        assert svc.view.members()["receiver:0"].status is MemberStatus.ALIVE
        status = svc.cluster_status()
        assert status["failovers"] == 0 and status["dead_nodes"] == []


def view_has(svc, member_id):
    return svc.view is not None and svc.view.status_of(member_id) is not None


# -- receiver-failover re-planning properties ----------------------------------


def _mk_assignment(epoch, node, index, shard):
    return BatchAssignment(
        epoch=epoch, node_id=node, batch_index=index, shard=shard,
        shard_path=f"{shard}.tfrecord", start_record=0, offset=0,
        nbytes=64, count=1, labels=(0,),
    )


@st.composite
def _plans(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=4))
    shards = [f"s{i}" for i in range(draw(st.integers(min_value=1, max_value=3)))]
    assignments = []
    for node in range(num_nodes):
        for index in range(draw(st.integers(min_value=0, max_value=6))):
            shard = draw(st.sampled_from(shards))
            assignments.append(_mk_assignment(0, node, index, shard))
    plan = BatchPlan(assignments=tuple(assignments), num_nodes=num_nodes,
                     epochs=1, batch_size=1, coverage="partition")
    dead = draw(st.integers(min_value=0, max_value=num_nodes - 1))
    delivered = draw(st.sets(st.sampled_from(
        [(a.epoch, a.node_id, a.batch_index) for a in assignments]
    ))) if assignments else set()
    return plan, dead, delivered


@given(_plans())
@settings(max_examples=60, deadline=None)
def test_receiver_failover_replan_properties(case):
    """No batch lost, no batch double-owned, fresh non-colliding seqs."""
    plan, dead, delivered = case
    ledger = DeliveryLedger(None)
    for key in delivered:
        ledger.record(*key)
    coord = PlacementEngine(
        plan, ledger, {"rootA": None, "rootB": None},
        reachable=lambda root, path: True,
    )
    survivors = [n for n in range(plan.num_nodes) if n != dead]
    next_seq = {
        n: max((a.batch_index for a in plan.assignments if a.node_id == n),
               default=-1) + 1
        for n in survivors
    }
    result = coord.plan_receiver_failover(dead, 0, survivors, next_seq)

    owed = {
        (a.epoch, a.node_id, a.batch_index)
        for a in plan.assignments
        if a.node_id == dead and (a.epoch, a.node_id, a.batch_index) not in delivered
    }
    # 1. Exactly the undelivered batches are re-owned: none lost, none extra.
    assert set(result.key_map) == owed
    # 2. No batch double-owned: the mapping is injective.
    assert len(set(result.key_map.values())) == len(result.key_map)
    # 3. Every new owner survives, and no new seq collides with a planned
    #    (or already-delivered) seq on that node.
    for (e, _dn, _ds), (e2, node, seq) in result.key_map.items():
        assert e2 == e and node in survivors
        assert seq >= next_seq[node]
    # 4. The re-targeted assignments and the by_root split agree.
    assert sorted(
        (a.node_id, a.batch_index) for a in result.assignments
    ) == sorted((n, s) for (_e, n, s) in result.key_map.values())
    by_root_all = [a for group in result.by_root.values() for a in group]
    assert sorted(id(a) for a in by_root_all) == sorted(id(a) for a in result.assignments)
    # 5. Adoption counts match.
    assert sum(result.extra_per_node.values()) == len(result.assignments)
    # 6. Payload identity is preserved: same shard slice, same labels.
    old_by_key = {
        (a.epoch, a.node_id, a.batch_index): a
        for a in plan.assignments
        if a.node_id == dead
    }
    new_by_key = {(a.epoch, a.node_id, a.batch_index): a for a in result.assignments}
    for old_key, new_key in result.key_map.items():
        old, new = old_by_key[old_key], new_by_key[new_key]
        assert (old.shard, old.offset, old.nbytes, old.labels) == (
            new.shard, new.offset, new.nbytes, new.labels,
        )


@given(_plans())
@settings(max_examples=30, deadline=None)
def test_receiver_failover_balances_across_survivors(case):
    plan, dead, _delivered = case
    ledger = DeliveryLedger(None)
    coord = PlacementEngine(plan, ledger, {"r": None},
                            reachable=lambda root, path: True)
    survivors = [n for n in range(plan.num_nodes) if n != dead]
    next_seq = {n: 100 for n in survivors}
    result = coord.plan_receiver_failover(dead, 0, survivors, next_seq)
    if result.extra_per_node:
        counts = [result.extra_per_node.get(n, 0) for n in survivors]
        assert max(counts) - min(counts) <= 1  # least-loaded placement


def test_receiver_failover_no_survivors_raises(small_imagenet):
    cfg = EMLIOConfig(batch_size=4)
    from repro.core.planner import Planner

    plan = Planner(small_imagenet, num_nodes=1, config=cfg).plan()
    coord = PlacementEngine(plan, DeliveryLedger(None), {"r": None},
                            reachable=lambda root, path: True)
    with pytest.raises(FailoverError, match="no surviving receiver"):
        coord.plan_receiver_failover(0, 0, surviving_nodes=[], next_seq={})


def test_receiver_failover_unreachable_shard_raises(small_imagenet):
    cfg = EMLIOConfig(batch_size=4)
    from repro.core.planner import Planner

    plan = Planner(small_imagenet, num_nodes=2, config=cfg).plan()
    coord = PlacementEngine(plan, DeliveryLedger(None), {"r": None},
                            reachable=lambda root, path: False)
    with pytest.raises(FailoverError, match="no surviving root"):
        coord.plan_receiver_failover(0, 0, surviving_nodes=[1], next_seq={1: 0})


# -- receiver hang detection (consumption-boundary progress) -------------------


def test_receiver_progress_freezes_with_unconsumed_payloads(small_imagenet):
    """The receiver's heartbeat progress counter advances while *starved*
    (daemons slow: not this node's hang) but freezes the moment received
    payloads sit unconsumed — the wedged-consumer signature."""
    from repro.core.planner import Planner
    from repro.core.receiver import EMLIOReceiver
    from repro.serialize.payload import BatchPayload

    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16))
    plan = Planner(small_imagenet, num_nodes=1, config=cfg).plan()
    receiver = EMLIOReceiver(node_id=0, plan=plan, config=cfg)
    try:
        # Starved and idle: nothing owed to the pipeline, ticks advance.
        before = receiver.progress
        assert _wait_until(lambda: receiver.progress > before, timeout=2.0)

        # Park a payload in the shared queue without consuming it: the
        # node now *has* work it is not moving — progress must freeze.
        payload = BatchPayload(
            epoch=0, batch_index=0, shard="s0", samples=[b"RAW0"], labels=[0],
            node_id=0,
        )
        receiver._payload_q.put(payload)
        time.sleep(0.5)  # > 2 receive-loop timeouts
        frozen = receiver.progress
        time.sleep(0.5)
        assert receiver.progress == frozen, "progress advanced while wedged"

        # Drain the queue: starvation ticks resume.
        receiver._payload_q.get_nowait()
        assert _wait_until(lambda: receiver.progress > frozen, timeout=2.0)
    finally:
        receiver.close()


def test_service_detects_wedged_consumer_as_hung(small_imagenet, tmp_path):
    """A consumer that stops iterating mid-epoch (payloads queued, nothing
    consumed) trips the *hang* detector — previously invisible, because
    ticks came from the receive loop, which was perfectly healthy."""
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16))
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt",
        membership=MembershipConfig(interval_s=0.05, miss_threshold=3,
                                    dead_threshold=100, hung_after_s=0.6),
    )
    with EMLIOService(cfg, small_imagenet, stall_timeout=15.0, recovery=recovery) as svc:
        gen = svc.epoch(0)
        next(gen)  # consume one batch, then wedge with payloads queued
        deadline = time.monotonic() + 8.0
        death_reason = None
        while time.monotonic() < deadline:
            member = svc.view.members().get("receiver:0")
            if member is not None and member.status is MemberStatus.DEAD:
                death_reason = member.death_reason
                break
            time.sleep(0.02)
        assert death_reason == "hung", f"expected hung death, got {death_reason!r}"
        # Sole receiver dead -> failover has no survivors; the consumer
        # surfaces the root-cause FailoverError when it resumes.
        with pytest.raises((FailoverError, RuntimeError)):
            for _ in gen:
                pass
