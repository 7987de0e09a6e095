"""The unified placement engine: load-weighted re-plans and elastic scale-out.

Three layers of coverage:

* unit — scale-out selection/weighting, shard-ownership re-division, the
  window relinquish / daemon claim primitives the supervisor builds on, and
  the new load signals (queue-depth beats, throughput EWMA);
* property — hypothesis over arbitrary interleavings of join and death
  events: every planned batch stays covered exactly once (none lost, none
  double-owned), extending PR 2's failover-only invariant to elastic
  membership;
* end-to-end (slow) — a receiver joining mid-epoch and a storage daemon
  joining mid-run are admitted via heartbeat and actually receive load,
  with exactly-once delivery intact.
"""

import queue
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EMLIOConfig
from repro.core.membership import ClusterView, MembershipConfig
from repro.core.placement import (
    ElasticPolicy,
    FailoverError,
    MemberLoad,
    PlacementEngine,
)
from repro.core.planner import BatchAssignment, BatchPlan
from repro.core.deliverywindow import DeliveryWindow
from repro.core.provider import BatchProvider
from repro.core.recovery import DeliveryLedger, RecoveryConfig
from repro.net.heartbeat import Heartbeat, decode_heartbeat, encode_heartbeat
from repro.serialize.payload import BatchPayload


def _mk_assignment(epoch, node, index, shard="s0"):
    return BatchAssignment(
        epoch=epoch, node_id=node, batch_index=index, shard=shard,
        shard_path=f"{shard}.tfrecord", start_record=0, offset=0,
        nbytes=64, count=1, labels=(0,),
    )


def _mk_plan(per_node: dict[int, int], epochs: int = 1) -> BatchPlan:
    assignments = [
        _mk_assignment(e, node, i, shard=f"s{node}")
        for e in range(epochs)
        for node, count in per_node.items()
        for i in range(count)
    ]
    return BatchPlan(
        assignments=tuple(assignments),
        num_nodes=max(per_node) + 1,
        epochs=epochs,
        batch_size=1,
        coverage="partition",
    )


def _engine(plan, ledger=None, **kwargs):
    kwargs.setdefault("reachable", lambda root, path: True)
    kwargs.setdefault("roots", {"rootA": None})
    return PlacementEngine(plan, ledger or DeliveryLedger(None), **kwargs)


# -- heartbeat + membership load signals ---------------------------------------


def test_heartbeat_queue_depth_roundtrips():
    hb = Heartbeat("receiver:0", "receiver", progress=5, queue_depth=7)
    assert decode_heartbeat(encode_heartbeat(hb)) == hb


def test_heartbeat_queue_depth_defaults_for_old_publishers():
    # A pre-queue-depth beat (no "qd" field) still decodes.
    hb = decode_heartbeat(b'{"id": "m", "role": "daemon"}')
    assert hb.queue_depth == 0


def test_view_tracks_rate_and_queue_depth():
    clock = {"now": 0.0}
    view = ClusterView(
        MembershipConfig(interval_s=1.0, dead_threshold=100, hung_after_s=0.0),
        clock=lambda: clock["now"],
    )
    # 10 progress per second, queue depth from the latest beat.
    for i in range(1, 6):
        clock["now"] = float(i)
        view.observe(Heartbeat("r:0", "receiver", progress=10 * i, queue_depth=i))
    m = view.members()["r:0"]
    assert m.queue_depth == 5
    assert 0 < m.rate <= 10.0  # EWMA converging toward 10/s
    snap = m.snapshot()
    assert snap["queue_depth"] == 5 and snap["rate"] == round(m.rate, 3)
    # Progress stalls: the rate decays toward zero instead of sticking.
    stuck = m.rate
    for i in range(6, 12):
        clock["now"] = float(i)
        view.observe(Heartbeat("r:0", "receiver", progress=50, queue_depth=0))
    assert view.members()["r:0"].rate < stuck


def test_heartbeat_cache_counters_roundtrip():
    hb = Heartbeat(
        "daemon:0@r", "daemon", cache_hits=3, cache_misses=1, prefetch_depth=2
    )
    assert decode_heartbeat(encode_heartbeat(hb)) == hb


def test_heartbeat_cache_fields_default_for_old_publishers():
    # A pre-cache beat (no "ch"/"cm"/"pf" fields) still decodes.
    hb = decode_heartbeat(b'{"id": "m", "role": "daemon"}')
    assert (hb.cache_hits, hb.cache_misses, hb.prefetch_depth) == (0, 0, 0)


def test_view_tracks_cache_counters():
    view = ClusterView(
        MembershipConfig(interval_s=1.0, dead_threshold=100, hung_after_s=0.0)
    )
    view.observe(
        Heartbeat("d:0", "daemon", cache_hits=9, cache_misses=3, prefetch_depth=4)
    )
    m = view.members()["d:0"]
    assert (m.cache_hits, m.cache_misses, m.prefetch_depth) == (9, 3, 4)
    snap = m.snapshot()
    assert snap["cache_hit_rate"] == 0.75
    assert snap["prefetch_depth"] == 4
    # A member whose cache never saw a read has no rate, not a zero rate.
    view.observe(Heartbeat("r:0", "receiver"))
    assert view.members()["r:0"].snapshot()["cache_hit_rate"] is None


# -- scale-out selection -------------------------------------------------------


def test_select_scale_out_takes_fair_share_with_no_load_signal():
    plan = _mk_plan({0: 10, 1: 10})
    engine = _engine(plan)
    picked = engine.select_scale_out(list(plan.assignments), new_node=2)
    # Equal weights: the joiner's fair share of 20 outstanding is a third.
    assert len(picked) == 6
    by_donor = {n: len([a for a in picked if a.node_id == n]) for n in (0, 1)}
    assert by_donor[0] == by_donor[1] == 3
    # Drafted from the tail of each donor's dispatch order (least likely
    # to already be in flight).
    assert all(a.batch_index >= 7 for a in picked)


def test_select_scale_out_weights_by_observed_throughput():
    plan = _mk_plan({0: 12, 1: 12})
    engine = _engine(
        plan,
        node_loads={0: MemberLoad(throughput=9.0), 1: MemberLoad(throughput=3.0)},
    )
    picked = engine.select_scale_out(list(plan.assignments), new_node=2)
    by_donor = {n: len([a for a in picked if a.node_id == n]) for n in (0, 1)}
    # The slow donor sheds more of its backlog than the fast one.
    assert by_donor[1] > by_donor[0]


def test_select_scale_out_counts_queue_depth_against_donors():
    plan = _mk_plan({0: 10, 1: 10})
    engine = _engine(
        plan,
        node_loads={
            0: MemberLoad(throughput=1.0, queue_depth=50),
            1: MemberLoad(throughput=1.0, queue_depth=0),
        },
    )
    picked = engine.select_scale_out(list(plan.assignments), new_node=2)
    by_donor = {n: len([a for a in picked if a.node_id == n]) for n in (0, 1)}
    # Equal rates, but donor 0 sits on a deep queue: it sheds more.
    assert by_donor[0] > by_donor[1]


def test_select_scale_out_respects_rebalance_threshold():
    plan = _mk_plan({0: 2, 1: 2})
    engine = _engine(plan, policy=ElasticPolicy(rebalance_threshold=0.5))
    # The joiner's share (1/3 of 4 = 1 batch) is under half the work.
    assert engine.select_scale_out(list(plan.assignments), new_node=2) == []
    # An explicit threshold of zero overrides the policy.
    assert engine.select_scale_out(list(plan.assignments), new_node=2, threshold=0.0)


def test_retarget_onto_joined_node_mints_fresh_seqs():
    plan = _mk_plan({0: 4, 1: 4})
    engine = _engine(plan)
    chosen = [a for a in plan.assignments if a.batch_index >= 2]
    result = engine.retarget(chosen, targets=[2], next_seq={2: 0})
    assert set(result.key_map) == {(0, a.node_id, a.batch_index) for a in chosen}
    assert sorted(k[2] for k in result.key_map.values()) == list(range(len(chosen)))
    assert all(k[1] == 2 for k in result.key_map.values())
    assert result.extra_per_node == {2: len(chosen)}
    # Payload identity preserved: same shard slice, same labels.
    for a in result.assignments:
        assert a.shard in ("s0", "s1") and a.count == 1


def test_retarget_with_no_targets_raises():
    plan = _mk_plan({0: 2})
    engine = _engine(plan)
    with pytest.raises(FailoverError, match="no surviving receiver"):
        engine.retarget(list(plan.assignments), targets=[], next_seq={})


# -- load-weighted receiver failover -------------------------------------------


def test_receiver_failover_weights_adoption_by_throughput():
    plan = _mk_plan({0: 12, 1: 0, 2: 0})
    engine = _engine(
        plan,
        node_loads={1: MemberLoad(throughput=9.0), 2: MemberLoad(throughput=3.0)},
    )
    result = engine.plan_receiver_failover(
        0, 0, surviving_nodes=[1, 2], next_seq={1: 100, 2: 100}
    )
    # 3x the observed throughput adopts ~3x the re-planned work.
    assert result.extra_per_node[1] > result.extra_per_node[2]
    assert sum(result.extra_per_node.values()) == 12


def test_receiver_failover_without_loads_stays_count_balanced():
    plan = _mk_plan({0: 10, 1: 0, 2: 0})
    engine = _engine(plan)
    result = engine.plan_receiver_failover(
        0, 0, surviving_nodes=[1, 2], next_seq={1: 50, 2: 50}
    )
    assert result.extra_per_node == {1: 5, 2: 5}


# -- shard ownership re-division (daemon scale-out) ----------------------------


def test_plan_shard_ownership_covers_every_shard_exactly_once():
    plan = _mk_plan({0: 6, 1: 6})  # shards s0, s1
    engine = _engine(plan, roots={"rootA": None, "rootB": None})
    ownership = engine.plan_shard_ownership(["rootA", "rootB"])
    placed = sorted(s for shards in ownership.values() for s in shards)
    assert placed == ["s0", "s1"]


def test_plan_shard_ownership_weights_by_root_throughput():
    assignments = [
        _mk_assignment(0, 0, i, shard=f"s{i % 6}") for i in range(36)
    ]
    plan = BatchPlan(assignments=tuple(assignments), num_nodes=1, epochs=1,
                     batch_size=1, coverage="partition")
    engine = _engine(
        plan,
        roots={"fast": None, "slow": None},
        root_loads={
            "fast": MemberLoad(throughput=10.0),
            "slow": MemberLoad(throughput=2.0),
        },
    )
    ownership = engine.plan_shard_ownership(["fast", "slow"])
    assert len(ownership["fast"]) > len(ownership["slow"])


def test_plan_shard_ownership_respects_reachability_and_only():
    plan = _mk_plan({0: 4, 1: 4})
    engine = PlacementEngine(
        plan, DeliveryLedger(None), {"a": None, "b": None},
        reachable=lambda root, path: root == "b",
    )
    ownership = engine.plan_shard_ownership(["a", "b"], only={"s1"})
    assert ownership == {"a": set(), "b": {"s1"}}
    with pytest.raises(FailoverError, match="no daemon root"):
        PlacementEngine(
            plan, DeliveryLedger(None), {"a": None},
            reachable=lambda root, path: False,
        ).plan_shard_ownership(["a"])


# -- cache-locality tie-breaking (daemon failover) -----------------------------


def test_failover_prefers_root_with_cached_bytes_when_load_ties():
    plan = _mk_plan({0: 4})  # one shard: s0 -> s0.tfrecord
    roots = {"dead": {"s0"}, "a": set(), "b": set()}
    engine = _engine(
        plan, roots=roots,
        root_loads={"b": MemberLoad(cached_shards={"s0.tfrecord"})},
    )
    # Loads tie (no throughput or queue signal anywhere): the survivor
    # whose hot-set cache already holds the shard's bytes takes over.
    assert engine.plan_failover("dead", epoch=0) == {"b": {"s0"}}
    # Without the cache signal the deterministic name tie-break picks "a".
    assert _engine(plan, roots=roots).plan_failover("dead", epoch=0) == {"a": {"s0"}}


def test_cache_locality_stays_subordinate_to_load():
    plan = _mk_plan({0: 4})
    roots = {"dead": {"s0"}, "a": set(), "b": set()}
    engine = _engine(
        plan, roots=roots,
        root_loads={
            "a": MemberLoad(throughput=1.0),
            "b": MemberLoad(
                throughput=1.0, queue_depth=8, cached_shards={"s0.tfrecord"}
            ),
        },
    )
    # b holds the bytes but sits on a deep queue: load wins, a takes over.
    assert engine.plan_failover("dead", epoch=0) == {"a": {"s0"}}


# -- elastic policy ------------------------------------------------------------


def test_elastic_policy_validation():
    ElasticPolicy()  # defaults are valid
    with pytest.raises(ValueError, match="admit"):
        ElasticPolicy(admit="maybe")
    with pytest.raises(ValueError, match="max_members"):
        ElasticPolicy(min_members=3, max_members=2)
    with pytest.raises(ValueError, match="rebalance_threshold"):
        ElasticPolicy(rebalance_threshold=1.5)


# -- the window relinquish / daemon claim primitives ---------------------------


def _payload(epoch, seq, node=0):
    return BatchPayload(
        epoch=epoch, batch_index=seq, shard="s0", samples=[b"x"], labels=[0],
        node_id=node, seq=seq,
    )


def _provider(q, expected, timeout):
    window = DeliveryWindow(dedup=True)
    window.open(0, range(expected))
    return BatchProvider(q.get, window, threading.Lock(), 0, timeout=timeout)


def test_provider_shrink_reduces_expectation_and_dedups_stragglers():
    q = queue.Queue()
    provider = _provider(q, 4, timeout=5.0)
    q.put(_payload(0, 0))
    provider()
    with provider.lock:
        assert provider.window.relinquish([(0, 2), (0, 3)])
    q.put(_payload(0, 1))
    provider()
    # Expectation fell from 4 to 2: the epoch is complete.
    assert provider.complete
    # A straggler copy of a relinquished key dedups instead of delivering.
    q.put(_payload(0, 2))
    from repro.gpu.pipeline import EndOfData

    with pytest.raises(EndOfData):
        provider()


def test_provider_shrink_is_idempotent_and_wakes_a_blocked_fill():
    q = queue.Queue()
    provider = _provider(q, 2, timeout=10.0)
    q.put(_payload(0, 0))
    provider()
    out: list = []

    def consume():
        from repro.gpu.pipeline import EndOfData

        try:
            provider()
        except EndOfData:
            out.append("end")

    t = threading.Thread(target=consume, daemon=True)
    t.start()
    time.sleep(0.2)  # the provider is now blocked waiting for seq 1
    with provider.lock:
        assert provider.window.relinquish([(0, 1)])
    q.put(None)  # a wake: what EMLIOReceiver.relinquish does when the window shrank
    with provider.lock:  # second relinquish of the same key: no-op
        assert not provider.window.relinquish([(0, 1)])
    t.join(timeout=5.0)
    assert out == ["end"] and provider.complete


def test_daemon_relinquish_claims_only_unsent_batches(small_imagenet, tmp_path):
    from repro.core.daemon import EMLIODaemon
    from repro.core.planner import Planner

    cfg = EMLIOConfig(batch_size=4)
    plan = Planner(small_imagenet, num_nodes=1, config=cfg).plan()
    keys = sorted(plan.keys(epoch=0))
    daemon = EMLIODaemon(
        dataset_root=small_imagenet.root, plan=plan,
        node_endpoints={0: ("127.0.0.1", 1)}, config=cfg,
    )
    # Simulate a send worker having already committed to the first key.
    first = next(a for a in plan.assignments if (a.epoch, a.node_id, a.batch_index) == keys[0])
    with daemon._work_lock:
        assert daemon.work.commit(first)
    claimed = daemon.relinquish(keys[:3])
    assert claimed == set(keys[1:3])
    # Idempotent in effect: already-relinquished keys stay relinquished,
    # committed keys stay unclaimable.
    assert daemon.relinquish(keys[:3]) == set(keys[1:3])
    # Keys outside the daemon's plan are never claimed.
    assert daemon.relinquish([(0, 99, 0)]) == set()


def test_receiver_relinquish_excludes_keys_from_future_providers(small_imagenet):
    from repro.core.planner import Planner
    from repro.core.receiver import EMLIOReceiver

    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16))
    plan = Planner(small_imagenet, num_nodes=1, config=cfg).plan()
    receiver = EMLIOReceiver(node_id=0, plan=plan, config=cfg)
    try:
        planned = plan.for_epoch_node(0, 0)
        moved = [(a.epoch, a.batch_index) for a in planned[:2]]
        assert receiver.relinquish(moved)
        receiver._open(0)
        assert receiver.window.remaining(0) == len(planned) - 2
    finally:
        receiver.close()


# -- property: joins + deaths keep every batch covered exactly once ------------


@settings(max_examples=50, deadline=None)
@given(
    per_node=st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=4),
    steps=st.lists(st.sampled_from(["die", "join", "deliver"]), max_size=8),
    data=st.data(),
)
def test_any_join_death_interleaving_keeps_exactly_once_coverage(
    per_node, steps, data
):
    """Hypothesis invariant of the elastic control plane: after an arbitrary
    interleaving of receiver joins, receiver deaths and deliveries — each
    re-planned through the engine exactly as the supervisor drives it —
    every planned batch is either delivered once or owed to exactly one
    live owner (none lost, none double-owned)."""
    plan = _mk_plan(dict(enumerate(per_node)))
    planned = sorted(plan.keys())
    ledger = DeliveryLedger(None)
    live = set(range(len(per_node)))
    next_node = len(per_node)
    next_seq = {
        n: max((a.batch_index for a in plan.assignments if a.node_id == n),
               default=-1) + 1
        for n in range(len(per_node) + 10)
    }
    # outstanding: current final delivery key -> the assignment owing it.
    outstanding = {(a.epoch, a.node_id, a.batch_index): a for a in plan.assignments}

    def engine():
        return _engine(plan, ledger)

    def apply_retarget(result):
        for old, new in result.key_map.items():
            ledger.record_reassignment(old, new)
            outstanding.pop(old, None)
        for a in result.assignments:
            outstanding[(a.epoch, a.node_id, a.batch_index)] = a
            next_seq[a.node_id] = max(next_seq[a.node_id], a.batch_index + 1)

    for step in steps:
        if step == "die" and len(live) >= 2:
            dead = data.draw(st.sampled_from(sorted(live)), label="dead")
            live.discard(dead)
            residual = [a for a in outstanding.values() if a.node_id == dead]
            result = engine().plan_receiver_failover(
                dead, 0, sorted(live), next_seq, residual=residual
            )
            apply_retarget(result)
        elif step == "join" and next_node < len(per_node) + 6:
            new = next_node
            next_node += 1
            live.add(new)
            candidates = [
                a
                for key, a in outstanding.items()
                if key in set(planned) and a.node_id != new and a.node_id in live
            ]
            chosen = engine().select_scale_out(candidates, new)
            if chosen:
                result = engine().retarget(chosen, [new], next_seq)
                apply_retarget(result)
        elif step == "deliver" and outstanding:
            keys = data.draw(
                st.sets(st.sampled_from(sorted(outstanding))), label="delivered"
            )
            for key in keys:
                if outstanding[key].node_id in live:
                    ledger.record(*key)
                    del outstanding[key]

    # The invariant: every planned key is covered once or owed once.
    resolved = {}
    for key in planned:
        final = ledger.resolve(key)
        if ledger.covered(key):
            assert final not in outstanding, f"{key} delivered AND owed"
            continue
        assert final in outstanding, f"{key} lost: {final} owed by nobody"
        assert outstanding[final].node_id in live, f"{key} owed by a dead node"
        assert final not in resolved, (
            f"{key} and {resolved[final]} both resolve to {final}"
        )
        resolved[final] = key


# -- end-to-end: elastic scale-out through the live service --------------------


def _collect_labels(iterable):
    labels = []
    for _tensors, batch_labels in iterable:
        labels.extend(int(l) for l in batch_labels)
    return labels


def _expected_labels(dataset):
    return sorted(
        label for labels in dataset.labels().values() for label in labels
    )


def _wait_until(cond, timeout=8.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(0.02)
    return cond()


FAST_MEMBERSHIP = MembershipConfig(
    interval_s=0.05, miss_threshold=3, dead_threshold=60, hung_after_s=0.0
)


@pytest.mark.slow
def test_scale_out_receiver_joins_at_epoch_start(small_imagenet, tmp_path):
    """A receiver registered between epochs is admitted via its first beat
    and receives a rebalanced share of the next epoch before daemons spawn."""
    from repro.core.service import EMLIOService

    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16))
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", membership=FAST_MEMBERSHIP
    )
    with EMLIOService(
        cfg, small_imagenet, num_nodes=2, stall_timeout=30.0, recovery=recovery
    ) as svc:
        node = svc.add_receiver()
        assert node == 2 and svc.num_nodes == 3
        # The joiner's first beat must land (the `joined` event is queued)
        # before the epoch starts, so the rebalance hits the boundary.
        assert _wait_until(lambda: svc.view.status_of("receiver:2") is not None)
        labels = _collect_labels(svc.epoch(0))
        assert sorted(labels) == _expected_labels(small_imagenet)
        assert svc.rebalances == 1
        assert svc.receivers[node].batches_consumed > 0, "joiner got no load"
        status = svc.cluster_status()
        assert status["last_rebalance"]["kind"] == "receiver_join"
        assert status["last_rebalance"]["node"] == node
        # Exactly-once held through the join: the epoch compacted to the
        # full planned count.
        assert svc.ledger.completed_epochs() == {0: len(svc.plan.keys(epoch=0))}


@pytest.mark.slow
def test_scale_out_receiver_joins_mid_epoch(small_imagenet, tmp_path):
    """Start N-1 receivers, join the Nth mid-epoch: the monitor consumes
    the `joined` event, live daemons relinquish unsent batches, and the
    joiner demonstrably receives load — with exactly-once delivery."""
    from repro.core.service import EMLIOService
    from repro.net.emulation import NetworkProfile

    cfg = EMLIOConfig(batch_size=2, output_hw=(16, 16))
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", membership=FAST_MEMBERSHIP
    )
    # A little RTT keeps batches unsent long enough for the mid-epoch
    # claim to find work to move.
    with EMLIOService(
        cfg, small_imagenet, num_nodes=2, stall_timeout=30.0, recovery=recovery,
        profile=NetworkProfile("join-drill", rtt_s=0.05),
    ) as svc:
        gen = svc.epoch(0)
        first = next(gen)  # the merged consume loop is now live
        assert first is not None
        node = svc.add_receiver()
        # The monitor thread admits and rebalances; batches may already be
        # fully in flight in rare schedules, so wait for either outcome.
        _wait_until(lambda: svc.rebalances > 0, timeout=6.0)
        labels = _collect_labels(gen) + [int(l) for l in first[1]]
        assert sorted(labels) == _expected_labels(small_imagenet)
        assert svc.ledger.completed_epochs() == {0: len(svc.plan.keys(epoch=0))}
        if svc.rebalances:  # the expected path: the joiner took load
            assert svc.receivers[node].batches_consumed > 0


@pytest.mark.slow
def test_scale_out_daemon_joins_and_takes_shards_next_epoch(
    small_imagenet, tmp_path
):
    """A storage daemon joining mid-run beats as idle, is admitted at the
    next epoch start, and shard ownership re-divides so it serves load."""
    from repro.core.service import EMLIOService

    site_b = tmp_path / "site_b"
    site_b.symlink_to(small_imagenet.root, target_is_directory=True)
    cfg = EMLIOConfig(batch_size=4, epochs=2, output_hw=(16, 16))
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", membership=FAST_MEMBERSHIP
    )
    with EMLIOService(
        cfg, small_imagenet, stall_timeout=30.0, recovery=recovery
    ) as svc:
        labels0 = _collect_labels(svc.epoch(0))
        assert sorted(labels0) == _expected_labels(small_imagenet)
        svc.add_daemon(str(site_b))
        assert _wait_until(
            lambda: svc.view.status_of(f"daemon:join@{site_b}") is not None
        )
        labels1 = _collect_labels(svc.epoch(1))
        assert sorted(labels1) == _expected_labels(small_imagenet)
        assert len(svc.daemons) == 2
        joined = svc.daemons[1]
        assert str(joined.dataset_root) == str(site_b)
        assert joined.stats.batches_sent > 0, "joined daemon served nothing"
        # Ownership re-divided: disjoint, non-empty shard sets.
        filters = [d.shard_filter for d in svc.daemons]
        assert all(f for f in filters)
        assert not (filters[0] & filters[1])
        assert svc.rebalances >= 1
        assert svc.cluster_status()["last_rebalance"]["kind"] == "daemon_join"


@pytest.mark.slow
def test_elastic_admission_policy_is_enforced(small_imagenet, tmp_path):
    from repro.core.service import EMLIOService

    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16))
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", membership=FAST_MEMBERSHIP
    )
    with EMLIOService(
        cfg, small_imagenet, stall_timeout=30.0, recovery=recovery,
        elastic=ElasticPolicy(admit="closed"),
    ) as svc:
        with pytest.raises(FailoverError, match="rejects a joining"):
            svc.add_receiver()
    with EMLIOService(
        cfg, small_imagenet, num_nodes=2, stall_timeout=30.0, recovery=recovery,
        elastic=ElasticPolicy(max_members=2),
    ) as svc:
        with pytest.raises(FailoverError, match="max_members"):
            svc.add_receiver()
    # Without a control plane there is nothing to admit through.
    with EMLIOService(cfg, small_imagenet, stall_timeout=30.0) as svc:
        with pytest.raises(RuntimeError, match="control plane"):
            svc.add_receiver()
