"""Chaos suite for the recovery subsystem (ledger, reconnect, failover).

Fast unit tests cover the building blocks (DeliveryLedger, the delivery
window's dedup and arrival order driven by a BatchProvider, PUSH
reconnect, serve_epoch error aggregation, the resume CLI).  The ``slow``-marked scenarios are the end-to-end chaos experiments:
kill-daemon-mid-epoch with failover, transient connection drops, and a
receiver restart resuming from the persistent ledger — each asserting that
every planned sample is delivered **exactly once** after recovery.
"""

import itertools
import queue
import threading
import time

import pytest

from repro.core.config import EMLIOConfig
from repro.core.daemon import EMLIODaemon
from repro.core.placement import PlacementEngine
from repro.core.planner import Planner
from repro.core.deliverywindow import DeliveryWindow
from repro.core.provider import BatchProvider
from repro.core.recovery import (
    DaemonKilled,
    DeliveryLedger,
    EpochServeError,
    FailoverError,
    RecoveryConfig,
)
from repro.core.service import EMLIOService
from repro.net.mq import PullSocket, PushSocket, ReconnectPolicy
from repro.serialize.payload import BatchPayload, decode_batch, encode_batch

FAST_RECONNECT = ReconnectPolicy(max_retries=10, base_delay_s=0.01, max_delay_s=0.1)


# -- DeliveryLedger ------------------------------------------------------------


def test_ledger_records_and_reloads(tmp_path):
    path = tmp_path / "ledger.txt"
    ledger = DeliveryLedger(path)
    assert ledger.record(0, 0, 3)
    assert ledger.record(0, 0, 5)
    assert ledger.record(1, 2, 0)
    assert not ledger.record(0, 0, 3)  # duplicate
    assert (0, 0, 3) in ledger and len(ledger) == 3
    ledger.close()

    reloaded = DeliveryLedger(path)  # a restarted receiver sees everything
    assert reloaded.delivered() == {(0, 0, 3), (0, 0, 5), (1, 2, 0)}
    assert reloaded.delivered(epoch=0) == {(0, 0, 3), (0, 0, 5)}
    assert reloaded.delivered(epoch=1, node=2) == {(1, 2, 0)}
    reloaded.close()


def test_ledger_memory_only():
    ledger = DeliveryLedger(None)
    ledger.record(0, 0, 1)
    assert (0, 0, 1) in ledger
    ledger.close()


def test_ledger_rejects_interior_corruption(tmp_path):
    path = tmp_path / "ledger.txt"
    path.write_text("0 0 1\nnot a ledger line\n0 0 2\n")
    with pytest.raises(ValueError, match="corrupt"):
        DeliveryLedger(path)


def test_ledger_rejects_terminated_corrupt_tail(tmp_path):
    """A newline-terminated malformed last line is corruption, not a torn
    append (records are written whole): fail loudly, don't auto-repair."""
    path = tmp_path / "ledger.txt"
    path.write_text("0 0 1\ngarbage\n")
    with pytest.raises(ValueError, match="corrupt"):
        DeliveryLedger(path)
    assert "garbage" in path.read_text()  # the evidence is preserved


def test_recovery_config_rejects_dedup_off_with_reconnect():
    with pytest.raises(ValueError, match="dedup"):
        RecoveryConfig(dedup=False)  # default reconnect policy is active
    # Valid: no reconnection means no replays to dedup.
    RecoveryConfig(dedup=False, reconnect=ReconnectPolicy(max_retries=0))


def test_ledger_tolerates_and_repairs_torn_tail(tmp_path):
    """A crash mid-write leaves a truncated final line; loading drops it
    (the batch counts as undelivered) and repairs the file for appends."""
    path = tmp_path / "ledger.txt"
    path.write_text("0 0 1\n0 0 2\n0 0")  # torn: no seq, no newline
    ledger = DeliveryLedger(path)
    assert ledger.delivered() == {(0, 0, 1), (0, 0, 2)}
    assert ledger.record(0, 0, 3)  # append lands on a clean line
    ledger.close()
    assert DeliveryLedger(path).delivered() == {(0, 0, 1), (0, 0, 2), (0, 0, 3)}


def test_ledger_drops_unterminated_tail_even_when_it_parses(tmp_path):
    """'0 0 35\\n' torn to '0 0 3' parses as a valid key for the *wrong*
    batch; an unterminated tail must be dropped, never trusted — and never
    appended onto."""
    path = tmp_path / "ledger.txt"
    path.write_text("0 0 1\n0 0 3")  # parseable, but no trailing newline
    ledger = DeliveryLedger(path)
    assert ledger.delivered() == {(0, 0, 1)}  # the torn key is not trusted
    assert ledger.record(0, 0, 4)
    ledger.close()
    assert DeliveryLedger(path).delivered() == {(0, 0, 1), (0, 0, 4)}


# -- payload sequence numbers --------------------------------------------------


def test_payload_seq_defaults_to_batch_index():
    p = BatchPayload(epoch=1, batch_index=7, shard="s", samples=[b"x"], labels=[0])
    assert p.seq == 7
    assert decode_batch(encode_batch(p)).seq == 7


# -- BatchProvider dedup / arrival order ---------------------------------------


def _payload(seq, epoch=0):
    return BatchPayload(
        epoch=epoch, batch_index=seq, shard="s", samples=[b"x"], labels=[0], seq=seq
    )


def _provider(q, expected, *, epoch=0, already=(), window=None, dedup=False):
    """A provider over a window that opens ``epoch`` expecting ``expected``
    new batches; ``already`` holds ``(epoch, seq)`` keys a ledger covers."""
    window = window if window is not None else DeliveryWindow(dedup=dedup)
    window.open(epoch, range(expected + len(already)), [s for _e, s in already])
    return BatchProvider(q.get, window, threading.Lock(), epoch, timeout=1.0)


def test_provider_dedup_drops_duplicates_silently():
    q: queue.Queue = queue.Queue()
    for seq in (0, 1, 1, 0, 2):
        q.put(_payload(seq))
    provider = _provider(q, 3, dedup=True)
    for _ in range(3):
        provider()
    assert provider.complete
    assert provider.window.duplicates == 2


def test_provider_already_delivered_treated_as_duplicates():
    q: queue.Queue = queue.Queue()
    for seq in (0, 1, 2, 3):
        q.put(_payload(seq))
    provider = _provider(q, 2, dedup=True, already={(0, 0), (0, 1)})
    provider()
    provider()
    assert provider.complete
    assert provider.window.duplicates == 2  # the replayed 0 and 1


def test_provider_reorder_disabled_preserves_arrival_order():
    """Batches are emitted in arrival order: there is no reorder window."""
    q: queue.Queue = queue.Queue()
    for seq in (2, 0, 1):
        q.put(_payload(seq))
    provider = _provider(q, 3)
    for _ in range(3):
        provider()
    assert provider.complete
    assert [seq for _e, _n, seq in provider.window.emitted(0)] == [2, 0, 1]


def test_provider_on_deliver_fires_once_per_batch():
    """The emitted order the ledger records names each batch once."""
    q: queue.Queue = queue.Queue()
    for seq in (0, 0, 1):
        q.put(_payload(seq))
    provider = _provider(q, 2, dedup=True)
    provider()
    provider()
    assert sorted(seq for _e, _n, seq in provider.window.emitted(0)) == [0, 1]


def test_provider_drops_stale_epoch_payloads():
    """A previous epoch's replayed tail left in the shared queue must not
    be consumed as this epoch's data."""
    q: queue.Queue = queue.Queue()
    q.put(_payload(4, epoch=0))  # stale replay from epoch 0
    q.put(_payload(0, epoch=1))
    q.put(_payload(1, epoch=1))
    provider = _provider(q, 2, dedup=True, epoch=1)
    provider()
    provider()
    assert provider.complete
    assert provider.window.stale == 1


def test_provider_strict_mode_rejects_stale_epoch_payloads():
    q: queue.Queue = queue.Queue()
    q.put(_payload(4, epoch=0))
    provider = _provider(q, 1, epoch=1)
    with pytest.raises(RuntimeError, match="epoch 0 payload in epoch 1"):
        provider()


def test_provider_parks_future_epoch_payloads_for_next_epoch():
    """Daemons may pipeline epoch e+1 while epoch e drains: early arrivals
    are held by the window for the next epoch, not dropped as stale."""
    q: queue.Queue = queue.Queue()
    window = DeliveryWindow(dedup=True)
    q.put(_payload(0, epoch=1))  # epoch 1 arrives early
    q.put(_payload(0, epoch=0))
    p0 = _provider(q, 1, window=window, epoch=0)
    p0()
    assert p0.complete and window.stale == 0
    assert q.empty() and window.duplicates == 0  # taken off the queue, held
    # The next epoch's provider consumes the held payload, queue untouched.
    p1 = _provider(q, 1, window=window, epoch=1)
    p1()
    assert p1.complete and q.empty()


def test_provider_without_dedup_still_rejects_duplicates():
    q: queue.Queue = queue.Queue()
    q.put(_payload(5))
    q.put(_payload(5))
    provider = _provider(q, 4)
    provider()
    with pytest.raises(RuntimeError, match="duplicate"):
        provider()


# -- PUSH stream reconnect -----------------------------------------------------


def _drain_until(pull, want, timeout=10.0):
    """Collect messages until every one in ``want`` arrived (replays of
    earlier messages are fine — the transport is at-least-once)."""
    want = set(want)
    got = set()
    deadline = time.monotonic() + timeout
    while not want <= got and time.monotonic() < deadline:
        try:
            got.add(pull.recv(timeout=0.2))
        except queue.Empty:
            continue
    return got


def test_push_reconnects_after_connection_drop():
    pull = PullSocket(hwm=32)
    push = PushSocket([pull.address], hwm=32, reconnect=FAST_RECONNECT)
    msgs = [f"m{i}".encode() for i in range(20)]
    for m in msgs[:5]:
        push.send(m)
    assert _drain_until(pull, msgs[:5]) == set(msgs[:5])
    push.drop_connection(0)  # mid-stream TCP reset
    for m in msgs[5:]:
        push.send(m)
    # Every post-drop message lands; uncredited pre-drop messages may be
    # replayed on top (at-least-once — dedup is the receiver's job).
    assert set(msgs[5:]) <= _drain_until(pull, msgs[5:])
    assert push.reconnects >= 1
    push.close()
    pull.close()


def test_push_replays_inflight_without_further_sends():
    """A drop with unacknowledged messages and *no* later sends must still
    replay: the credit reader flags the break and the writer heals."""
    pull = PullSocket(hwm=16)
    push = PushSocket([pull.address], hwm=8, reconnect=FAST_RECONNECT)
    msgs = [f"x{i}".encode() for i in range(6)]
    for m in msgs:
        push.send(m)
    # Don't consume yet: messages are in flight (uncredited), then the
    # connection dies.
    time.sleep(0.2)
    push.drop_connection(0)
    got = _drain_until(pull, msgs)
    assert got == set(msgs)
    push.close()
    pull.close()


def test_dead_stream_backlog_rescued_by_sibling_stream():
    """When one stream of a multi-stream socket dies for good, its queued
    and in-flight messages migrate to the surviving stream — no silent
    loss while siblings are healthy."""
    pull = PullSocket(hwm=2)
    push = PushSocket([pull.address], hwm=2, streams_per_endpoint=2)  # no policy
    msgs = [f"r{i}".encode() for i in range(20)]
    got: set = set()
    stop = threading.Event()

    def consume():
        while not stop.is_set():
            try:
                got.add(pull.recv(timeout=0.1))
            except queue.Empty:
                continue

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    for m in msgs[:10]:
        push.send(m)
    # With hwm=2, several of these are still queued/in-flight on stream 0.
    push.drop_connection(0)  # stream 0 dies permanently (no reconnect)
    for m in msgs[10:]:
        push.send(m)  # routed to the survivor
    deadline = time.monotonic() + 10
    while not set(msgs) <= got and time.monotonic() < deadline:
        time.sleep(0.02)
    stop.set()
    consumer.join(timeout=5)
    assert set(msgs) <= got  # nothing silently lost
    push.close()
    pull.close()


def test_push_without_policy_dies_on_drop():
    pull = PullSocket(hwm=16)
    push = PushSocket([pull.address], hwm=4)  # no reconnect policy
    push.send(b"a")
    assert pull.recv(timeout=5) == b"a"
    push.drop_connection(0)
    deadline = time.monotonic() + 5
    with pytest.raises(ConnectionError):
        while time.monotonic() < deadline:
            push.try_send(b"b")  # eventually raises: every stream is dead
            time.sleep(0.02)
        raise AssertionError("stream never died")
    push.close()
    pull.close()


def test_reconnect_policy_validation():
    with pytest.raises(ValueError):
        ReconnectPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        ReconnectPolicy(base_delay_s=0.5, max_delay_s=0.1)


# -- serve_epoch error aggregation ---------------------------------------------


def test_serve_epoch_aggregates_all_worker_errors(small_imagenet):
    """Every shard corrupted + two workers: both failures must surface."""
    for ix in small_imagenet.indexes:
        shard_path = small_imagenet.root / ix.path
        raw = bytearray(shard_path.read_bytes())
        raw[40] ^= 0xFF
        shard_path.write_bytes(bytes(raw))
    cfg = EMLIOConfig(batch_size=4, daemon_threads=2)
    plan = Planner(small_imagenet, num_nodes=1, config=cfg).plan()
    pull = PullSocket(hwm=64)
    daemon = EMLIODaemon(small_imagenet.root, plan, {0: ("127.0.0.1", pull.port)}, cfg)
    with pytest.raises(EpochServeError) as excinfo:
        daemon.serve_epoch(0)
    assert len(excinfo.value.exceptions) == 2
    daemon.close()
    pull.close()


def test_serve_epoch_single_error_raised_directly(small_imagenet):
    """One failing worker keeps the original exception type (no wrapping)."""
    shard_path = small_imagenet.root / small_imagenet.indexes[0].path
    raw = bytearray(shard_path.read_bytes())
    raw[40] ^= 0xFF
    shard_path.write_bytes(bytes(raw))
    from repro.tfrecord.reader import TFRecordCorruption

    cfg = EMLIOConfig(batch_size=4, daemon_threads=1)
    plan = Planner(small_imagenet, num_nodes=1, config=cfg).plan()
    pull = PullSocket(hwm=64)
    daemon = EMLIODaemon(small_imagenet.root, plan, {0: ("127.0.0.1", pull.port)}, cfg)
    with pytest.raises((TFRecordCorruption, ValueError)) as excinfo:
        daemon.serve_epoch(0)
    assert not isinstance(excinfo.value, EpochServeError)
    daemon.close()
    pull.close()


def test_killed_daemon_raises_daemon_killed(small_imagenet):
    cfg = EMLIOConfig(batch_size=4)
    plan = Planner(small_imagenet, num_nodes=1, config=cfg).plan()
    pull = PullSocket(hwm=64)
    daemon = EMLIODaemon(small_imagenet.root, plan, {0: ("127.0.0.1", pull.port)}, cfg)
    daemon.kill()
    with pytest.raises(DaemonKilled):
        daemon.serve_epoch(0)
    daemon.close()
    pull.close()


# -- PlacementEngine failover planning -----------------------------------------


def _coordinator(small_imagenet, delivered=(), roots=None, reachable=None):
    cfg = EMLIOConfig(batch_size=4)
    plan = Planner(small_imagenet, num_nodes=1, config=cfg).plan()
    ledger = DeliveryLedger(None)
    for key in delivered:
        ledger.record(*key)
    shards = sorted(ix.shard for ix in small_imagenet.indexes)
    if roots is None:
        roots = {"a": {shards[0]}, "b": set(shards[1:])}
    return plan, PlacementEngine(plan, ledger, roots, reachable=reachable)


def test_failover_targets_only_undelivered_shard_batches(small_imagenet):
    plan, coord = _coordinator(small_imagenet, reachable=lambda root, path: True)
    dead_shards = coord.shards_of("a")
    residual = coord.residual_plan(0, shards=dead_shards)
    assert all(a.shard in dead_shards for a in residual.assignments)
    takeover = coord.plan_failover("a", 0)
    assert set().union(*takeover.values()) == {a.shard for a in residual.assignments}
    assert "a" not in takeover  # the dead root never takes its own shards


def test_failover_skips_fully_delivered_shards(small_imagenet):
    plan, coord0 = _coordinator(small_imagenet, reachable=lambda r, p: True)
    dead_shards = coord0.shards_of("a")
    delivered = [
        (a.epoch, a.node_id, a.batch_index)
        for a in plan.assignments
        if a.shard in dead_shards
    ]
    _plan, coord = _coordinator(
        small_imagenet, delivered=delivered, reachable=lambda r, p: True
    )
    assert coord.plan_failover("a", 0) == {}  # nothing owed, nothing to move


def test_failover_unreachable_shard_raises(small_imagenet):
    _plan, coord = _coordinator(small_imagenet, reachable=lambda root, path: False)
    with pytest.raises(FailoverError, match="no surviving daemon"):
        coord.plan_failover("a", 0)


def test_failover_explicit_survivors_can_include_dead_root(small_imagenet):
    """A root stays a takeover target while any daemon on it is alive —
    e.g. a failover daemon died on root 'b' but b's original daemon lives."""
    _plan, coord = _coordinator(small_imagenet, reachable=lambda root, path: True)
    takeover = coord.plan_failover("a", 0, survivors=["a", "b"])
    placed = set().union(*takeover.values()) if takeover else set()
    assert placed == coord.shards_of("a") & {
        a.shard for a in coord.residual_plan(0).assignments
    }
    # With survivors restricted to an unreachable set, it refuses loudly.
    _plan2, coord2 = _coordinator(
        small_imagenet, reachable=lambda root, path: root == "b"
    )
    with pytest.raises(FailoverError):
        coord2.plan_failover("a", 0, survivors=["c"])


# -- end-to-end chaos scenarios ------------------------------------------------


def _collect_labels(iterable):
    labels = []
    for _tensors, batch_labels in iterable:
        labels.extend(int(l) for l in batch_labels)
    return labels


def _expected_labels(dataset):
    return sorted(
        label for labels in dataset.labels().values() for label in labels
    )


@pytest.fixture
def shared_roots(small_imagenet, tmp_path):
    """Two storage 'sites' sharing one physical directory (shared mounts):
    each daemon owns a disjoint shard subset but can reach every shard."""
    site_a = tmp_path / "site_a"
    site_b = tmp_path / "site_b"
    site_a.symlink_to(small_imagenet.root, target_is_directory=True)
    site_b.symlink_to(small_imagenet.root, target_is_directory=True)
    shards = sorted(ix.shard for ix in small_imagenet.indexes)
    return {str(site_a): set(shards[:1]), str(site_b): set(shards[1:])}


@pytest.mark.slow
@pytest.mark.parametrize("kill_after", [0, 1])
def test_chaos_kill_daemon_mid_epoch_fails_over(
    small_imagenet, shared_roots, tmp_path, kill_after
):
    """A daemon dies mid-epoch; its undelivered batches fail over to the
    surviving daemon and the epoch completes with exactly-once delivery."""
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16))
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", reconnect=FAST_RECONNECT
    )
    with EMLIOService(
        cfg, small_imagenet, storage_shards=shared_roots,
        stall_timeout=30.0, recovery=recovery,
    ) as svc:
        calls = itertools.count()
        victim = svc.daemons[0]

        def injector(assignment, push):
            if next(calls) == kill_after:
                victim.kill()
                raise DaemonKilled("chaos: daemon killed mid-epoch")

        victim.fault_injector = injector
        labels = _collect_labels(svc.epoch(0))
        assert svc.failovers == 1
        assert sorted(labels) == _expected_labels(small_imagenet)
        planned = svc.plan.keys(epoch=0)
        # All landed, once — and the completed epoch was compacted down to
        # a single checkpoint recording exactly the planned batch count.
        assert svc.ledger.completed_epochs() == {0: len(planned)}
        assert svc.ledger.delivered(epoch=0) == set()


@pytest.mark.slow
@pytest.mark.parametrize("drop_stream", [0, 1])
def test_chaos_connection_drop_is_retried_silently(
    small_imagenet, tmp_path, drop_stream
):
    """A transient TCP reset mid-epoch is absorbed by reconnect + dedup:
    the epoch completes with no surfaced error and exactly-once delivery."""
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16), streams_per_node=2)
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", reconnect=FAST_RECONNECT
    )
    with EMLIOService(
        cfg, small_imagenet, stall_timeout=30.0, recovery=recovery
    ) as svc:
        dropped = threading.Event()

        def injector(assignment, push):
            if assignment.batch_index >= 2 and not dropped.is_set():
                dropped.set()
                push.drop_connection(drop_stream)

        svc.daemons[0].fault_injector = injector
        labels = _collect_labels(svc.epoch(0))
        assert dropped.is_set()
        assert svc.failovers == 0  # no daemon died — transport healed itself
        assert sorted(labels) == _expected_labels(small_imagenet)
        assert svc.ledger.completed_epochs() == {0: len(svc.plan.keys(epoch=0))}


@pytest.mark.slow
def test_chaos_receiver_restart_resumes_from_ledger(small_imagenet, tmp_path):
    """Crash the whole deployment mid-epoch; a restarted service with the
    same ledger serves only the residual and the union is exactly-once."""
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16))
    ledger_path = tmp_path / "ledger.txt"
    # compact_ledger=False: this test audits raw per-batch keys across runs
    # (compaction behaviour gets its own tests).
    recovery = RecoveryConfig(
        ledger_path=ledger_path, failover=False, reconnect=FAST_RECONNECT,
        compact_ledger=False,
    )
    planned = None

    # Run 1: the daemon dies after two batches; no failover is possible
    # (single root), so the receiver stalls and we "crash".
    with EMLIOService(
        cfg, small_imagenet, stall_timeout=1.0, recovery=recovery
    ) as svc1:
        planned = svc1.plan.keys(epoch=0)
        calls = itertools.count()
        victim = svc1.daemons[0]

        def injector(assignment, push):
            if next(calls) == 2:
                victim.kill()
                raise DaemonKilled("chaos: storage node lost")

        victim.fault_injector = injector
        with pytest.raises(Exception):
            _collect_labels(svc1.epoch(0))
        run1_keys = svc1.ledger.delivered(epoch=0)
    assert 0 < len(run1_keys) < len(planned)  # genuinely partial

    # Run 2: fresh service, same config + ledger → serves the residual only.
    with EMLIOService(
        cfg, small_imagenet, stall_timeout=30.0, recovery=recovery
    ) as svc2:
        assert svc2.plan.keys(epoch=0) == planned  # deterministic re-plan
        _collect_labels(svc2.epoch(0))
        run2_keys = svc2.ledger.delivered(epoch=0) - run1_keys
        assert run1_keys | run2_keys == planned
        # The resumed epoch emitted exactly the residual batch count — no
        # batch from run 1 was re-delivered.
        assert len(run2_keys) == len(planned) - len(run1_keys)

    # Exactly-once overall: a third run finds nothing left to do.
    with EMLIOService(
        cfg, small_imagenet, stall_timeout=5.0, recovery=recovery
    ) as svc3:
        assert _collect_labels(svc3.epoch(0)) == []


@pytest.mark.slow
def test_chaos_replicated_coverage_failover(small_imagenet, shared_roots, tmp_path):
    """Replicate mode: the receiver expects every batch; a daemon death
    mid-epoch must still end in exactly-once delivery of all of them."""
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16), coverage="replicate")
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", reconnect=FAST_RECONNECT
    )
    with EMLIOService(
        cfg, small_imagenet, storage_shards=shared_roots,
        stall_timeout=30.0, recovery=recovery,
    ) as svc:
        calls = itertools.count()
        victim = svc.daemons[1]

        def injector(assignment, push):
            if next(calls) == 1:
                victim.kill()
                raise DaemonKilled("chaos")

        victim.fault_injector = injector
        labels = _collect_labels(svc.epoch(0))
        assert svc.failovers == 1
        assert sorted(labels) == _expected_labels(small_imagenet)
        assert svc.ledger.completed_epochs() == {0: len(svc.plan.keys(epoch=0))}


# -- resume CLI ----------------------------------------------------------------


def test_resume_cli_reports_residual(small_imagenet, tmp_path, capsys):
    from repro.tools.resume import main as resume_main

    cfg = EMLIOConfig(batch_size=4)
    plan = Planner(small_imagenet, num_nodes=1, config=cfg).plan()
    ledger_path = tmp_path / "ledger.txt"
    ledger = DeliveryLedger(ledger_path)
    keys = sorted(plan.keys(epoch=0))
    for key in keys[:2]:
        ledger.record(*key)
    ledger.close()

    rc = resume_main([str(small_imagenet.root), str(ledger_path), "--batch-size", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"2/{len(keys)} batches delivered" in out
    assert f"{len(keys) - 2} residual" in out
    assert "resumable" in out


def test_resume_cli_json_residual_is_loadable(small_imagenet, tmp_path, capsys):
    import json

    from repro.tools.resume import main as resume_main

    cfg = EMLIOConfig(batch_size=4)
    plan = Planner(small_imagenet, num_nodes=1, config=cfg).plan()
    ledger_path = tmp_path / "ledger.txt"
    ledger = DeliveryLedger(ledger_path)
    keys = sorted(plan.keys(epoch=0))
    for key in keys[:3]:
        ledger.record(*key)
    ledger.close()

    rc = resume_main(
        [str(small_imagenet.root), str(ledger_path), "--batch-size", "4", "--json"]
    )
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    residual_keys = {(r["epoch"], r["node_id"], r["seq"]) for r in obj["residual"]}
    assert residual_keys == set(keys[3:])


def test_resume_cli_complete_ledger(small_imagenet, tmp_path, capsys):
    from repro.tools.resume import main as resume_main

    cfg = EMLIOConfig(batch_size=4)
    plan = Planner(small_imagenet, num_nodes=1, config=cfg).plan()
    ledger_path = tmp_path / "ledger.txt"
    ledger = DeliveryLedger(ledger_path)
    for key in plan.keys():
        ledger.record(*key)
    ledger.close()
    rc = resume_main([str(small_imagenet.root), str(ledger_path), "--batch-size", "4"])
    assert rc == 0
    assert "complete" in capsys.readouterr().out


# -- ledger compaction (epoch checkpoints) -------------------------------------


def test_ledger_compaction_truncates_completed_epoch(tmp_path):
    """complete_epoch() collapses an epoch's per-batch lines into one
    checkpoint, shrinking the file and the in-memory key set (ROADMAP)."""
    path = tmp_path / "ledger.txt"
    ledger = DeliveryLedger(path)
    for seq in range(50):
        ledger.record(0, 0, seq)
    ledger.record(1, 0, 0)  # a live epoch that must survive compaction
    size_before = path.stat().st_size
    assert ledger.complete_epoch(0) == 50
    assert path.stat().st_size < size_before
    assert ledger.epoch_complete(0)
    assert ledger.completed_epochs() == {0: 50}
    assert len(ledger) == 1  # only the live epoch's key remains in memory
    assert ledger.delivered(epoch=0) == set()
    assert ledger.delivered(epoch=1) == {(1, 0, 0)}
    # The checkpoint still vouches for every batch of the epoch.
    assert (0, 0, 7) in ledger and ledger.covered((0, 0, 7))
    assert not ledger.record(0, 0, 99)  # completed epochs reject appends
    assert ledger.complete_epoch(0) == 50  # idempotent, count preserved
    ledger.close()

    reloaded = DeliveryLedger(path)  # checkpoint line round-trips
    assert reloaded.completed_epochs() == {0: 50}
    assert reloaded.delivered(epoch=1) == {(1, 0, 0)}
    assert "epoch-complete 0 50" in path.read_text()
    reloaded.close()


def test_ledger_v2_format_still_decodes(tmp_path):
    """A pre-compaction (v2) ledger — bare triplet lines — loads unchanged."""
    path = tmp_path / "ledger.txt"
    path.write_text("0 0 1\n0 0 2\n1 3 4\n")
    ledger = DeliveryLedger(path)
    assert ledger.delivered() == {(0, 0, 1), (0, 0, 2), (1, 3, 4)}
    assert ledger.completed_epochs() == {}
    ledger.close()


def test_ledger_rejects_corrupt_checkpoint_and_reassign_lines(tmp_path):
    for bad in ("epoch-complete 0\n", "epoch-complete a b\n", "reassign 0 1 2\n"):
        path = tmp_path / "ledger.txt"
        path.write_text("0 0 1\n" + bad)
        with pytest.raises(ValueError, match="corrupt"):
            DeliveryLedger(path)
        path.unlink()


def test_ledger_torn_tail_repair_keeps_checkpoints(tmp_path):
    path = tmp_path / "ledger.txt"
    path.write_text("epoch-complete 0 12\nreassign 1 0 5 1 9\n1 1 9\n1 1 1")  # torn
    ledger = DeliveryLedger(path)
    assert ledger.completed_epochs() == {0: 12}
    assert ledger.delivered() == {(1, 1, 9)}  # torn key dropped
    assert ledger.reassignments() == {(1, 0, 5): (1, 1, 9)}
    ledger.close()
    raw = path.read_text()
    assert raw.endswith("\n") and "1 1 1" not in raw.replace("1 1 9", "")


def test_ledger_reassignment_chain_collapses_to_final_owner(tmp_path):
    """A re-target whose new owner dies too is rewritten old -> final in
    place: the synthetic intermediate key vanishes from the map and
    coverage/resolve go straight to the final owner."""
    path = tmp_path / "ledger.txt"
    ledger = DeliveryLedger(path)
    ledger.record_reassignment((0, 1, 4), (0, 0, 10))  # node 1 died
    ledger.record_reassignment((0, 0, 10), (0, 2, 3))  # then node 0 died too
    assert not ledger.covered((0, 1, 4))
    assert ledger.reassignments() == {(0, 1, 4): (0, 2, 3)}  # depth 1, GC'd
    ledger.record(0, 2, 3)  # final owner delivers
    assert ledger.covered((0, 1, 4))
    assert ledger.resolve((0, 1, 4)) == (0, 2, 3)
    ledger.close()

    reloaded = DeliveryLedger(path)  # appended rewrites persist
    assert reloaded.covered((0, 1, 4))
    assert reloaded.reassignments(epoch=0) == {(0, 1, 4): (0, 2, 3)}
    reloaded.close()


def test_ledger_reassignment_storm_stays_bounded(tmp_path):
    """ROADMAP churn item: a failover storm with *no* epoch completion —
    the same residual batch re-owned over and over — must not grow the
    reassignment map with chain links.  One planned key, fifty failovers,
    one map entry."""
    path = tmp_path / "ledger.txt"
    ledger = DeliveryLedger(path)
    planned = (0, 0, 7)
    current = planned
    for round_no in range(50):
        new = (0, (round_no % 3) + 1, 100 + round_no)  # fresh synthetic seq
        ledger.record_reassignment(current, new)
        current = new
        assert len(ledger.reassignments()) == 1  # bounded, not a chain
        assert ledger.resolve(planned) == current
    assert ledger.reassignments() == {planned: current}
    assert not ledger.covered(planned)
    ledger.record(*current)
    assert ledger.covered(planned)
    ledger.close()

    reloaded = DeliveryLedger(path)  # survives a restart, still depth 1
    assert reloaded.reassignments() == {planned: current}
    assert reloaded.covered(planned)
    reloaded.close()


def test_ledger_load_collapses_pre_gc_chain_files(tmp_path):
    """Ledger files written before chain GC hold literal chains; loading
    collapses them to old -> final and drops synthetic intermediates."""
    path = tmp_path / "ledger.txt"
    path.write_text(
        "reassign 0 1 4 0 10\n"   # (0,1,4) -> (0,0,10)
        "reassign 0 0 10 2 3\n"   # (0,0,10) -> (0,2,3): a pre-GC chain
        "0 2 3\n"
    )
    ledger = DeliveryLedger(path)
    assert ledger.reassignments() == {(0, 1, 4): (0, 2, 3)}
    assert ledger.covered((0, 1, 4))
    ledger.close()


def test_ledger_reassignment_rejects_cross_epoch():
    ledger = DeliveryLedger(None)
    with pytest.raises(ValueError, match="crosses epochs"):
        ledger.record_reassignment((0, 1, 4), (1, 0, 10))
    ledger.close()


def test_ledger_compaction_drops_reassignments_of_completed_epoch(tmp_path):
    path = tmp_path / "ledger.txt"
    ledger = DeliveryLedger(path)
    ledger.record_reassignment((0, 1, 0), (0, 0, 5))
    ledger.record(0, 0, 5)
    ledger.record_reassignment((1, 1, 0), (1, 0, 5))
    ledger.complete_epoch(0)
    assert ledger.reassignments() == {(1, 1, 0): (1, 0, 5)}
    assert ledger.covered((0, 1, 0))  # via the epoch checkpoint now
    ledger.close()


# -- control-plane chaos: receiver failover, hung daemons, overlapping faults --

from repro.core.membership import MemberStatus, MembershipConfig  # noqa: E402

#: Detection thresholds tuned for chaos tests: ~100 ms to declare a silent
#: member dead, hang detection effectively off unless a test opts in.
FAST_MEMBERSHIP = MembershipConfig(
    interval_s=0.02, miss_threshold=2, dead_threshold=5, hung_after_s=30.0
)


@pytest.mark.slow
def test_chaos_kill_receiver_mid_epoch_fails_over(small_imagenet, shared_roots, tmp_path):
    """ACCEPTANCE: a receiver (compute node) dies mid-epoch; its undelivered
    batches are re-targeted onto the survivor and the epoch completes with
    exactly-once delivery of every planned sample."""
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16))
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", reconnect=FAST_RECONNECT,
        membership=FAST_MEMBERSHIP,
    )
    with EMLIOService(
        cfg, small_imagenet, storage_shards=shared_roots,
        stall_timeout=30.0, recovery=recovery, num_nodes=2,
    ) as svc:
        svc.kill_receiver(1)  # crashes before consuming anything: full
        # partition must move — deterministic, no race with consumption
        labels = _collect_labels(svc.epoch(0))
        assert svc.receiver_failovers == 1
        assert sorted(labels) == _expected_labels(small_imagenet)
        planned = svc.plan.keys(epoch=0)
        # Exactly-once: every planned batch delivered under exactly one key
        # (original or re-targeted), then compacted into the checkpoint.
        assert svc.ledger.completed_epochs() == {0: len(planned)}
        assert svc.view.status_of("receiver:1") is MemberStatus.DEAD
        assert svc.view.status_of("receiver:0") is MemberStatus.ALIVE


@pytest.mark.slow
def test_chaos_kill_receiver_after_partial_consumption(small_imagenet, shared_roots, tmp_path):
    """Receiver dies after consuming part of its partition: only the
    *undelivered* remainder moves (ledger-diffed), nothing is delivered
    twice and nothing is lost."""
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16))
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", reconnect=FAST_RECONNECT,
        membership=FAST_MEMBERSHIP,
    )
    with EMLIOService(
        cfg, small_imagenet, storage_shards=shared_roots,
        stall_timeout=30.0, recovery=recovery, num_nodes=2,
    ) as svc:
        labels = []
        killed = False
        for _tensors, batch_labels in svc.epoch(0):
            labels.extend(int(l) for l in batch_labels)
            if not killed:
                killed = True
                svc.kill_receiver(1)
        assert sorted(labels) == _expected_labels(small_imagenet)
        assert svc.ledger.completed_epochs() == {0: len(svc.plan.keys(epoch=0))}


@pytest.mark.slow
def test_chaos_kill_receiver_mid_epoch_on_shm_pair(small_imagenet, shared_roots, tmp_path):
    """ACCEPTANCE: a receiver attached over the shared-memory ring dies
    mid-epoch.  The producer sees the hard-crash signature (control-channel
    EOF / dead alive flag), the control plane re-targets the undelivered
    remainder onto the survivor — itself reached over shm — and the epoch
    completes with exactly-once delivery."""
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16), transport="shm")
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", reconnect=FAST_RECONNECT,
        membership=FAST_MEMBERSHIP,
    )
    with EMLIOService(
        cfg, small_imagenet, storage_shards=shared_roots,
        stall_timeout=30.0, recovery=recovery, num_nodes=2,
    ) as svc:
        svc.kill_receiver(1)  # kill before consumption: the full partition
        # must move (shm serves so fast that a kill after the first
        # consumed batch often finds nothing left to fail over)
        labels = _collect_labels(svc.epoch(0))
        assert svc.receiver_failovers == 1
        assert sorted(labels) == _expected_labels(small_imagenet)
        assert svc.ledger.completed_epochs() == {0: len(svc.plan.keys(epoch=0))}
        # The re-targeted stream genuinely rode the ring to the survivor.
        stats = svc.stats()
        assert stats["transports"].get("0") == "shm"
        assert stats["shm_attaches"] >= 1


@pytest.mark.slow
def test_chaos_dead_receiver_partition_moves_in_later_epochs(
    small_imagenet, shared_roots, tmp_path
):
    """A node dead since epoch 0 owes nothing in epoch 1: its partition is
    re-targeted at epoch start (re-planning, not mid-epoch rescue)."""
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16), epochs=2)
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", reconnect=FAST_RECONNECT,
        membership=FAST_MEMBERSHIP,
    )
    with EMLIOService(
        cfg, small_imagenet, storage_shards=shared_roots,
        stall_timeout=30.0, recovery=recovery, num_nodes=2,
    ) as svc:
        svc.kill_receiver(1)
        labels0 = _collect_labels(svc.epoch(0))
        assert sorted(labels0) == _expected_labels(small_imagenet)
        labels1 = _collect_labels(svc.epoch(1))  # epoch-start re-target path
        assert sorted(labels1) == _expected_labels(small_imagenet)
        assert svc.receiver_failovers == 2
        assert svc.ledger.completed_epochs() == {
            0: len(svc.plan.keys(epoch=0)), 1: len(svc.plan.keys(epoch=1)),
        }


@pytest.mark.slow
def test_chaos_hung_daemon_detected_via_heartbeats(small_imagenet, shared_roots, tmp_path):
    """ACCEPTANCE: a *hung* daemon — thread alive, no error raised, zero
    progress — is detected via frozen heartbeat progress and failed over.
    Thread-state watchdogs are structurally blind to this failure."""
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16))
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", reconnect=FAST_RECONNECT,
        membership=MembershipConfig(
            interval_s=0.05, miss_threshold=3, dead_threshold=6, hung_after_s=0.4
        ),
    )
    with EMLIOService(
        cfg, small_imagenet, storage_shards=shared_roots,
        stall_timeout=30.0, recovery=recovery,
    ) as svc:
        victim = svc.daemons[0]
        svc.hang_daemon(0)
        labels = _collect_labels(svc.epoch(0))
        assert svc.failovers == 1
        assert sorted(labels) == _expected_labels(small_imagenet)
        # The victim never crashed on its own: it hung, the control plane
        # declared it dead from frozen progress, and the service killed it.
        assert victim.killed and victim.hung
        dead = svc.logger.events("member_dead")
        assert any("hung" in e.fields.get("reason", "") for e in dead)
        assert svc.ledger.completed_epochs() == {0: len(svc.plan.keys(epoch=0))}


@pytest.mark.slow
def test_chaos_kill_during_failover(small_imagenet, shared_roots, tmp_path):
    """Overlapping faults: the replacement daemon spawned by the first
    failover is killed on its first batch — the control plane must fail
    over the failover, and the epoch still completes exactly-once."""
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16))
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", reconnect=FAST_RECONNECT,
        membership=FAST_MEMBERSHIP,
    )
    with EMLIOService(
        cfg, small_imagenet, storage_shards=shared_roots,
        stall_timeout=30.0, recovery=recovery,
    ) as svc:
        orig_make = svc._make_daemon
        armed = {"first_failover_daemon": True}

        def make(root, shards, plan=None):
            daemon = orig_make(root, shards, plan=plan)
            if plan is not None and armed["first_failover_daemon"]:
                armed["first_failover_daemon"] = False

                def injector(assignment, push, daemon=daemon):
                    daemon.kill()
                    raise DaemonKilled("chaos: replacement killed mid-failover")

                daemon.fault_injector = injector
            return daemon

        svc._make_daemon = make
        calls = itertools.count()
        victim = svc.daemons[0]

        def injector(assignment, push):
            if next(calls) == 1:
                victim.kill()
                raise DaemonKilled("chaos: daemon killed mid-epoch")

        victim.fault_injector = injector
        labels = _collect_labels(svc.epoch(0))
        assert svc.failovers == 2  # the failover itself failed over
        assert sorted(labels) == _expected_labels(small_imagenet)
        assert svc.ledger.completed_epochs() == {0: len(svc.plan.keys(epoch=0))}


@pytest.mark.slow
def test_chaos_drop_during_resume(small_imagenet, tmp_path):
    """Overlapping faults: a run crashes mid-epoch; the resumed run takes a
    TCP reset while serving the residual.  Reconnect + dedup absorb it and
    the union of both runs is exactly-once."""
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16), streams_per_node=2)
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", failover=False,
        reconnect=FAST_RECONNECT,
    )
    with EMLIOService(
        cfg, small_imagenet, stall_timeout=1.0, recovery=recovery
    ) as svc1:
        planned = svc1.plan.keys(epoch=0)
        calls = itertools.count()
        victim = svc1.daemons[0]

        def injector(assignment, push):
            if next(calls) == 2:
                victim.kill()
                raise DaemonKilled("chaos: storage node lost")

        victim.fault_injector = injector
        labels1 = []
        with pytest.raises(Exception):
            for _tensors, batch_labels in svc1.epoch(0):
                labels1.extend(int(l) for l in batch_labels)
        run1_keys = svc1.ledger.delivered(epoch=0)
    assert 0 < len(run1_keys) < len(planned)

    with EMLIOService(
        cfg, small_imagenet, stall_timeout=30.0, recovery=recovery
    ) as svc2:
        dropped = threading.Event()

        def injector2(assignment, push):
            if not dropped.is_set():
                dropped.set()
                push.drop_connection(0)  # reset during the resume stream

        svc2.daemons[0].fault_injector = injector2
        labels2 = []
        for _tensors, batch_labels in svc2.epoch(0):
            labels2.extend(int(l) for l in batch_labels)
        assert dropped.is_set()
        assert sorted(labels1 + labels2) == _expected_labels(small_imagenet)
        assert svc2.ledger.completed_epochs() == {0: len(planned)}


@pytest.mark.slow
@pytest.mark.parametrize("seed", [7, 23])
def test_chaos_multi_fault_soak(small_imagenet, shared_roots, tmp_path, seed):
    """Randomized multi-fault soak: every epoch takes one fault (daemon
    kill, receiver kill, TCP reset) at a random point, in a random order.
    Every epoch must still deliver the full dataset exactly once."""
    import numpy as np

    rng = np.random.default_rng(seed)
    epochs = 3
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16), epochs=epochs)
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", reconnect=FAST_RECONNECT,
        membership=FAST_MEMBERSHIP,
    )
    faults = [str(f) for f in rng.permutation(["kill_daemon", "kill_receiver", "drop"])]
    with EMLIOService(
        cfg, small_imagenet, storage_shards=shared_roots,
        stall_timeout=30.0, recovery=recovery, num_nodes=2,
    ) as svc:

        def inject(fault: str) -> None:
            if fault == "kill_daemon":
                live = [i for i, d in enumerate(svc.daemons) if not d.killed]
                if len(live) >= 2:  # keep one original root serving
                    svc.kill_daemon(int(rng.choice(live)))
                    return
                fault = "drop"
            if fault == "kill_receiver":
                live = [i for i in range(svc.num_nodes) if not svc.receivers[i].killed]
                if len(live) >= 2:
                    svc.kill_receiver(int(rng.choice(live)))
                    return
                fault = "drop"
            # TCP reset: arm a one-shot injector on a live daemon.
            armed = threading.Event()

            def injector(assignment, push):
                if not armed.is_set():
                    armed.set()
                    push.drop_connection(0)

            for d in svc.daemons:
                if not d.killed:
                    d.fault_injector = injector
                    break

        expected = _expected_labels(small_imagenet)
        for epoch in range(epochs):
            fault = faults[epoch]
            inject_at = int(rng.integers(0, 2))  # batches consumed first
            labels = []
            injected = False
            consumed = 0
            for _tensors, batch_labels in svc.epoch(epoch):
                labels.extend(int(l) for l in batch_labels)
                consumed += 1
                if not injected and consumed > inject_at:
                    injected = True
                    inject(fault)
            if not injected:  # tiny epoch consumed before the trigger point
                inject(fault)
            assert sorted(labels) == expected, f"epoch {epoch} fault {fault}"
        assert svc.ledger.completed_epochs() == {
            e: len(svc.plan.keys(epoch=e)) for e in range(epochs)
        }
