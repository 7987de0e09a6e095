"""Stream lifetime: one daemon→receiver stream per deployment, not per epoch.

Covers what long-lived streams must keep true: steady-state epochs start
no connections, shm segments or threads (a pass torn by its consumer
included); kills and dropped
nodes still fail over exactly once and close the stream they hit; closing
right after the last batch over a shaped link is clean; a hang is still
detected while an idle daemon is not; a shaped link's departed pusher can
no longer kill the receive thread (bench defect b).
"""

from __future__ import annotations

import collections
import itertools
import logging
import threading
import time

import pytest

from repro.core.config import EMLIOConfig
from repro.core.daemon import EMLIODaemon
from repro.core.membership import MembershipConfig
from repro.core.planner import Planner
from repro.core.recovery import DaemonKilled, RecoveryConfig
from repro.core.service import EMLIOService
from repro.data.datasets import SyntheticImageNet
from repro.net import heartbeat as heartbeat_mod
from repro.net import mq as mq_mod
from repro.net import shm as shm_mod
from repro.net.emulation import NetworkProfile
from repro.net.mq import PullSocket, PushSocket
from repro.storage.backend import LocalFSBackend
from repro.tfrecord.sharder import write_shards

FAST_RECONNECT = mq_mod.ReconnectPolicy(max_retries=10, base_delay_s=0.01, max_delay_s=0.1)
SHAPED = NetworkProfile("lifetime-4ms", rtt_s=0.004)


def _labels(iterable) -> list[int]:
    return sorted(int(l) for _tensors, labels in iterable for l in labels)


def _expected(dataset) -> list[int]:
    return sorted(l for per in dataset.labels().values() for l in per)


def _wait_until(cond, timeout: float = 8.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(0.01)
    return cond()


@pytest.fixture
def shared_roots(small_imagenet, tmp_path):
    """Two storage sites over one directory: disjoint ownership, each can
    reach every shard (so either can take the other's over)."""
    site_a = tmp_path / "site_a"
    site_b = tmp_path / "site_b"
    site_a.symlink_to(small_imagenet.root, target_is_directory=True)
    site_b.symlink_to(small_imagenet.root, target_is_directory=True)
    shards = sorted(ix.shard for ix in small_imagenet.indexes)
    return {str(site_a): set(shards[:1]), str(site_b): set(shards[1:])}


class _Churn:
    """Counts connects, shm segments and thread starts while armed."""

    def __init__(self, monkeypatch) -> None:
        self.connects = 0
        self.segments = 0
        self.threads: list[str] = []
        self.armed = False
        for module in (mq_mod, shm_mod, heartbeat_mod):
            real = module.connect_channel

            def connect(*args, _real=real, **kwargs):
                if self.armed:
                    self.connects += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "connect_channel", connect)
        real_create = shm_mod.ShmRing.create.__func__

        def create(cls, capacity):
            if self.armed:
                self.segments += 1
            return real_create(cls, capacity)

        monkeypatch.setattr(shm_mod.ShmRing, "create", classmethod(create))
        real_start = threading.Thread.start

        def start(thread):
            if self.armed:
                self.threads.append(thread.name)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)

    def epoch(self, svc: EMLIOService, epoch: int) -> tuple[list[int], int, int, list[str]]:
        """Run one epoch armed; returns (labels, connects, segments, threads)."""
        self.connects, self.segments, self.threads = 0, 0, []
        self.armed = True
        try:
            labels = _labels(svc.epoch(epoch))
        finally:
            self.armed = False
        return labels, self.connects, self.segments, self.threads


def _steady_recovery(tmp_path) -> RecoveryConfig:
    return RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt",
        membership=MembershipConfig(interval_s=0.02, miss_threshold=3,
                                    dead_threshold=50, hung_after_s=5.0),
    )


@pytest.mark.parametrize("transport", ["tcp-shaped", "shm", "tcp-shaped-2-nodes"])
def test_steady_epochs_start_no_connects_segments_or_thread_swarms(
    small_imagenet, tmp_path, monkeypatch, transport
):
    churn = _Churn(monkeypatch)
    epochs = 4
    nodes = 2 if transport.endswith("2-nodes") else 1
    if transport == "shm":
        cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16), epochs=epochs, transport="shm")
        svc = EMLIOService(cfg, small_imagenet, stall_timeout=20.0)
    else:
        # Two streams per node; with two nodes the daemon also runs a send
        # lane beside its serving thread and each receiver a merge pass:
        # every kept thread kind.
        cfg = EMLIOConfig(
            batch_size=4, output_hw=(16, 16), epochs=epochs, streams_per_node=2
        )
        svc = EMLIOService(
            cfg, small_imagenet, profile=SHAPED, stall_timeout=20.0,
            recovery=_steady_recovery(tmp_path), num_nodes=nodes,
        )
    with svc:
        expected = _expected(small_imagenet)
        labels, connects, segments, _threads = churn.epoch(svc, 0)
        assert labels == expected
        assert connects >= 1  # the first epoch opens the streams
        assert segments == (1 if transport == "shm" else 0)
        for e in range(1, epochs):
            labels, connects, segments, threads = churn.epoch(svc, e)
            assert labels == expected
            assert connects == 0, f"epoch {e} connected {connects} times"
            assert segments == 0, f"epoch {e} created {segments} shm segments"
            assert threads == [], f"epoch {e} started {threads}"
        assert svc.receiver.shm_attaches == (1 if transport == "shm" else 0)
        assert svc.stats()["transports"] == {
            str(n): "shm" if transport == "shm" else "tcp" for n in range(nodes)
        }


def test_a_torn_pass_leaves_no_lane_behind_and_the_rerun_delivers_the_rest(
    small_imagenet, tmp_path, monkeypatch
):
    """The consumer closes the epoch after k batches while the pipeline's
    lane waits on the socket for a batch the daemon holds back.  The pass
    must end at once with every lane free, and the next call of the same
    epoch delivers exactly the rest, on the same lanes, starting no
    thread."""
    churn = _Churn(monkeypatch)
    stall_timeout = 30.0
    hold_s = 2.0
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16), epochs=1)
    with EMLIOService(
        cfg, small_imagenet, profile=SHAPED, stall_timeout=stall_timeout,
        recovery=_steady_recovery(tmp_path),
    ) as svc:
        hold = {"on": True}

        def injector(assignment, _push):
            if hold["on"] and assignment.batch_index == 3:
                time.sleep(hold_s)  # the first pass's tail is late

        svc.daemons[0].fault_injector = injector
        receiver = svc.receiver
        k = 2
        gen = svc.epoch(0)
        torn = _labels(itertools.islice(gen, k))
        time.sleep(0.2)  # the lane has emitted batch 2 and waits for 3
        t0 = time.time()
        gen.close()  # returns once the held serve call has, too
        (pass_end,) = receiver.logger.events("epoch_end")
        # The lane waiting for batch 3 was woken, not left to its arrival.
        assert pass_end.t - t0 < hold_s / 2
        lanes = list(receiver._lanes)
        assert lanes and all(lane.submit(lambda: None).wait(1.0) for lane in lanes)
        threads_before = [lane._thread for lane in lanes]
        hold["on"] = False
        rest, connects, _segments, threads = churn.epoch(svc, 0)
        assert time.time() - t0 < stall_timeout / 3
        assert len(torn) == k * cfg.batch_size
        assert sorted(torn + rest) == _expected(small_imagenet)
        assert threads == [] and connects == 0
        assert receiver._lanes == lanes
        assert [lane._thread for lane in receiver._lanes] == threads_before
        assert all(t.is_alive() for t in threads_before)
        assert svc.ledger.completed_epochs() == {0: len(svc.plan.keys(epoch=0))}


def test_daemon_kill_on_a_reused_stream_fails_over_once_and_closes_it(
    small_imagenet, shared_roots, tmp_path
):
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16), epochs=2)
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", reconnect=FAST_RECONNECT,
        membership=MembershipConfig(interval_s=0.02, miss_threshold=2,
                                    dead_threshold=5, hung_after_s=30.0),
    )
    with EMLIOService(
        cfg, small_imagenet, storage_shards=shared_roots, stall_timeout=30.0,
        recovery=recovery,
    ) as svc:
        victim = svc.daemons[0]
        streams: dict[int, list] = collections.defaultdict(list)
        calls = itertools.count()

        def injector(assignment, push):
            streams[assignment.epoch].append(push)
            if assignment.epoch == 1 and next(calls) == 1:
                victim.kill()
                raise DaemonKilled("chaos: killed in the second epoch")

        victim.fault_injector = injector
        assert _labels(svc.epoch(0)) == _expected(small_imagenet)
        assert svc.failovers == 0
        assert _labels(svc.epoch(1)) == _expected(small_imagenet)
        assert svc.failovers == 1
        # Epoch 1 rode the stream epoch 0 opened, and the kill closed it.
        (stream,) = set(streams[0])
        assert set(streams[1]) == {stream}
        assert stream.closed
        assert svc.ledger.completed_epochs() == {
            0: len(svc.plan.keys(epoch=0)), 1: len(svc.plan.keys(epoch=1)),
        }


def test_dropped_node_closes_its_stream_and_fails_over_once(
    small_imagenet, shared_roots, tmp_path
):
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16), epochs=2)
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", reconnect=FAST_RECONNECT,
        membership=MembershipConfig(interval_s=0.02, miss_threshold=2,
                                    dead_threshold=5, hung_after_s=30.0),
    )
    with EMLIOService(
        cfg, small_imagenet, storage_shards=shared_roots, stall_timeout=30.0,
        recovery=recovery, num_nodes=2,
    ) as svc:
        streams: dict[int, set] = collections.defaultdict(set)

        def injector(assignment, push):
            streams[assignment.node_id].add(push)

        for d in svc.daemons:
            d.fault_injector = injector
        assert _labels(svc.epoch(0)) == _expected(small_imagenet)
        to_node1 = set(streams[1])
        assert to_node1 and not any(s.closed for s in to_node1)
        svc.kill_receiver(1)
        # Declared dead between epochs: every daemon drops the node, which
        # closes the stream that served it in epoch 0.
        assert _wait_until(lambda: svc.cluster_status()["dead_nodes"] == [1])
        assert _wait_until(lambda: all(s.closed for s in to_node1))
        assert _labels(svc.epoch(1)) == _expected(small_imagenet)
        assert svc.receiver_failovers == 1
        assert svc.failovers == 0
        # Node 0's streams lived through both epochs.
        assert not any(s.closed for s in streams[0])


def _unsent(push: PushSocket) -> int:
    """Messages a TCP push holds that the receiver has not credited."""
    return sum(s.unflushed + len(s.inflight) for s in push._streams)


def test_kill_after_the_serve_call_returned_still_fails_over(
    small_imagenet, shared_roots, tmp_path
):
    """serve_epoch returns once its batches are handed to the streams, so a
    kill can land while they still hold batches — nothing raises then, and
    the kill drops them.  The control plane must still see the death and
    fail the epoch's residual over."""
    cfg = EMLIOConfig(batch_size=2, output_hw=(16, 16), epochs=2, hwm=1,
                      streams_per_node=1)
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt", reconnect=FAST_RECONNECT,
        membership=MembershipConfig(interval_s=0.02, miss_threshold=2,
                                    dead_threshold=5, hung_after_s=30.0),
    )
    with EMLIOService(
        cfg, small_imagenet, profile=NetworkProfile("lifetime-50ms", rtt_s=0.05),
        storage_shards=shared_roots, stall_timeout=20.0, recovery=recovery,
    ) as svc:
        victim = svc.daemons[0]
        epoch1 = [a for a in victim.work.assignments if a.epoch == 1 and a.node_id == 0]
        assert len(epoch1) > 2 * cfg.hwm * cfg.streams_per_node
        pushes: set = set()
        held: list[int] = []
        serve = victim.serve_epoch

        def serve_then_die(epoch, skip=None):
            serve(epoch, skip=skip)
            if epoch == 1:
                (push,) = pushes
                held.append(_unsent(push))
                svc.kill_daemon(0)

        victim.fault_injector = lambda _a, push: pushes.add(push)
        victim.serve_epoch = serve_then_die
        assert _labels(svc.epoch(0)) == _expected(small_imagenet)
        assert _labels(svc.epoch(1)) == _expected(small_imagenet)
        assert held and held[0] > 0, "the kill found nothing left to drop"
        assert svc.failovers == 1
        assert all(p.closed for p in pushes)
        assert svc.ledger.completed_epochs() == {
            0: len(svc.plan.keys(epoch=0)), 1: len(svc.plan.keys(epoch=1)),
        }


@pytest.mark.parametrize("transport", ["tcp", "shm"])
def test_a_stream_that_died_between_epochs_is_replaced(small_imagenet, transport):
    """Without a reconnect policy a stream whose connection dropped stays
    dead; the next epoch connects afresh instead of failing on it."""
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16), epochs=2, transport=transport)
    with EMLIOService(cfg, small_imagenet, stall_timeout=20.0) as svc:
        used: dict[int, set] = collections.defaultdict(set)
        svc.daemons[0].fault_injector = lambda a, push: used[a.epoch].add(push)
        assert _labels(svc.epoch(0)) == _expected(small_imagenet)
        (first,) = used[0]
        for i in range(first.num_streams):
            first.drop_connection(i)
        assert _wait_until(lambda: not first.alive)  # the sender saw the reset
        assert _labels(svc.epoch(1)) == _expected(small_imagenet)
        (second,) = used[1]
        assert second is not first and second.alive
        assert first.closed


def test_a_send_path_bug_is_not_reported_as_an_unreachable_node(small_imagenet):
    """Only a send on a stream closed under the daemon reads as the node's
    loss; any other RuntimeError from the transport is a bug and stays one."""
    cfg = EMLIOConfig(batch_size=4)
    plan = Planner(small_imagenet, num_nodes=1, config=cfg).plan()
    daemon = EMLIODaemon(small_imagenet.root, plan, {0: ("127.0.0.1", 1)}, cfg)

    class _BrokenPush:
        closed = False

        def try_send_parts(self, parts):
            raise RuntimeError("encoder bug")

    try:
        with pytest.raises(RuntimeError, match="encoder bug"):
            daemon._push([b"x"], _BrokenPush(), node_id=0)
    finally:
        daemon.close()


def test_close_right_after_the_last_batch_on_a_shaped_link_is_clean(
    small_imagenet, monkeypatch, caplog
):
    from repro.api import EMLIO, ClusterSpec
    from repro.api.spec import NetworkSpec, PipelineSpec, ReceiverSpec

    crashes: list = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)
    spec = ClusterSpec(
        name="close-on-wan",
        pipeline=PipelineSpec(batch_size=4, output_hw=(16, 16), epochs=2, hwm=64,
                              streams_per_node=2),
        network=NetworkSpec(rtt_ms=30.0, transport="tcp"),
        receivers=ReceiverSpec(stall_timeout_s=20.0),
    )
    caplog.set_level(logging.DEBUG)
    dep = EMLIO.deploy(spec, dataset=small_imagenet)
    try:
        for e in range(2):
            assert _labels(dep.epoch(e)) == _expected(small_imagenet)
        receiver = dep.service.receiver
    finally:
        dep.close()  # immediately: credits are still crossing the link
    assert "closed DelayPipe" not in caplog.text
    assert receiver.pull.reader_errors == 0
    assert not crashes


def test_idle_daemon_is_not_hung_but_a_wedged_receiver_is(small_imagenet, tmp_path):
    hung_after = 0.3
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16), epochs=3, prefetch=1)
    recovery = RecoveryConfig(
        ledger_path=tmp_path / "ledger.txt",
        membership=MembershipConfig(interval_s=0.02, miss_threshold=3,
                                    dead_threshold=50, hung_after_s=hung_after),
    )
    with EMLIOService(cfg, small_imagenet, stall_timeout=30.0, recovery=recovery) as svc:
        assert _labels(svc.epoch(0)) == _expected(small_imagenet)
        # Idle across the boundary for several hang thresholds: the daemon's
        # progress is frozen, but it is idle, not serving.
        time.sleep(3 * hung_after)
        assert _labels(svc.epoch(1)) == _expected(small_imagenet)
        assert svc.logger.events("member_dead") == []
        assert svc.failovers == 0
        # A consumer that wedges right after the next boundary leaves
        # payloads queued: frozen progress while serving — a hang.
        gen = svc.epoch(2)
        next(gen)

        def receiver_hung():
            return any(
                e.fields.get("member") == "receiver:0" and "hung" in e.fields.get("reason", "")
                for e in svc.logger.events("member_dead")
            )

        assert _wait_until(receiver_hung, timeout=10 * hung_after + 5.0)
        assert not any(
            e.fields.get("role") == "daemon" for e in svc.logger.events("member_dead")
        )
        gen.close()


# -- bench defect (b): a departed shaped pusher must not kill the receiver ----


def test_crediting_a_departed_shaped_pusher_is_a_no_op():
    """The receiver grants a credit per dequeued frame, through the server
    side's shaped channel.  Once the pusher is gone those credits fail; the
    failure must read as the peer's absence (ConnectionError), not as a
    RuntimeError that kills the receive thread."""
    profile = NetworkProfile("defect-b", rtt_s=0.01)
    pull = PullSocket(hwm=8, profile=profile, pooled=True)
    push = PushSocket([pull.address], hwm=8, profile=profile)
    try:
        frames = 4
        for i in range(frames):
            push.send(b"%d" % i)
        assert _wait_until(lambda: pull.pending == frames)
        push.close()
        assert _wait_until(lambda: pull.num_channels == 0)  # reader saw EOF
        got = []
        for _ in range(frames):
            frame = pull.recv_frame(timeout=5)
            got.append(bytes(frame.data))
            frame.release()
            time.sleep(2 * profile.one_way_s)  # let the credit's delivery fail
        assert sorted(got) == [b"%d" % i for i in range(frames)]
        assert pull.reader_errors == 0
    finally:
        pull.close()


def test_hwm_64_on_a_shaped_link_delivers_every_epoch(tmp_path):
    """Defect (b)'s geometry scaled down: a deep credit window (hwm = 64 x 2
    streams) over a 30 ms link, four epochs, every sample every epoch."""
    ds = write_shards(
        iter(SyntheticImageNet(512, seed=11, image_hw=(32, 32), num_classes=10)),
        tmp_path / "ds", records_per_shard=64,
    )
    epochs = 4
    cfg = EMLIOConfig(batch_size=8, output_hw=(16, 16), epochs=epochs, hwm=64,
                      streams_per_node=2)
    with EMLIOService(
        cfg, ds, profile=NetworkProfile("wan-30", rtt_s=0.03), stall_timeout=15.0
    ) as svc:
        for e in range(epochs):
            assert _labels(svc.epoch(e)) == _expected(ds), f"epoch {e}"
        assert svc.receiver.pull.reader_errors == 0


def test_receive_thread_death_fails_the_epoch_promptly(small_imagenet, monkeypatch):
    """A frame that fails to decode must fail the epoch now, not after the
    stall timeout — and every later epoch too."""
    import repro.core.receiver as receiver_mod

    def broken_decode(*_args, **_kwargs):
        raise ValueError("decoder bug")

    monkeypatch.setattr(receiver_mod, "decode_batch", broken_decode)
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16), epochs=2)
    with EMLIOService(cfg, small_imagenet, stall_timeout=60.0) as svc:
        for e in range(2):
            t0 = time.monotonic()
            with pytest.raises(RuntimeError, match="failed to decode.*decoder bug"):
                _labels(svc.epoch(e))
            assert time.monotonic() - t0 < 10.0


# -- the serve order fed to a storage cache ------------------------------------


class _RecordingBackend(LocalFSBackend):
    def __init__(self, root) -> None:
        super().__init__(root)
        self.fed: list[list[tuple]] = []

    def schedule_prefetch(self, ranges) -> int:
        self.fed.append(list(ranges))
        return 0


def _reference_order(plan, start_epoch, shard_filter, dropped):
    mine = [
        a
        for a in plan.assignments
        if a.epoch >= start_epoch
        and (shard_filter is None or a.shard in shard_filter)
        and a.node_id not in dropped
    ]
    mine.sort(key=lambda a: (a.epoch, a.batch_index, a.node_id))
    return [(a.shard_path, a.offset, a.nbytes, a.count) for a in mine]


def test_cached_serve_order_feeds_the_same_ranges(small_imagenet):
    cfg = EMLIOConfig(batch_size=2, epochs=3)
    plan = Planner(small_imagenet, num_nodes=2, config=cfg).plan()
    shards = sorted(ix.shard for ix in small_imagenet.indexes)
    backend = _RecordingBackend(small_imagenet.root)
    daemon = EMLIODaemon(
        small_imagenet.root, plan, {0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2)}, cfg,
        backend=backend,
    )
    try:
        expected = []
        for shard_filter in (None, set(shards[1:]), None):
            daemon.own(shard_filter)
            for start in range(4):
                daemon.schedule_prefetch(start_epoch=start)
                expected.append(_reference_order(plan, start, shard_filter, set()))
        daemon.drop_node(1)  # a dropped node's batches leave the order
        for start in range(4):
            daemon.schedule_prefetch(start_epoch=start)
            expected.append(_reference_order(plan, start, None, {1}))
        assert backend.fed == expected
        assert all(expected[:3]) and expected[3] == []  # epochs 0..2 planned
    finally:
        daemon.close()
