"""Failure-injection tests: corrupted data, dead peers, stalled streams."""

import queue
import threading
import time

import pytest

from repro.core.config import EMLIOConfig
from repro.core.deliverywindow import DeliveryWindow
from repro.core.planner import Planner
from repro.core.provider import BatchProvider
from repro.gpu.pipeline import EndOfData
from repro.net.framing import ConnectionClosed
from repro.net.mq import PullSocket, PushSocket
from repro.serialize.payload import BatchPayload
from repro.storage.backend import LocalFSBackend
from repro.storage.cache import CachedBackend
from repro.storage.objectstore import ObjectStoreBackend
from repro.tfrecord.reader import TFRecordCorruption


def test_daemon_detects_corrupted_shard(small_imagenet):
    """A bit-flipped shard must fail the epoch loudly, not deliver garbage."""
    shard_path = small_imagenet.root / small_imagenet.indexes[0].path
    raw = bytearray(shard_path.read_bytes())
    raw[40] ^= 0xFF
    shard_path.write_bytes(bytes(raw))

    from repro.core.daemon import EMLIODaemon

    cfg = EMLIOConfig(batch_size=4)
    plan = Planner(small_imagenet, num_nodes=1, config=cfg).plan()
    pull = PullSocket(hwm=64)
    daemon = EMLIODaemon(small_imagenet.root, plan, {0: ("127.0.0.1", pull.port)}, cfg)
    with pytest.raises((TFRecordCorruption, ValueError)):
        daemon.serve_epoch(0)
    daemon.close()
    pull.close()


@pytest.mark.parametrize("tier", ["localfs", "objectstore", "objectstore+cache"])
def test_a_corrupt_batch_reads_the_tier_once_and_names_the_shard(small_imagenet, tier):
    """One flipped byte inside a planned batch: the serve path reads the
    tier once, and the error names the shard and an absolute offset
    inside the planned range."""
    from repro.core.daemon import EMLIODaemon

    cfg = EMLIOConfig(batch_size=4)
    plan = Planner(small_imagenet, num_nodes=1, config=cfg).plan()
    a = plan.assignments[0]
    shard = small_imagenet.root / a.shard_path
    raw = bytearray(shard.read_bytes())
    raw[a.offset + 20] ^= 0xFF  # inside the first record's data
    shard.write_bytes(bytes(raw))
    backend = {
        "localfs": lambda: LocalFSBackend(small_imagenet.root),
        "objectstore": lambda: ObjectStoreBackend(small_imagenet.root),
        "objectstore+cache": lambda: CachedBackend(
            ObjectStoreBackend(small_imagenet.root), capacity_bytes=1 << 20
        ),
    }[tier]()
    daemon = EMLIODaemon(
        small_imagenet.root, plan, {0: ("127.0.0.1", 1)}, cfg, backend=backend
    )
    try:
        reader = daemon._reader(a.shard_path)
        reads = backend.stats.snapshot()["reads"]
        with pytest.raises(TFRecordCorruption) as err:
            daemon._read_batch(a, reader)
        assert backend.stats.snapshot()["reads"] - reads == 1
        assert repr(a.shard_path) in str(err.value)
        assert a.offset <= err.value.offset < a.offset + a.nbytes
    finally:
        daemon.close()


def _provider(q, expected: int, timeout: float) -> BatchProvider:
    window = DeliveryWindow()
    window.open(0, range(expected))
    return BatchProvider(q.get, window, threading.Lock(), 0, timeout=timeout)


def test_provider_times_out_on_stalled_stream():
    q: queue.Queue = queue.Queue()
    provider = _provider(q, 3, timeout=0.2)
    with pytest.raises(RuntimeError, match="stalled"):
        provider()


def test_provider_rejects_duplicate_delivery():
    q: queue.Queue = queue.Queue()
    payload = BatchPayload(epoch=0, batch_index=5, shard="s", samples=[b"x"], labels=[0])
    q.put(payload)
    q.put(payload)
    provider = _provider(q, 4, timeout=1.0)
    provider()
    with pytest.raises(RuntimeError, match="duplicate"):
        provider()


def test_provider_signals_end_after_expected():
    q: queue.Queue = queue.Queue()
    q.put(BatchPayload(epoch=0, batch_index=0, shard="s", samples=[b"x"], labels=[0]))
    provider = _provider(q, 1, timeout=1.0)
    provider()
    assert provider.complete
    with pytest.raises(EndOfData):
        provider()


def test_pull_socket_survives_peer_death():
    """A pusher dying mid-stream must not poison the PULL socket for
    other peers."""
    pull = PullSocket(hwm=16)
    push1 = PushSocket([pull.address], hwm=4)
    push1.send(b"from-1")
    assert pull.recv(timeout=5) == b"from-1"
    push1.close()  # peer goes away
    time.sleep(0.1)
    push2 = PushSocket([pull.address], hwm=4)
    push2.send(b"from-2")
    assert pull.recv(timeout=5) == b"from-2"
    push2.close()
    pull.close()


def test_channel_recv_after_peer_close_raises_cleanly():
    import socket as socket_mod

    from repro.net.channel import Channel

    a, b = socket_mod.socketpair()
    chan_a, chan_b = Channel(a), Channel(b)
    chan_a.close()
    with pytest.raises((ConnectionClosed, ConnectionError, OSError)):
        chan_b.recv()
    chan_b.close()


def test_nfs_mount_survives_transient_errors(small_imagenet):
    """Bad paths error per-op; the mount keeps serving good requests."""
    from repro.storage.nfs import NFSError, NFSMount
    from repro.storage.server import StorageServer

    srv = StorageServer(str(small_imagenet.root))
    mount = NFSMount("127.0.0.1", srv.port)
    with pytest.raises(NFSError):
        mount.read_at("no-such-shard.tfrecord", 0, 10)
    # The pool connection is still healthy.
    assert len(mount.read_at(small_imagenet.indexes[0].path, 0, 16)) == 16
    mount.close()
    srv.close()


def test_receiver_stall_timeout_raises(small_imagenet):
    """No daemon ever sends: the receiver epoch must fail fast, not hang."""
    from repro.core.receiver import EMLIOReceiver

    cfg = EMLIOConfig(batch_size=4)
    plan = Planner(small_imagenet, num_nodes=1, config=cfg).plan()
    receiver = EMLIOReceiver(node_id=0, plan=plan, config=cfg, stall_timeout=0.3)
    with pytest.raises(RuntimeError, match="stalled"):
        for _ in receiver.epoch(0):
            pass
    receiver.close()


def test_service_surfaces_daemon_failure(small_imagenet):
    """Mid-epoch shard corruption propagates out of the service epoch."""
    from repro.core.service import EMLIOService

    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16))
    svc = EMLIOService(cfg, small_imagenet, stall_timeout=5.0)
    shard_path = small_imagenet.root / small_imagenet.indexes[0].path
    raw = bytearray(shard_path.read_bytes())
    raw[40] ^= 0xFF
    shard_path.write_bytes(bytes(raw))
    with pytest.raises(Exception):
        for _ in svc.epoch(0):
            pass
    svc.close()


@pytest.mark.parametrize("failover", [None, False], ids=["no-recovery", "failover-off"])
def test_service_raises_dead_daemon_error_over_the_stall(small_imagenet, failover):
    """With nobody to fail a dead daemon over, the epoch raises the daemon's
    own error — naming the corrupt shard — chained from the stall it left."""
    import re

    from repro.core.recovery import RecoveryConfig
    from repro.core.service import EMLIOService

    shard = small_imagenet.indexes[0].path
    shard_path = small_imagenet.root / shard
    raw = bytearray(shard_path.read_bytes())
    raw[40] ^= 0xFF  # inside the shard's first record: a planned range
    shard_path.write_bytes(bytes(raw))
    recovery = None if failover is None else RecoveryConfig(failover=failover)
    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16))
    with EMLIOService(cfg, small_imagenet, stall_timeout=2.0, recovery=recovery) as svc:
        with pytest.raises(TFRecordCorruption, match=re.escape(str(shard))) as err:
            for _ in svc.epoch(0):
                pass
    assert "stalled" in str(err.value.__cause__)
