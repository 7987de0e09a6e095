"""End-to-end EMLIO tests: daemon → MQ → receiver → pipeline over loopback."""

import numpy as np
import pytest

from repro.core.config import EMLIOConfig
from repro.core.planner import Planner
from repro.core.service import EMLIOService
from repro.net.emulation import NetworkProfile
from repro.serialize.payload import BatchPayload


@pytest.fixture
def config():
    return EMLIOConfig(batch_size=4, epochs=1, hwm=8, output_hw=(16, 16), prefetch=2)


def collect_epoch(service, epoch=0):
    batches = []
    for tensors, labels in service.epoch(epoch):
        batches.append((tensors, labels))
    return batches


def test_single_epoch_delivers_all_samples(small_imagenet, config):
    with EMLIOService(config, small_imagenet) as svc:
        batches = collect_epoch(svc)
    total = sum(len(labels) for _t, labels in batches)
    assert total == small_imagenet.num_samples
    for tensors, labels in batches:
        assert tensors.shape[1:] == (3, 16, 16)
        assert tensors.dtype == np.float32
        assert labels.dtype == np.int64


def test_labels_match_dataset_multiset(small_imagenet, config):
    expected = sorted(
        label for labels in small_imagenet.labels().values() for label in labels
    )
    with EMLIOService(config, small_imagenet) as svc:
        got = sorted(
            int(l) for _t, labels in collect_epoch(svc) for l in labels
        )
    assert got == expected


def test_multiple_epochs(small_imagenet):
    cfg = EMLIOConfig(batch_size=4, epochs=2, output_hw=(16, 16))
    with EMLIOService(cfg, small_imagenet) as svc:
        n0 = sum(len(l) for _t, l in collect_epoch(svc, 0))
        n1 = sum(len(l) for _t, l in collect_epoch(svc, 1))
    assert n0 == n1 == small_imagenet.num_samples


def test_emulated_latency_epoch_still_completes(small_imagenet, config):
    profile = NetworkProfile("lan", rtt_s=0.01)
    with EMLIOService(config, small_imagenet, profile=profile) as svc:
        batches = collect_epoch(svc)
    assert sum(len(l) for _t, l in batches) == small_imagenet.num_samples


def test_daemon_concurrency_2(small_imagenet):
    cfg = EMLIOConfig(batch_size=4, daemon_threads=2, streams_per_node=2, output_hw=(16, 16))
    with EMLIOService(cfg, small_imagenet) as svc:
        batches = collect_epoch(svc)
    assert sum(len(l) for _t, l in batches) == small_imagenet.num_samples


def test_sharded_storage_two_daemons(small_imagenet, config):
    shards = [ix.shard for ix in small_imagenet.indexes]
    split = {
        str(small_imagenet.root): set(shards[: len(shards) // 2]),
        str(small_imagenet.root) + "/.": set(shards[len(shards) // 2 :]),
    }
    with EMLIOService(config, small_imagenet, storage_shards=split) as svc:
        assert len(svc.daemons) == 2
        batches = collect_epoch(svc)
    assert sum(len(l) for _t, l in batches) == small_imagenet.num_samples
    sent = [d.stats.snapshot()["batches_sent"] for d in svc.daemons]
    assert all(s > 0 for s in sent)


def test_sharded_storage_overlap_rejected(small_imagenet, config):
    shards = {ix.shard for ix in small_imagenet.indexes}
    with pytest.raises(ValueError, match="two daemons"):
        EMLIOService(
            config,
            small_imagenet,
            storage_shards={
                str(small_imagenet.root): shards,
                str(small_imagenet.root) + "/.": shards,
            },
        )


def test_sharded_storage_missing_shards_rejected(small_imagenet, config):
    shards = [ix.shard for ix in small_imagenet.indexes]
    with pytest.raises(ValueError, match="unserved"):
        EMLIOService(
            config,
            small_imagenet,
            storage_shards={str(small_imagenet.root): set(shards[:1])},
        )


def test_service_stats(small_imagenet, config):
    with EMLIOService(config, small_imagenet) as svc:
        collect_epoch(svc)
        stats = svc.stats()
    assert stats["batches_received"] == len(svc.plan.for_epoch_node(0, 0))
    d = stats["daemons"][0]
    assert d["samples_sent"] == small_imagenet.num_samples
    assert d["bytes_sent"] > 0
    assert stats["gpu"]["kernels_run"] > 0


def test_raw_dataset_end_to_end(small_synthetic):
    cfg = EMLIOConfig(batch_size=4, output_hw=(8, 8))
    with EMLIOService(cfg, small_synthetic) as svc:
        batches = collect_epoch(svc)
    assert sum(len(l) for _t, l in batches) == small_synthetic.num_samples


@pytest.mark.parametrize("transport", ["tcp", "shm"])
def test_no_receiver_thread_between_socket_and_pipeline(small_imagenet, config, transport):
    """Mid-epoch on a warm deployment, the batch provider decodes on the
    pipeline's worker: no deserializer thread runs beside it."""
    import dataclasses
    import threading

    cfg = dataclasses.replace(config, epochs=2, transport=transport)
    with EMLIOService(cfg, small_imagenet) as svc:
        collect_epoch(svc, 0)  # warm: streams connected, kernels run
        names = []
        for _batch in svc.epoch(1):
            names = names or [t.name for t in threading.enumerate()]
        assert (svc.receiver.pull.shm_attaches > 0) == (transport == "shm")
    assert [n for n in names if n.startswith("dali-worker")]
    assert not [n for n in names if n.startswith("zmq-receiver")]


def test_standalone_receiver_starts_only_its_sockets_threads(small_imagenet, config):
    import threading

    from repro.core.receiver import EMLIOReceiver
    from repro.net.mq import PullSocket

    def started(make):
        before = set(threading.enumerate())
        sock = make()
        return sock, sorted(t.name for t in set(threading.enumerate()) - before)

    pull, socket_threads = started(lambda: PullSocket(hwm=config.hwm, pooled=True))
    pull.close()
    plan = Planner(small_imagenet, num_nodes=1, config=config).plan()
    receiver, receiver_threads = started(
        lambda: EMLIOReceiver(node_id=0, plan=plan, config=config)
    )
    receiver.close()
    assert socket_threads and receiver_threads == socket_threads


def _assert_frame_fails_the_pass(small_imagenet, config, wire: bytes, match: str) -> None:
    """Push ``wire`` to a fresh receiver: the running pass fails on it with
    ``match`` well inside the stall timeout, and the frame's pooled receive
    buffer comes back — no consumer will ever release that lease."""
    import time

    from repro.core.receiver import EMLIOReceiver
    from repro.net.mq import PushSocket

    plan = Planner(small_imagenet, num_nodes=1, config=config).plan()
    receiver = EMLIOReceiver(node_id=0, plan=plan, config=config, stall_timeout=30.0)
    pool = receiver.pull.pool
    push = PushSocket([receiver.address], hwm=4)
    try:
        push.send(wire)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match=match):
            for _ in receiver.epoch(0):
                pass
        assert time.monotonic() - t0 < 10.0
        push.close()
        # Once the stream's read loop drops its in-flight acquire, every
        # buffer ever allocated is back on the free list.
        deadline = time.monotonic() + 5
        while pool.free != pool.misses and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.free == pool.misses
    finally:
        push.close()
        receiver.close()


def test_receiver_rejects_foreign_batch(small_imagenet, config):
    """A payload addressed to another node must crash loudly, not train."""
    from repro.serialize.payload import encode_batch

    rogue = BatchPayload(
        epoch=0, batch_index=0, shard="shard_00000", samples=[b"x"], labels=[1], node_id=7
    )
    _assert_frame_fails_the_pass(
        small_imagenet, config, encode_batch(rogue), "planned for node 7"
    )


def test_receiver_releases_frame_that_fails_to_decode(small_imagenet, config):
    """A frame that fails to decode fails the epoch and still returns its
    pooled receive buffer."""
    from repro.serialize.msgpack import packb

    retired = packb({"v": 2, "samples": [b"x"], "labels": [1]})  # retired schema
    _assert_frame_fails_the_pass(small_imagenet, config, retired, "failed to decode.*version 2")


def test_receiver_warm_up_failure_is_logged_and_counted(small_imagenet, config, monkeypatch, caplog):
    """Warm-up stays best-effort — the receiver still starts — but a
    preprocess kernel that cannot run its synthetic batch is reported
    once, with its traceback, and counted in the registry."""
    import logging

    import repro.gpu.ops
    from repro.core.receiver import EMLIOReceiver
    from repro.obs import Telemetry

    def broken(samples, out_hw, rng):
        raise RuntimeError("kernel broke")

    monkeypatch.setattr(repro.gpu.ops, "preprocess_batch", broken)
    telemetry = Telemetry()
    plan = Planner(small_imagenet, num_nodes=1, config=config).plan()
    with caplog.at_level(logging.ERROR, logger="repro.core.receiver"):
        receiver = EMLIOReceiver(node_id=0, plan=plan, config=config, telemetry=telemetry)
    try:
        assert [r.getMessage() for r in caplog.records] == ["receiver 0: preprocess warm-up failed"]
        assert "kernel broke" in caplog.text
        assert telemetry.registry.counter("emlio_receiver_warm_errors_total").value == 1
    finally:
        receiver.close()


def test_timeline_logging(small_imagenet, config):
    with EMLIOService(config, small_imagenet) as svc:
        collect_epoch(svc)
        recv_events = svc.receiver.logger.events("batch_recv")
        daemon_events = svc.daemons[0].logger.events("batch_send")
    assert len(recv_events) == len(daemon_events) == len(svc.plan.assignments)
    span = svc.receiver.logger.span("epoch_start", "epoch_end")
    assert span > 0
