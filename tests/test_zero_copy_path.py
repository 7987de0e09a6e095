"""End-to-end tests for the zero-copy hot path (paper §4.1).

The chain under test: ``encode_batch_parts`` (scatter-gather msgpack over
the sample bytes) → ``send_frame_parts`` (one ``sendmsg`` frame) →
``recv_frame_into`` (reused receive buffer) → ``decode_batch(...,
zero_copy=True)`` (samples as memoryviews over the buffer).  Includes the
tracemalloc check that steady-state per-batch allocations actually drop
versus the copying path — the tentpole claim, measured.
"""

import socket
import threading
import tracemalloc

from repro.net.framing import (
    recv_frame,
    recv_frame_into,
    send_frame,
    send_frame_parts,
)
from repro.serialize.payload import (
    BatchPayload,
    decode_batch,
    encode_batch,
    encode_batch_parts,
)


def _payload(nsamples: int = 8, sample_bytes: int = 4096) -> BatchPayload:
    return BatchPayload(
        epoch=0,
        batch_index=3,
        shard="shard_00000",
        samples=[bytes([i % 256]) * sample_bytes for i in range(nsamples)],
        labels=list(range(nsamples)),
        node_id=1,
        meta={"origin": "test"},
    )


def test_scatter_gather_roundtrip_over_socketpair():
    a, b = socket.socketpair()
    try:
        payload = _payload()
        parts = encode_batch_parts(payload)
        assert len(parts) > 1  # the 4 KiB samples spilled into own segments
        sender = threading.Thread(target=send_frame_parts, args=(a, parts))
        sender.start()
        buf = bytearray()
        view = recv_frame_into(b, buf)
        sender.join()
        # Wire bytes are identical to the copying encoder's.
        assert bytes(view) == encode_batch(payload)
        decoded = decode_batch(view, zero_copy=True)
        assert all(isinstance(s, memoryview) for s in decoded.samples)
        assert decoded.samples == payload.samples  # content equality
        assert list(decoded.labels) == payload.labels  # packed i64 vector under v3
        assert decoded.seq == payload.seq and decoded.shard == payload.shard
    finally:
        a.close()
        b.close()


def test_zero_copy_decode_release_reaches_the_lease():
    payload = _payload(nsamples=2, sample_bytes=600)
    data = b"".join(bytes(p) for p in encode_batch_parts(payload))
    calls = []
    decoded = decode_batch(data, zero_copy=True, release=lambda: calls.append(1))
    assert decoded.samples == payload.samples
    decoded.samples.release()
    decoded.samples.release()
    assert calls == [1]


def test_zero_copy_path_allocates_less_than_legacy():
    """Steady-state peak allocations per batch on the zero-copy path must be
    a fraction of the copying path's (which materializes the payload at the
    encoder, the frame receive, and the decoder)."""
    payload = _payload(nsamples=8, sample_bytes=4096)

    def legacy_round(a, b):
        send_frame(a, encode_batch(payload))
        decode_batch(recv_frame(b))

    recv_buf = bytearray(128 * 1024)

    def zero_copy_round(a, b):
        send_frame_parts(a, encode_batch_parts(payload))
        decode_batch(recv_frame_into(b, recv_buf), zero_copy=True)

    def peak_bytes(round_fn) -> int:
        a, b = socket.socketpair()
        try:
            for _ in range(3):  # warm up: grow buffers, prime caches
                round_fn(a, b)
            tracemalloc.start()
            for _ in range(5):
                round_fn(a, b)
            _current, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak
        finally:
            a.close()
            b.close()

    legacy_peak = peak_bytes(legacy_round)
    zero_copy_peak = peak_bytes(zero_copy_round)
    assert zero_copy_peak < legacy_peak / 2, (zero_copy_peak, legacy_peak)


def test_frames_above_the_pool_buffer_size_deliver_a_full_epoch(tmp_path):
    """Regression (bench defect a): 32 x 2 KiB token records make ~66 KiB
    frames — above ``BufferPool.initial_size`` — whose sizes differ by a
    few bytes (msgpack label widths), so pooled buffers keep having to grow
    while the previous batch's samples may still alias them.  On TCP with
    ``verify_reads="open"`` the reader thread used to die on the
    BufferError and the epoch stalled; it must deliver exactly once."""
    from collections import Counter

    from repro.api import EMLIO, ClusterSpec
    from repro.api.spec import NetworkSpec, PipelineSpec, ReceiverSpec, StorageSpec
    from repro.data.text import SyntheticTokenDataset
    from repro.tfrecord.sharder import write_shards

    tokens = SyntheticTokenDataset(2048, context_len=512, vocab_size=32_000, seed=3)
    dataset = write_shards(iter(tokens), tmp_path / "tokens", records_per_shard=256)
    spec = ClusterSpec(
        name="big-frames",
        pipeline=PipelineSpec(
            batch_size=32, epochs=1, hwm=16, streams_per_node=2, workers=1,
            seed=3, codec="tokens",
        ),
        storage=StorageSpec(verify_reads="open"),
        receivers=ReceiverSpec(stall_timeout_s=5.0),
        network=NetworkSpec(transport="tcp"),
    )
    delivered: Counter = Counter()
    with EMLIO.deploy(spec, dataset=dataset) as deployment:
        for _tensors, labels in deployment.epoch(0):
            delivered.update(labels.tolist())
        reader_errors = sum(r.pull.reader_errors for r in deployment.service.receivers)
    expected = Counter(y for shard in dataset.labels().values() for y in shard)
    assert delivered == expected
    assert reader_errors == 0
