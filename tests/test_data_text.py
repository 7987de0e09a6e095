"""Tests for the text/LLM record format and generator (paper §6 extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.text import SyntheticTokenDataset, tokens_decode, tokens_encode
from repro.gpu.ops import decode_sample, decode_tokens_batch


def test_tokens_roundtrip():
    tokens = np.array([1, 2, 3, 65535, 2**31], dtype=np.uint32)
    assert np.array_equal(tokens_decode(tokens_encode(tokens)), tokens)


def test_tokens_reject_2d():
    with pytest.raises(ValueError):
        tokens_encode(np.zeros((2, 2), dtype=np.uint32))


def test_tokens_bad_magic():
    data = bytearray(tokens_encode(np.arange(4, dtype=np.uint32)))
    data[0] = ord("X")
    with pytest.raises(ValueError, match="magic"):
        tokens_decode(bytes(data))


def test_tokens_truncation_detected():
    data = tokens_encode(np.arange(10, dtype=np.uint32))
    with pytest.raises(ValueError, match="length mismatch"):
        tokens_decode(data[:-4])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=256))
def test_tokens_property_roundtrip(ids):
    arr = np.array(ids, dtype=np.uint32)
    assert np.array_equal(tokens_decode(tokens_encode(arr)), arr)


def test_generator_shapes_and_bounds():
    gen = SyntheticTokenDataset(5, context_len=128, vocab_size=1000, seed=1)
    items = list(gen)
    assert len(items) == 5
    for record, target in items:
        tokens = tokens_decode(record)
        assert tokens.shape == (128,)
        assert tokens.max() < 1000
        assert 0 <= target < 1000
        assert len(record) == gen.sample_bytes


def test_generator_zipf_head_heavy():
    """Zipf tokens: the most common id should dominate."""
    gen = SyntheticTokenDataset(4, context_len=4096, vocab_size=32000, seed=0)
    record, _ = next(iter(gen))
    tokens = tokens_decode(record)
    counts = np.bincount(tokens)
    # Zipf(a=1.2): rank-1 frequency = 1/zeta(1.2) ~ 18 %, far above uniform.
    assert counts[0] == counts.max()
    assert counts[0] > len(tokens) * 0.1


def test_generator_deterministic():
    a = list(SyntheticTokenDataset(3, context_len=32, seed=9))
    b = list(SyntheticTokenDataset(3, context_len=32, seed=9))
    assert a == b


def test_generator_validation():
    with pytest.raises(ValueError):
        SyntheticTokenDataset(0)
    with pytest.raises(ValueError):
        SyntheticTokenDataset(1, context_len=1)
    with pytest.raises(ValueError):
        SyntheticTokenDataset(1, vocab_size=1)
    with pytest.raises(ValueError):
        SyntheticTokenDataset(1, zipf_a=1.0)


def test_decode_tokens_batch():
    gen = SyntheticTokenDataset(4, context_len=64, seed=2)
    samples = [record for record, _t in gen]
    batch = decode_tokens_batch(samples)
    assert batch.shape == (4, 64)
    assert batch.dtype == np.int64
    # The one-pass decode is the per-record decode stacked and widened.
    want = np.stack([tokens_decode(s) for s in samples]).astype(np.int64)
    assert np.array_equal(batch, want) and batch.flags.c_contiguous


def test_decode_tokens_batch_checks_every_record():
    good = tokens_encode(np.arange(8, dtype=np.uint32))
    bad_magic = b"TOKX" + good[4:]
    for bad, match in ((bad_magic, "magic"), (good[:-4], "length"), (good[:5], "short")):
        with pytest.raises(ValueError, match=match):
            decode_tokens_batch([good, bad])
    assert decode_tokens_batch([]).shape == (0, 0)


def test_decode_tokens_batch_mixed_lengths_rejected():
    a = tokens_encode(np.arange(8, dtype=np.uint32))
    b = tokens_encode(np.arange(16, dtype=np.uint32))
    with pytest.raises(ValueError, match="mixed context lengths"):
        decode_tokens_batch([a, b])


def test_decode_sample_dispatches_tok0():
    record = tokens_encode(np.arange(32, dtype=np.uint32))
    img = decode_sample(record)
    assert img.shape == (1, 32, 1)


def test_text_dataset_through_emlio(tmp_path):
    """End-to-end: token records shard, stream, and decode through EMLIO."""
    from repro.core.config import EMLIOConfig
    from repro.core.planner import Planner
    from repro.core.receiver import EMLIOReceiver
    from repro.core.daemon import EMLIODaemon
    from repro.serialize.payload import decode_batch
    from repro.tfrecord.sharder import write_shards

    gen = SyntheticTokenDataset(16, context_len=64, seed=3)
    ds = write_shards(iter(gen), tmp_path, records_per_shard=8)
    cfg = EMLIOConfig(batch_size=4)
    plan = Planner(ds, num_nodes=1, config=cfg).plan()

    import queue as queue_mod
    import threading

    from repro.net.mq import PullSocket

    pull = PullSocket(hwm=16)
    daemon = EMLIODaemon(ds.root, plan, {0: ("127.0.0.1", pull.port)}, cfg)
    t = threading.Thread(target=daemon.serve_epoch, args=(0,), daemon=True)
    t.start()
    seen = 0
    contexts = []
    while seen < len(plan.assignments):
        payload = decode_batch(pull.recv(timeout=10))
        contexts.append(decode_tokens_batch(payload.samples))
        seen += 1
    t.join(timeout=10)
    pull.close()
    daemon.close()
    total = sum(c.shape[0] for c in contexts)
    assert total == 16
    assert all(c.shape[1] == 64 for c in contexts)
