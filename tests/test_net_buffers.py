"""Tests for receive-side buffer pooling and lease types (zero-copy path)."""

import numpy as np
import pytest

from repro.net.buffers import (
    BufferPool,
    ColumnarSamples,
    PooledFrame,
    release_samples,
)


def test_acquire_allocates_then_reuses():
    pool = BufferPool(max_buffers=4, initial_size=128)
    buf = pool.acquire()
    assert pool.misses == 1 and pool.hits == 0
    assert len(buf.data) == 128
    backing = buf.data
    buf.release()
    assert pool.free == 1
    again = pool.acquire()
    assert again.data is backing  # same buffer came back
    assert pool.hits == 1


def test_release_is_idempotent():
    pool = BufferPool()
    buf = pool.acquire()
    buf.release()
    buf.release()
    assert pool.free == 1  # not 2: double release must not duplicate the buffer
    assert buf.released


def test_free_list_is_capped():
    pool = BufferPool(max_buffers=2, initial_size=8)
    bufs = [pool.acquire() for _ in range(5)]
    for b in bufs:
        b.release()
    assert pool.free == 2  # the rest dropped for GC


def test_grown_buffer_keeps_capacity_across_reuse():
    """recv_frame_into grows the buffer in place; the pool must hand the
    high-water-capacity buffer back out, so steady state stops allocating."""
    pool = BufferPool(max_buffers=4, initial_size=8)
    buf = pool.acquire()
    buf.data += bytes(1000)
    buf.release()
    assert len(pool.acquire().data) == 1008


def test_acquire_never_blocks_on_empty_pool():
    pool = BufferPool(max_buffers=1, initial_size=16)
    a = pool.acquire()
    b = pool.acquire()  # pool empty: allocates instead of blocking
    assert a.data is not b.data
    assert pool.misses == 2


def test_pooled_frame_forwards_release_once():
    pool = BufferPool()
    buf = pool.acquire()
    frame = PooledFrame(memoryview(buf.data)[:4], buf)
    frame.release()
    frame.release()
    assert pool.free == 1


def test_pooled_frame_without_lease_is_noop():
    PooledFrame(b"plain bytes").release()  # must not raise


def test_columnar_samples_behaves_like_list():
    calls = []
    offsets = np.array([0, 1, 1, 2], dtype="<u4")
    samples = ColumnarSamples(b"ab", offsets, lambda: calls.append(1))
    assert samples == [b"a", b"b"]
    assert len(samples) == 2 and samples[1] == b"b" and samples[-1] == b"b"
    samples.release()
    samples.release()
    assert calls == [1]  # release exactly once


def test_release_samples_helper():
    calls = []
    release_samples(ColumnarSamples(b"", np.empty(0, dtype="<u4"), lambda: calls.append(1)))
    assert calls == [1]
    release_samples([b"plain", b"list"])  # no lease: no-op, no raise


def test_pool_validation():
    with pytest.raises(ValueError):
        BufferPool(max_buffers=0)
    with pytest.raises(ValueError):
        BufferPool(initial_size=-1)
