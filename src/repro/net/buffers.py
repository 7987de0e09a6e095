"""Receive-side buffer pooling for the zero-copy hot path.

The daemon→receiver byte path hands ownership of one reusable receive
buffer down the stack instead of materializing ``bytes`` at every layer:

1. :meth:`~repro.net.mq.PullSocket` (in pooled mode) acquires a
   :class:`PooledBuffer`, fills it with :func:`~repro.net.framing.
   recv_frame_into`, and surfaces the frame as a :class:`PooledFrame`;
2. the receiver decodes the payload *in place* (``unpackb(...,
   zero_copy=True)``) so sample fields are memoryviews over the pooled
   buffer;
3. the consumer — normally the preprocessing pipeline — calls
   ``release()`` once the views are dead, returning the buffer for reuse
   and, on TCP, the frame's flow-control credit to the sender.

Ownership rules (see README "Zero-copy hot path"):

* whoever holds a view derived from a pooled buffer is responsible for
  (transitively) releasing it exactly once, *after* the last view use;
* release is idempotent — double release is a no-op, not corruption;
* the pool never blocks: an empty pool allocates, an over-full pool drops
  the returned buffer for the GC.  A leaked lease therefore costs reuse
  (an allocation next time), never correctness.
"""

from __future__ import annotations

import threading
from typing import Callable

__all__ = [
    "BufferPool",
    "ColumnarSamples",
    "PooledBuffer",
    "PooledFrame",
    "release_samples",
]


class PooledBuffer:
    """One reusable receive buffer (a growable ``bytearray`` + lease).

    ``arrived_ns`` is the ``perf_counter_ns`` stamp of the frame landing in
    the buffer, and ``on_release`` is called with the buffer once, right
    after it returns to the pool — the PULL socket grants the frame's flow
    control credit there, carrying how long the frame was held.
    """

    __slots__ = ("data", "arrived_ns", "on_release", "_pool", "_released")

    def __init__(self, data: bytearray, pool: "BufferPool | None") -> None:
        self.data = data
        self.arrived_ns = 0
        self.on_release: Callable[["PooledBuffer"], None] | None = None
        self._pool = pool
        self._released = False

    def release(self) -> None:
        """Return the buffer to its pool (idempotent)."""
        if self._released:
            return
        self._released = True
        if self._pool is not None:
            self._pool._put(self.data)
        if self.on_release is not None:
            self.on_release(self)

    @property
    def released(self) -> bool:
        """Whether the lease was already returned."""
        return self._released


class PooledFrame:
    """One received message plus the lease on the buffer it aliases.

    ``data`` is the payload — a ``memoryview`` over a pooled buffer when
    the socket runs in pooled mode, plain ``bytes`` otherwise (``release``
    is then a no-op).  Decode first, release after the last view use.
    """

    __slots__ = ("data", "_buf")

    def __init__(self, data, buf: "PooledBuffer | None" = None) -> None:
        self.data = data
        self._buf = buf

    def release(self) -> None:
        """Return the underlying receive buffer to its pool (idempotent)."""
        buf, self._buf = self._buf, None
        if buf is not None:
            buf.release()


class BufferPool:
    """Non-blocking free list of receive buffers.

    ``acquire`` pops a free buffer or allocates a fresh one (never blocks,
    never fails); buffers grow on demand inside ``recv_frame_into`` and
    keep their capacity across reuses, so steady state converges to zero
    allocations once the largest frame size has been seen.
    """

    def __init__(self, max_buffers: int = 64, initial_size: int = 64 * 1024) -> None:
        if max_buffers < 1:
            raise ValueError(f"max_buffers must be >= 1, got {max_buffers}")
        if initial_size < 0:
            raise ValueError(f"initial_size must be >= 0, got {initial_size}")
        self.max_buffers = max_buffers
        self.initial_size = initial_size
        self._free: list[bytearray] = []
        self._lock = threading.Lock()
        self.hits = 0  # acquires served from the free list
        self.misses = 0  # acquires that had to allocate

    def acquire(self) -> PooledBuffer:
        """Lease a buffer (pool hit) or allocate one (pool miss)."""
        with self._lock:
            if self._free:
                self.hits += 1
                return PooledBuffer(self._free.pop(), self)
            self.misses += 1
        return PooledBuffer(bytearray(self.initial_size), self)

    def _put(self, data: bytearray) -> None:
        with self._lock:
            if len(self._free) < self.max_buffers:
                self._free.append(data)
            # else: drop for GC — the pool is a cache, not an obligation

    @property
    def free(self) -> int:
        """Buffers currently available for reuse."""
        with self._lock:
            return len(self._free)


class ColumnarSamples:
    """A batch's samples as one blob plus per-sample (start, end) offsets.

    The columnar payload layout (schema v3, see
    :mod:`repro.serialize.payload`): ``blob`` is a single contiguous
    byte buffer — on the daemon side the framed mmap region itself, on the
    receive side the in-place payload bin — and ``offsets`` is a flat
    ``2B``-long vector of u32 ``(start, end)`` pairs addressing each
    sample's bytes inside it.  Sample views materialize lazily on access
    by offset slicing, so decoding a batch does zero per-record work.

    Carries the receive-buffer lease: the final consumer calls
    ``release()`` once the views are dead.
    """

    __slots__ = ("blob", "offsets", "_release")

    def __init__(self, blob, offsets, release: Callable[[], None] | None = None) -> None:
        self.blob = blob
        self.offsets = offsets
        self._release = release

    def __len__(self) -> int:
        return len(self.offsets) // 2

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(n))]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"sample index {i} out of range for batch of {n}")
        return self.blob[self.offsets[2 * i] : self.offsets[2 * i + 1]]

    def __iter__(self):
        blob, offsets = self.blob, self.offsets
        for i in range(0, len(offsets), 2):
            yield blob[offsets[i] : offsets[i + 1]]

    @property
    def nbytes(self) -> int:
        """Total sample bytes (excluding any inter-sample framing)."""
        offsets = self.offsets
        return int(sum(offsets[i + 1] - offsets[i] for i in range(0, len(offsets), 2)))

    def __eq__(self, other):
        """Sequence equality by sample bytes — a columnar batch equals the
        row-layout list holding the same samples."""
        try:
            if len(self) != len(other):
                return False
            pairs = zip(self, other)
        except TypeError:
            return NotImplemented
        return all(bytes(a) == bytes(b) for a, b in pairs)

    __hash__ = None

    def release(self) -> None:
        """Release the underlying receive buffer (idempotent)."""
        release, self._release = self._release, None
        if release is not None:
            release()


def release_samples(samples) -> None:
    """Release ``samples``' buffer lease if it carries one (else no-op)."""
    release = getattr(samples, "release", None)
    if release is not None:
        release()
