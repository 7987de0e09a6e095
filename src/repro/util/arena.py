"""Scratch arenas: named numpy buffers kept from one call to the next.

A batch kernel that allocates its temporaries afresh on every call pays for
them twice: in the allocator, and — for arrays near glibc's mmap and trim
thresholds — in page faults whenever the heap is trimmed and regrown
between calls.  An :class:`Arena` keeps each named buffer alive and hands
out views of it, growing a buffer only when a call needs more than it
holds, so a kernel's steady state allocates nothing but its result.

Arenas are pooled, never shared: :func:`scratch_arena` pops an idle one (or
makes one) and puts it back afterwards.  ``list.pop`` / ``append`` are
atomic, so concurrent callers — the pipeline's preprocess workers — each get
their own, and the pool grows to the concurrency actually reached.  Each
arena keeps the working set of the largest call it has served.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np


class Arena:
    """Named scratch buffers; contents are undefined between :meth:`get` calls."""

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, type], np.ndarray] = {}

    def get(self, name: str, n: int, dtype: type) -> np.ndarray:
        """A 1-D view of ``n`` elements of buffer ``name``."""
        key = (name, dtype)
        buf = self._buffers.get(key)
        if buf is None or buf.size < n:
            # Headroom: a batch's byte and token counts vary call to call.
            buf = self._buffers[key] = np.empty(n + n // 4, dtype)
        return buf[:n]


_IDLE: list[Arena] = []


@contextmanager
def scratch_arena() -> Iterator[Arena]:
    """An arena for this caller alone, returned to the pool on exit."""
    try:
        arena = _IDLE.pop()
    except IndexError:
        arena = Arena()
    try:
        yield arena
    finally:
        _IDLE.append(arena)
