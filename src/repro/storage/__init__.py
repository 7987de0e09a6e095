"""Storage substrate: tiered backends behind one daemon-facing protocol.

The paper's baselines read training data over an NFSv4 mount; every small
random read then pays a network round trip, which is the root cause of the
latency/energy blow-up in Figures 5–9.  EMLIO's daemons instead issue
contiguous range reads (paper §4.3) — this package provides both sides:

* :class:`~repro.storage.backend.StorageBackend` — the tier protocol the
  daemon serves through (``open_shard() → ShardHandle``, whose one read,
  ``read_region``, returns a planned range's raw bytes and whether the
  caller must CRC-check them).
* :class:`~repro.storage.backend.LocalFSBackend` — mmap fast path.
* :class:`~repro.storage.backend.NFSBackend` — range reads over the
  from-scratch remote-file protocol (:class:`StorageServer` serves a
  directory over a framed channel, one round trip per op;
  :class:`NFSMount` is the client).
* :class:`~repro.storage.objectstore.ObjectStoreBackend` — emulated
  range-GET store with configurable request latency.
* :class:`~repro.storage.cache.CachedBackend` — plan-informed hot-set
  cache (bounded bytes, plan-driven fetch window, next-planned-use eviction)
  in front of any tier.
* :class:`~repro.storage.localfs.LocalStorage` — instrumented local reads
  (the substrate under the server and the object store).
"""

from repro.storage.backend import (
    LocalFSBackend,
    NFSBackend,
    ShardHandle,
    StorageBackend,
)
from repro.storage.cache import CachedBackend, HotSetCache
from repro.storage.localfs import LocalStorage, StorageStats
from repro.storage.nfs import NFSMount
from repro.storage.objectstore import ObjectStoreBackend
from repro.storage.server import StorageServer

__all__ = [
    "CachedBackend",
    "HotSetCache",
    "LocalFSBackend",
    "LocalStorage",
    "NFSBackend",
    "NFSMount",
    "ObjectStoreBackend",
    "ShardHandle",
    "StorageBackend",
    "StorageServer",
    "StorageStats",
]
