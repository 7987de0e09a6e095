"""Tiered storage bench: cold object-store reads vs the plan-fed cache.

Measures the tentpole claim of the storage subsystem: a daemon whose
hot-set cache was prefetched from the epoch plan serves planned ranges at
memory speed, while the cold path pays the emulated range-GET latency on
every batch.  Both sides read the *same* planned ranges through the same
:class:`~repro.storage.backend.StorageBackend` protocol:

* ``cold_remote`` — a fresh :class:`ObjectStoreBackend` (8 ms per request),
  one range-GET per planned batch, CRC-verified parse.
* ``warm_cache`` — a :class:`CachedBackend` over an identical backend,
  after ``schedule_prefetch(plan)`` has drained; every read is a cache hit
  (re-verified per read, so the CRC cost stays in the measurement).
* ``cold_window`` — the same cache, *empty*: the clock starts at
  ``schedule_prefetch(plan)`` and the reads chase the fetch window, so
  every byte still crosses the store inside the measurement — only
  overlapped, several range-GETs at a time, ahead of the reader.

Smoke mode (``python benchmarks/bench_storage_tiers.py``) emits
``BENCH_storage_tiers.json`` (the ``components`` envelope) into
``$BENCH_JSON_DIR`` and exits nonzero when warm-over-cold or
window-over-cold falls below the gate — the same 3x bounds CI enforces
with ``repro.tools.benchcheck --baseline-metric``.
"""

import json
import os
import tempfile
import time
from pathlib import Path

try:
    from conftest import run_once, show
except ImportError:  # script (smoke) mode — pytest helpers unused
    run_once = show = None

from repro.core.config import EMLIOConfig
from repro.core.planner import Planner
from repro.storage.cache import CachedBackend
from repro.storage.objectstore import ObjectStoreBackend

#: Emulated per-request latency — LAN-ish object store, far above loopback.
_LATENCY_S = 0.008
#: The gate: plan-driven prefetch must beat cold remote reads by this much.
_MIN_WARM_OVER_COLD = 3.0
#: Same bound for a cold cache whose fetch window runs ahead of the reads.
_MIN_WINDOW_OVER_COLD = 3.0
_CACHE_BYTES = 8 * 1024 * 1024


def _plan_ranges(dataset) -> tuple[list[tuple[str, int, int, int]], int]:
    """One epoch's planned ranges ``(shard_path, offset, nbytes, count)``."""
    cfg = EMLIOConfig(batch_size=8, epochs=1)
    plan = Planner(dataset, num_nodes=1, config=cfg).plan()
    ranges = [
        (a.shard_path, a.offset, a.nbytes, a.count) for a in plan.assignments
    ]
    return ranges, sum(a.count for a in plan.assignments)


def _read_all(backend, ranges) -> None:
    handles = {}
    try:
        for shard_path, offset, nbytes, count in ranges:
            handle = handles.get(shard_path)
            if handle is None:
                handle = handles[shard_path] = backend.open_shard(shard_path)
            views = handle.read_range_views(offset, count, nbytes=nbytes)
            if len(views) != count:
                raise RuntimeError(f"short read: {len(views)} != {count}")
    finally:
        for handle in handles.values():
            handle.close()


def _cold_pass(root, ranges) -> float:
    backend = ObjectStoreBackend(root, request_latency_s=_LATENCY_S)
    try:
        t0 = time.perf_counter()
        _read_all(backend, ranges)
        return time.perf_counter() - t0
    finally:
        backend.close()


def _warm_pass(root, ranges) -> float:
    backend = CachedBackend(
        ObjectStoreBackend(root, request_latency_s=_LATENCY_S), _CACHE_BYTES
    )
    try:
        backend.schedule_prefetch(ranges)
        if not backend.wait_prefetch(timeout=60.0):
            raise RuntimeError("prefetch did not drain")
        if backend.prefetch_errors:
            raise RuntimeError(f"prefetch failed: {backend.prefetch_errors[:3]}")
        t0 = time.perf_counter()
        _read_all(backend, ranges)
        elapsed = time.perf_counter() - t0
        snap = backend.cache.stats.snapshot()
        if snap["misses"]:
            raise RuntimeError(f"warm pass missed the cache: {snap}")
        return elapsed
    finally:
        backend.close()


def _window_pass(root, ranges) -> float:
    inner = ObjectStoreBackend(root, request_latency_s=_LATENCY_S)
    backend = CachedBackend(inner, _CACHE_BYTES)
    try:
        t0 = time.perf_counter()
        backend.schedule_prefetch(ranges)
        _read_all(backend, ranges)
        elapsed = time.perf_counter() - t0
        if backend.prefetch_errors:
            raise RuntimeError(f"prefetch failed: {backend.prefetch_errors[:3]}")
        if inner.requests != len(ranges):
            raise RuntimeError(f"{inner.requests} range-GETs for {len(ranges)} blocks")
        return elapsed
    finally:
        backend.close()


def _run(dataset) -> dict:
    ranges, samples = _plan_ranges(dataset)
    root = str(dataset.root)
    cold_s = _cold_pass(root, ranges)
    warm_s = _warm_pass(root, ranges)
    window_s = _window_pass(root, ranges)
    return {
        "bench": "storage_tiers",
        "samples": samples,
        "planned_ranges": len(ranges),
        "request_latency_ms": _LATENCY_S * 1e3,
        "cache_bytes": _CACHE_BYTES,
        "components": {
            "cold_remote": {"wall_s": cold_s, "samples_per_s": samples / cold_s},
            "warm_cache": {"wall_s": warm_s, "samples_per_s": samples / warm_s},
            "cold_window": {"wall_s": window_s, "samples_per_s": samples / window_s},
        },
        "warm_over_cold_x": cold_s / warm_s,
        "window_over_cold_x": cold_s / window_s,
    }


def test_bench_storage_tiers(benchmark, small_imagenet_ds):
    payload = run_once(benchmark, lambda: _run(small_imagenet_ds))
    show(
        "storage tiers: cold object store vs plan-warmed cache",
        [
            {"path": name, **{k: round(v, 2) for k, v in body.items()}}
            for name, body in payload["components"].items()
        ],
    )
    assert payload["warm_over_cold_x"] >= _MIN_WARM_OVER_COLD
    assert payload["window_over_cold_x"] >= _MIN_WINDOW_OVER_COLD


def main() -> int:
    from repro.data.datasets import build_dataset

    with tempfile.TemporaryDirectory(prefix="bench-storage-tiers-") as tmp:
        dataset = build_dataset(
            "imagenet", 256, Path(tmp) / "ds", seed=1,
            records_per_shard=16, image_hw=(32, 32),
        )
        payload = _run(dataset)
    out = Path(os.environ.get("BENCH_JSON_DIR", ".")) / "BENCH_storage_tiers.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    for name, body in payload["components"].items():
        print(f"{name:12s} " + "  ".join(f"{k}={v:.4g}" for k, v in body.items()))
    ok = True
    for key, gate in (
        ("warm_over_cold_x", _MIN_WARM_OVER_COLD),
        ("window_over_cold_x", _MIN_WINDOW_OVER_COLD),
    ):
        passed = payload[key] >= gate
        ok = ok and passed
        print(f"{key}={payload[key]:.2f} (gate {gate:.1f}) {'OK' if passed else 'FAIL'}")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
