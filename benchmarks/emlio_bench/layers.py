"""Per-layer measurement (the ``--trace 1`` pass).  Layer = ``src/repro/<module>``.

Source A, the *layer walk* (:func:`walk`): replay the head of the workload's
epoch-0 plan on one thread, calling each layer's public function on the same
batches the live daemon and receiver would, and record an in-memory span
(name, start, end, CPU, parent, batch key) around every call.  No
queues, no threads of ours, no link emulation: what a layer costs when
nothing contends with it.

Source B, *in situ* (:func:`in_situ`): the same spec deployed with the
existing knobs ``observability.trace_dir`` + ``trace_sample = 1.0`` and
``energy.enabled``, read back with ``repro.tools.trace`` and
``Deployment.status()``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.codec.sjpg import sjpg_decode_batch
from repro.core.planner import Planner
from repro.data.text import tokens_decode
from repro.gpu.ops import decode_tokens_batch, preprocess_batch
from repro.net.buffers import ColumnarSamples, release_samples
from repro.net.mq import PullSocket, PushSocket
from repro.net.shm import ShmPushSocket
from repro.serialize.payload import BatchPayload, decode_batch, encode_batch_parts
from repro.storage.backend import LocalFSBackend
from repro.storage.objectstore import ObjectStoreBackend
from repro.tfrecord.sharder import scan_example_spans
from repro.tools.trace import group_traces, quantile, read_spans, stage_summary, validate_chain

#: Batches of the epoch-0 plan the walk replays (the CRC pass alone costs
#: ~0.7 ms per 4 KiB record in pure Python).
WALK_BATCHES = 96


@dataclass
class Span:
    name: str
    t0: int
    t1: int
    cpu0: int
    cpu1: int
    parent: str
    key: tuple


class Recorder:
    """In-memory spans; nothing is written until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def call(self, name: str, key: tuple, fn, *args, **kwargs):
        # Process CPU, not thread CPU: a transport call's work happens on the
        # sockets' own threads, and during the walk nothing else is running.
        c0, t0 = time.process_time_ns(), time.perf_counter_ns()
        out = fn(*args, **kwargs)
        t1, c1 = time.perf_counter_ns(), time.process_time_ns()
        self.spans.append(Span(name, t0, t1, c0, c1, "batch", key))
        return out

    def batch(self, key: tuple, t0: int, c0: int) -> None:
        """Close the parent span of one replayed batch."""
        self.spans.append(
            Span("batch", t0, time.perf_counter_ns(), c0, time.process_time_ns(), "walk", key)
        )

    def us(self, name: str, per: int, cpu: bool = False) -> float:
        """Median span duration of ``name`` in µs, divided by ``per``."""
        vals = [
            ((s.cpu1 - s.cpu0) if cpu else (s.t1 - s.t0)) / 1e3
            for s in self.spans if s.name == name
        ]
        return statistics.median(vals) / per if vals else 0.0

    def total_s(self, name: str) -> float:
        return sum(s.t1 - s.t0 for s in self.spans if s.name == name) / 1e9


def _roundtrip(push, pull: PullSocket, parts):
    push.send_parts(parts)
    return pull.recv_frame(timeout=10.0)


def walk(w, ds, job: dict, epochs: int) -> tuple[dict, dict]:
    """Source A.  Returns (per-layer metrics, CPU µs per sample of each
    stage on this workload's serve path — the budget's terms)."""
    from workloads import BATCH_SIZE

    spec = w.spec(job["seed"], epochs, ds)
    cfg = replace(spec.pipeline.to_config(), verify_reads=spec.storage.verify_reads)
    t0 = time.perf_counter()
    plan = Planner(ds, num_nodes=1, config=cfg).plan()
    plan_s = time.perf_counter() - t0
    assignments = plan.for_epoch_node(0, 0)[:WALK_BATCHES]

    if spec.storage.backend == "objectstore":
        backend = ObjectStoreBackend(
            ds.root, request_latency_s=spec.storage.latency_ms / 1e3, verify=False
        )
    else:
        backend = LocalFSBackend(ds.root, verify=False)
    handles: dict = {}
    rec = Recorder()
    rng = np.random.default_rng(job["seed"])
    tokens = w.kind == "tokens"
    pull = PullSocket(hwm=16, pooled=True)
    tcp = PushSocket([pull.address], hwm=16, streams_per_endpoint=1)
    shm = ShmPushSocket(*pull.address, hwm=16)
    segments: list[int] = []
    overhead: list[int] = []
    crc_bytes = 0
    try:
        for a in assignments:
            key = (a.epoch, a.node_id, a.batch_index)
            batch_t0, batch_c0 = time.perf_counter_ns(), time.process_time_ns()
            handle = handles.get(a.shard_path)
            if handle is None:
                handle = handles[a.shard_path] = backend.open_shard(a.shard_path)
            region, _ = rec.call("storage.read", key, handle.read_region, a.offset, a.count, a.nbytes)
            offsets, labels = rec.call("tfrecord.scan", key, scan_example_spans, region, a.count, verify=False)
            rec.call("tfrecord.scan_crc", key, scan_example_spans, region, a.count, verify=True)
            crc_bytes += a.nbytes
            payload = BatchPayload(
                epoch=a.epoch, batch_index=a.batch_index, shard=a.shard,
                samples=ColumnarSamples(region, offsets), labels=labels, node_id=a.node_id,
            )
            parts = rec.call("serialize.encode", key, encode_batch_parts, payload, version=3)
            segments.append(len(parts))
            overhead.append(sum(len(p) for p in parts) - payload.nbytes)
            frame = rec.call("net.shm", key, _roundtrip, shm, pull, parts)
            frame.release()
            frame = rec.call("net.tcp", key, _roundtrip, tcp, pull, parts)
            got = rec.call("serialize.decode", key, decode_batch, frame.data, zero_copy=True, release=frame.release)
            if tokens:
                rec.call("codec.decode", key, lambda s: [tokens_decode(x) for x in s], got.samples)
                rec.call("gpu.preprocess", key, decode_tokens_batch, got.samples)
            else:
                rec.call("codec.decode", key, sjpg_decode_batch, list(got.samples))
                rec.call("gpu.preprocess", key, preprocess_batch, got.samples, spec.pipeline.output_hw, rng)
            release_samples(got.samples)
            rec.batch(key, batch_t0, batch_c0)
    finally:
        tcp.close(timeout=5.0)
        shm.close(timeout=5.0)
        pull.close()
        for handle in handles.values():
            handle.close()
        backend.close()

    b = BATCH_SIZE
    crc_total_s = rec.total_s("tfrecord.scan_crc") - rec.total_s("tfrecord.scan")
    metrics = {
        "core.plan_s": plan_s,
        "storage.read_us_per_sample": rec.us("storage.read", b),
        "tfrecord.scan_us_per_sample": rec.us("tfrecord.scan", b),
        "tfrecord.crc_us_per_sample": rec.us("tfrecord.scan_crc", b) - rec.us("tfrecord.scan", b),
        "tfrecord.crc_mb_per_s": crc_bytes / 1e6 / crc_total_s if crc_total_s > 0 else 0.0,
        "serialize.encode_us_per_sample": rec.us("serialize.encode", b),
        "serialize.decode_us_per_sample": rec.us("serialize.decode", b),
        "serialize.segments_per_batch": statistics.median(segments),
        "serialize.overhead_bytes_per_batch": statistics.median(overhead),
        "net.tcp_us_per_batch": rec.us("net.tcp", 1),
        "net.shm_us_per_batch": rec.us("net.shm", 1),
        "codec.decode_us_per_sample": rec.us("codec.decode", b),
        "gpu.preprocess_us_per_sample": rec.us("gpu.preprocess", b),
        "gpu.augment_us_per_sample": rec.us("gpu.preprocess", b) - rec.us("codec.decode", b),
    }
    # The budget sums CPU, not wall: it reconciles against process CPU
    # seconds, and the object store's emulated latency is sleep, not work.
    # CRC is on the serve path only under verify_reads=True ("open" pays it
    # once, in setup); the transport term is the workload's own.
    net = "net.shm" if spec.network.effective_transport == "shm" else "net.tcp"
    stage_cpu_us = {
        name: rec.us(name, b, cpu=True)
        for name in ("storage.read", "tfrecord.scan", "serialize.encode", net,
                     "serialize.decode", "gpu.preprocess")
    }
    if spec.storage.verify_reads is True:
        stage_cpu_us["tfrecord.crc"] = rec.us("tfrecord.scan_crc", b, cpu=True) - rec.us("tfrecord.scan", b, cpu=True)
    return metrics, stage_cpu_us


def in_situ(traced: dict) -> dict:
    """Source B: metrics from the traced deployment's spans and status."""
    status = traced["status"]
    epochs = len(traced["warm"]) + len(traced["recs"])
    batches = sum(r["batches"] for r in traced["warm"] + traced["recs"])
    samples = sum(r["samples"] for r in traced["warm"] + traced["recs"])
    tiers = status["storage"]["tiers"]
    tier = {k: sum(t[k] for t in tiers.values()) for k in
            ("reads", "bytes_read", "cache_hits", "cache_misses", "prefetched", "evictions")}
    lookups = tier["cache_hits"] + tier["cache_misses"]
    daemon = status["pipeline"]["daemons"][0]
    hits, misses = traced["pool"]

    traces = group_traces(read_spans(traced["info"]["trace_dir"]))
    stages = stage_summary(traces)
    send = stages.get("send", {"p50_ms": 0.0, "p95_ms": 0.0})
    transit: list[float] = []
    spans = incomplete = 0
    for recs in traces.values():
        spans += len(recs)
        incomplete += bool(validate_chain(recs))
        by = {r["span"]: r for r in recs}
        if "send" in by and "recv" in by:
            transit.append((by["recv"]["t0"] - by["send"]["t1"]) / 1e6)
    energy = traced["energy"] or {"cpu_j": 0.0, "dram_j": 0.0, "gpu_j": 0.0}
    ksamples = max(1, samples) / 1e3
    return {
        "storage.bytes_read_per_sample": tier["bytes_read"] / max(1, samples),
        "storage.reads_per_batch": tier["reads"] / max(1, batches),
        "storage.cache_hit_ratio": tier["cache_hits"] / lookups if lookups else 0.0,
        "storage.evictions_per_epoch": tier["evictions"] / epochs,
        "storage.prefetched_per_epoch": tier["prefetched"] / epochs,
        "net.send_wait_ms_p50": send["p50_ms"],
        "net.send_wait_ms_p95": send["p95_ms"],
        "net.transit_ms_p50": quantile(transit, 0.50) if transit else 0.0,
        "net.bytes_sent_per_sample": daemon["bytes_sent"] / max(1, daemon["samples_sent"]),
        "net.pool_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "gpu.preprocess_ms_p50_insitu": stages.get("preprocess", {"p50_ms": 0.0})["p50_ms"],
        "gpu.starved_ns_per_batch": status["pipeline"]["stages"]["starved_ns"],
        "obs.spans_per_batch": spans / max(1, len(traces)),
        "obs.spans_dropped": traced["spans_dropped"],
        # A batch whose chain never reached the file at all counts too.
        "obs.incomplete_chains": incomplete + max(0, batches - len(traces)),
        "energy.cpu_j_per_ksample": energy["cpu_j"] / ksamples,
        "energy.dram_j_per_ksample": energy["dram_j"] / ksamples,
        "energy.gpu_j_per_ksample": energy["gpu_j"] / ksamples,
    }
