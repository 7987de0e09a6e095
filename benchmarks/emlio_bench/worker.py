"""One workload's measurement process (started by run.py, one per run).

A closed loop with one consumer thread: the "trainer" pulls the next batch
when the previous one arrives.  The process holds nothing but the system
under test — the dataset was generated and the reference values computed
by the parent — so ``ru_maxrss`` and process CPU time are the system's.

Two passes, selected by the job file:

``measure``  tracing and energy monitoring off.  One deployment: set up
             (deploy + warm-up epochs, timed as ``setup_s``), measured until
             ``seconds`` have passed, optionally one untimed epoch whose
             tensors are digested for the output check, closed.  The parent
             runs this several times per run, a fresh process each, and
             merges the epochs.
``trace``    the layer walk (layers.py, source A), a short untraced pass,
             and an in-situ pass with 100 % tracing and the energy monitor
             on (source B); yields every per-layer metric.

The result goes to the job's ``out`` file as JSON.  Every deployment is
closed in ``finally`` and the multiprocessing resource tracker (spawned
by ``net/shm.py``'s ``SharedMemory(create=True)``) is stopped before exit,
so the parent finds no descendant alive.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import numpy as np  # noqa: E402

from repro.api import EMLIO  # noqa: E402
from repro.tfrecord.sharder import ShardedDataset  # noqa: E402

import layers  # noqa: E402
from workloads import BATCH_SIZE, WORKLOADS, combine_digests, labels_digest, rows_digest  # noqa: E402


def run_epoch(dep, epoch: int, planned: int, digest: bool = False, ledger: str | None = None) -> dict:
    """Consume one epoch; time every batch arrival.  Never raises: a stall
    or a mid-epoch error is recorded and counted as failed operations.

    With ``ledger`` the file's growth up to the last batch is recorded (the
    epoch's per-batch lines, before the service compacts them away)."""
    stamps: list[float] = []
    labels: list[np.ndarray] = []
    parts: list[int] = []
    error = None
    ledger0 = os.path.getsize(ledger) if ledger else 0
    ledger_bytes = 0
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        for tensors, batch_labels in dep.epoch(epoch):
            stamps.append(time.perf_counter())
            labels.append(batch_labels)
            if digest:
                parts.append(rows_digest(tensors))
            if ledger and len(stamps) == planned:
                ledger_bytes = os.path.getsize(ledger) - ledger0
    except Exception as err:  # noqa: BLE001 - a failed epoch is a result, not a crash
        error = repr(err)
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    flat = np.concatenate(labels) if labels else np.empty(0, dtype=np.int64)
    return {
        "epoch": epoch,
        "planned": planned,
        "batches": len(stamps),
        "samples": int(flat.size),
        "labels": labels_digest(flat),
        "tensors": combine_digests(parts) if digest else None,
        "error": error,
        "ledger_bytes": ledger_bytes,
        "t0": t0,
        "t1": t1,
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "stamps": stamps,
    }


def epoch_ok(rec: dict, ref: dict) -> bool:
    return (
        rec["error"] is None
        and rec["batches"] == rec["planned"]
        and rec["samples"] == ref["samples"]
        and rec["labels"] == ref["labels"]
    )


def failed_ops(rec: dict, ref: dict) -> int:
    """Operations (= planned batches) an epoch failed: the undelivered ones,
    or all of them when the delivered multiset is not the dataset's."""
    if epoch_ok(rec, ref):
        return 0
    if rec["error"] is None and rec["batches"] == rec["planned"]:
        return rec["planned"]
    return max(1, rec["planned"] - rec["batches"])


def measure_window(dep, first_epoch: int, max_epochs: int, seconds: float, planned: int,
                   ref: dict, ledger: str | None = None) -> list[dict]:
    """Measured epochs, each with a fresh index, until the clock runs out.
    A failed epoch ends the window (the deployment may be wedged)."""
    recs: list[dict] = []
    start = time.perf_counter()
    for i in range(max_epochs):
        recs.append(run_epoch(dep, first_epoch + i, planned, ledger=ledger))
        if not epoch_ok(recs[-1], ref) or time.perf_counter() - start >= seconds:
            break
    return recs


#: Share of the measured epochs, the fastest ones, that the timed metrics are
#: computed over.  The sizing host's vCPU runs at two speeds (a spin loop
#: takes 1.0x or 1.33x, in phases of seconds to minutes, whatever runs in the
#: guest), so an epoch is either clean or slowed by the host; which of the two
#: the *median* epoch is flips from run to run.  The fastest quarter is clean
#: unless more than three quarters of a run were slowed.
CLEAN_FRACTION = 0.25


def clean_epochs(recs: list[dict]) -> list[dict]:
    """The fastest quarter (at least one) of the completed epochs."""
    done = [r for r in recs if r["error"] is None and r["batches"] == r["planned"]] or recs
    keep = max(1, math.ceil(len(done) * CLEAN_FRACTION))
    return sorted(done, key=lambda r: r["wall_s"])[:keep]


def timed_metrics(recs: list[dict]) -> dict:
    """The timed end-to-end metrics of a set of measured epochs (one
    deployment's, or a run's three deployments pooled): throughput, batch
    gaps and CPU seconds, all over the same clean epochs."""
    clean = clean_epochs(recs)
    gaps = np.concatenate([np.diff(r["stamps"]) for r in clean if len(r["stamps"]) > 1] or [np.zeros(1)])
    samples = max(1, sum(r["samples"] for r in clean))
    return {
        "epochs": len(recs),
        "clean_epochs": len(clean),
        "gaps": int(gaps.size),
        "epoch_walls_s": [r["wall_s"] for r in recs],
        "samples_per_s": samples / sum(r["wall_s"] for r in clean),
        "batch_wait_ms_p50": float(np.percentile(gaps, 50)) * 1e3,
        "batch_wait_ms_p95": float(np.percentile(gaps, 95)) * 1e3,
        "gap_ms_quantiles": {q: float(np.percentile(gaps, q)) * 1e3 for q in (50, 90, 95, 99, 100)},
        "cpu_s_per_ksample": sum(r["cpu_s"] for r in clean) / samples * 1e3,
    }


def sequence_metrics(recs: list[dict]) -> dict:
    """What only consecutive epochs of one deployment have (traced pass)."""
    walls = [r["wall_s"] for r in recs]
    first = [r["stamps"][0] - r["t0"] for r in recs if r["stamps"]]
    turn = [b["stamps"][0] - a["stamps"][-1] for a, b in zip(recs, recs[1:]) if a["stamps"] and b["stamps"]]
    third = max(1, len(walls) // 3)
    return {
        "first_batch_ms": statistics.median(first) * 1e3 if first else 0.0,
        "epoch_turnaround_ms": statistics.median(turn) * 1e3 if turn else 0.0,
        "epoch_drift_ratio": statistics.median(walls[-third:]) / statistics.median(walls[:third]),
    }


def deploy_and_warm(w, job: dict, ds: ShardedDataset, epochs: int, tag: str, trace_dir=None):
    """``EMLIO.deploy`` through the end of warm-up: what ``setup_s`` times.
    Every deployment gets its own ledger file: a ledger that already holds
    an epoch makes the service skip it."""
    ledger = str(Path(job["work_dir"]) / f"ledger-{job['tag']}-{tag}.txt") if w.recovery else None
    spec = w.spec(job["seed"], epochs, ds, ledger_path=ledger, trace_dir=trace_dir)
    planned = ds.num_samples // BATCH_SIZE
    t0 = time.perf_counter()
    dep = EMLIO.deploy(spec, dataset=ds)
    deploy_s = time.perf_counter() - t0
    try:
        warm = [run_epoch(dep, e, planned) for e in range(job["warm_epochs"])]
    except BaseException:
        dep.close()
        raise
    return dep, warm, {
        "deploy_s": deploy_s, "setup_s": time.perf_counter() - t0,
        "ledger": ledger, "trace_dir": trace_dir,
    }


def timed_close(dep) -> float:
    t0 = time.perf_counter()
    dep.close()
    return time.perf_counter() - t0


def measure_pass(w, job: dict, ds: ShardedDataset) -> dict:
    """One deployment: set-up (timed), a measured window, close.  The parent
    runs several of these, each in a fresh process, and merges them."""
    ref = job["reference"]
    planned = ds.num_samples // BATCH_SIZE
    warm_n, max_epochs = job["warm_epochs"], job["max_epochs"]
    dep, unmeasured, info = deploy_and_warm(w, job, ds, warm_n + max_epochs + 1, "only")
    try:
        recs = measure_window(dep, warm_n, max_epochs, job["seconds"], planned, ref)
        if job["digest"]:  # one untimed epoch, digested for the output check
            unmeasured.append(run_epoch(dep, warm_n + max_epochs, planned, digest=True))
    finally:
        close_s = timed_close(dep)
    return {
        "recs": recs,
        "setup_s": info["setup_s"],
        "close_s": close_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": sum(r["planned"] for r in recs),
        "failed": sum(failed_ops(r, ref) for r in recs),
        "unmeasured_ok": all(epoch_ok(r, ref) for r in unmeasured),
        "tensors": unmeasured[-1]["tensors"],
        "errors": [r["error"] for r in unmeasured + recs if r["error"]],
    }


def trace_pass(w, job: dict, ds: ShardedDataset) -> dict:
    """Every per-layer metric: layer walk, then untraced vs traced in situ."""
    ref = job["reference"]
    planned = ds.num_samples // BATCH_SIZE
    warm_n, max_epochs = job["warm_epochs"], job["max_epochs"]
    metrics, stage_cpu_us = layers.walk(w, ds, job, warm_n + max_epochs)

    halves = {}
    for tag, trace_dir in (("plain", None), ("traced", str(Path(job["work_dir"]) / f"trace-{job['tag']}"))):
        dep, warm, info = deploy_and_warm(w, job, ds, warm_n + max_epochs, tag, trace_dir)
        try:
            recs = measure_window(dep, warm_n, max_epochs, job["seconds"], planned, ref,
                                  ledger=info["ledger"])
            status = dep.status()
            pool = dep.service.receivers[0].pull.pool
        finally:
            close_s = timed_close(dep)
        closed = dep.status()  # energy and span counts are final only after close
        halves[tag] = {
            "info": info, "warm": warm, "recs": recs, "win": {**timed_metrics(recs), **sequence_metrics(recs)},
            "status": status, "close_s": close_s, "energy": closed["energy"],
            "spans_dropped": closed["telemetry"]["spans_dropped"],
            "pool": (pool.hits, pool.misses) if pool is not None else (0, 0),
        }

    plain, traced = halves["plain"], halves["traced"]
    win = plain["win"]
    pipe = plain["status"]["pipeline"]
    metrics.update(
        {
            "core.deploy_s": plain["info"]["deploy_s"],
            "core.close_s": plain["close_s"],
            "core.first_batch_ms": win["first_batch_ms"],
            "core.epoch_turnaround_ms": win["epoch_turnaround_ms"],
            "core.epoch_drift_ratio": win["epoch_drift_ratio"],
            "core.duplicates_dropped": pipe["duplicates_dropped"],
            "core.failovers": pipe["failovers"] + pipe["receiver_failovers"],
            "core.ledger_bytes_per_batch": statistics.median(r["ledger_bytes"] for r in plain["recs"]) / planned,
            "obs.trace_overhead_pct": 100.0 * (1.0 - traced["win"]["samples_per_s"] / win["samples_per_s"]),
        }
    )
    metrics.update(layers.in_situ(traced))
    busy = sum(stage_cpu_us.values())
    cpu_us = win["cpu_s_per_ksample"] * 1e3
    metrics.update(
        {
            "budget.stage_busy_us_per_sample": busy,
            "budget.glue_cpu_us_per_sample": cpu_us - busy,
            "budget.glue_pct": 100.0 * (cpu_us - busy) / cpu_us,
        }
    )
    recs = plain["recs"] + traced["recs"]
    everything = plain["warm"] + traced["warm"] + recs
    return {
        "metrics": metrics,
        "stage_cpu_us": stage_cpu_us,
        "cpu_us_per_sample": cpu_us,
        "samples_per_s": {"untraced": win["samples_per_s"], "traced": traced["win"]["samples_per_s"]},
        "attempted": sum(r["planned"] for r in recs),
        "failed": sum(failed_ops(r, ref) for r in recs),
        "unmeasured_ok": all(epoch_ok(r, ref) for r in plain["warm"] + traced["warm"]),
        "errors": [r["error"] for r in everything if r["error"]],
    }


def stop_resource_tracker() -> None:
    """``SharedMemory(create=True)`` makes multiprocessing spawn a
    resource-tracker child that outlives the interpreter's own teardown;
    stop it explicitly so the parent finds no descendant alive."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text())
    w = WORKLOADS[job["workload"]]
    try:
        ds = ShardedDataset.open(job["dataset_root"])
        result = (trace_pass if job["mode"] == "trace" else measure_pass)(w, job, ds)
        Path(job["out"]).write_text(json.dumps(result))
    finally:
        stop_resource_tracker()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
