"""EMLIO live benchmark: four workloads, six end-to-end metrics, a per-layer budget.

    python3 benchmarks/emlio_bench/run.py --workload tok_shm --seed 1 --seconds 10 --trace 0
    python3 benchmarks/emlio_bench/run.py --seed 1 [--traced]      # all four workloads
    python3 benchmarks/emlio_bench/run.py --repeat 5               # noise calibration
    python3 benchmarks/emlio_bench/run.py --smoke                  # < 60 s, everything once

This process generates the workload's dataset from ``--seed``, computes the
reference outputs straight from the shards, then starts ``worker.py`` in its
own session, waits for it, kills the process group, and checks that no
descendant is alive and no new ``/dev/shm`` segment remains.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  README.md documents every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from worker import timed_metrics  # noqa: E402
from workloads import WORKLOADS, reference  # noqa: E402

WORKER_TIMEOUT_S = 150.0
SETUP_REPEATS = 3  # deployments (fresh processes) per untraced pass; setup_s is their median

# The worker's process environment, fixed so that a run measures the program
# and not two chaotic regimes of the platform under it (README, defects c, e):
# * glibc malloc with its default dynamic thresholds trims and regrows the heap
#   top (or mmaps/munmaps every numpy temporary) in some epochs and not in
#   others: 2 k vs 230 k minor faults and 0.02 vs 0.3 s sys time per img_wan30
#   epoch.  Fixed thresholds keep the heap mapped.
# * the worker is pinned to one CPU (run_worker): spread over two vCPUs the
#   GIL-bound threads' hand-offs become cross-core wakes and token epochs run
#   in 0.3 s, 0.5 s or 0.85 s regimes that switch every few seconds.
STEADY_ENV = {
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_MMAP_THRESHOLD_": str(1 << 25),  # glibc's maximum
    "MALLOC_TOP_PAD_": str(1 << 26),
    "MALLOC_ARENA_MAX": "1",  # per-thread arenas made tok_lan10's peak RSS 130-280 MB
}


def load_contract() -> dict:
    """Metric names and units per pass, from BENCHMARK.json (the one place
    that lists them)."""
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    return {
        "run_seconds": spec["run_seconds"],
        "measure": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "trace": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we looked
        fields = stat.rsplit(")", 1)[1].split()  # after "(comm)": state ppid pgrp session
        if int(fields[3]) == sid and fields[0] != "Z":
            alive.append(int(entry))
    return alive


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def run_worker(job: dict, work: Path) -> tuple[dict | None, dict]:
    """Run one worker to completion; returns (result, leak counters)."""
    job_path = work / f"job-{job['tag']}.json"
    job["out"] = str(work / f"result-{job['tag']}.json")
    job_path.write_text(json.dumps(job))
    before = shm_segments()
    # TMPDIR keeps any tempfile the system creates inside the checkout.
    env = dict(os.environ, TMPDIR=str(work), PYTHONDONTWRITEBYTECODE="1", **STEADY_ENV)
    cpu = max(os.sched_getaffinity(0))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(job_path)],
        start_new_session=True, env=env, stdout=sys.stderr, stderr=sys.stderr,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),  # one CPU: see STEADY_ENV
    )
    code = None
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {WORKER_TIMEOUT_S:.0f} s", file=sys.stderr)
    finally:
        # Whatever still lives in the worker's session is a leak (on a
        # timeout or Ctrl-C that includes the worker itself).  Count, then kill.
        leaked = session_members(proc.pid)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.monotonic() + 5.0
        while session_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
    leaks = {
        "leaked_processes": len(leaked) + len(session_members(proc.pid)),
        "leaked_shm_segments": len(shm_segments() - before),
        "exit_code": code,
    }
    out = Path(job["out"])
    result = json.loads(out.read_text()) if code == 0 and out.exists() else None
    return result, leaks


def planned_epochs(w, seconds: float) -> int:
    """Epochs to plan for a window: 1.5x what the seed commit needs, so a
    faster system still fills ``seconds``; the loop stops on the clock."""
    return max(2, math.ceil(1.5 * seconds / w.nominal_epoch_s) + 1)


def merge_measure(parts: list[dict]) -> dict:
    """One result from the deployments of an untraced pass.  The timed
    metrics come from the fastest quarter of all their measured epochs pooled
    (worker.CLEAN_FRACTION); ``setup_s`` is the median set-up and
    ``peak_rss_mb`` the largest process."""
    out = timed_metrics([r for p in parts for r in p["recs"]])
    out.update(
        window_s=sum(p["recs"][-1]["t1"] - p["recs"][0]["t0"] for p in parts),
        setup_s=statistics.median(p["setup_s"] for p in parts),
        setup_runs=[p["setup_s"] for p in parts],
        close_s=statistics.median(p["close_s"] for p in parts),
        peak_rss_mb=max(p["peak_rss_mb"] for p in parts),
        attempted=sum(p["attempted"] for p in parts),
        failed=sum(p["failed"] for p in parts),
        unmeasured_ok=all(p["unmeasured_ok"] for p in parts),
        tensors=parts[-1]["tensors"],
        errors=[e for p in parts for e in p["errors"]],
    )
    return out


def run_workload(name: str, seed: int, seconds: float, modes: tuple[str, ...], smoke: bool) -> dict:
    """Build the dataset once, run the workers of each pass, merge."""
    w = WORKLOADS[name]
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=HERE / ".work"))
    try:
        t0 = time.perf_counter()
        ds = w.build_dataset(work / "ds", seed, smoke)
        build_s = time.perf_counter() - t0
        ref = reference(ds, w)
        out: dict = {"workload": name, "seed": seed, "dataset_build_s": build_s, "reference": ref}
        for mode in modes:
            # The untraced window is split over SETUP_REPEATS deployments, each
            # in a fresh process (setup_s is their median; a closed deployment's
            # leftovers - defect d - cannot reach the next one), and so spread
            # over the whole run: more of the host's fast and slow phases are
            # sampled than by one contiguous window.  The traced pass splits
            # its window between an untraced and a traced deployment.
            rounds = 1 if smoke or mode == "trace" else SETUP_REPEATS
            window = seconds / 2 if mode == "trace" else seconds / rounds
            job = {
                "workload": name, "seed": seed, "mode": mode, "seconds": window,
                "dataset_root": str(ds.root), "work_dir": str(work), "reference": ref,
                "warm_epochs": 1 if smoke else w.warm_epochs,
                "max_epochs": 2 if smoke else planned_epochs(w, window),
            }
            results, leaks = [], {"leaked_processes": 0, "leaked_shm_segments": 0, "exit_code": 0}
            for i in range(rounds):
                # "tag" names the round's files (job, result, ledger, traces).
                result, leak = run_worker({**job, "tag": f"{mode}{i}", "digest": i == rounds - 1}, work)
                results.append(result)
                leaks["leaked_processes"] += leak["leaked_processes"]
                leaks["leaked_shm_segments"] += leak["leaked_shm_segments"]
                leaks["exit_code"] = leak["exit_code"]
                if result is None:
                    break
            if None in results:
                merged = None
            else:
                merged = merge_measure(results) if mode == "measure" else results[0]
            out[mode] = {"result": merged, **leaks}
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def verdict(run: dict, mode: str, units: dict[str, str]) -> dict:
    """The contract's result object for one (workload, mode) run."""
    part = run[mode]
    res = part["result"]
    if res is None:
        raise SystemExit(f"{run['workload']}: worker produced no result (exit code {part['exit_code']})")
    if mode == "measure":
        values = res
        ref_digest = run["reference"]["tensors"]
        digest_ok = ref_digest is None or res["tensors"] == ref_digest
    else:
        values = res["metrics"]
        digest_ok = True
    leaks_ok = part["leaked_processes"] == 0 and part["leaked_shm_segments"] == 0
    return {
        "correct": bool(res["failed"] == 0 and res["unmeasured_ok"] and digest_ok and leaks_ok),
        "attempted": max(1, res["attempted"]),
        "failed": res["failed"],
        "metrics": {n: {"value": values[n], "unit": unit} for n, unit in units.items()},
    }


def report(run: dict, mode: str, result: dict) -> None:
    """Human-readable lines (every metric by name with unit) before the JSON."""
    part, res = run[mode], run[mode]["result"]
    print(f"== {run['workload']} seed={run['seed']} pass={mode} "
          f"dataset_build_s={run['dataset_build_s']:.2f}")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.4f} {m['unit']}")
    if mode == "measure":
        print(f"  measured: {res['epochs']} epochs in {res['window_s']:.1f} s; metrics from the fastest "
              f"{res['clean_epochs']} ({res['gaps']} batch gaps); "
              f"setup runs {[round(s, 2) for s in res['setup_runs']]} s; close {res['close_s']:.2f} s")
        print("  their batch gaps (ms): " + " ".join(f"p{q}={v:.3f}" for q, v in res["gap_ms_quantiles"].items()))
        print(f"  epoch walls (s): {' '.join(f'{x:.2f}' for x in res['epoch_walls_s'])}")
        print(f"  epoch tensor digest {res['tensors']} (reference {run['reference']['tensors']})")
    else:
        terms = ", ".join(f"{k} {v:.1f}" for k, v in res["stage_cpu_us"].items())
        print(f"  budget terms (CPU us/sample): {terms}; process total {res['cpu_us_per_sample']:.1f}")
        print(f"  samples/s untraced {res['samples_per_s']['untraced']:.0f}, traced {res['samples_per_s']['traced']:.0f}")
    print(f"  ops_attempted={result['attempted']} ops_failed={result['failed']} "
          f"leaked_processes={part['leaked_processes']} leaked_shm_segments={part['leaked_shm_segments']} "
          f"correct={result['correct']}")
    for err in res["errors"]:
        print(f"  epoch error: {err}")


def calibrate(names: list[str], seed: int, seconds: float, repeat: int, units: dict[str, str]) -> int:
    """Noise calibration: K untraced runs per workload (seeds seed..seed+K-1);
    per metric the median, quartiles, max/min and a proposed bound
    (3x the interquartile spread, floored at 5 % and capped at 25 %)."""
    ok = True
    for name in names:
        rows = []
        for k in range(repeat):
            run = run_workload(name, seed + k, seconds, ("measure",), smoke=False)
            result = verdict(run, "measure", units)
            ok &= result["correct"]
            rows.append({n: m["value"] for n, m in result["metrics"].items()})
        print(f"== {name}: {repeat} runs, all correct so far: {ok}")
        for metric, unit in units.items():
            vals = [r[metric] for r in rows]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            bound = min(0.25, max(0.05, math.ceil(300 * spread) / 100))
            print(f"  {metric:<20} median {med:>11.4f} {unit:<6} q1 {q1:>11.4f} q3 {q3:>11.4f} "
                  f"max/min {max(vals) / min(vals):.3f}  spread {spread:.3f}  proposed bound {bound:.2f}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload (default: all four)")
    p.add_argument("--seed", type=int, default=1, help="dataset seed and pipeline.seed")
    p.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                   help="length of the measured window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: run the traced pass and print the per-layer metrics instead")
    p.add_argument("--traced", action="store_true", help="run both passes (all-workload mode)")
    p.add_argument("--repeat", type=int, default=0, metavar="K", help="noise calibration over K runs")
    p.add_argument("--smoke", action="store_true", help="n/8 samples, 1 warm + 2 measured epochs, both passes")
    args = p.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.repeat:
        return calibrate(names, args.seed, args.seconds, args.repeat, contract["measure"])
    if args.smoke or args.traced:
        modes = ("measure", "trace")
    else:
        modes = ("trace",) if args.trace else ("measure",)
    results: dict = {}
    ok = True
    for name in names:
        run = run_workload(name, args.seed, args.seconds, modes, args.smoke)
        for mode in modes:
            result = verdict(run, mode, contract[mode])
            report(run, mode, result)
            ok &= result["correct"]
            results[f"{name}:{mode}"] = result
    sys.stdout.flush()
    # One workload, one pass: the contract's single result object.
    print(json.dumps(next(iter(results.values())) if len(results) == 1 else results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
