"""Smoke test of the live benchmark: ``run.py --smoke`` runs all four
workloads (n/8 samples, 1 warm + 2 measured epochs) plus the traced pass and
must report the contract's JSON schema, no failed operation, and no leaked
process or shm segment."""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_smoke_all_workloads_schema_ops_and_leaks():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    results = json.loads(lines[-1])
    workloads = [w["name"] for w in spec["workloads"]]
    assert set(results) == {f"{w}:{mode}" for w in workloads for mode in ("measure", "trace")}
    expected = {
        "measure": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "trace": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for key, res in results.items():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}, key
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, (key, res)
        units = expected[key.split(":")[1]]
        assert {n: m["unit"] for n, m in res["metrics"].items()} == units, key
        assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()), key
    # End-to-end metrics are never 0; the chain/drop/failover counters are.
    for w in workloads:
        assert all(m["value"] > 0 for m in results[f"{w}:measure"]["metrics"].values()), w
        layer = results[f"{w}:trace"]["metrics"]
        for name in ("obs.incomplete_chains", "obs.spans_dropped", "core.failovers"):
            assert layer[name]["value"] == 0, (w, name)
    # The runner's own leak check, printed once per (workload, pass).
    leak_lines = [ln for ln in lines if "leaked_processes=" in ln]
    assert len(leak_lines) == 2 * len(workloads)
    assert all("leaked_processes=0 leaked_shm_segments=0" in ln for ln in leak_lines)
    assert not list((HERE / ".work").glob("*")), "work directory not cleaned up"
