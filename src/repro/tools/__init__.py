"""Operational CLIs, one per ``python -m repro.tools.<name>``.

* ``deploy`` — run (or dry-run) a declarative cluster spec file / preset
  through ``EMLIO.deploy``; ``--check-presets`` dry-runs every preset and
  spec file.
* ``trace`` — read a deployment's span stream back: per-stage latency
  quantiles, one batch's critical path, or ``--validate`` every chain.
* ``cluster`` — render a saved ``cluster_status()`` snapshot, or watch
  live heartbeats.
* ``resume`` — diff a delivery ledger against the plan and emit the
  residual (undelivered) assignments for a resumed run.
* ``fsck`` — verify every record CRC and every index entry of a sharded
  dataset.
* ``benchcheck`` — validate and compare ``BENCH_*.json`` perf snapshots
  and gate them against the tracked history.
"""
