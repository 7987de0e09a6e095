"""Cluster status inspector — who is alive, and who owns what.

Two modes:

* ``--watch SECONDS`` binds a heartbeat listener and folds every beat that
  arrives within the window into a :class:`~repro.core.membership
  .ClusterView`, then renders the member table.  Point the deployment's
  publishers at the printed address (or run it against an existing
  listener's publishers during a drill).
* ``--snapshot FILE`` renders a JSON snapshot produced by
  :meth:`~repro.core.service.EMLIOService.cluster_status` — members plus
  batch/shard ownership (endpoints, storage roots, failover counters).

Columns: ``HIT%`` is the daemon's storage-cache hit rate (``-`` without a
cache); ``--json`` also carries ``prefetch_depth``, the range-GETs that
cache has in flight (the fetch window's concurrency, not a backlog).

Usage::

    python -m repro.tools.cluster --watch 3 [--port P] [--interval S]
    python -m repro.tools.cluster --snapshot status.json [--json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.membership import ClusterView, MembershipConfig
from repro.net.heartbeat import HeartbeatListener


def _render_members(members: list[dict], out=None) -> None:
    # Resolve stdout at call time: binding it as a default would freeze
    # whatever stream was active at import (a closed capture, under pytest).
    out = out if out is not None else sys.stdout
    if not members:
        print("no members observed", file=out)
        return
    # RATE/S is the progress *delta* (observed throughput, EWMA), not the
    # raw counter — a watch wants "how fast", the counter is in --json.
    rows = [("MEMBER", "ROLE", "STATUS", "STATE", "RATE/S", "QDEPTH", "HIT%", "D/P/S µs", "BEATS")]
    for m in sorted(members, key=lambda m: (m["role"], m["member_id"])):
        hits = m.get("cache_hits", 0)
        misses = m.get("cache_misses", 0)
        # "-" for members that never touched a storage cache (receivers,
        # uncached daemons) — 0% would wrongly read as "all misses".
        hit_pct = "-" if hits + misses == 0 else f"{100 * hits / (hits + misses):.0f}%"
        # Per-batch decode/preprocess/starved stage costs, receiver-only:
        # daemons have no consume pipeline, so all-zero renders as "-".
        stages = (m.get("decode_ns", 0), m.get("preprocess_ns", 0), m.get("starved_ns", 0))
        stage_us = "-" if not any(stages) else "/".join(f"{ns / 1000:.0f}" for ns in stages)
        rows.append(
            (
                m["member_id"],
                m["role"],
                m["status"],
                m.get("state", "-"),
                f"{m.get('rate', 0.0):.1f}",
                str(m.get("queue_depth", 0)),
                hit_pct,
                stage_us,
                str(m.get("beats", 0)),
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip(), file=out)


def _render_snapshot(snap: dict, out=None) -> None:
    out = out if out is not None else sys.stdout
    membership = snap.get("membership")
    if membership is not None:
        _render_members(membership.get("members", []), out=out)
    else:
        print("membership: disabled (no recovery config)", file=out)
    dead = snap.get("dead_nodes", [])
    print(
        f"compute nodes: {snap.get('num_nodes', '?')} "
        f"({len(dead)} dead{': ' + str(dead) if dead else ''})",
        file=out,
    )
    print("endpoints:", file=out)
    for node, (host, port) in sorted(snap.get("endpoints", {}).items()):
        print(f"  node {node}: {host}:{port}", file=out)
    print("storage ownership:", file=out)
    for root, shards in sorted(snap.get("ownership", {}).items()):
        owned = "all shards" if shards == "all" else f"{len(shards)} shards {shards}"
        print(f"  {root}: {owned}", file=out)
    print(
        f"failovers: {snap.get('failovers', 0)} daemon, "
        f"{snap.get('receiver_failovers', 0)} receiver; "
        f"{snap.get('reassigned_batches', 0)} batches re-owned",
        file=out,
    )
    last = snap.get("last_rebalance")
    if last is None:
        print(f"rebalances: {snap.get('rebalances', 0)}", file=out)
    elif last.get("kind") == "receiver_join":
        print(
            f"rebalances: {snap.get('rebalances', 0)} "
            f"(last: epoch {last.get('epoch')}, {last.get('moved')} batches "
            f"-> joined node {last.get('node')})",
            file=out,
        )
    else:
        roots = last.get("roots", {})
        print(
            f"rebalances: {snap.get('rebalances', 0)} "
            f"(last: epoch {last.get('epoch')}, shard ownership re-divided "
            f"across {len(roots)} roots)",
            file=out,
        )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="repro.tools.cluster")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--watch", type=float, metavar="SECONDS",
        help="bind a heartbeat listener and report members seen in the window",
    )
    mode.add_argument(
        "--snapshot", metavar="FILE",
        help="render an EMLIOService.cluster_status() JSON snapshot",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="listener port (watch mode)")
    parser.add_argument(
        "--interval", type=float, default=0.5,
        help="expected heartbeat interval for liveness verdicts (watch mode)",
    )
    parser.add_argument("--json", action="store_true", help="emit raw JSON")
    args = parser.parse_args(argv)

    if args.snapshot is not None:
        path = Path(args.snapshot)
        if not path.is_file():
            print(f"error: snapshot file not found: {args.snapshot}", file=sys.stderr)
            return 2
        try:
            snap = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            print(f"error: not a cluster snapshot: {err}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(snap, indent=2))
        else:
            _render_snapshot(snap)
        return 0

    if args.watch <= 0:
        print("error: --watch needs a positive window", file=sys.stderr)
        return 2
    view = ClusterView(MembershipConfig(interval_s=args.interval))
    listener = HeartbeatListener(view.observe, host=args.host, port=args.port)
    print(f"listening on {listener.address[0]}:{listener.port} "
          f"for {args.watch:.1f}s", file=sys.stderr)
    deadline = time.monotonic() + args.watch
    try:
        while time.monotonic() < deadline:
            time.sleep(min(0.05, args.interval / 2))
            view.poll()
    finally:
        listener.close()
    snap = view.snapshot()
    if args.json:
        print(json.dumps(snap, indent=2))
    else:
        _render_members(snap["members"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
