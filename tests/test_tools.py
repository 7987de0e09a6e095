"""Tests for the operational CLIs: fsck, cluster, benchcheck.

The deploy, trace and resume CLIs are tested alongside their subsystems
(``test_api_deploy``, ``test_obs_trace``, ``test_recovery``).
"""

import pytest

from repro.tools.fsck import fsck_dataset, main as fsck_main


def test_fsck_clean_dataset(small_imagenet):
    report = fsck_dataset(small_imagenet.root)
    assert report.ok
    assert report.shards_checked == small_imagenet.num_shards
    assert report.records_checked == small_imagenet.num_samples
    assert report.bytes_checked == small_imagenet.nbytes


def test_fsck_detects_bitflip(small_imagenet):
    shard = small_imagenet.root / small_imagenet.indexes[0].path
    raw = bytearray(shard.read_bytes())
    raw[100] ^= 0xFF
    shard.write_bytes(bytes(raw))
    report = fsck_dataset(small_imagenet.root)
    assert not report.ok
    assert any("record" in e for e in report.errors)


def test_fsck_detects_missing_shard(small_imagenet):
    (small_imagenet.root / small_imagenet.indexes[1].path).unlink()
    report = fsck_dataset(small_imagenet.root)
    assert not report.ok
    assert any("missing" in e for e in report.errors)


def test_fsck_detects_truncation(small_imagenet):
    shard = small_imagenet.root / small_imagenet.indexes[0].path
    raw = shard.read_bytes()
    shard.write_bytes(raw[:-10])
    report = fsck_dataset(small_imagenet.root)
    assert not report.ok
    assert any("bytes" in e for e in report.errors)


def test_fsck_detects_wrong_label(small_imagenet, tmp_path):
    """Tamper with an index label: fsck must cross-check file vs index."""
    import json

    ix = small_imagenet.indexes[0]
    index_path = small_imagenet.root / f"mapping_{ix.shard}.json"
    obj = json.loads(index_path.read_text())
    obj["records"][0][2] += 1  # corrupt the label field
    index_path.write_text(json.dumps(obj))
    report = fsck_dataset(small_imagenet.root)
    assert not report.ok
    assert any("label" in e for e in report.errors)


def test_fsck_empty_dir(tmp_path):
    report = fsck_dataset(tmp_path)
    assert not report.ok


def test_fsck_cli(small_imagenet, capsys):
    assert fsck_main([str(small_imagenet.root)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert fsck_main([]) == 2


def test_fsck_cli_failure_exit(small_imagenet, capsys):
    shard = small_imagenet.root / small_imagenet.indexes[0].path
    raw = bytearray(shard.read_bytes())
    raw[50] ^= 0x01
    shard.write_bytes(bytes(raw))
    assert fsck_main([str(small_imagenet.root)]) == 1
    assert "FAILED" in capsys.readouterr().out


# -- cluster status CLI --------------------------------------------------------


def test_cluster_cli_snapshot_renders_members_and_ownership(
    small_imagenet, tmp_path, capsys
):
    import json

    from repro.core.config import EMLIOConfig
    from repro.core.recovery import RecoveryConfig
    from repro.core.service import EMLIOService
    from repro.tools.cluster import main as cluster_main

    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16))
    with EMLIOService(
        cfg, small_imagenet, stall_timeout=30.0,
        recovery=RecoveryConfig(ledger_path=tmp_path / "ledger.txt"),
    ) as svc:
        for _ in svc.epoch(0):
            pass
        snap_path = tmp_path / "status.json"
        snap_path.write_text(json.dumps(svc.cluster_status()))

    rc = cluster_main(["--snapshot", str(snap_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "receiver:0" in out and "alive" in out
    assert "storage ownership" in out and "all shards" in out
    assert "failovers: 0 daemon, 0 receiver" in out


def test_cluster_cli_snapshot_missing_file(capsys):
    from repro.tools.cluster import main as cluster_main

    assert cluster_main(["--snapshot", "/nonexistent/status.json"]) == 2
    assert "not found" in capsys.readouterr().err


def test_cluster_cli_watch_observes_live_publishers(capsys):
    import json
    import threading

    import time

    from repro.net.heartbeat import HeartbeatPublisher
    from repro.tools.cluster import main as cluster_main

    # Let the CLI bind port 0 itself (no pre-pick race) and learn the real
    # port from its stderr banner, polled through capsys mid-run.
    result: dict = {}
    t = threading.Thread(
        target=lambda: result.update(
            rc=cluster_main(["--watch", "1.5", "--interval", "0.05",
                             "--port", "0", "--json"])
        ),
        daemon=True,
    )
    t.start()
    out_acc = err_acc = ""
    deadline = time.monotonic() + 5.0
    while "listening on 127.0.0.1:" not in err_acc and time.monotonic() < deadline:
        captured = capsys.readouterr()
        out_acc += captured.out
        err_acc += captured.err
        time.sleep(0.02)
    port = int(err_acc.split("listening on 127.0.0.1:")[1].split()[0])
    pub = HeartbeatPublisher(
        "daemon:demo", "daemon", ("127.0.0.1", port), interval_s=0.05,
        progress_fn=lambda: 17,
    ).start()
    t.join(timeout=10.0)
    pub.kill()
    assert result["rc"] == 0
    snap = json.loads(out_acc + capsys.readouterr().out)
    members = {m["member_id"]: m for m in snap["members"]}
    assert members["daemon:demo"]["status"] == "alive"
    assert members["daemon:demo"]["progress"] == 17


def test_cluster_cli_renders_rates_queue_depth_and_rebalance(tmp_path, capsys):
    """The watch/snapshot tables show progress *rates* and queue depth
    (not just raw counters), and the snapshot reports the last rebalance."""
    import json

    from repro.tools.cluster import _render_members, _render_snapshot

    member = {
        "member_id": "receiver:0", "role": "receiver", "status": "alive",
        "state": "serving", "progress": 120, "rate": 12.34, "queue_depth": 3,
        "beats": 40, "last_seen": 1.0, "incarnation": 0,
    }
    _render_members([member])
    out = capsys.readouterr().out
    assert "RATE/S" in out and "QDEPTH" in out
    assert "12.3" in out and " 3 " in out.replace("\n", " ")

    # A daemon with cache counters renders a HIT%; members without any
    # cache reads render "-" (the receiver above has no counters at all).
    daemon = dict(
        member, member_id="daemon:0@/data", role="daemon",
        cache_hits=9, cache_misses=3,
    )
    _render_members([member, daemon])
    out = capsys.readouterr().out
    assert "HIT%" in out
    assert "75%" in out
    assert out.count("-") >= 1  # the cache-less receiver's HIT% column

    # Per-batch stage costs render in µs for members reporting them (the
    # receivers); daemons have no consume pipeline — all zeros become "-".
    staged = dict(member, decode_ns=125_000, preprocess_ns=2_000_000,
                  starved_ns=50_000)
    _render_members([staged, daemon])
    out = capsys.readouterr().out
    assert "D/P/S µs" in out
    assert "125/2000/50" in out

    snap = {
        "membership": {"members": [member]},
        "num_nodes": 3, "dead_nodes": [], "endpoints": {},
        "ownership": {}, "failovers": 0, "receiver_failovers": 0,
        "reassigned_batches": 4, "rebalances": 1,
        "last_rebalance": {"kind": "receiver_join", "epoch": 0,
                           "node": 2, "moved": 4},
    }
    _render_snapshot(snap)
    out = capsys.readouterr().out
    assert "rebalances: 1" in out
    assert "4 batches -> joined node 2" in out
    # JSON snapshots round-trip the new fields untouched.
    assert json.loads(json.dumps(snap))["last_rebalance"]["moved"] == 4


# -- benchcheck history (the tracked perf trajectory) --------------------------


def _e2e_snapshot(tmp_path, name, throughput):
    import json

    body = {
        "bench": "e2e_loopback",
        "samples": 512,
        "emlio": {"epoch_wall_s": 1.0, "throughput_samples_per_s": throughput},
        "pytorch_baseline": {"epoch_wall_s": 2.0, "throughput_samples_per_s": throughput / 2},
        "speedup_x": 2.0,
    }
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


def test_benchcheck_history_append_then_check(tmp_path, capsys):
    import json

    from repro.tools.benchcheck import main as benchcheck_main

    hist = tmp_path / "history.jsonl"
    snap = _e2e_snapshot(tmp_path, "BENCH_e2e_loopback.json", 1000.0)
    assert benchcheck_main(
        ["--append-history", "pr-1", str(snap), "--history-path", str(hist)]
    ) == 0
    entries = [json.loads(l) for l in hist.read_text().splitlines()]
    assert entries == [
        {"pr": "pr-1", "snapshot": "BENCH_e2e_loopback.json",
         "metric": "emlio.throughput_samples_per_s", "value": 1000.0}
    ]
    # The CI side: the same snapshot checks clean against its own entry.
    assert benchcheck_main(
        ["--check-history", str(snap), "--history-path", str(hist)]
    ) == 0
    capsys.readouterr()


def test_benchcheck_history_refuses_regression(tmp_path, capsys):
    from repro.tools.benchcheck import main as benchcheck_main

    hist = tmp_path / "history.jsonl"
    good = _e2e_snapshot(tmp_path, "BENCH_e2e_loopback.json", 1000.0)
    assert benchcheck_main(
        ["--append-history", "pr-1", str(good), "--history-path", str(hist)]
    ) == 0
    before = hist.read_text()
    # >10% below the last entry: append refuses and writes NOTHING.
    bad = _e2e_snapshot(tmp_path, "BENCH_e2e_loopback.json", 899.0)
    assert benchcheck_main(
        ["--append-history", "pr-2", str(bad), "--history-path", str(hist)]
    ) == 1
    assert "regressed" in capsys.readouterr().err
    assert hist.read_text() == before
    # The CI check gate fails on the same drop.
    assert benchcheck_main(
        ["--check-history", str(bad), "--history-path", str(hist)]
    ) == 1
    # Within tolerance (10%) both append and check pass.
    ok = _e2e_snapshot(tmp_path, "BENCH_e2e_loopback.json", 920.0)
    assert benchcheck_main(
        ["--check-history", str(ok), "--history-path", str(hist)]
    ) == 0
    assert benchcheck_main(
        ["--append-history", "pr-2", str(ok), "--history-path", str(hist)]
    ) == 0
    capsys.readouterr()


def test_benchcheck_history_tracks_micro_components(tmp_path, capsys):
    import json

    from repro.tools.benchcheck import main as benchcheck_main, tracked_metrics

    body = {
        "bench": "micro_components",
        "components": {
            "payload_roundtrip_v3": {"batches_per_s": 20000.0},
            "transport_tcp": {"seconds": 0.02, "mb_per_s": 50.0},
        },
    }
    snap = tmp_path / "BENCH_micro_components.json"
    snap.write_text(json.dumps(body))
    # Raw wall times are excluded — lower is *better* there, the drop
    # gate would fire on improvements.
    assert tracked_metrics(body) == {
        "components.payload_roundtrip_v3.batches_per_s": 20000.0,
        "components.transport_tcp.mb_per_s": 50.0,
    }
    hist = tmp_path / "history.jsonl"
    assert benchcheck_main(
        ["--append-history", "pr-1", str(snap), "--history-path", str(hist)]
    ) == 0
    assert benchcheck_main(
        ["--check-history", str(snap), "--history-path", str(hist)]
    ) == 0
    # A new series (no prior entry) passes the check and joins on append.
    body["components"]["new_metric"] = {"ops_per_s": 1.0}
    snap.write_text(json.dumps(body))
    assert benchcheck_main(
        ["--check-history", str(snap), "--history-path", str(hist)]
    ) == 0
    capsys.readouterr()


def test_benchcheck_history_gates_costs_on_rises(tmp_path, capsys):
    """``_us`` / ``_kib`` component fields are costs: an improvement (a
    fall) passes, a rise past the tolerance is the regression."""
    import json

    from repro.tools.benchcheck import main as benchcheck_main

    snap = tmp_path / "BENCH_micro_components.json"

    def write(us: float, kib: float) -> None:
        body = {"bench": "micro_components",
                "components": {"kernel": {"preprocess_us": us, "alloc_peak_kib": kib}}}
        snap.write_text(json.dumps(body))

    hist = tmp_path / "history.jsonl"
    write(1000.0, 100.0)
    assert benchcheck_main(
        ["--append-history", "baseline", str(snap), "--history-path", str(hist)]
    ) == 0
    check = ["--check-history", str(snap), "--history-path", str(hist)]
    write(500.0, 50.0)  # twice as fast, half the memory
    assert benchcheck_main(check) == 0
    write(1101.0, 100.0)
    assert benchcheck_main(check) == 1
    assert ">10% rise" in capsys.readouterr().err
    write(1000.0, 111.0)
    assert benchcheck_main(check) == 1
    capsys.readouterr()


def test_benchcheck_history_gates_against_the_median_of_the_last_three(tmp_path, capsys):
    """One noisy entry neither trips the gate nor becomes the bar: each
    series is held to the median of its last three entries, in the
    direction the metric improves."""
    import json

    from repro.tools.benchcheck import main as benchcheck_main

    hist = tmp_path / "history.jsonl"
    series = {
        ("BENCH_e2e_loopback.json", "emlio.throughput_samples_per_s"):
            [400.0, 1000.0, 1000.0, 1300.0],  # a lucky last run
        ("BENCH_micro_components.json", "components.kernel.preprocess_us"):
            [100.0, 100.0, 60.0],  # a lucky last run of a cost
    }
    hist.write_text("".join(
        json.dumps({"pr": f"pr-{i}", "snapshot": snap, "metric": metric, "value": v}) + "\n"
        for (snap, metric), values in series.items()
        for i, v in enumerate(values)
    ))
    check = ["--check-history", "--history-path", str(hist)]
    # Median of 1000, 1000, 1300 is 1000 (the 400 aged out): 1000 passes,
    # where the last entry alone (1300) would have failed it.
    e2e = _e2e_snapshot(tmp_path, "BENCH_e2e_loopback.json", 1000.0)
    assert benchcheck_main(check + [str(e2e)]) == 0
    e2e = _e2e_snapshot(tmp_path, "BENCH_e2e_loopback.json", 899.0)
    assert benchcheck_main(check + [str(e2e)]) == 1
    assert "vs history median 1000.0" in capsys.readouterr().err
    # A cost: median 100, so 105 µs passes though it is 75 % over the last.
    micro = tmp_path / "BENCH_micro_components.json"
    for us, code in ((105.0, 0), (111.0, 1)):
        micro.write_text(json.dumps({
            "bench": "micro_components",
            "components": {"kernel": {"preprocess_us": us}},
        }))
        assert benchcheck_main(check + [str(micro)]) == code
    capsys.readouterr()


def test_benchcheck_history_flags_malformed_lines(tmp_path, capsys):
    from repro.tools.benchcheck import main as benchcheck_main

    hist = tmp_path / "history.jsonl"
    hist.write_text('{"pr": "x"}\nnot json\n')
    snap = _e2e_snapshot(tmp_path, "BENCH_e2e_loopback.json", 1000.0)
    assert benchcheck_main(
        ["--check-history", str(snap), "--history-path", str(hist)]
    ) == 1
    assert "malformed history entry" in capsys.readouterr().err


def test_benchcheck_history_modes_are_exclusive(tmp_path):
    from repro.tools.benchcheck import main as benchcheck_main

    snap = _e2e_snapshot(tmp_path, "BENCH_e2e_loopback.json", 1000.0)
    with pytest.raises(SystemExit):
        benchcheck_main(["--append-history", "pr-1", "--check-history", str(snap)])
