"""The metrics registry: instruments, labels, collectors, rendering."""

from __future__ import annotations

import json
import threading
import urllib.request
from bisect import bisect_left

import numpy as np
import pytest

from repro.obs.exporter import MetricsExporter
from repro.obs.metrics import LOG2_BUCKETS, Counter, Gauge, Histogram, Registry
from repro.tools.benchcheck import check_prometheus_text


def test_counter_inc_and_samples():
    reg = Registry()
    c = reg.counter("emlio_test_total", "help text")
    c.inc()
    c.inc(4)
    assert reg.snapshot()["emlio_test_total"] == 5


def test_gauge_set_and_dec():
    reg = Registry()
    g = reg.gauge("emlio_depth")
    g.set(10)
    g.dec(3)
    assert reg.snapshot()["emlio_depth"] == 7


def test_labeled_counter_children():
    reg = Registry()
    c = reg.counter("emlio_tier_total", labelnames=("tier",))
    c.labels(tier="cache").inc(2)
    c.labels(tier="remote").inc(1)
    c.labels(tier="cache").inc()
    snap = reg.snapshot()["emlio_tier_total"]
    assert snap == {"cache": 3, "remote": 1}


def test_histogram_quantiles_log2_buckets():
    reg = Registry()
    h = reg.histogram("emlio_lat_seconds")
    for v in (0.001, 0.002, 0.004, 1.0):
        h.observe(v)
    snap = h.snapshot()
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(1.007)
    # Rank q lands at the top of a bucket here, so the interpolation
    # returns that bucket's upper edge.
    assert h.quantile(0.5) in LOG2_BUCKETS
    assert h.quantile(0.5) >= 0.002
    assert h.quantile(1.0) >= 1.0


def test_histogram_quantile_tracks_numpy_percentile():
    """Interpolating inside the log2 bucket lands within a few percent of
    the exact percentile; the bucket's upper edge was up to 2x off."""
    rng = np.random.default_rng(0)
    sample = rng.lognormal(np.log(2e-3), 1.0, 20_000)  # latency-shaped, median 2 ms
    h = Histogram("emlio_lat_seconds")
    for v in sample:
        h.observe(float(v))
    for q, tol in ((0.5, 0.05), (0.9, 0.05), (0.95, 0.15), (0.99, 0.15)):
        exact = float(np.percentile(sample, 100 * q))
        upper_edge = LOG2_BUCKETS[bisect_left(LOG2_BUCKETS, exact)]
        err = abs(h.quantile(q) / exact - 1)
        assert err <= tol, (q, h.quantile(q), exact)
        assert err < upper_edge / exact - 1


def test_histogram_overflow_bucket():
    reg = Registry()
    h = reg.histogram("emlio_big_seconds")
    h.observe(10_000_000.0)  # beyond the last log2 boundary
    assert h.snapshot()["overflow"] == 1
    assert h.quantile(0.5) == LOG2_BUCKETS[-1]


def test_get_or_create_returns_same_instrument():
    reg = Registry()
    assert reg.counter("emlio_x") is reg.counter("emlio_x")
    with pytest.raises(ValueError):
        reg.gauge("emlio_x")  # kind mismatch must fail loudly


def test_disabled_registry_is_noop():
    reg = Registry(enabled=False)
    c = reg.counter("emlio_never")
    c.inc(100)
    reg.histogram("emlio_never_seconds").observe(1.0)
    assert reg.snapshot() == {}
    assert reg.render_prometheus() == ""


def test_collectors_run_at_snapshot_time_only():
    reg = Registry()
    g = reg.gauge("emlio_collected")
    calls = []

    def collect():
        calls.append(1)
        g.set(42)

    reg.register_collector(collect)
    assert calls == []
    assert reg.snapshot()["emlio_collected"] == 42
    assert len(calls) == 1


def test_collector_errors_are_swallowed():
    reg = Registry()
    reg.counter("emlio_ok").inc()

    def bad():
        raise RuntimeError("collector bug")

    reg.register_collector(bad)
    assert reg.snapshot()["emlio_ok"] == 1


def test_counter_thread_safety():
    reg = Registry()
    c = reg.counter("emlio_races_total")

    def spin():
        for _ in range(10_000):
            c.inc()

    threads = [threading.Thread(target=spin) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reg.snapshot()["emlio_races_total"] == 40_000


def test_render_prometheus_is_valid_text():
    reg = Registry()
    reg.counter("emlio_sent_total", "bytes sent").inc(3)
    reg.gauge("emlio_nodes", labelnames=("transport",)).labels(transport="shm").set(2)
    h = reg.histogram("emlio_lat_seconds", "latency")
    h.observe(0.003)
    h.observe(2.0)
    text = reg.render_prometheus()
    assert check_prometheus_text(text) == []
    assert "# TYPE emlio_sent_total counter" in text
    assert 'emlio_nodes{transport="shm"} 2' in text
    assert 'emlio_lat_seconds_bucket{le="+Inf"} 2' in text
    assert "emlio_lat_seconds_count 2" in text


def test_exporter_scrape_endpoints():
    reg = Registry()
    reg.counter("emlio_scraped_total").inc(7)
    exporter = MetricsExporter(reg, port=0)
    try:
        base = f"http://127.0.0.1:{exporter.port}"
        text = urllib.request.urlopen(f"{base}/metrics", timeout=5).read().decode()
        assert "emlio_scraped_total 7" in text
        assert check_prometheus_text(text) == []
        body = json.loads(
            urllib.request.urlopen(f"{base}/metrics.json", timeout=5).read()
        )
        assert body["emlio_scraped_total"] == 7
        health = urllib.request.urlopen(f"{base}/healthz", timeout=5)
        assert health.status == 200
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"{base}/nope", timeout=5)
    finally:
        exporter.close()


def test_check_prometheus_text_rejects_garbage():
    assert check_prometheus_text("") != []
    assert any("unparseable" in p for p in check_prometheus_text("{oops} 1"))
    assert any("non-numeric" in p for p in check_prometheus_text("emlio_x pizza"))
