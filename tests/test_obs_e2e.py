"""E2E telemetry acceptance: full trace chains over both transports, plus
a valid, series-complete /metrics scrape from a live deployment.

This is the CI-facing demo the observability PR promises: deploy the
quickstart preset with ``trace_sample = 1.0``, consume an epoch, and the
trace stream must reconstruct a complete 7-stage span chain
(read → encode → send → recv → decode → preprocess → consume) for every
batch — no orphans, monotonic stage starts — under TCP and under the
shared-memory ring alike.  The same helpers back ``repro.tools.trace
--validate``, so the CLI and this test cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import urllib.request

import pytest

from repro.api import EMLIO, preset
from repro.api.spec import ObservabilitySpec
from repro.obs.trace import SPAN_STAGES
from repro.tools import trace as trace_tool
from repro.tools.benchcheck import check_prometheus_text


def _traced_quickstart(tmp_path, transport: str, metrics_port=0):
    spec = preset("quickstart")
    return dataclasses.replace(
        spec,
        network=dataclasses.replace(spec.network, transport=transport),
        observability=ObservabilitySpec(
            metrics_port=metrics_port,
            trace_dir=str(tmp_path / f"traces-{transport}"),
            trace_sample=1.0,
        ),
    )


@pytest.mark.parametrize("transport", ["tcp", "shm"])
def test_full_trace_chain_per_batch(tmp_path, transport):
    spec = _traced_quickstart(tmp_path, transport, metrics_port=None)
    with EMLIO.deploy(spec) as dep:
        batches = sum(1 for _ in dep.epoch(0))
        status = dep.status()
    assert batches == 8  # 64 samples / batch_size 8
    telemetry = status["telemetry"]
    assert telemetry["trace_sample"] == 1.0
    assert telemetry["metrics_endpoint"] is None
    # close() flushed the writer; every batch must reconstruct fully.
    traces = trace_tool.group_traces(
        trace_tool.read_spans(spec.observability.trace_dir)
    )
    assert len(traces) == batches
    for trace, recs in traces.items():
        epoch, _node, seq = trace_tool.parse_trace_id(trace)
        assert epoch == 0 and 0 <= seq < batches
        assert trace_tool.validate_chain(recs) == [], trace
        assert [r["span"] for r in recs] == list(SPAN_STAGES)
    # The CLI view over the same stream agrees.
    assert trace_tool.main(
        ["--trace-dir", spec.observability.trace_dir, "--epoch", "0", "--validate"]
    ) == 0


def test_metrics_scrape_covers_all_subsystems(tmp_path):
    spec = _traced_quickstart(tmp_path, "tcp")
    with EMLIO.deploy(spec) as dep:
        for _ in dep.epoch(0):
            pass
        endpoint = dep.status()["telemetry"]["metrics_endpoint"]
        assert endpoint and endpoint.endswith("/metrics")
        text = urllib.request.urlopen(endpoint, timeout=5).read().decode()
    assert check_prometheus_text(text) == []
    # Transport, storage-tier, pipeline-stage, and failover series all
    # present — the acceptance criterion for the scrape surface.
    for series in (
        "emlio_transport_bytes_sent_total",
        "emlio_transport_batches_sent_total",
        'emlio_transport_nodes{transport="tcp"} 1',
        'emlio_storage_tier_reads_total{tier=',
        'emlio_pipeline_stage_ns{stage="decode"}',
        'emlio_pipeline_stage_ns{stage="preprocess"}',
        'emlio_failovers_total{kind="daemon"} 0',
        'emlio_failovers_total{kind="receiver"} 0',
        "emlio_batches_received_total 8",
        "emlio_decode_seconds_count 8",
        "emlio_preprocess_seconds_count",
        "emlio_heartbeat_decode_errors_total 0",
    ):
        assert series in text, series


def test_trace_writer_stats_surface_in_status(tmp_path):
    spec = _traced_quickstart(tmp_path, "tcp", metrics_port=None)
    with EMLIO.deploy(spec) as dep:
        for _ in dep.epoch(0):
            pass
    # The trace writer drains on a background thread; close() flushes it,
    # so the counts are final only after the deployment is closed.
    telemetry = dep.status()["telemetry"]
    # 8 batches x 7 stages, plus the service timeline events that share
    # the sink; nothing may be dropped at quickstart scale.
    assert telemetry["spans_written"] >= 8 * len(SPAN_STAGES)
    assert telemetry["spans_dropped"] == 0
    assert telemetry["trace_dir"] == spec.observability.trace_dir


def test_observability_defaults_are_inert(tmp_path):
    """No [observability] section: no exporter, no trace files, same data."""
    with EMLIO.deploy(preset("quickstart")) as dep:
        n = sum(len(l) for _t, l in dep.epoch(0))
        telemetry = dep.status()["telemetry"]
    assert n == 64
    assert telemetry == {
        "metrics_endpoint": None,
        "trace_dir": None,
        "trace_sample": 0.0,
        "spans_written": 0,
        "spans_dropped": 0,
    }
