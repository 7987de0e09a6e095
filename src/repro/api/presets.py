"""Canonical deployment presets — one per shipped topology.

Every example and live benchmark topology has a named spec here, so CI can
dry-run-deploy all of them and scenario files can start from a known-good
base (``preset("quickstart")`` then ``dataclasses.replace``).  Specs are
frozen, so sharing the instances is safe.

None of the presets enable the ``[observability]`` section — telemetry is
an overlay, not a topology.  To trace a preset end-to-end, replace the
section::

    import dataclasses
    from repro.api.spec import ObservabilitySpec
    spec = dataclasses.replace(
        preset("quickstart"),
        observability=ObservabilitySpec(
            metrics_port=0, trace_dir="/tmp/traces", trace_sample=1.0
        ),
    )
"""

from __future__ import annotations

from repro.api.registry import Registry
from repro.api.spec import (
    ChaosEventSpec,
    ClusterSpec,
    DatasetSpec,
    EnergySpec,
    NetworkSpec,
    ObservabilitySpec,  # noqa: F401 - re-exported for the overlay recipe above
    PipelineSpec,
    ReceiverSpec,
    RecoverySpec,
    StorageSpec,
)
from repro.core.membership import MembershipConfig
from repro.core.placement import ElasticPolicy

#: examples/quickstart.py — one daemon, one node, tiny synthetic ImageNet.
#: transport="auto": everything is co-located and unshaped, so the pair
#: upgrades itself to the shared-memory ring.
QUICKSTART = ClusterSpec(
    name="quickstart",
    dataset=DatasetSpec(kind="imagenet", n=64, records_per_shard=16, image_hw=(32, 32)),
    pipeline=PipelineSpec(batch_size=8, epochs=1, hwm=16, prefetch=2, output_hw=(32, 32)),
    network=NetworkSpec(transport="auto"),
)

#: examples/sharded_cluster.py — paper §5.2 Scenario 2: shards split across
#: two storage daemons, one compute node consuming the merged stream.
SHARDED_CLUSTER = ClusterSpec(
    name="sharded-cluster",
    dataset=DatasetSpec(
        kind="imagenet", n=96, seed=2, records_per_shard=16,
        image_hw=(32, 32), num_classes=8,
    ),
    pipeline=PipelineSpec(batch_size=8, hwm=16, output_hw=(32, 32)),
    storage=StorageSpec(num_daemons=2),
)

#: examples/geo_distributed_training.py — the WAN regime, with the energy
#: monitor attached (paper §5.1's emulated-RTT setup).
GEO_WAN = ClusterSpec(
    name="geo-wan",
    dataset=DatasetSpec(kind="imagenet", n=64, records_per_shard=16, image_hw=(32, 32)),
    pipeline=PipelineSpec(batch_size=8, streams_per_node=2, output_hw=(16, 16)),
    network=NetworkSpec(profile="wan-30ms"),
    energy=EnergySpec(enabled=True, interval_s=0.05),
)

#: examples/llm_text_loading.py — token records through the real pipeline,
#: decoded by the "tokens" codec instead of the image path.
LLM_TOKENS = ClusterSpec(
    name="llm-tokens",
    dataset=DatasetSpec(kind="tokens", n=64, context_len=512, records_per_shard=16),
    pipeline=PipelineSpec(batch_size=8, hwm=16, codec="tokens"),
)

#: The chaos suite's shape: two compute nodes, fault tolerance on, an
#: aggressive failure detector — and the drill itself lives in the spec's
#: ``[[chaos]]`` schedule: one node is killed mid-epoch (its undelivered
#: batches fail over to the survivor) and a fresh receiver joins later and
#: is rebalanced onto (elastic scale-out).  Deploying the preset *is*
#: running the drill; no script needed.
RECOVERY_DRILL = ClusterSpec(
    name="recovery-drill",
    # Big enough that an epoch lasts ~1 s over the shaped link — the drill
    # schedule below needs room to land *mid*-epoch.
    dataset=DatasetSpec(kind="imagenet", n=384, records_per_shard=16, image_hw=(32, 32)),
    # hwm=2 on a single stream keeps most batches *unsent* (not merely
    # undelivered) deep into the epoch, so the join's mid-epoch claim has
    # real work to move.
    pipeline=PipelineSpec(batch_size=8, epochs=2, hwm=2, streams_per_node=1,
                          output_hw=(16, 16)),
    receivers=ReceiverSpec(num_nodes=2, stall_timeout_s=20.0),
    # Emulated RTT + a narrow link stretch the epochs past the chaos
    # offsets — on bare loopback the run would finish before the drill
    # fires.
    network=NetworkSpec(rtt_ms=15.0, bandwidth_gbps=0.004),
    recovery=RecoverySpec(
        enabled=True,
        membership=MembershipConfig(
            interval_s=0.05, miss_threshold=2, dead_threshold=5, hung_after_s=2.0
        ),
    ),
    elastic=ElasticPolicy(admit="auto", max_members=4),
    chaos=(
        ChaosEventSpec(at_s=0.3, action="join", target="receiver"),
        ChaosEventSpec(at_s=1.0, action="kill", target="receiver:1"),
    ),
)

#: The tiered-storage quickstart: the quickstart topology served off the
#: emulated object store (5 ms per range-GET) through a plan-informed
#: hot-set cache.  Epoch 0 pays the remote latency once per planned range
#: (prefetch + misses); warm epochs serve from the cache.
STORAGE_TIERS = ClusterSpec(
    name="storage-tiers",
    dataset=DatasetSpec(kind="imagenet", n=64, records_per_shard=16, image_hw=(32, 32)),
    pipeline=PipelineSpec(batch_size=8, epochs=2, hwm=16, prefetch=2, output_hw=(32, 32)),
    storage=StorageSpec(
        backend="objectstore", latency_ms=5.0, cache_bytes=8 * 1024 * 1024
    ),
)

#: benchmarks/bench_e2e_loopback.py — the live 8 ms-RTT loopback bench.
#: verify_reads="open": the whole-shard CRC walk happens at open (paid in
#: the warmup epochs), so the measured epoch reads the already-verified
#: mapping instead of re-checksumming every record on the serve path.
#: workers=1: the preprocess pool pays for itself only with real cores to
#: spread over; on the single-vCPU bench runner the GIL interleave of a
#: wider pool just inflates per-batch wall time (measured: 1 > 2 > 4).
BENCH_LOOPBACK = ClusterSpec(
    name="bench-loopback",
    dataset=DatasetSpec(kind="imagenet", n=96, seed=1, records_per_shard=16, image_hw=(32, 32)),
    pipeline=PipelineSpec(
        batch_size=8, hwm=16, streams_per_node=2, workers=1, output_hw=(16, 16)
    ),
    storage=StorageSpec(verify_reads="open"),
    network=NetworkSpec(rtt_ms=8.0),
)

PRESETS: Registry[ClusterSpec] = Registry("preset")
for _spec in (
    QUICKSTART,
    SHARDED_CLUSTER,
    GEO_WAN,
    LLM_TOKENS,
    RECOVERY_DRILL,
    STORAGE_TIERS,
    BENCH_LOOPBACK,
):
    PRESETS.register(_spec.name, _spec)


def preset(name: str) -> ClusterSpec:
    """Look up a canonical spec by name (see :data:`PRESETS` for the list)."""
    return PRESETS.get(name)


__all__ = [
    "BENCH_LOOPBACK",
    "GEO_WAN",
    "LLM_TOKENS",
    "PRESETS",
    "QUICKSTART",
    "RECOVERY_DRILL",
    "SHARDED_CLUSTER",
    "STORAGE_TIERS",
    "preset",
]
