"""ClusterSpec validation, JSON/TOML round-trip identity, and registries."""

import dataclasses

import pytest

from repro.api import (
    CODECS,
    ClusterSpec,
    DaemonSpec,
    DatasetSpec,
    DuplicateComponentError,
    EnergySpec,
    NETWORK_PROFILES,
    NetworkSpec,
    ObservabilitySpec,
    PipelineSpec,
    POWER_MODELS,
    ReceiverSpec,
    RecoverySpec,
    Registry,
    SpecError,
    STORAGE_BACKENDS,
    StorageSpec,
    UnknownComponentError,
    preset,
    PRESETS,
)

#: A spec exercising every section away from its defaults (explicit
#: daemons, inline network, recovery + energy on, tuples everywhere).
FULL = ClusterSpec(
    name="full",
    dataset=DatasetSpec(kind="tokens", n=32, records_per_shard=8,
                        context_len=128, vocab_size=512, seed=9),
    pipeline=PipelineSpec(batch_size=4, epochs=3, hwm=8, daemon_threads=2,
                          streams_per_node=3, prefetch=4, output_hw=(24, 24),
                          coverage="replicate", seed=5, reorder_window=-1,
                          codec="tokens"),
    storage=StorageSpec(daemons=(
        DaemonSpec(root="/data/a", shards=("s0", "s1")),
        DaemonSpec(root="/data/b", shards=("s2",)),
    )),
    receivers=ReceiverSpec(num_nodes=3, stall_timeout_s=12.5),
    network=NetworkSpec(rtt_ms=4.5, bandwidth_gbps=10.0),
    recovery=RecoverySpec(enabled=True, ledger_path="/tmp/ledger.txt",
                          reorder_window=16, heartbeat_interval_s=0.1,
                          miss_threshold=3, dead_threshold=7, hung_after_s=1.5),
    energy=EnergySpec(enabled=True, cpu_model="epyc-7763", gpu_model="t4",
                      interval_s=0.25),
    observability=ObservabilitySpec(metrics_port=9477, trace_dir="/tmp/traces",
                                    trace_sample=0.05),
)


# -- round trips ---------------------------------------------------------------


@pytest.mark.parametrize("spec", [ClusterSpec(), FULL], ids=["default", "full"])
def test_spec_round_trips_json_and_toml_identically(spec):
    assert ClusterSpec.from_json(spec.to_json()) == spec
    assert ClusterSpec.from_toml(spec.to_toml()) == spec
    assert ClusterSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("name", sorted(PRESETS.names()))
def test_every_preset_round_trips_both_formats(name):
    spec = preset(name)
    assert ClusterSpec.from_toml(spec.to_toml()) == spec
    assert ClusterSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize("suffix", [".json", ".toml"])
def test_spec_file_round_trip(tmp_path, suffix):
    path = FULL.to_file(tmp_path / f"spec{suffix}")
    assert ClusterSpec.from_file(path) == FULL


def test_spec_file_unknown_suffix_and_missing_file(tmp_path):
    with pytest.raises(SpecError, match="unsupported spec format"):
        ClusterSpec().to_file(tmp_path / "spec.yaml")
    with pytest.raises(SpecError, match="not found"):
        ClusterSpec.from_file(tmp_path / "nope.toml")
    bad = tmp_path / "bad.toml"
    bad.write_text("this is [not toml")
    with pytest.raises(SpecError, match="not valid TOML"):
        ClusterSpec.from_file(bad)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    with pytest.raises(SpecError, match="not valid JSON"):
        ClusterSpec.from_file(bad_json)


def test_partial_files_fill_defaults(tmp_path):
    path = tmp_path / "partial.toml"
    path.write_text('name = "partial"\n[pipeline]\nbatch_size = 4\n')
    spec = ClusterSpec.from_file(path)
    assert spec.name == "partial"
    assert spec.pipeline.batch_size == 4
    assert spec.pipeline.hwm == PipelineSpec().hwm  # untouched default
    assert spec.dataset == DatasetSpec()


# -- validation errors ---------------------------------------------------------


def test_unknown_keys_rejected_loudly():
    with pytest.raises(SpecError, match="unknown key.*'pipelines'"):
        ClusterSpec.from_dict({"pipelines": {}})
    with pytest.raises(SpecError, match="unknown key.*'batchsize'"):
        ClusterSpec.from_dict({"pipeline": {"batchsize": 4}})
    # The retired wire-schema knob: one schema, so no key to pick it.
    with pytest.raises(SpecError, match="unknown key.*'payload_version'"):
        ClusterSpec.from_dict({"pipeline": {"payload_version": 3}})


@pytest.mark.parametrize(
    "section,bad,match",
    [
        ("pipeline", {"batch_size": 0}, "batch_size"),
        ("pipeline", {"coverage": "broadcast"}, "coverage"),
        ("pipeline", {"reorder_window": -2}, "reorder_window"),
        ("pipeline", {"output_hw": [16]}, "pair of ints"),
        ("pipeline", {"codec": ""}, "codec"),
        ("pipeline", {"workers": 0}, "workers"),
        ("pipeline", {"payload_version": 2}, "payload_version"),  # now unknown
        ("pipeline", {"payload_version": 3}, "payload_version"),
        ("dataset", {"kind": "webdataset"}, "dataset.kind"),
        ("dataset", {"kind": "existing"}, "requires dataset.root"),
        ("dataset", {"n": 0}, "dataset.n"),
        ("dataset", {"context_len": 1}, "context_len"),
        ("receivers", {"num_nodes": 0}, "num_nodes"),
        ("receivers", {"stall_timeout_s": 0}, "stall_timeout_s"),
        ("network", {"profile": "wan-30ms", "rtt_ms": 1.0}, "not both"),
        ("network", {"rtt_ms": -1.0}, "rtt_ms"),
        ("network", {"bandwidth_gbps": 10.0}, "needs network.rtt_ms"),
        ("recovery", {"miss_threshold": 3, "dead_threshold": 3}, "exceed"),
        ("recovery", {"heartbeat_interval_s": 0}, "interval_s"),
        ("recovery", {"dedup": False}, "dedup"),
        ("energy", {"interval_s": 0}, "interval_s"),
        ("storage", {"num_daemons": 0}, "num_daemons"),
        ("storage", {"verify_reads": "always"}, "verify_reads"),
        ("storage", {"verify_reads": 1}, "verify_reads"),
        ("observability", {"metrics_port": 65536}, "metrics_port"),
        ("observability", {"metrics_port": -1}, "metrics_port"),
        ("observability", {"metrics_port": True}, "metrics_port"),
        ("observability", {"trace_sample": 1.5, "trace_dir": "/t"}, "trace_sample"),
        ("observability", {"trace_sample": -0.1, "trace_dir": "/t"}, "trace_sample"),
        ("observability", {"trace_sample": 0.5}, "requires observability.trace_dir"),
    ],
)
def test_section_validation_errors(section, bad, match):
    with pytest.raises(SpecError, match=match):
        ClusterSpec.from_dict({section: bad})


def test_storage_daemon_validation():
    with pytest.raises(SpecError, match="duplicate storage daemon roots"):
        StorageSpec(daemons=(DaemonSpec("/a"), DaemonSpec("/a")))
    with pytest.raises(SpecError, match="owned by two daemons"):
        StorageSpec(daemons=(DaemonSpec("/a", ("s0",)), DaemonSpec("/b", ("s0",))))
    with pytest.raises(SpecError, match="per-daemon shard lists"):
        StorageSpec(daemons=(DaemonSpec("/a"), DaemonSpec("/b")))
    with pytest.raises(SpecError, match="not both"):
        StorageSpec(num_daemons=2, daemons=(DaemonSpec("/a", ("s0",)),))
    with pytest.raises(SpecError, match="non-empty"):
        DaemonSpec("/a", shards=())


def test_pipeline_spec_resolves_to_config():
    cfg = FULL.pipeline.to_config()
    assert cfg.batch_size == 4 and cfg.coverage == "replicate"
    assert cfg.effective_reorder_window == 3 * 8  # AUTO: streams x hwm
    assert cfg.workers == 1  # the default


def test_pipeline_spec_forwards_workers():
    spec = PipelineSpec(workers=4)
    assert spec.to_config().workers == 4
    # And it survives the serialization round trip like every knob.
    cluster = ClusterSpec(pipeline=spec)
    assert ClusterSpec.from_toml(cluster.to_toml()).pipeline.workers == 4
    assert ClusterSpec.from_json(cluster.to_json()).pipeline.workers == 4


@pytest.mark.parametrize("verify", [True, False, "open"])
def test_storage_verify_reads_reaches_config(verify):
    from repro.api.deploy import _resolve_config

    spec = ClusterSpec(storage=StorageSpec(verify_reads=verify))
    assert _resolve_config(spec).verify_reads == verify
    # The knob round-trips through both serialization formats.
    assert ClusterSpec.from_toml(spec.to_toml()).storage.verify_reads == verify
    assert ClusterSpec.from_json(spec.to_json()).storage.verify_reads == verify


def test_recovery_spec_resolves_to_config(tmp_path):
    rc = FULL.recovery.to_config(ledger_path=tmp_path / "l.txt")
    assert rc.membership.miss_threshold == 3
    assert rc.reconnect.max_retries == 5
    assert rc.ledger_path == tmp_path / "l.txt"
    assert FULL.recovery.to_config().ledger_path == "/tmp/ledger.txt"


# -- registries ----------------------------------------------------------------


def test_registry_duplicate_and_unknown_errors():
    reg = Registry("widget")
    reg.register("a", 1)
    with pytest.raises(DuplicateComponentError, match="already registered"):
        reg.register("a", 2)
    assert reg.get("a") == 1
    reg.register("a", 2, replace=True)
    assert reg.get("a") == 2
    with pytest.raises(UnknownComponentError, match=r"unknown widget 'b'.*\['a'\]"):
        reg.get("b")
    with pytest.raises(ValueError, match="non-empty string"):
        reg.register("", 3)
    assert "a" in reg and list(reg) == ["a"] and len(reg) == 1


def test_seeded_registries_cover_shipped_components():
    assert {"auto", "sjpg", "raw", "tokens"} <= set(CODECS.names())
    assert {"local", "wan-30ms"} <= set(NETWORK_PROFILES.names())
    assert {"localfs", "nfs"} <= set(STORAGE_BACKENDS.names())
    assert {"xeon-gold-6126", "quadro-rtx-6000"} <= set(POWER_MODELS.names())


def test_network_profile_registration_shared_with_emulation():
    from repro.net.emulation import PROFILES, NetworkProfile, register_profile

    name = "test-shared-profile"
    try:
        register_profile(NetworkProfile(name, rtt_s=0.001))
        assert name in NETWORK_PROFILES  # one backing table
        with pytest.raises(ValueError, match="already registered"):
            register_profile(NetworkProfile(name, rtt_s=0.002))
        spec = ClusterSpec(network=NetworkSpec(profile=name))
        from repro.api.deploy import _resolve_profile

        assert _resolve_profile(spec).rtt_s == 0.001
    finally:
        PROFILES.pop(name, None)


def test_presets_are_frozen_and_replaceable():
    base = preset("quickstart")
    with pytest.raises(dataclasses.FrozenInstanceError):
        base.name = "mutated"
    derived = dataclasses.replace(base, name="derived")
    assert derived.pipeline == base.pipeline and derived.name == "derived"
    with pytest.raises(UnknownComponentError, match="unknown preset"):
        preset("no-such-topology")
