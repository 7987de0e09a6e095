"""ClusterSpec validation, JSON/TOML round-trip identity, and registries."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    CODECS,
    ChaosEventSpec,
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
from repro.core.membership import MembershipConfig
from repro.core.placement import ElasticPolicy
from repro.core.recovery import RecoveryConfig
from repro.net.mq import ReconnectPolicy

#: A spec exercising every section away from its defaults (explicit
#: daemons, inline network, recovery + energy on, nested recovery tables,
#: chaos events, tuples everywhere).
FULL = ClusterSpec(
    name="full",
    dataset=DatasetSpec(kind="tokens", n=32, records_per_shard=8,
                        context_len=128, vocab_size=512, seed=9),
    pipeline=PipelineSpec(batch_size=4, epochs=3, hwm=8, daemon_threads=2,
                          streams_per_node=3, prefetch=4, output_hw=(24, 24),
                          coverage="replicate", seed=5, codec="tokens"),
    storage=StorageSpec(daemons=(
        DaemonSpec(root="/data/a", shards=("s0", "s1")),
        DaemonSpec(root="/data/b", shards=("s2",)),
    )),
    receivers=ReceiverSpec(num_nodes=3, stall_timeout_s=12.5),
    network=NetworkSpec(rtt_ms=4.5, bandwidth_gbps=10.0),
    recovery=RecoverySpec(
        enabled=True, ledger_path="/tmp/ledger.txt", compact_ledger=False,
        reconnect=ReconnectPolicy(max_retries=7, base_delay_s=0.05, max_delay_s=2.0),
        membership=MembershipConfig(interval_s=0.1, miss_threshold=3, dead_threshold=7,
                                    hung_after_s=1.5),
    ),
    energy=EnergySpec(enabled=True, cpu_model="epyc-7763", gpu_model="t4",
                      interval_s=0.25),
    elastic=ElasticPolicy(admit="closed", min_members=2, max_members=5,
                          rebalance_threshold=0.2),
    chaos=(
        ChaosEventSpec(at_s=0.5, action="kill", target="daemon:1"),
        ChaosEventSpec(at_s=1.5, action="join", target="daemon:/data/c"),
    ),
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
    # The retired reorder window: batches are emitted in arrival order.
    for section in ("pipeline", "recovery"):
        with pytest.raises(SpecError, match=f"unknown key.*'reorder_window'.*in {section}"):
            ClusterSpec.from_dict({section: {"reorder_window": 16}})
    # Nested tables and arrays of tables are checked the same way.
    with pytest.raises(SpecError, match="unknown key.*'interval'.*recovery.membership"):
        ClusterSpec.from_dict({"recovery": {"membership": {"interval": 1.0}}})
    with pytest.raises(SpecError, match=r"unknown key.*'when'.*chaos\[0\]"):
        ClusterSpec.from_dict({"chaos": [{"when": 1.0}]})
    # The flat recovery keys and the [chaos] events table are gone.
    with pytest.raises(SpecError, match="unknown key.*'miss_threshold'"):
        ClusterSpec.from_dict({"recovery": {"miss_threshold": 2}})
    with pytest.raises(SpecError, match="chaos must be a list"):
        ClusterSpec.from_dict({"chaos": {"events": []}})


def test_values_are_checked_against_their_type_hints():
    with pytest.raises(SpecError, match="pipeline.codec must be str"):
        ClusterSpec.from_dict({"pipeline": {"codec": 5}})
    with pytest.raises(SpecError, match="pipeline.batch_size must be int"):
        ClusterSpec.from_dict({"pipeline": {"batch_size": True}})
    with pytest.raises(SpecError, match=r"storage.daemons\[0\].shards"):
        ClusterSpec.from_dict({"storage": {"daemons": [{"root": "/a", "shards": [1]}]}})
    with pytest.raises(SpecError, match="recovery.membership must be a table"):
        ClusterSpec.from_dict({"recovery": {"membership": 0.5}})
    # An int is a valid float.
    spec = ClusterSpec.from_dict({"receivers": {"stall_timeout_s": 20}})
    assert spec.receivers.stall_timeout_s == 20


@pytest.mark.parametrize(
    "section,bad,match",
    [
        ("pipeline", {"batch_size": 0}, "batch_size"),
        ("pipeline", {"coverage": "broadcast"}, "coverage"),
        ("pipeline", {"reorder_window": 16}, "reorder_window"),  # now unknown
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
        ("recovery", {"membership": {"miss_threshold": 3, "dead_threshold": 3}}, "exceed"),
        ("recovery", {"membership": {"interval_s": 0}}, "interval_s"),
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
    assert cfg.streams_per_node == 3 and cfg.hwm == 8
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


def test_recovery_spec_resolves_to_config():
    """The [recovery] section *is* the service's RecoveryConfig."""
    rc = FULL.recovery
    assert isinstance(rc, RecoveryConfig)
    assert rc.membership.miss_threshold == 3
    assert rc.reconnect.max_retries == 7
    assert rc.ledger_path == "/tmp/ledger.txt"
    with pytest.raises(ValueError, match="dedup"):
        RecoverySpec(dedup=False)  # RecoveryConfig's own validation


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


# -- shipped spec files --------------------------------------------------------


def _spec_file_paths():
    from repro.tools.deploy import DEFAULT_SPEC_DIR

    return sorted(p for p in DEFAULT_SPEC_DIR.iterdir() if p.suffix in (".json", ".toml"))


@pytest.mark.parametrize("path", _spec_file_paths(), ids=lambda p: p.name)
def test_every_spec_file_equals_its_preset_apart_from_name(path):
    base = preset(path.stem.replace("_", "-"))
    spec = ClusterSpec.from_file(path)
    assert spec.name == f"{base.name}-file"
    assert dataclasses.replace(spec, name=base.name) == base
    assert ClusterSpec.from_toml(spec.to_toml()) == spec
    assert ClusterSpec.from_json(spec.to_json()) == spec


# -- round trip of any valid spec ----------------------------------------------

# Any non-empty string: quotes, backslashes, control and astral characters
# exercise the TOML string escaping.
_text = st.text(min_size=1, max_size=8)
_names = st.none() | _text


def _floats(lo: float, hi: float | None = None, **kw) -> st.SearchStrategy[float]:
    return st.floats(lo, hi, allow_nan=False, **kw)


@st.composite
def _cluster_specs(draw) -> ClusterSpec:
    recovery_on = draw(st.booleans())
    num_nodes = draw(st.integers(1, 6))

    kind = draw(st.sampled_from(DatasetSpec.KINDS))
    dataset = DatasetSpec(
        kind=kind, root=draw(_text if kind == "existing" else _names),
        n=draw(st.integers(1, 10**6)), records_per_shard=draw(st.integers(1, 4096)),
        seed=draw(st.integers(0, 2**32)),
        image_hw=draw(st.tuples(st.integers(1, 512), st.integers(1, 512))),
        num_classes=draw(st.integers(1, 1000)), sample_bytes=draw(st.integers(1, 2**24)),
        context_len=draw(st.integers(2, 4096)), vocab_size=draw(st.integers(2, 2**17)),
    )
    pipeline = PipelineSpec(
        batch_size=draw(st.integers(1, 256)), epochs=draw(st.integers(1, 8)),
        hwm=draw(st.integers(1, 64)), daemon_threads=draw(st.integers(1, 4)),
        streams_per_node=draw(st.integers(1, 4)), prefetch=draw(st.integers(1, 8)),
        workers=draw(st.integers(1, 4)),
        output_hw=draw(st.tuples(st.integers(1, 256), st.integers(1, 256))),
        coverage=draw(st.sampled_from(["partition", "replicate"])),
        seed=draw(st.integers(0, 2**32)), codec=draw(_text),
    )
    roots = draw(st.lists(_text, min_size=0, max_size=3, unique=True))
    daemons = tuple(
        DaemonSpec(root, None if len(roots) == 1 and draw(st.booleans()) else tuple(
            f"shard-{i}-{j}" for j in range(draw(st.integers(1, 3)))))
        for i, root in enumerate(roots)
    )
    latency_ms = draw(st.just(0.0) | _floats(0.0, 100.0))
    storage = StorageSpec(
        num_daemons=1 if daemons else draw(st.integers(1, 8)), daemons=daemons,
        backend="objectstore" if latency_ms else draw(_text),
        cache_bytes=draw(st.integers(0, 2**33)), latency_ms=latency_ms,
        verify_reads=draw(st.sampled_from([True, False, "open"])),
    )
    receivers = ReceiverSpec(num_nodes=num_nodes, stall_timeout_s=draw(_floats(1e-3, 1e4)))
    link = draw(st.sampled_from(["none", "profile", "rtt", "rtt+bw"]))
    network = NetworkSpec(
        profile=draw(_text) if link == "profile" else None,
        rtt_ms=draw(_floats(0.0, 1e3)) if link.startswith("rtt") else None,
        bandwidth_gbps=draw(_floats(1e-3, 400.0)) if link == "rtt+bw" else None,
        transport=draw(st.sampled_from(NetworkSpec.TRANSPORTS)),
        shm_ring_bytes=draw(st.integers(64 * 1024, 2**30)),
    )
    base_delay = draw(_floats(0.0, 1.0))
    reconnect = ReconnectPolicy(
        max_retries=draw(st.integers(0, 10)), base_delay_s=base_delay,
        max_delay_s=draw(_floats(base_delay, 10.0)),
    )
    miss = draw(st.integers(1, 5))
    recovery = RecoverySpec(
        enabled=recovery_on, ledger_path=draw(_names),
        dedup=draw(st.booleans()) if reconnect.max_retries == 0 else True,
        failover=draw(st.booleans()), compact_ledger=draw(st.booleans()),
        reconnect=reconnect,
        membership=MembershipConfig(
            interval_s=draw(_floats(1e-3, 10.0)), miss_threshold=miss,
            dead_threshold=draw(st.integers(miss + 1, 20)),
            hung_after_s=draw(_floats(0.0, 60.0)),
        ),
    )
    energy = EnergySpec(
        enabled=draw(st.booleans()), cpu_model=draw(_text), gpu_model=draw(_names),
        interval_s=draw(_floats(1e-3, 10.0)),
    )
    min_members = draw(st.integers(1, num_nodes))
    elastic = ElasticPolicy(
        admit=draw(st.sampled_from(["auto", "closed"])), min_members=min_members,
        max_members=draw(st.just(0) | st.integers(num_nodes, 16)),
        rebalance_threshold=draw(_floats(0.0, 1.0, exclude_max=True)),
    )
    targets = {
        "kill": st.builds("{}:{}".format, st.sampled_from(["daemon", "receiver"]),
                          st.integers(0, 9)),
        "hang": st.builds("daemon:{}".format, st.integers(0, 9)),
        "join": st.just("receiver") | st.builds("daemon:{}".format, _text),
    }
    actions = list(targets) if recovery_on else ["kill", "hang"]
    chaos = tuple(
        ChaosEventSpec(at_s=draw(_floats(0.0, 1e3)), action=action,
                       target=draw(targets[action]))
        for action in draw(st.lists(st.sampled_from(actions), max_size=4))
    )
    trace_dir = draw(_names)
    observability = ObservabilitySpec(
        metrics_port=draw(st.none() | st.integers(0, 65535)), trace_dir=trace_dir,
        trace_sample=draw(_floats(0.0, 1.0)) if trace_dir is not None else 0.0,
    )
    return ClusterSpec(
        name=draw(_text), dataset=dataset, pipeline=pipeline, storage=storage,
        receivers=receivers, network=network, recovery=recovery, energy=energy,
        elastic=elastic, chaos=chaos, observability=observability,
    )


@settings(max_examples=150, deadline=None)
@given(spec=_cluster_specs())
def test_any_valid_spec_round_trips_toml_and_json(spec):
    assert ClusterSpec.from_json(spec.to_json()) == spec
    assert ClusterSpec.from_dict(spec.to_dict()) == spec
    if spec.energy.gpu_model is None:
        # TOML has no null, and omitting the key would restore the default GPU.
        with pytest.raises(SpecError, match="energy.gpu_model = None"):
            spec.to_toml()
    else:
        assert ClusterSpec.from_toml(spec.to_toml()) == spec


@pytest.mark.parametrize(
    "table,field",
    [
        ("[recovery.membership]\ninterval_s = nan\n", "interval_s"),
        ("[recovery.membership]\nhung_after_s = nan\n", "hung_after_s"),
        ("[recovery.reconnect]\nbase_delay_s = nan\n", "base_delay_s"),
        ("[recovery.reconnect]\nmax_delay_s = nan\n", "max_delay_s"),
        ("[elastic]\nrebalance_threshold = nan\n", "rebalance_threshold"),
        ("[[chaos]]\nat_s = nan\naction = \"kill\"\ntarget = \"daemon:0\"\n", "at_s"),
    ],
)
def test_nan_fails_float_validation(table, field):
    """NaN fails every comparison, so each float bound is written to fail
    it too: a NaN value is rejected with the field's name, not loaded."""
    with pytest.raises(ValueError, match=field):
        ClusterSpec.from_toml(table)
