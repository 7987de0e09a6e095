"""EMLIO.deploy facade: dry-run planning, live deployments, callbacks,
the deploy CLI, and backward compatibility of the service layer."""

import dataclasses

import numpy as np
import pytest

from repro.api import (
    ClusterSpec,
    DatasetSpec,
    EMLIO,
    NetworkSpec,
    PipelineSpec,
    PRESETS,
    ReceiverSpec,
    RecoverySpec,
    SpecError,
    StorageSpec,
    preset,
)
from repro.api.deploy import Deployment, DeploymentPlan
from repro.core.membership import MembershipConfig
from repro.core.placement import ElasticPolicy


def _tiny_spec(**overrides) -> ClusterSpec:
    """A deploy-in-milliseconds spec (24 samples, 3 shards)."""
    base = dict(
        name="tiny",
        dataset=DatasetSpec(kind="imagenet", n=24, records_per_shard=8,
                            image_hw=(32, 32), seed=7),
        pipeline=PipelineSpec(batch_size=4, output_hw=(16, 16)),
        receivers=ReceiverSpec(stall_timeout_s=20.0),
    )
    base.update(overrides)
    return ClusterSpec(**base)


# -- dry-run planning ----------------------------------------------------------


def test_plan_is_socketless_and_complete():
    plan = EMLIO.plan(_tiny_spec())
    assert isinstance(plan, DeploymentPlan)
    assert plan.dataset_samples == 24 and plan.dataset_shards == 3
    assert plan.batches_per_epoch == 6 and plan.total_batches == 6
    assert plan.num_nodes == 1 and plan.profile is None
    assert "tiny" in plan.summary()


def test_deploy_dry_run_equals_plan():
    plan = EMLIO.deploy(_tiny_spec(), dry_run=True)
    assert isinstance(plan, DeploymentPlan)
    # daemon_roots embed the per-call generated-dataset tempdir; every
    # other resolved field is deterministic.
    other = EMLIO.plan(_tiny_spec())
    assert dataclasses.replace(plan, daemon_roots=()) == dataclasses.replace(
        other, daemon_roots=()
    )


@pytest.mark.parametrize("name", sorted(PRESETS.names()))
def test_every_preset_plans_in_dry_run(name):
    plan = EMLIO.plan(preset(name))
    assert plan.total_batches > 0


def test_every_shipped_spec_file_plans(tmp_path):
    from repro.tools.deploy import DEFAULT_SPEC_DIR, _spec_files

    files = _spec_files([])
    assert DEFAULT_SPEC_DIR.is_dir() and len(files) >= 5
    for path in files:
        assert EMLIO.plan(ClusterSpec.from_file(path)).total_batches > 0


def test_plan_rejects_unknown_component_names():
    with pytest.raises(ValueError, match="unknown network profile"):
        EMLIO.plan(_tiny_spec(network=NetworkSpec(profile="warp-drive")))
    with pytest.raises(ValueError, match="unknown codec"):
        EMLIO.plan(_tiny_spec(pipeline=PipelineSpec(codec="avif")))
    with pytest.raises(ValueError, match="unknown storage backend"):
        EMLIO.plan(_tiny_spec(storage=StorageSpec(backend="s3")))
    with pytest.raises(SpecError, match="exceeds the dataset"):
        EMLIO.plan(_tiny_spec(storage=StorageSpec(num_daemons=64)))
    with pytest.raises(SpecError, match="cannot deploy"):
        EMLIO.deploy(42)


# -- live deployments ----------------------------------------------------------


def test_deploy_consumes_epoch_exactly_once(small_imagenet):
    spec = _tiny_spec(dataset=DatasetSpec(kind="existing", root="ignored"))
    with EMLIO.deploy(spec, dataset=small_imagenet) as dep:
        assert isinstance(dep, Deployment)
        labels = [int(l) for _t, ls in dep.epoch(0) for l in ls]
    expected = sorted(l for per in small_imagenet.labels().values() for l in per)
    assert sorted(labels) == expected


def test_deploy_generates_dataset_and_cleans_up(tmp_path):
    dep = EMLIO.deploy(_tiny_spec())
    owned = dep._owned_dir
    assert owned is not None
    import os

    assert os.path.isdir(owned.name)
    n = sum(len(l) for _t, l in dep.epoch(0))
    dep.close()
    assert n == 24
    assert not os.path.isdir(owned.name)  # generated dataset removed


def test_deploy_epoch_start_and_status_and_epochs(small_imagenet):
    starts = []
    spec = _tiny_spec(pipeline=PipelineSpec(batch_size=4, epochs=2, output_hw=(16, 16)))
    with EMLIO.deploy(spec, dataset=small_imagenet, on_epoch_start=starts.append) as dep:
        seen = [e for e, _t, _l in dep.epochs()]
        status = dep.status()
    assert starts == [0, 1]
    assert sorted(set(seen)) == [0, 1]
    assert status["spec"] == "tiny"
    assert status["pipeline"]["batches_received"] == 12
    assert status["cluster"]["num_nodes"] == 1
    assert status["energy"] is None


def test_deploy_tokens_codec_end_to_end():
    spec = ClusterSpec(
        name="tok",
        dataset=DatasetSpec(kind="tokens", n=16, context_len=64,
                            vocab_size=256, records_per_shard=8),
        pipeline=PipelineSpec(batch_size=4, codec="tokens"),
        receivers=ReceiverSpec(stall_timeout_s=20.0),
    )
    with EMLIO.deploy(spec) as dep:
        batches = list(dep.epoch(0))
    assert len(batches) == 4
    for tensors, labels in batches:
        assert tensors.shape == (4, 64) and tensors.dtype == np.int64
        assert len(labels) == 4


def test_quickstart_auto_transport_selects_shm():
    """ACCEPTANCE: the quickstart preset (transport="auto", co-located,
    unshaped) upgrades its daemon→receiver pair to the shm ring."""
    with EMLIO.deploy(preset("quickstart")) as dep:
        n = sum(len(l) for _t, l in dep.epoch(0))
        stats = dep.stats()
    assert n == 64
    assert stats["transports"] == {"0": "shm"}
    assert stats["shm_attaches"] >= 1


def test_deploy_forced_tcp_never_attaches_shm(small_imagenet):
    """The default transport stays plain TCP byte-for-byte: no handshake,
    no ring, even though the pair is co-located."""
    spec = _tiny_spec(dataset=DatasetSpec(kind="existing", root="ignored"))
    with EMLIO.deploy(spec, dataset=small_imagenet) as dep:
        n = sum(len(l) for _t, l in dep.epoch(0))
        stats = dep.stats()
    assert n == 24
    assert stats["transports"] == {"0": "tcp"}
    assert stats["shm_attaches"] == 0


def test_deploy_sharded_storage_splits_daemons(small_imagenet):
    spec = _tiny_spec(storage=StorageSpec(num_daemons=3))
    with EMLIO.deploy(spec, dataset=small_imagenet) as dep:
        n = sum(len(l) for _t, l in dep.epoch(0))
        per_daemon = [d.stats.snapshot()["batches_sent"] for d in dep.service.daemons]
    assert n == 24
    assert len(per_daemon) == 3 and all(c > 0 for c in per_daemon)


def test_deploy_recovery_callbacks_fire_on_failover(small_imagenet, tmp_path):
    events, failovers = [], []
    spec = _tiny_spec(
        storage=StorageSpec(num_daemons=1),
        recovery=RecoverySpec(enabled=True,
                              membership=MembershipConfig(
                                  interval_s=0.02, miss_threshold=2,
                                  dead_threshold=5, hung_after_s=30.0),
                              ledger_path=str(tmp_path / "ledger.txt")),
        receivers=ReceiverSpec(num_nodes=2, stall_timeout_s=20.0),
    )
    with EMLIO.deploy(spec, dataset=small_imagenet) as dep:
        dep.on_member_event(events.append)
        dep.on_failover(lambda kind, _info: failovers.append(kind))
        dep.service.kill_receiver(1)  # before consuming: full partition owed
        labels = [int(l) for _t, ls in dep.epoch(0) for l in ls]
        assert dep.service.receiver_failovers == 1
    expected = sorted(l for per in small_imagenet.labels().values() for l in per)
    assert sorted(labels) == expected  # survivor covered the dead node
    assert "receiver" in failovers
    assert any(ev["event"] == "dead" and ev["role"] == "receiver" for ev in events)


def test_deploy_energy_monitor_reports(small_imagenet):
    spec = _tiny_spec(
        energy=dataclasses.replace(_tiny_spec().energy, enabled=True, interval_s=0.02),
    )
    import time

    with EMLIO.deploy(spec, dataset=small_imagenet) as dep:
        for _ in dep.epoch(0):
            pass
        time.sleep(0.1)  # a few sampler ticks beyond the epoch
    # Algorithm 1's batch writer merges samples into the TSDB when the
    # monitor stops, so the totals are read after close().
    status = dep.status()
    assert status["energy"] is not None
    assert status["energy"]["cpu_j"] > 0 and status["energy"]["samples"] >= 2


def test_service_call_sites_unchanged(small_imagenet):
    """Acceptance: pre-existing EMLIOService(...) construction still works
    with no new required arguments."""
    from repro.core import EMLIOConfig, EMLIOService

    cfg = EMLIOConfig(batch_size=4, output_hw=(16, 16))
    with EMLIOService(cfg, small_imagenet) as svc:
        assert sum(len(l) for _t, l in svc.epoch(0)) == 24


# -- the deploy CLI ------------------------------------------------------------


def test_cli_dry_run_and_list_and_check(tmp_path, capsys):
    from repro.tools import deploy as cli

    spec_path = _tiny_spec().to_file(tmp_path / "tiny.toml")
    assert cli.main([str(spec_path), "--dry-run"]) == 0
    assert "tiny" in capsys.readouterr().out

    assert cli.main(["--list-presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS.names():
        assert name in out

    assert cli.main(["--check-presets", str(tmp_path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_check_presets_fails_on_bad_spec(tmp_path, capsys):
    from repro.tools import deploy as cli

    (tmp_path / "broken.toml").write_text('[pipeline]\nbatch_size = 0\n')
    assert cli.main(["--check-presets", str(tmp_path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_runs_a_spec_file(tmp_path, capsys):
    from repro.tools import deploy as cli

    spec_path = _tiny_spec().to_file(tmp_path / "tiny.json")
    assert cli.main([str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "epoch 0: 6 batches / 24 samples" in out


def test_cli_error_paths(tmp_path, capsys):
    from repro.tools import deploy as cli

    assert cli.main([]) == 2
    assert cli.main([str(tmp_path / "missing.toml")]) == 2
    assert "error" in capsys.readouterr().err


def test_power_model_cross_type_rejected_at_plan_time():
    """A GPU model named as cpu_model (or vice versa) must fail the
    dry-run, not crash a sampler thread mid-run."""
    from repro.api import EnergySpec

    bad_cpu = _tiny_spec(energy=EnergySpec(enabled=True, cpu_model="t4"))
    with pytest.raises(SpecError, match="not a CPU power model"):
        EMLIO.plan(bad_cpu)
    bad_gpu = _tiny_spec(
        energy=EnergySpec(enabled=True, gpu_model="xeon-gold-6126")
    )
    with pytest.raises(SpecError, match="not a GPU power model"):
        EMLIO.plan(bad_gpu)
    no_gpu = _tiny_spec(energy=EnergySpec(enabled=True, gpu_model=None))
    assert EMLIO.plan(no_gpu).energy_enabled


def test_cli_unknown_preset_and_component_exit_cleanly(tmp_path, capsys):
    from repro.tools import deploy as cli

    assert cli.main(["--preset", "no-such-topology"]) == 2
    assert "unknown preset" in capsys.readouterr().err
    spec = _tiny_spec(network=NetworkSpec(profile="warp-drive"))
    path = spec.to_file(tmp_path / "warp.toml")
    assert cli.main([str(path), "--dry-run"]) == 2
    assert "unknown network profile" in capsys.readouterr().err


# -- spec-driven chaos + elastic sections --------------------------------------


def test_chaos_and_elastic_sections_validate():
    from repro.api import ChaosEventSpec

    spec = _tiny_spec(
        receivers=ReceiverSpec(num_nodes=2, stall_timeout_s=20.0),
        recovery=RecoverySpec(enabled=True),
        elastic=ElasticPolicy(admit="auto", max_members=4, rebalance_threshold=0.1),
        chaos=(
            ChaosEventSpec(at_s=0.5, action="kill", target="receiver:1"),
            ChaosEventSpec(at_s=1.0, action="join", target="receiver"),
        ),
    )
    assert EMLIO.plan(spec).num_nodes == 2
    with pytest.raises(SpecError, match="chaos"):
        ChaosEventSpec(at_s=0.1, action="explode", target="daemon:0")
    with pytest.raises(SpecError, match="target"):
        ChaosEventSpec(at_s=0.1, action="kill", target="receiver")
    with pytest.raises(SpecError, match="join target"):
        ChaosEventSpec(at_s=0.1, action="join", target="receiver:2")
    with pytest.raises(SpecError, match="min_members"):
        _tiny_spec(elastic=ElasticPolicy(min_members=2))
    with pytest.raises(SpecError, match="recovery.enabled"):
        _tiny_spec(chaos=(
            ChaosEventSpec(at_s=0.1, action="join", target="receiver"),
        ))


def test_chaos_events_out_of_range_receiver_rejected_at_plan():
    from repro.api import ChaosEventSpec

    spec = _tiny_spec(chaos=(
        ChaosEventSpec(at_s=0.1, action="kill", target="receiver:5"),
    ))
    with pytest.raises(SpecError, match="only 1 node"):
        EMLIO.plan(spec)


def test_chaos_and_elastic_round_trip_toml_and_json(tmp_path):
    from repro.api import ChaosEventSpec

    spec = _tiny_spec(
        receivers=ReceiverSpec(num_nodes=2, stall_timeout_s=20.0),
        recovery=RecoverySpec(enabled=True),
        elastic=ElasticPolicy(max_members=3, rebalance_threshold=0.25),
        chaos=(
            ChaosEventSpec(at_s=0.4, action="kill", target="daemon:0"),
            ChaosEventSpec(at_s=1.2, action="join", target="receiver"),
        ),
    )
    for suffix in (".toml", ".json"):
        path = spec.to_file(tmp_path / f"drill{suffix}")
        assert ClusterSpec.from_file(path) == spec


@pytest.mark.slow
def test_deploy_runs_spec_driven_chaos_schedule(tmp_path):
    """Deploying a spec with a [chaos] kill schedule *is* the drill: the
    event fires from the deployment's timer, failover re-plans, and the
    epoch still delivers exactly once."""
    from repro.api import ChaosEventSpec

    spec = _tiny_spec(
        name="drill-live",
        dataset=DatasetSpec(kind="imagenet", n=96, records_per_shard=8,
                            image_hw=(32, 32), seed=7),
        pipeline=PipelineSpec(batch_size=4, output_hw=(16, 16)),
        network=NetworkSpec(rtt_ms=20.0),
        receivers=ReceiverSpec(num_nodes=2, stall_timeout_s=20.0),
        recovery=RecoverySpec(
            enabled=True,
            ledger_path=str(tmp_path / "ledger.txt"),
            membership=MembershipConfig(
                interval_s=0.05, miss_threshold=2, dead_threshold=5, hung_after_s=0.0
            ),
        ),
        chaos=(
            ChaosEventSpec(at_s=0.3, action="kill", target="receiver:1"),
        ),
    )
    fired = []
    with EMLIO.deploy(spec) as dep:
        dep.on_failover(lambda kind, info: fired.append(kind))
        samples = sum(len(l) for _t, l in dep.epoch(0))
        assert samples == 96
        # The schedule's kill lands at its offset even if the epoch raced
        # it; either way the timer fires and the node dies.
        import time as _time

        deadline = _time.monotonic() + 5.0
        while not dep.service.receivers[1].killed and _time.monotonic() < deadline:
            _time.sleep(0.02)
        assert dep.service.receivers[1].killed
        ledger = dep.service.ledger
        assert ledger.completed_epochs() == {0: len(dep.service.plan.keys(epoch=0))}


def test_chaos_out_of_range_target_also_rejected_at_live_deploy():
    """A drill the dry-run rejects must not deploy cleanly live."""
    from repro.api import ChaosEventSpec

    spec = _tiny_spec(chaos=(
        ChaosEventSpec(at_s=0.1, action="kill", target="receiver:5"),
    ))
    with pytest.raises(SpecError, match="only 1 node"):
        EMLIO.deploy(spec)
