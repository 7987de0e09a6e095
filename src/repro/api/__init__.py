"""repro.api — the declarative deployment API.

The stable, consumer-facing entry point to the EMLIO pipeline:

* :class:`~repro.api.spec.ClusterSpec` — a serializable description of one
  deployment (dataset, pipeline tunables, storage daemons, receivers,
  network profile, recovery/membership policy, energy modeling) with
  validation and lossless JSON/TOML round-trips;
* :mod:`~repro.api.registry` — component registries (codecs, network
  profiles, storage backends, power models) that resolve the spec's string
  references and let third parties ``register()`` new backends;
* :class:`~repro.api.deploy.EMLIO` — ``EMLIO.deploy(spec)`` returns a
  :class:`~repro.api.deploy.Deployment` with ``epoch()/epochs()``,
  lifecycle callbacks, ``status()``, and context-manager shutdown;
  ``dry_run=True`` validates and plans without touching a socket;
* :mod:`~repro.api.presets` — canonical specs for every shipped topology.

``EMLIOService`` and the daemon/receiver classes remain public — the
facade is sugar over them, not a replacement.
"""

from repro.api.deploy import Deployment, DeploymentPlan, EMLIO
from repro.api.presets import PRESETS, preset
from repro.api.registry import (
    CODECS,
    Codec,
    DuplicateComponentError,
    NETWORK_PROFILES,
    POWER_MODELS,
    Registry,
    RegistryError,
    STORAGE_BACKENDS,
    UnknownComponentError,
)
from repro.api.spec import (
    ChaosEventSpec,
    ClusterSpec,
    DaemonSpec,
    DatasetSpec,
    EnergySpec,
    NetworkSpec,
    ObservabilitySpec,
    PipelineSpec,
    ReceiverSpec,
    RecoverySpec,
    SpecError,
    StorageSpec,
)

__all__ = [
    "CODECS",
    "ChaosEventSpec",
    "ClusterSpec",
    "Codec",
    "DaemonSpec",
    "DatasetSpec",
    "Deployment",
    "DeploymentPlan",
    "DuplicateComponentError",
    "EMLIO",
    "EnergySpec",
    "NETWORK_PROFILES",
    "NetworkSpec",
    "ObservabilitySpec",
    "POWER_MODELS",
    "PRESETS",
    "PipelineSpec",
    "ReceiverSpec",
    "RecoverySpec",
    "Registry",
    "RegistryError",
    "STORAGE_BACKENDS",
    "SpecError",
    "StorageSpec",
    "UnknownComponentError",
    "preset",
]
