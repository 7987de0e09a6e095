"""repro — reproduction of EMLIO (Jamil, Nine, Kosar; SC 2025).

EMLIO is a service-based I/O framework that jointly minimizes data-loading
latency and I/O energy for large-scale AI training.  This package contains:

* the EMLIO system itself (:mod:`repro.core`): planner, storage-side daemon,
  compute-side receiver, and service orchestration;
* every substrate it depends on, built from scratch: TFRecord storage
  (:mod:`repro.tfrecord`), MessagePack serialization (:mod:`repro.serialize`),
  a ZeroMQ-like message transport with HWM backpressure (:mod:`repro.net`),
  an NFS-like remote filesystem (:mod:`repro.storage`), a DALI-like GPU
  preprocessing pipeline (:mod:`repro.gpu`), the distributed EnergyMonitor
  of paper §3 (:mod:`repro.energy`), and a training substrate
  (:mod:`repro.train`);
* the baseline loaders the paper compares against (:mod:`repro.loaders`);
* a discrete-event simulation kernel (:mod:`repro.sim`) for virtual-time
  tests; and
* the declarative deployment API (:mod:`repro.api`): serializable
  :class:`~repro.api.spec.ClusterSpec` topologies, component registries,
  and the stable ``EMLIO.deploy`` facade.

Quickstart::

    from repro.api import ClusterSpec, DatasetSpec, PipelineSpec, EMLIO

    spec = ClusterSpec(
        dataset=DatasetSpec(kind="imagenet", n=256),
        pipeline=PipelineSpec(batch_size=32),
    )
    with EMLIO.deploy(spec) as deployment:
        for tensors, labels in deployment.epoch(0):
            ...  # decoded numpy images + labels

(or hand-wire :class:`~repro.core.service.EMLIOService` directly — the
facade is sugar, not a wall).
"""

__version__ = "1.0.0"
