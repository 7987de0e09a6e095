"""The bounded preprocess worker pool (Pipeline workers > 1).

Pins the pool's contract: output order is the source order regardless of
worker count, augmentation is deterministic per (seed, sequence), source
and preprocess errors surface to ``run()``, teardown joins every thread,
and per-stage timing flows into the shared :class:`PipelineStats` and out
through ``Deployment.status()``.
"""

import threading

import numpy as np
import pytest

from repro.codec.sjpg import sjpg_encode
from repro.data.samples import smooth_image
from repro.gpu.device import SimulatedGPU
from repro.gpu.pipeline import EndOfData, Pipeline, PipelineStats


def _source(n_batches, batch_size=2, hw=16):
    """A serial source emitting ``n_batches`` with position-coded labels."""
    rng = np.random.default_rng(0)
    encoded = [sjpg_encode(smooth_image(rng, hw, hw), quality=80) for _ in range(4)]
    state = {"i": 0}

    def source():
        i = state["i"]
        if i >= n_batches:
            raise EndOfData
        state["i"] = i + 1
        samples = [encoded[(i + j) % len(encoded)] for j in range(batch_size)]
        labels = [i * batch_size + j for j in range(batch_size)]
        return samples, labels

    return source


def _drain(pipe):
    out = []
    with pipe:
        for tensors, labels in pipe:
            out.append((tensors, labels))
    return out


@pytest.mark.parametrize("workers", [2, 4])
def test_pool_preserves_source_order(workers):
    batches = _drain(
        Pipeline(_source(16), workers=workers, prefetch=3, output_hw=(8, 8))
    )
    assert len(batches) == 16
    flat = [int(l) for _t, ls in batches for l in ls]
    assert flat == list(range(32))  # exact single-worker order


def test_pool_matches_own_rerun_deterministically():
    """(seed, sequence)-derived rng: the same pooled config reproduces
    bit-identical tensors run over run, regardless of worker scheduling."""
    a = _drain(Pipeline(_source(8), workers=4, seed=7, output_hw=(8, 8)))
    b = _drain(Pipeline(_source(8), workers=4, seed=7, output_hw=(8, 8)))
    for (ta, la), (tb, lb) in zip(a, b):
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(la, lb)


def test_pool_matches_single_worker_on_whole_image_crops():
    """64x64 images to 32x32 crop the whole image, so the pool's per-batch
    rngs and the single worker's shared one draw offsets that cannot
    differ: four workers sharing the preprocess scratch pool must produce
    bit-identical tensors to one.  A short switch interval makes the
    threads interleave inside the kernels."""
    import sys

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        one = _drain(Pipeline(_source(24, batch_size=8, hw=64), workers=1, output_hw=(32, 32)))
        four = _drain(Pipeline(_source(24, batch_size=8, hw=64), workers=4, output_hw=(32, 32)))
    finally:
        sys.setswitchinterval(interval)
    assert len(one) == len(four) == 24
    for (ta, la), (tb, lb) in zip(one, four):
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(la, lb)


def test_pool_source_error_reaches_consumer():
    state = {"i": 0}

    def source():
        if state["i"] >= 3:
            raise RuntimeError("shard went away")
        state["i"] += 1
        return _source(99)()

    pipe = Pipeline(source, workers=3, output_hw=(8, 8))
    with pipe:
        for _ in range(3):
            pipe.run()
        with pytest.raises(RuntimeError, match="shard went away"):
            pipe.run()


def test_pool_preprocess_error_reaches_consumer():
    def bad_preprocess(samples, output_hw, rng):
        raise ValueError("corrupt sample")

    pipe = Pipeline(_source(4), workers=2, preprocess_fn=bad_preprocess,
                    output_hw=(8, 8))
    with pipe:
        with pytest.raises(ValueError, match="corrupt sample"):
            pipe.run()


def test_pool_end_of_data_is_sticky():
    pipe = Pipeline(_source(2), workers=2, output_hw=(8, 8))
    with pipe:
        pipe.run()
        pipe.run()
        for _ in range(3):  # later callers keep seeing the end
            with pytest.raises(EndOfData):
                pipe.run()


def test_teardown_joins_every_pool_thread():
    before = set(threading.enumerate())
    pipe = Pipeline(_source(64), workers=4, prefetch=2, output_hw=(8, 8))
    pipe.build()
    pipe.run()  # pool is actively mid-epoch when torn down
    pipe.teardown()
    leaked = [
        t for t in set(threading.enumerate()) - before
        if t.is_alive() and t.name.startswith("dali-")
    ]
    assert leaked == []


def test_workers_validation():
    with pytest.raises(ValueError, match="workers"):
        Pipeline(_source(1), workers=0)


def test_pool_records_shared_stage_stats():
    stats = PipelineStats()
    stats.record_decode(0.002)  # the receiver's share of the chain
    pipe = Pipeline(_source(6), workers=3, output_hw=(8, 8), stats=stats)
    assert len(_drain(pipe)) == 6
    snap = stats.snapshot()
    assert snap["batches"] == 6 and snap["samples"] == 12
    assert snap["preprocess_s"] > 0
    per_batch = stats.per_batch_ns()
    assert per_batch["decode_ns"] == 2_000_000
    assert per_batch["preprocess_ns"] > 0
    assert set(per_batch) == {"decode_ns", "preprocess_ns", "starved_ns"}


def test_pool_realtime_gpu_accounting_matches_submit():
    """submit_overlapped runs kernels outside the stream lock but books
    the same busy time and kernel count as the serial submit path."""
    gpu = SimulatedGPU(realtime=False)
    batches = _drain(Pipeline(_source(5), gpu=gpu, workers=2, output_hw=(8, 8)))
    assert len(batches) == 5
    snap = gpu.snapshot()
    assert snap["kernels_run"] == 5
    assert snap["busy_s"] > 0


def test_worker_pool_deployment_reports_stage_timing(small_imagenet):
    """The workers knob reaches the receiver pipeline, and per-stage
    timing (decode / preprocess / starved ns per batch) surfaces through
    Deployment.status()["pipeline"]["stages"]."""
    from repro.api import ClusterSpec, DatasetSpec, EMLIO, PipelineSpec, ReceiverSpec

    spec = ClusterSpec(
        name="pool",
        dataset=DatasetSpec(kind="existing", root="ignored"),
        pipeline=PipelineSpec(batch_size=4, output_hw=(16, 16), workers=3),
        receivers=ReceiverSpec(stall_timeout_s=20.0),
    )
    with EMLIO.deploy(spec, dataset=small_imagenet) as dep:
        got = sorted(int(l) for _t, ls in dep.epoch(0) for l in ls)
        stages = dep.status()["pipeline"]["stages"]
    assert got == sorted(l for labels in small_imagenet.labels().values() for l in labels)
    assert stages["workers"] == 3
    assert stages["batches"] == len(got) // 4
    assert stages["decode_ns"] > 0 and stages["preprocess_ns"] > 0
    assert "starved_ns" in stages
    node0 = stages["nodes"]["0"]
    assert node0["batches"] == stages["batches"]
    assert node0["decode_ns"] > 0
