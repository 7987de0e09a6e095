"""Tests for the simulated GPU, preprocessing ops, and DALI-like pipeline."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.raw import raw_encode
from repro.codec.sjpg import sjpg_decode_batch, sjpg_encode
from repro.data.samples import smooth_image
from repro.energy.power_models import BusyWindowTracker, UtilizationGauges
from repro.gpu.device import GpuCostModel, SimulatedGPU
from repro.gpu.ops import (
    batch_megapixels,
    decode_sample,
    normalize_batch,
    preprocess_batch,
    random_crop,
    resize_bilinear,
    resize_bilinear_batch,
)
from repro.gpu.pipeline import EndOfData, Pipeline

# -- device ---------------------------------------------------------------------


def test_gpu_accounts_busy_time():
    gpu = SimulatedGPU()
    gpu.submit(lambda: 1 + 1, modeled_s=0.5)
    gpu.submit(lambda: 2, modeled_s=0.25)
    snap = gpu.snapshot()
    assert snap["busy_s"] == pytest.approx(0.75)
    assert snap["kernels_run"] == 2


def test_gpu_realtime_occupies_wall_time():
    gpu = SimulatedGPU(realtime=True)
    start = time.monotonic()
    gpu.submit(lambda: None, modeled_s=0.05)
    assert time.monotonic() - start >= 0.045


def test_gpu_feeds_busy_tracker():
    gauges = UtilizationGauges()
    tracker = BusyWindowTracker(gauges, "gpu")
    gpu = SimulatedGPU(tracker=tracker)
    gpu.submit(lambda: None, modeled_s=0.05)
    tracker.flush(0.1)
    assert gauges.get_util("gpu") == pytest.approx(0.5)


def test_gpu_serializes_kernels():
    """Kernels from many threads never overlap (single CUDA stream)."""
    gpu = SimulatedGPU()
    active = []
    overlaps = []
    lock = threading.Lock()

    def kernel():
        with lock:
            active.append(1)
            if len(active) > 1:
                overlaps.append(True)
        time.sleep(0.01)
        with lock:
            active.pop()

    threads = [
        threading.Thread(target=gpu.submit, args=(kernel, 0.0)) for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not overlaps


def test_gpu_negative_cost_rejected():
    with pytest.raises(ValueError):
        SimulatedGPU().submit(lambda: None, modeled_s=-1.0)


def test_cost_model_scaling():
    cm = GpuCostModel()
    assert cm.decode_time(2.0) > cm.decode_time(1.0)
    assert cm.train_step_time(64) > cm.train_step_time(32)


# -- ops -------------------------------------------------------------------------


def test_decode_sample_dispatch(rng):
    img = smooth_image(rng, 24, 24)
    out = decode_sample(sjpg_encode(img))
    assert out.shape == (24, 24, 3)
    raw = decode_sample(raw_encode(b"\x07" * 3 * 100))
    assert raw.ndim == 3 and raw.shape[2] == 3


def test_decode_unknown_magic():
    with pytest.raises(ValueError):
        decode_sample(b"XXXXsomething")


def test_resize_identity(rng):
    img = smooth_image(rng, 32, 32)
    out = resize_bilinear(img, 32, 32)
    assert np.array_equal(out, img)


def test_resize_shapes(rng):
    img = smooth_image(rng, 30, 50)
    assert resize_bilinear(img, 60, 25).shape == (60, 25, 3)
    assert resize_bilinear(img, 7, 7).shape == (7, 7, 3)


def test_resize_constant_image_stays_constant():
    img = np.full((16, 16, 3), 99, dtype=np.uint8)
    out = resize_bilinear(img, 31, 9)
    assert np.all(out == 99)


def test_resize_validation(rng):
    img = smooth_image(rng, 16, 16)
    with pytest.raises(ValueError):
        resize_bilinear(img, 0, 10)
    with pytest.raises(ValueError):
        resize_bilinear(img[:, :, 0], 8, 8)


def test_random_crop_bounds(rng):
    img = smooth_image(rng, 40, 40)
    crop = random_crop(img, 16, 16, rng)
    assert crop.shape == (16, 16, 3)


def test_random_crop_upscales_small_images(rng):
    img = smooth_image(rng, 8, 8)
    crop = random_crop(img, 16, 16, rng)
    assert crop.shape == (16, 16, 3)


def test_normalize_batch_shape_and_stats(rng):
    batch = np.stack([smooth_image(rng, 16, 16) for _ in range(4)])
    out = normalize_batch(batch)
    assert out.shape == (4, 3, 16, 16)
    assert out.dtype == np.float32
    # Normalized values should be roughly centered.
    assert abs(float(out.mean())) < 3.0


def test_normalize_batch_validation():
    with pytest.raises(ValueError):
        normalize_batch(np.zeros((16, 16, 3), dtype=np.uint8))


def test_preprocess_batch_end_to_end(rng):
    samples = [sjpg_encode(smooth_image(rng, 20 + i, 24)) for i in range(3)]
    out = preprocess_batch(samples, (16, 16), rng)
    assert out.shape == (3, 3, 16, 16)


def _unfused_preprocess(samples, out_hw, rng):
    """The public steps the fused kernel replaces, composed one by one."""
    out_h, out_w = out_hw
    images = sjpg_decode_batch(samples)
    images = [np.repeat(img, 3, axis=2) if img.shape[2] == 1 else img for img in images]
    h, w, _c = images[0].shape
    crops = [random_crop(img, min(h, out_h * 2), min(w, out_w * 2), rng) for img in images]
    return normalize_batch(resize_bilinear_batch(np.stack(crops), out_h, out_w))


@pytest.mark.parametrize(
    "hw, channels, out_hw",
    [
        ((96, 80), 3, (32, 32)),  # crop smaller than the image: random offsets
        ((64, 64), 3, (32, 32)),  # crop equal to the image (the bench's geometry)
        ((16, 16), 3, (32, 32)),  # image smaller than the output: upscale
        ((37, 53), 1, (8, 20)),  # gray, non-multiple-of-8, non-square output
        ((256, 256), 3, (128, 128)),  # past the plan's budget: broadcast weights
    ],
)
def test_fused_preprocess_is_bitwise_the_unfused_composition(hw, channels, out_hw):
    enc = np.random.default_rng(3)
    samples = [
        sjpg_encode(smooth_image(enc, *hw, channels=channels), quality=q) for q in (30, 75, 75, 95, 60)
    ]
    fused_rng, unfused_rng = np.random.default_rng(11), np.random.default_rng(11)
    fused = preprocess_batch(samples, out_hw, fused_rng)
    unfused = _unfused_preprocess(samples, out_hw, unfused_rng)
    assert fused.dtype == np.float32 and fused.flags.c_contiguous
    assert fused.shape == unfused.shape == (5, 3, *out_hw)
    assert np.array_equal(fused, unfused)
    # Same draws in the same order: the generators end in the same state.
    assert fused_rng.bit_generator.state == unfused_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(1, 90),
    w=st.integers(1, 90),
    channels=st.sampled_from([1, 3]),
    quality=st.integers(1, 100),
    n=st.integers(1, 5),
    out_hw=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    seed=st.integers(0, 2**16),
)
def test_fused_preprocess_is_the_unfused_composition_at_any_geometry(h, w, channels, quality, n, out_hw, seed):
    """Pinned crops (image at most twice the output), moving crops and
    upscales alike: the fused kernel's tensor is bitwise the unfused one, and
    it leaves the generator where random_crop's draws leave it."""
    enc = np.random.default_rng(seed)
    samples = [sjpg_encode(smooth_image(enc, h, w, channels=channels), quality=quality) for _ in range(n)]
    fused_rng, unfused_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fused = preprocess_batch(samples, out_hw, fused_rng)
    assert np.array_equal(fused, _unfused_preprocess(samples, out_hw, unfused_rng))
    assert fused_rng.bit_generator.state == unfused_rng.bit_generator.state


def test_bench_geometry_resize_is_the_exact_integer_bilinear(rng):
    """64 -> 32 samples at 63k/31, so every weight is j/31 and each output is
    round(N / 961) for an integer N; 961 is odd, so no N/961 is a tie and the
    byte is (N + 480) // 961, whatever float width the resize runs in."""
    samples = [sjpg_encode(smooth_image(rng, 64, 64), quality=75) for _ in range(8)]
    images = np.stack(sjpg_decode_batch(samples)).astype(np.int64)
    k = np.arange(32)
    t0, j = 63 * k // 31, 63 * k % 31
    t1 = np.minimum(t0 + 1, 63)
    wx0, wx1 = (31 - j)[None, None, :, None], j[None, None, :, None]
    wy0, wy1 = (31 - j)[None, :, None, None], j[None, :, None, None]
    top = images[:, t0][:, :, t0] * wx0 + images[:, t0][:, :, t1] * wx1
    bot = images[:, t1][:, :, t0] * wx0 + images[:, t1][:, :, t1] * wx1
    expected = (top * wy0 + bot * wy1 + 480) // 961
    assert np.array_equal(resize_bilinear_batch(images.astype(np.uint8), 32, 32), expected)
    assert np.array_equal(
        preprocess_batch(samples, (32, 32), rng), normalize_batch(expected.astype(np.uint8))
    )


def test_preprocess_batch_steady_state_allocates_only_its_output(rng):
    """After warm-up, one 8 x 64x64 -> 32x32 batch allocates its 96 KiB
    output and little else (decode → crop → resize → normalize as separate
    steps peaks at ~5.4 MB), and no output aliases scratch that the next
    call reuses."""
    import tracemalloc

    samples = [sjpg_encode(smooth_image(rng, 64, 64), quality=75) for _ in range(8)]
    for _ in range(3):
        preprocess_batch(samples, (32, 32), rng)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(3):  # the least of three: another thread's allocation is not ours
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            first = preprocess_batch(samples, (32, 32), rng)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert min(peaks) <= 512 * 1024
    second = preprocess_batch(samples, (32, 32), rng)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, second)  # crop = whole image: rng-independent


def test_batch_megapixels(rng):
    samples = [sjpg_encode(smooth_image(rng, 100, 100))]
    assert batch_megapixels(samples) == pytest.approx(100 * 100 * 3 / 1e6)
    assert batch_megapixels([raw_encode(b"z" * 1000)]) == pytest.approx(1016 / 1e6)


# -- pipeline --------------------------------------------------------------------


def make_source(rng, n_batches, batch=4, hw=(16, 16)):
    payloads = [
        (
            [sjpg_encode(smooth_image(rng, *hw)) for _ in range(batch)],
            list(range(batch)),
        )
        for _ in range(n_batches)
    ]
    state = {"i": 0}

    def source():
        if state["i"] >= len(payloads):
            raise EndOfData
        item = payloads[state["i"]]
        state["i"] += 1
        return item

    return source


def test_pipeline_yields_all_batches(rng):
    pipe = Pipeline(make_source(rng, 5), output_hw=(16, 16), prefetch=2)
    batches = list(pipe)
    assert len(batches) == 5
    for tensors, labels in batches:
        assert tensors.shape == (4, 3, 16, 16)
        assert labels.tolist() == [0, 1, 2, 3]
    assert pipe.stats.batches == 5
    assert pipe.stats.samples == 20


def test_pipeline_run_raises_end_of_data_repeatedly(rng):
    pipe = Pipeline(make_source(rng, 1), output_hw=(16, 16))
    pipe.run()
    with pytest.raises(EndOfData):
        pipe.run()
    with pytest.raises(EndOfData):
        pipe.run()  # stays terminal
    pipe.teardown()


def test_pipeline_warmup_fills_prefetch(rng):
    pipe = Pipeline(make_source(rng, 6), output_hw=(16, 16), prefetch=3)
    pipe.warmup()
    assert pipe._out.qsize() >= 3
    list(pipe)
    pipe.teardown()


def test_pipeline_source_error_propagates(rng):
    def bad_source():
        raise RuntimeError("source exploded")

    pipe = Pipeline(bad_source, output_hw=(16, 16))
    with pytest.raises(RuntimeError, match="source exploded"):
        pipe.run()
    pipe.teardown()


def test_pipeline_prefetch_validation(rng):
    with pytest.raises(ValueError):
        Pipeline(make_source(rng, 1), prefetch=0)


def test_pipeline_teardown_with_full_queue(rng):
    pipe = Pipeline(make_source(rng, 10), output_hw=(16, 16), prefetch=1)
    pipe.warmup()
    pipe.teardown()  # must not hang with the worker blocked on a full queue


def test_pipeline_context_manager(rng):
    with Pipeline(make_source(rng, 2), output_hw=(16, 16)) as pipe:
        tensors, _labels = pipe.run()
        assert tensors.shape[0] == 4
