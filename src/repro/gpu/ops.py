"""Preprocessing kernels: the real numpy work the "GPU" executes.

These mirror the DALI pipeline stages the paper lists (§4.1): decode JPEGs,
resize, crop, normalize.  They operate on uint8 HWC images and produce
float32 CHW tensors, matching the torchvision/DALI convention.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.codec.raw import raw_decode
from repro.codec.sjpg import sjpg_decode, sjpg_decode_planes, sjpg_decode_shape
from repro.util.arena import scratch_arena

IMAGENET_MEAN = np.array([0.485, 0.456, 0.406], dtype=np.float32)
IMAGENET_STD = np.array([0.229, 0.224, 0.225], dtype=np.float32)


def decode_sample(data: bytes) -> np.ndarray:
    """Decode one encoded sample to an HxWxC uint8 image.

    Dispatches on magic: SJPG images decode for real; RAW records (the 2 MB
    synthetic workload) are verified and viewed as a 1-D "image" row so the
    rest of the pipeline is format-agnostic.
    """
    if data[:4] == b"SJPG":
        return sjpg_decode(data)
    if data[:4] == b"TOK0":
        from repro.data.text import tokens_decode

        tokens = tokens_decode(data)
        # Token ids ride the image path as a 1-row, 1-channel "image" of
        # low bytes; LLM consumers should use decode_tokens() instead.
        return (tokens & 0xFF).astype(np.uint8)[None, :, None]
    if data[:4] == b"RAW0":
        payload = raw_decode(data)
        arr = np.frombuffer(payload, dtype=np.uint8)
        side = max(1, int(np.sqrt(arr.size // 3)))
        usable = side * side * 3
        return arr[:usable].reshape(side, side, 3).copy()
    raise ValueError(f"unknown sample magic: {data[:4]!r}")


def decode_tokens_batch(samples: list[bytes]) -> np.ndarray:
    """Decode a batch of TOK0 records into an (N, context_len) int64 array.

    The LLM-path counterpart of :func:`preprocess_batch`: no resize or
    normalization, just framed-token decode and stacking.  All records in
    a batch must share one context length (the packer guarantees this).
    """
    from repro.data.text import tokens_decode

    rows = [tokens_decode(s) for s in samples]
    lengths = {r.size for r in rows}
    if len(lengths) > 1:
        raise ValueError(f"mixed context lengths in one batch: {sorted(lengths)}")
    return np.stack(rows).astype(np.int64)


def _bilinear_taps(h: int, w: int, out_h: int, out_w: int):
    """The sample grid of a bilinear ``h×w → out_h×out_w`` resize: top and
    bottom tap rows, left and right tap columns, and the float64 weights of
    the bottom row / right column."""
    ys = np.linspace(0, h - 1, out_h)
    xs = np.linspace(0, w - 1, out_w)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    return y0, y1, x0, x1, ys - y0, xs - x0


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Vectorized bilinear resize of an HxWxC uint8 image."""
    if img.ndim != 3:
        raise ValueError(f"expected HxWxC, got shape {img.shape}")
    return resize_bilinear_batch(img[None], out_h, out_w)[0]


def resize_bilinear_batch(batch: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of an NHWC uint8 batch in one vectorized pass.

    All images in a training batch share one geometry, so the sample
    grid and interpolation weights are computed once and broadcast over
    the batch axis — one set of numpy dispatches for N images instead of
    N sets.
    """
    if batch.ndim != 4:
        raise ValueError(f"expected NHWC batch, got shape {batch.shape}")
    if out_h < 1 or out_w < 1:
        raise ValueError(f"invalid output size {(out_h, out_w)}")
    _n, h, w, _c = batch.shape
    y0, y1, x0, x1, wy, wx = _bilinear_taps(h, w, out_h, out_w)
    wy = wy[None, :, None, None]
    wx = wx[None, None, :, None]
    im = batch.astype(np.float32)
    top = im[:, y0][:, :, x0] * (1 - wx) + im[:, y0][:, :, x1] * wx
    bot = im[:, y1][:, :, x0] * (1 - wx) + im[:, y1][:, :, x1] * wx
    out = top * (1 - wy) + bot * wy
    return np.clip(np.round(out), 0, 255).astype(np.uint8)


def random_crop(img: np.ndarray, crop_h: int, crop_w: int, rng: np.random.Generator) -> np.ndarray:
    """Random crop; resizes up first when the image is smaller than the crop."""
    h, w, _c = img.shape
    if h < crop_h or w < crop_w:
        img = resize_bilinear(img, max(h, crop_h), max(w, crop_w))
        h, w, _c = img.shape
    y = int(rng.integers(0, h - crop_h + 1))
    x = int(rng.integers(0, w - crop_w + 1))
    return img[y : y + crop_h, x : x + crop_w]


def normalize_batch(batch_hwc: np.ndarray) -> np.ndarray:
    """uint8 NHWC -> float32 NCHW, ImageNet mean/std normalized."""
    if batch_hwc.ndim != 4:
        raise ValueError(f"expected NHWC batch, got shape {batch_hwc.shape}")
    x = batch_hwc.astype(np.float32) / 255.0
    c = batch_hwc.shape[-1]
    if c == 3:
        x = (x - IMAGENET_MEAN) / IMAGENET_STD
    return np.ascontiguousarray(x.transpose(0, 3, 1, 2))


#: Largest constant array a fused plan expands to the full output shape.
_FULL_BYTES = 1 << 20


@functools.lru_cache(maxsize=16)
def _fused_plan(n: int, h: int, w: int, c: int, out_h: int, out_w: int) -> dict:
    """Everything the fused kernel needs that depends only on geometry.

    ``plane[i, k]``: where output channel ``k`` of image ``i`` starts in the
    decoder's planar output (a gray image feeds all three from its one
    plane); ``stride``: a plane's row pitch; ``taps``: for the top-left,
    top-right, bottom-left and bottom-right tap of every output pixel, its
    offset from the crop's top-left corner.  The weights and the
    normalization constants are expanded to the full output shape when
    that stays under :data:`_FULL_BYTES`, so the arithmetic runs as
    same-shape ufuncs (no broadcasting, no iterator buffers: ~25% faster);
    past it they stay broadcast views, so a plan's memory stays bounded.
    """
    crop_h, crop_w = min(h, out_h * 2), min(w, out_w * 2)
    y0, y1, x0, x1, wy, wx = _bilinear_taps(crop_h, crop_w, out_h, out_w)
    stride = -(-w // 8) * 8
    channel = np.arange(3) if c == 3 else np.zeros(3, dtype=np.int64)
    shape = (n, 3, out_h * out_w)

    def full(a) -> np.ndarray:
        a = np.broadcast_to(a, shape)
        if a.size * a.itemsize > _FULL_BYTES:
            return a
        a = a.copy()
        a.setflags(write=False)
        return a

    return {
        "crop": (crop_h, crop_w),
        "stride": stride,
        "plane": (np.arange(n)[:, None] * c + channel)[:, :, None] * (-(-h // 8) * 8 * stride),
        "taps": [(ty[:, None] * stride + tx).ravel() for ty in (y0, y1) for tx in (x0, x1)],
        "wx": (full(np.tile(1 - wx, out_h)), full(np.tile(wx, out_h))),
        "wy": (full(np.repeat(1 - wy, out_w)), full(np.repeat(wy, out_w))),
        "mean": full(IMAGENET_MEAN[:, None]),
        "std": full(IMAGENET_STD[:, None]),
    }


def _preprocess_sjpg(samples, h: int, w: int, c: int, out_h: int, out_w: int, rng) -> np.ndarray:
    """The fused kernel: decode → crop → resize → normalize, one pass per batch."""
    n = len(samples)
    plan = _fused_plan(n, h, w, c, out_h, out_w)
    crop_h, crop_w = plan["crop"]
    out = np.empty((n, 3, out_h, out_w), dtype=np.float32)
    with scratch_arena() as arena:
        _heads, pixels = sjpg_decode_planes(samples, arena)
        # random_crop's draws, image by image, in its order.
        offsets = np.array(
            [(rng.integers(0, h - crop_h + 1), rng.integers(0, w - crop_w + 1)) for _ in range(n)]
        )
        # A tap of output (i, k, y, x) sits at its crop's top-left corner
        # in the planes plus the tap's offset within the crop.
        corner = plan["plane"] + (offsets[:, :1] * plan["stride"] + offsets[:, 1:])[:, :, None]
        idx = arena.get("resize.idx", out.size, np.intp).reshape(n, 3, -1)
        tap = arena.get("resize.tap", out.size, np.uint8).reshape(idx.shape)
        top, bot, tmp = (
            arena.get(f"resize.f{i}", out.size, np.float64).reshape(idx.shape) for i in range(3)
        )

        def gather(which: int, into: np.ndarray) -> None:
            np.add(corner, plan["taps"][which], out=idx)
            pixels.take(idx, out=tap, mode="wrap")  # in range by construction
            np.copyto(into, tap)

        # resize_bilinear_batch's float64 arithmetic, operation for operation.
        (wx0, wx1), (wy0, wy1) = plan["wx"], plan["wy"]
        gather(0, top)
        np.multiply(top, wx0, out=top)
        gather(1, tmp)
        np.multiply(tmp, wx1, out=tmp)
        np.add(top, tmp, out=top)
        gather(2, bot)
        np.multiply(bot, wx0, out=bot)
        gather(3, tmp)
        np.multiply(tmp, wx1, out=tmp)
        np.add(bot, tmp, out=bot)
        np.multiply(top, wy0, out=top)
        np.multiply(bot, wy1, out=bot)
        np.add(top, bot, out=top)
        # A convex combination of bytes rounds into [0, 255]: the clip of the
        # unfused path is a no-op here.
        np.rint(top, out=top)
        # normalize_batch's float32 arithmetic, written NCHW.
        res = out.reshape(idx.shape)
        np.copyto(res, top, casting="same_kind")
        np.divide(res, 255.0, out=res)
        np.subtract(res, plan["mean"], out=res)
        np.divide(res, plan["std"], out=res)
    return out


def preprocess_batch(
    samples: list[bytes],
    out_hw: tuple[int, int],
    rng: np.random.Generator,
) -> np.ndarray:
    """Full per-batch preprocess: decode → crop/resize → normalize.

    A batch of SJPG images sharing one geometry (1 or 3 channels) takes one
    fused pass: :func:`~repro.codec.sjpg.sjpg_decode_planes` decodes the
    whole batch into planar pixels, then each output pixel's four bilinear
    taps are gathered straight from the planes at ``crop start + tap
    offset``, and only the ``out_h × out_w`` outputs are computed, written
    NCHW — no HWC images, no crop stack, no intermediate uint8 batch, no
    layout transposes.

    The result is bit-identical to the unfused composition
    (:func:`~repro.codec.sjpg.sjpg_decode_batch` → :func:`random_crop` per
    image → :func:`resize_bilinear_batch` → :func:`normalize_batch`): the
    crop offsets are ``rng.integers`` draws made image by image in
    :func:`random_crop`'s order (after a successful decode), so ``rng``
    ends in the same state, and the float64 resize and float32 normalize
    arithmetic is the same operation for operation.

    Every temporary lives in a :func:`~repro.util.arena.scratch_arena` —
    one per concurrent caller, reused across calls — so in steady state a
    call allocates the returned tensor and little else.  Any other batch
    (RAW or token records, mixed geometries) goes image by image.
    """
    out_h, out_w = out_hw
    if samples and all(bytes(s[:4]) == b"SJPG" for s in samples):
        shapes = {sjpg_decode_shape(s) for s in samples}
        if len(shapes) == 1:
            ((h, w, c),) = shapes
            if c in (1, 3):
                return _preprocess_sjpg(samples, h, w, c, out_h, out_w, rng)
    images = np.empty((len(samples), out_h, out_w, 3), dtype=np.uint8)
    for i, data in enumerate(samples):
        img = decode_sample(data)
        if img.shape[2] == 1:
            img = np.repeat(img, 3, axis=2)
        img = random_crop(img, min(img.shape[0], out_h * 2), min(img.shape[1], out_w * 2), rng)
        images[i] = resize_bilinear(img, out_h, out_w)
    return normalize_batch(images)


def batch_megapixels(samples: list[bytes]) -> float:
    """Decoded megapixels of a batch (drives the GPU decode cost model)."""
    total = 0.0
    for data in samples:
        if data[:4] == b"SJPG":
            h, w, c = sjpg_decode_shape(data)
            total += h * w * c / 1e6
        else:
            total += len(data) / 1e6  # RAW: bytes stand in for pixels
    return total
