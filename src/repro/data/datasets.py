"""Generators for the paper's three workloads.

Each generator yields ``(encoded_sample_bytes, label)`` pairs suitable for
:func:`repro.tfrecord.sharder.write_shards`.  Scale is a constructor knob:
unit tests use dozens of small samples; examples use a few MB.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from repro.codec.raw import raw_encode
from repro.codec.sjpg import sjpg_encode
from repro.data.samples import smooth_image
from repro.tfrecord.sharder import ShardedDataset, write_shards


class _BaseGenerator:
    """Shared iteration plumbing for the three workload generators."""

    def __init__(self, n: int, seed: int = 0) -> None:
        if n < 1:
            raise ValueError(f"dataset must have >= 1 sample, got {n}")
        self.n = n
        self.seed = seed

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[tuple[bytes, int]]:
        raise NotImplementedError


class SyntheticImageNet(_BaseGenerator):
    """ImageNet-like images (default 64×64 for tests; 224×224 at scale).

    With ``class_conditional=True`` every class gets a fixed base pattern
    (derived from a per-class seed) plus per-sample noise, so the labels are
    *learnable* — required for convergence experiments (paper Fig. 11).
    """

    def __init__(
        self,
        n: int,
        seed: int = 0,
        image_hw: tuple[int, int] = (64, 64),
        quality: int = 75,
        num_classes: int = 1000,
        class_conditional: bool = False,
    ) -> None:
        super().__init__(n, seed)
        self.image_hw = image_hw
        self.quality = quality
        self.num_classes = num_classes
        self.class_conditional = class_conditional

    def _class_base(self, label: int) -> np.ndarray:
        rng = np.random.default_rng((self.seed, 0xC1A55, label))
        h, w = self.image_hw
        return smooth_image(rng, h, w, channels=3).astype(np.float64)

    def __iter__(self) -> Iterator[tuple[bytes, int]]:
        rng = self._rng()
        h, w = self.image_hw
        base_cache: dict[int, np.ndarray] = {}
        for _ in range(self.n):
            label = int(rng.integers(0, self.num_classes))
            if self.class_conditional:
                base = base_cache.get(label)
                if base is None:
                    base = self._class_base(label)
                    base_cache[label] = base
                noisy = base + rng.normal(0.0, 12.0, size=base.shape)
                img = np.clip(noisy, 0, 255).astype(np.uint8)
            else:
                img = smooth_image(rng, h, w, channels=3)
            yield sjpg_encode(img, quality=self.quality), label


class SyntheticCOCO(SyntheticImageNet):
    """COCO-like images: larger frames, fewer classes (80)."""

    def __init__(
        self,
        n: int,
        seed: int = 0,
        image_hw: tuple[int, int] = (96, 96),
        quality: int = 85,
    ) -> None:
        super().__init__(n, seed=seed, image_hw=image_hw, quality=quality, num_classes=80)


class SyntheticRecords(_BaseGenerator):
    """Opaque exact-size records (paper's 2 MB synthetic workload)."""

    def __init__(self, n: int, sample_bytes: int = 2_000_000, seed: int = 0) -> None:
        super().__init__(n, seed)
        if sample_bytes < 1:
            raise ValueError(f"sample_bytes must be >= 1, got {sample_bytes}")
        self.sample_bytes = sample_bytes

    def __iter__(self) -> Iterator[tuple[bytes, int]]:
        rng = self._rng()
        payload_len = self.sample_bytes - 16  # RAW header is 16 bytes
        if payload_len < 0:
            raise ValueError("sample_bytes smaller than RAW framing overhead")
        for _ in range(self.n):
            payload = rng.integers(0, 256, size=payload_len, dtype=np.uint8).tobytes()
            label = int(rng.integers(0, 10))
            yield raw_encode(payload), label


def build_dataset(
    kind: str,
    n: int,
    root: str | Path,
    seed: int = 0,
    records_per_shard: int = 64,
    **kwargs,
) -> ShardedDataset:
    """Generate and shard a dataset in one call.

    ``kind`` is one of ``"imagenet"``, ``"coco"``, ``"synthetic"``.
    """
    if kind == "imagenet":
        gen: _BaseGenerator = SyntheticImageNet(n, seed=seed, **kwargs)
    elif kind == "coco":
        gen = SyntheticCOCO(n, seed=seed, **kwargs)
    elif kind == "synthetic":
        gen = SyntheticRecords(n, seed=seed, **kwargs)
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    return write_shards(iter(gen), root, records_per_shard=records_per_shard)
