"""Tests for synthetic dataset generators."""

import numpy as np
import pytest

from repro.codec.raw import raw_decode
from repro.codec.sjpg import sjpg_decode
from repro.data.datasets import (
    SyntheticCOCO,
    SyntheticImageNet,
    SyntheticRecords,
    build_dataset,
)
from repro.data.samples import labelled_stream, smooth_image
from repro.tfrecord.sharder import unpack_example


def test_imagenet_generator_yields_decodable_images():
    gen = SyntheticImageNet(4, seed=0, image_hw=(32, 32), num_classes=10)
    items = list(gen)
    assert len(items) == 4
    for sample, label in items:
        img = sjpg_decode(sample)
        assert img.shape == (32, 32, 3)
        assert 0 <= label < 10


def test_generator_deterministic_by_seed():
    a = list(SyntheticImageNet(3, seed=5, image_hw=(16, 16)))
    b = list(SyntheticImageNet(3, seed=5, image_hw=(16, 16)))
    assert a == b


def test_generator_varies_by_seed():
    a = list(SyntheticImageNet(3, seed=1, image_hw=(16, 16)))
    b = list(SyntheticImageNet(3, seed=2, image_hw=(16, 16)))
    assert a != b


def test_coco_uses_80_classes():
    gen = SyntheticCOCO(20, seed=0, image_hw=(16, 16))
    labels = [label for _s, label in gen]
    assert all(0 <= l < 80 for l in labels)


def test_synthetic_records_exact_size():
    gen = SyntheticRecords(3, sample_bytes=4096, seed=0)
    for sample, label in gen:
        assert len(sample) == 4096
        assert raw_decode(sample)  # verifies framing
        assert 0 <= label < 10


def test_synthetic_record_too_small_rejected():
    gen = SyntheticRecords(1, sample_bytes=8)
    with pytest.raises(ValueError):
        list(gen)


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        SyntheticImageNet(0)


def test_build_dataset_end_to_end(tmp_path):
    ds = build_dataset("imagenet", 10, tmp_path, seed=1, records_per_shard=4, image_hw=(16, 16))
    assert ds.num_samples == 10
    assert ds.num_shards == 3
    # Every record decodes back to an image.
    from repro.tfrecord.reader import scan_records

    for ix in ds.indexes:
        for record in scan_records(ds.root / ix.path):
            sample, label = unpack_example(record)
            assert sjpg_decode(sample).shape == (16, 16, 3)


def test_build_dataset_unknown_kind(tmp_path):
    with pytest.raises(ValueError, match="unknown dataset kind"):
        build_dataset("cifar", 4, tmp_path)


def test_smooth_image_properties(rng):
    img = smooth_image(rng, 33, 47, channels=3)
    assert img.shape == (33, 47, 3)
    assert img.dtype == np.uint8
    assert img.min() == 0 and img.max() == 255  # normalized to full range


def test_labelled_stream_bounds(rng):
    labels = labelled_stream(rng, 10, 1000)
    assert labels.min() >= 0 and labels.max() < 10


def test_labelled_stream_validation(rng):
    with pytest.raises(ValueError):
        labelled_stream(rng, 0, 5)
