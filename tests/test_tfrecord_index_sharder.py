"""Tests for shard indexes and dataset sharding."""

import json

import pytest

from repro.tfrecord.index import RecordEntry, ShardIndex, load_shard_indexes
from repro.tfrecord.reader import TFRecordReader
from repro.tfrecord.sharder import (
    ShardedDataset,
    pack_example,
    unpack_example,
    write_shards,
)
from repro.tools.fsck import fsck_dataset


def make_samples(n, size=100):
    return [(bytes([i % 256]) * size, i % 10) for i in range(n)]


def test_pack_unpack_example():
    sample, label = unpack_example(pack_example(b"payload", 42))
    assert sample == b"payload"
    assert label == 42


def test_write_shards_counts(tmp_path):
    ds = write_shards(make_samples(10), tmp_path, records_per_shard=4)
    assert ds.num_shards == 3  # 4 + 4 + 2
    assert ds.num_samples == 10
    assert [ix.num_records for ix in ds.indexes] == [4, 4, 2]


def test_exact_multiple_leaves_no_empty_shard(tmp_path):
    ds = write_shards(make_samples(8), tmp_path, records_per_shard=4)
    assert ds.num_shards == 2
    files = sorted(p.name for p in tmp_path.glob("*.tfrecord"))
    assert files == ["shard_00000.tfrecord", "shard_00001.tfrecord"]


def test_index_matches_file_contents(tmp_path):
    samples = make_samples(6, size=50)
    ds = write_shards(samples, tmp_path, records_per_shard=3)
    flat = []
    for ix in ds.indexes:
        with TFRecordReader(ds.root / ix.path) as reader:
            for entry in ix.entries:
                record = reader.read_at(entry.offset)
                sample, label = unpack_example(record)
                assert label == entry.label
                flat.append((sample, label))
    assert flat == samples


def test_index_json_roundtrip(tmp_path):
    ds = write_shards(make_samples(5), tmp_path, records_per_shard=5)
    ix = ds.indexes[0]
    assert ShardIndex.from_json(ix.to_json()) == ix


def test_load_shard_indexes(tmp_path):
    write_shards(make_samples(9), tmp_path, records_per_shard=3)
    indexes = load_shard_indexes(tmp_path)
    assert [ix.shard for ix in indexes] == ["shard_00000", "shard_00001", "shard_00002"]


def test_load_missing_indexes_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_shard_indexes(tmp_path)


def test_open_sharded_dataset(tmp_path):
    ds1 = write_shards(make_samples(7), tmp_path, records_per_shard=4)
    ds2 = ShardedDataset.open(tmp_path)
    assert ds2.num_samples == ds1.num_samples
    assert ds2.indexes == ds1.indexes


def test_labels_map(tmp_path):
    ds = write_shards(make_samples(6), tmp_path, records_per_shard=3)
    labels = ds.labels()
    assert labels["shard_00000"] == [0, 1, 2]
    assert labels["shard_00001"] == [3, 4, 5]


def test_contiguous_runs_cover_all_records(tmp_path):
    ds = write_shards(make_samples(10, size=30), tmp_path, records_per_shard=10)
    ix = ds.indexes[0]
    runs = ix.contiguous_runs(batch_size=3)
    assert [r[0] for r in runs] == [0, 3, 6, 9]
    assert sum(1 for _ in runs) == 4
    # Runs tile the shard bytes exactly.
    assert sum(r[2] for r in runs) == ix.nbytes
    # Offsets are increasing and contiguous.
    pos = 0
    for _start, off, nbytes in runs:
        assert off == pos
        pos += nbytes


def test_contiguous_run_readable_in_one_slice(tmp_path):
    samples = make_samples(8, size=40)
    ds = write_shards(samples, tmp_path, records_per_shard=8)
    ix = ds.indexes[0]
    (_s0, off, _n0), (start, off2, _n1) = ix.contiguous_runs(batch_size=4)
    with TFRecordReader(ds.root / ix.path) as reader:
        batch = reader.read_range(off2, 4)
    decoded = [unpack_example(r) for r in batch]
    assert decoded == samples[4:8]


def test_invalid_index_non_contiguous_rejected():
    with pytest.raises(ValueError, match="contiguous"):
        ShardIndex(
            shard="shard_00000",
            path="x.tfrecord",
            entries=(RecordEntry(0, 10, 0), RecordEntry(11, 10, 1)),
        )


@pytest.mark.parametrize("bad", ["", "/etc/passwd", "../x.tfrecord", "sub/../../x"])
def test_index_naming_a_path_outside_the_root_is_rejected(tmp_path, bad):
    # Index files are outside input: the localfs tier opens the path as
    # given, so it must name a file under the dataset root.
    ds = write_shards(make_samples(4), tmp_path, records_per_shard=2)
    index_file = tmp_path / f"mapping_{ds.indexes[0].shard}.json"
    obj = json.loads(index_file.read_text())
    obj["path"] = bad
    index_file.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="shard path"):
        ShardedDataset.open(tmp_path)
    report = fsck_dataset(tmp_path)
    assert [e for e in report.errors if "index load failed" in e and repr(bad) in e]


def test_invalid_records_per_shard(tmp_path):
    with pytest.raises(ValueError):
        write_shards(make_samples(3), tmp_path, records_per_shard=0)


def test_empty_stream_rejected(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        write_shards([], tmp_path)


def test_shard_path_lookup(tmp_path):
    ds = write_shards(make_samples(4), tmp_path, records_per_shard=2)
    assert ds.shard_path("shard_00001").name == "shard_00001.tfrecord"
    with pytest.raises(KeyError):
        ds.shard_path("shard_99999")
