"""Tests for the Planner (Algorithm 2), including coverage invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EMLIOConfig
from repro.core.planner import BatchAssignment, Planner
from repro.tfrecord.sharder import write_shards


def make_dataset(tmp_path, n=24, per_shard=8, size=50):
    samples = [(bytes([i % 256]) * size, i % 5) for i in range(n)]
    return write_shards(samples, tmp_path, records_per_shard=per_shard)


def test_plan_covers_every_record_exactly_once_partition(tmp_path):
    ds = make_dataset(tmp_path)
    cfg = EMLIOConfig(batch_size=4, epochs=2, coverage="partition")
    plan = Planner(ds, num_nodes=2, config=cfg).plan()
    for epoch in range(2):
        seen = []
        for a in plan.assignments:
            if a.epoch == epoch:
                seen.extend((a.shard, a.start_record + i) for i in range(a.count))
        assert len(seen) == ds.num_samples
        assert len(set(seen)) == ds.num_samples  # no duplicates


def test_replicate_mode_gives_full_dataset_per_node(tmp_path):
    ds = make_dataset(tmp_path)
    cfg = EMLIOConfig(batch_size=4, epochs=1, coverage="replicate")
    plan = Planner(ds, num_nodes=3, config=cfg).plan()
    expected_batches = sum(
        -(-ix.num_records // 4) for ix in ds.indexes
    )  # ceil per shard
    for node in range(3):
        assert plan.batches_per_node(node, epoch=0) == expected_batches
        assert plan.samples_per_node(node, epoch=0) == ds.num_samples


def test_batch_sizes_exact_except_shard_tail(tmp_path):
    ds = make_dataset(tmp_path, n=22, per_shard=10)  # shards of 10, 10, 2
    cfg = EMLIOConfig(batch_size=4, epochs=1)
    plan = Planner(ds, num_nodes=1, config=cfg).plan()
    full = [a for a in plan.assignments if a.count == 4]
    partial = [a for a in plan.assignments if a.count < 4]
    # Each 10-record shard gives 2 full + 1 tail of 2; the 2-record shard
    # gives 1 tail of 2.
    assert len(full) == 4
    assert sorted(a.count for a in partial) == [2, 2, 2]


def test_batches_are_contiguous_ranges(tmp_path):
    ds = make_dataset(tmp_path)
    cfg = EMLIOConfig(batch_size=3, epochs=1)
    plan = Planner(ds, num_nodes=1, config=cfg).plan()
    by_shard = {ix.shard: ix for ix in ds.indexes}
    for a in plan.assignments:
        ix = by_shard[a.shard]
        entries = ix.entries[a.start_record : a.start_record + a.count]
        assert a.offset == entries[0].offset
        assert a.nbytes == sum(e.size for e in entries)
        assert a.labels == tuple(e.label for e in entries)


def test_epoch_shuffling_differs_across_epochs(tmp_path):
    ds = make_dataset(tmp_path, n=32, per_shard=4)
    cfg = EMLIOConfig(batch_size=4, epochs=2, seed=3)
    plan = Planner(ds, num_nodes=1, config=cfg).plan()
    order0 = [a.shard for a in plan.for_epoch_node(0, 0)]
    order1 = [a.shard for a in plan.for_epoch_node(1, 0)]
    assert order0 != order1


def test_plan_deterministic_by_seed(tmp_path):
    ds = make_dataset(tmp_path)
    cfg = EMLIOConfig(batch_size=4, epochs=1, seed=11)
    p1 = Planner(ds, num_nodes=2, config=cfg).plan()
    p2 = Planner(ds, num_nodes=2, config=cfg).plan()
    assert p1.assignments == p2.assignments


def test_batch_index_is_dense_dispatch_order(tmp_path):
    ds = make_dataset(tmp_path)
    cfg = EMLIOConfig(batch_size=4, epochs=1)
    plan = Planner(ds, num_nodes=2, config=cfg).plan()
    for node in range(2):
        indexes = sorted(a.batch_index for a in plan.for_epoch_node(0, node))
        assert indexes == list(range(len(indexes)))


def test_thread_splits_partition_node_work(tmp_path):
    ds = make_dataset(tmp_path, n=40, per_shard=5)
    cfg = EMLIOConfig(batch_size=5, epochs=1)
    plan = Planner(ds, num_nodes=1, config=cfg).plan()
    splits = plan.thread_splits(0, 0, threads=3)
    flat = [a for split in splits for a in split]
    assert len(flat) == plan.batches_per_node(0, epoch=0)
    assert len({(a.epoch, a.node_id, a.batch_index) for a in flat}) == len(flat)
    sizes = [len(s) for s in splits]
    assert max(sizes) - min(sizes) <= 1  # balanced


@pytest.mark.parametrize("coverage", ["partition", "replicate"])
@pytest.mark.parametrize("nodes", [1, 2, 3])
def test_indexed_queries_match_a_brute_force_scan(tmp_path, coverage, nodes):
    ds = make_dataset(tmp_path, n=40, per_shard=7)
    cfg = EMLIOConfig(batch_size=3, epochs=3, coverage=coverage)
    plan = Planner(ds, num_nodes=nodes, config=cfg).plan()
    scan = plan.assignments
    assert plan.keys() == {(a.epoch, a.node_id, a.batch_index) for a in scan}
    for epoch in range(cfg.epochs + 1):  # one past the plan: empty answers
        assert plan.keys(epoch=epoch) == {
            (a.epoch, a.node_id, a.batch_index) for a in scan if a.epoch == epoch
        }
        for node in range(nodes + 1):
            mine = [a for a in scan if a.epoch == epoch and a.node_id == node]
            assert plan.for_epoch_node(epoch, node) == mine
            assert plan.batches_per_node(node, epoch=epoch) == len(mine)
            assert plan.samples_per_node(node, epoch) == sum(a.count for a in mine)
            assert plan.thread_splits(epoch, node, 2) == [mine[0::2], mine[1::2]]
    for node in range(nodes + 1):
        assert plan.batches_per_node(node) == sum(a.node_id == node for a in scan)
    # The index is built from the plan it belongs to, not shared by copies.
    residual = plan.residual(plan.keys(epoch=0))
    assert residual.keys(epoch=0) == set() and residual.keys(epoch=1) == plan.keys(epoch=1)


def test_thread_splits_validation(tmp_path):
    ds = make_dataset(tmp_path)
    plan = Planner(ds, num_nodes=1, config=EMLIOConfig()).plan()
    with pytest.raises(ValueError):
        plan.thread_splits(0, 0, threads=0)


def test_label_map_built(tmp_path):
    ds = make_dataset(tmp_path)
    planner = Planner(ds, num_nodes=1, config=EMLIOConfig())
    assert set(planner.label_map) == {ix.shard for ix in ds.indexes}


def test_planner_validation(tmp_path):
    ds = make_dataset(tmp_path)
    with pytest.raises(ValueError):
        Planner(ds, num_nodes=0, config=EMLIOConfig())


def test_assignment_count_label_mismatch_rejected():
    with pytest.raises(ValueError):
        BatchAssignment(
            epoch=0, node_id=0, batch_index=0, shard="s", shard_path="s.tfrecord",
            start_record=0, offset=0, nbytes=10, count=3, labels=(1, 2),
        )


def test_config_validation():
    with pytest.raises(ValueError):
        EMLIOConfig(batch_size=0)
    with pytest.raises(ValueError):
        EMLIOConfig(epochs=0)
    with pytest.raises(ValueError):
        EMLIOConfig(hwm=0)
    with pytest.raises(ValueError):
        EMLIOConfig(coverage="broadcast")


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    per_shard=st.integers(min_value=1, max_value=16),
    batch=st.integers(min_value=1, max_value=8),
    nodes=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=100),
)
def test_property_partition_coverage(tmp_path_factory, n, per_shard, batch, nodes, seed):
    """For any dataset/batch/node geometry, partition plans cover every
    record exactly once per epoch and batches never span shards."""
    tmp = tmp_path_factory.mktemp("plan")
    ds = make_dataset(tmp, n=n, per_shard=per_shard, size=10)
    cfg = EMLIOConfig(batch_size=batch, epochs=1, seed=seed)
    plan = Planner(ds, num_nodes=nodes, config=cfg).plan()
    seen = set()
    for a in plan.assignments:
        for i in range(a.count):
            key = (a.shard, a.start_record + i)
            assert key not in seen
            seen.add(key)
        assert a.count <= batch
    assert len(seen) == ds.num_samples
