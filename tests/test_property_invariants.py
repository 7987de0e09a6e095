"""Cross-cutting property tests on core invariants (hypothesis-driven).

These hammer the DES resources, the energy accumulator, the end-to-end
record path, and the failover re-plan with randomized operation sequences —
the invariants here are what every higher-level result silently relies on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.accumulator import Accumulator
from repro.sim.core import Simulator
from repro.sim.resources import Resource, Store

# -- Store: conservation and FIFO under arbitrary producer/consumer timing ----


@settings(max_examples=60, deadline=None)
@given(
    n_items=st.integers(min_value=1, max_value=40),
    capacity=st.integers(min_value=1, max_value=8),
    prod_delays=st.lists(st.floats(min_value=0, max_value=0.5), min_size=1, max_size=8),
    cons_delays=st.lists(st.floats(min_value=0, max_value=0.5), min_size=1, max_size=8),
)
def test_store_conserves_items_and_order(n_items, capacity, prod_delays, cons_delays):
    sim = Simulator()
    store = Store(sim, capacity=capacity)
    received = []

    def producer():
        for i in range(n_items):
            yield sim.timeout(prod_delays[i % len(prod_delays)])
            yield store.put(i)

    def consumer():
        for i in range(n_items):
            yield sim.timeout(cons_delays[i % len(cons_delays)])
            item = yield store.get()
            received.append(item)
            assert store.level <= capacity

    sim.process(producer())
    p = sim.process(consumer())
    sim.run(until=p)
    assert received == list(range(n_items))  # exactly once, in order


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=6),
    jobs=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=20),
)
def test_resource_never_oversubscribed_and_work_conserves(capacity, jobs):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    active = {"now": 0, "max": 0}
    spans = []

    def worker(duration):
        yield res.request()
        active["now"] += 1
        active["max"] = max(active["max"], active["now"])
        start = sim.now
        try:
            yield sim.timeout(duration)
        finally:
            active["now"] -= 1
            res.release()
        spans.append((start, sim.now))

    procs = [sim.process(worker(d)) for d in jobs]
    sim.run_all(procs)
    assert active["max"] <= capacity
    # Work conservation: makespan >= total work / capacity, and every job ran.
    assert len(spans) == len(jobs)
    assert sim.now >= sum(jobs) / capacity - 1e-9
    assert sim.now <= sum(jobs) + 1e-9


# -- Accumulator: gapless output under arbitrary drop patterns ----------------


@settings(max_examples=60, deadline=None)
@given(
    n_ticks=st.integers(min_value=2, max_value=30),
    dropped=st.sets(st.integers(min_value=0, max_value=29), max_size=15),
    values=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=30, max_size=30
    ),
)
def test_accumulator_output_is_gapless_and_bounded(n_ticks, dropped, values):
    """Whatever ticks one stream drops, the merged series has a value for
    every tick, and interpolated values stay within the data's range."""
    interval = 0.1
    anchor = [(k * interval, {"anchor": 1.0}) for k in range(n_ticks)]
    flaky = [
        (k * interval, {"e": values[k]})
        for k in range(n_ticks)
        if k not in dropped
    ]
    if not flaky:  # all dropped: nothing to interpolate from
        return
    merged = Accumulator(tick_interval=interval).merge([anchor, flaky])
    assert len(merged) == n_ticks
    present = [values[k] for k in range(n_ticks) if k not in dropped]
    lo, hi = min(present), max(present)
    for sample in merged:
        assert "e" in sample.fields  # gapless
        assert lo - 1e-9 <= sample.fields["e"] <= hi + 1e-9  # no overshoot


@settings(max_examples=40, deadline=None)
@given(
    drop=st.integers(min_value=1, max_value=8),
)
def test_accumulator_linear_signal_reconstructed_exactly(drop):
    """Linear power trace with one dropped tick: interpolation is exact."""
    n = 10
    interval = 0.1
    full = [(k * interval, {"e": 3.0 * k}) for k in range(n)]
    flaky = [t for i, t in enumerate(full) if i != drop]
    anchor = [(k * interval, {"a": 0.0}) for k in range(n)]
    merged = Accumulator(tick_interval=interval).merge([anchor, flaky])
    assert merged[drop].fields["e"] == pytest.approx(3.0 * drop)
    assert "e" in merged[drop].interpolated


# -- end-to-end record path: shard -> plan -> slice -> payload -> decode ------


@settings(max_examples=20, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=24),
    batch=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=50),
)
def test_record_path_roundtrip(tmp_path_factory, sizes, batch, seed):
    """Arbitrary record sizes survive shard -> plan -> mmap slice ->
    msgpack payload -> decode, byte-exactly and exactly once."""
    from repro.core.config import EMLIOConfig
    from repro.core.planner import Planner
    from repro.serialize.payload import BatchPayload, decode_batch, encode_batch
    from repro.tfrecord.reader import TFRecordReader
    from repro.tfrecord.sharder import unpack_example, write_shards

    rng = np.random.default_rng(seed)
    samples = [
        (rng.integers(0, 256, n, dtype=np.uint8).tobytes(), int(rng.integers(0, 9)))
        for n in sizes
    ]
    root = tmp_path_factory.mktemp("rp")
    ds = write_shards(samples, root, records_per_shard=8)
    plan = Planner(ds, num_nodes=1, config=EMLIOConfig(batch_size=batch, seed=seed)).plan()

    delivered = []
    readers = {}
    for a in plan.assignments:
        reader = readers.setdefault(a.shard_path, TFRecordReader(root / a.shard_path))
        records = reader.read_range(a.offset, a.count)
        decoded = [unpack_example(r) for r in records]
        payload = encode_batch(
            BatchPayload(
                epoch=a.epoch, batch_index=a.batch_index, shard=a.shard,
                samples=[s for s, _l in decoded], labels=[l for _s, l in decoded],
            )
        )
        out = decode_batch(payload)
        delivered.extend(zip(out.samples, out.labels))
    for r in readers.values():
        r.close()
    assert sorted(delivered) == sorted(samples)


# -- failover re-plan: residual covers exactly the undelivered batches ---------


def _synthetic_plan(shard_sizes, batch, nodes, epochs=1):
    """A plan with the planner's shape (contiguous runs, round-robin shards)
    built without touching disk — fast enough to hammer with hypothesis."""
    from repro.core.planner import BatchAssignment, BatchPlan

    rec_bytes = 64
    assignments = []
    for epoch in range(epochs):
        next_index = {n: 0 for n in range(nodes)}
        for si, nrec in enumerate(shard_sizes):
            node = si % nodes
            start = 0
            while start < nrec:
                count = min(batch, nrec - start)
                assignments.append(
                    BatchAssignment(
                        epoch=epoch,
                        node_id=node,
                        batch_index=next_index[node],
                        shard=f"shard_{si:05d}",
                        shard_path=f"shard_{si:05d}.tfrecord",
                        start_record=start,
                        offset=start * rec_bytes,
                        nbytes=count * rec_bytes,
                        count=count,
                        labels=tuple(0 for _ in range(count)),
                    )
                )
                next_index[node] += 1
                start += count
    return BatchPlan(
        assignments=tuple(assignments),
        num_nodes=nodes,
        epochs=epochs,
        batch_size=batch,
        coverage="partition",
    )


@settings(max_examples=60, deadline=None)
@given(
    shard_sizes=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=8),
    batch=st.integers(min_value=1, max_value=6),
    nodes=st.integers(min_value=1, max_value=3),
    epochs=st.integers(min_value=1, max_value=2),
    data=st.data(),
)
def test_residual_plan_covers_exactly_the_undelivered(shard_sizes, batch, nodes, epochs, data):
    plan = _synthetic_plan(shard_sizes, batch, nodes, epochs=epochs)
    keys = sorted(plan.keys())
    delivered = set(data.draw(st.sets(st.sampled_from(keys)), label="delivered"))
    residual = plan.residual(delivered)

    # Covers exactly the undelivered batches — no more, no less.
    assert residual.keys() == plan.keys() - delivered
    # Batch-size and contiguity invariants survive the re-plan.
    for a in residual.assignments:
        assert 1 <= a.count <= plan.batch_size
        assert a.count == len(a.labels)
        assert a.offset == a.start_record * 64  # one contiguous run per shard
    # Never double-assigns a record: per (epoch, shard), residual record
    # ranges are pairwise disjoint.
    by_shard: dict[tuple[int, str], list[tuple[int, int]]] = {}
    for a in residual.assignments:
        by_shard.setdefault((a.epoch, a.shard), []).append(
            (a.start_record, a.start_record + a.count)
        )
    for runs in by_shard.values():
        runs.sort()
        for (_s0, e0), (s1, _e1) in zip(runs, runs[1:]):
            assert e0 <= s1


@settings(max_examples=60, deadline=None)
@given(
    shard_sizes=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=8),
    batch=st.integers(min_value=1, max_value=6),
    num_roots=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
def test_failover_replan_places_each_needed_shard_exactly_once(
    shard_sizes, batch, num_roots, data
):
    """plan_failover covers every shard with undelivered batches exactly
    once on a reachable survivor, or refuses loudly when it can't."""
    from repro.core.placement import FailoverError, PlacementEngine
    from repro.core.recovery import DeliveryLedger

    plan = _synthetic_plan(shard_sizes, batch, nodes=1)
    shards = sorted({a.shard for a in plan.assignments})
    # Random disjoint ownership of shards across roots.
    owner = {s: data.draw(st.integers(0, num_roots - 1), label=f"owner:{s}") for s in shards}
    roots = {f"root{r}": {s for s in shards if owner[s] == r} for r in range(num_roots)}
    dead_root = f"root{data.draw(st.integers(0, num_roots - 1), label='dead')}"
    # Random replication: which (root, shard_path) pairs are reachable.
    reach = {
        (f"root{r}", a.shard_path)
        for r in range(num_roots)
        for a in plan.assignments
        if data.draw(st.booleans(), label=f"reach:{r}:{a.shard}")
    }
    keys = sorted(plan.keys())
    delivered = set(data.draw(st.sets(st.sampled_from(keys)), label="delivered"))

    ledger = DeliveryLedger(None)
    for key in delivered:
        ledger.record(*key)
    coord = PlacementEngine(
        plan, ledger, roots, reachable=lambda root, path: (root, path) in reach
    )
    residual = plan.residual(delivered, epoch=0, shards=roots[dead_root])
    needed = {a.shard: a.shard_path for a in residual.assignments}
    survivors = [r for r in roots if r != dead_root]
    coverable = all(
        any((r, path) in reach for r in survivors) for path in needed.values()
    )

    if not coverable:
        with pytest.raises(FailoverError):
            coord.plan_failover(dead_root, 0)
        return
    takeover = coord.plan_failover(dead_root, 0)
    placed = [s for shard_set in takeover.values() for s in shard_set]
    assert sorted(placed) == sorted(needed)  # each needed shard exactly once
    assert dead_root not in takeover
    for root, shard_set in takeover.items():
        for s in shard_set:
            assert (root, needed[s]) in reach  # only reachable placements
