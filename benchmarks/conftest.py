"""Shared benchmark helpers.

A bench runs its comparison once under pytest-benchmark (``rounds=1``) —
each run already times many batches — and prints its rows as a table.
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def show(title: str, rows: list[dict]) -> None:
    """Print ``rows`` (dicts sharing the first row's keys) as an aligned table."""
    print(f"\n== {title}")
    if not rows:
        print("(no rows)")
        return
    cols = list(rows[0])
    body = [
        [f"{v:.4g}" if isinstance(v, float) else str(v) for v in (row.get(c, "") for c in cols)]
        for row in rows
    ]
    widths = [max(len(c), *(len(line[i]) for line in body)) for i, c in enumerate(cols)]
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    print("  ".join("-" * w for w in widths))
    for line in body:
        print("  ".join(v.ljust(w) for v, w in zip(line, widths)))


@pytest.fixture
def small_imagenet_ds(tmp_path):
    """A small on-disk dataset for the live benches."""
    from repro.data.datasets import build_dataset

    return build_dataset(
        "imagenet", 96, tmp_path / "ds", seed=1, records_per_shard=16, image_hw=(32, 32)
    )


@pytest.fixture
def loopback_bench_spec():
    """The canonical live-loopback topology (8 ms emulated RTT), shared
    with ``repro.api.presets.BENCH_LOOPBACK`` so the bench and the preset
    CI check exercise one spec."""
    from repro.api import preset

    return preset("bench-loopback")
