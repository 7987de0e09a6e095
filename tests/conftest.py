"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.data.datasets import SyntheticImageNet, SyntheticRecords
from repro.tfrecord.sharder import write_shards


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "slow: long-running end-to-end chaos scenarios (kill/drop/restart); "
        'deselect with -m "not slow"',
    )


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    """Fail the run, naming them, when non-daemon threads outlive it: one
    would hang interpreter exit until the CI job's timeout instead."""
    deadline = time.monotonic() + 5.0  # grace for threads already ending
    leaked = []
    for t in threading.enumerate():
        if t is threading.main_thread() or t.daemon:
            continue
        t.join(max(0.0, deadline - time.monotonic()))
        if t.is_alive():
            leaked.append(t.name)
    if leaked:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        message = f"non-daemon threads still alive at session end: {sorted(leaked)}"
        if reporter is not None:
            reporter.write_line("\n" + message, red=True)
        else:
            print(message)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_imagenet(tmp_path):
    """A tiny sharded ImageNet-like dataset: 24 samples, 8 per shard."""
    gen = SyntheticImageNet(24, seed=7, image_hw=(32, 32), num_classes=10)
    return write_shards(iter(gen), tmp_path / "imagenet", records_per_shard=8)


@pytest.fixture
def small_synthetic(tmp_path):
    """A tiny RAW-record dataset: 12 samples of 4 KiB, 4 per shard."""
    gen = SyntheticRecords(12, sample_bytes=4096, seed=3)
    return write_shards(iter(gen), tmp_path / "synthetic", records_per_shard=4)
