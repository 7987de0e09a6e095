"""EnergyMonitor facade: Algorithm 1 wired end-to-end.

Launches barrier-aligned CPU/DRAM and (optional) GPU samplers, drains their
queues through the :class:`~repro.energy.accumulator.Accumulator`, and batch-
writes node-tagged tuples into the TSDB.  Post-hoc, :meth:`query` aggregates
per-component joules over any [start, end] interval — the NTP-aligned
cross-node query pattern of paper §3.

The sampling interval defaults to the paper's 100 ms; tests use smaller
intervals to keep wall time low.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Callable

from repro.energy.accumulator import Accumulator
from repro.energy.power_models import (
    BusyWindowTracker,
    CpuRaplModel,
    CpuSpec,
    GpuNvmlModel,
    GpuSpec,
    UtilizationGauges,
)
from repro.energy.sampler import CpuDramSampler, GpuSampler
from repro.energy.tsdb import Point, TimeSeriesDB
from repro.util.clock import Clock, WallClock

MEASUREMENT = "energy"


@dataclass(frozen=True)
class EnergyReport:
    """Aggregated joules per component over a queried interval."""

    cpu_j: float
    dram_j: float
    gpu_j: float
    duration_s: float
    samples: int
    interpolated_samples: int

    @property
    def total_j(self) -> float:
        """Sum of all component joules."""
        return self.cpu_j + self.dram_j + self.gpu_j

    def as_dict(self) -> dict[str, float]:
        return {
            "cpu_j": self.cpu_j,
            "dram_j": self.dram_j,
            "gpu_j": self.gpu_j,
            "total_j": self.total_j,
            "duration_s": self.duration_s,
        }


class EnergyMonitor:
    """Per-node monitor: samplers + accumulator + batch writer (Algorithm 1).

    Parameters
    ----------
    node_id:
        Tag written on every point (cross-node TSDB correlation).
    cpu_spec / gpu_spec:
        Hardware parameters; ``gpu_spec=None`` models a storage node without
        a GPU (the barrier then spans a single sampler, per Algorithm 1's
        "1 + [hasGPU] threads").
    interval:
        Sampling period δ (paper: 0.1 s).
    tsdb:
        Destination database; pass a shared instance to model the central
        TSDB, or per-node instances for local TSDBs.
    batch_size:
        Batch Writer flush threshold N.
    """

    def __init__(
        self,
        node_id: str,
        cpu_spec: CpuSpec | None = None,
        gpu_spec: GpuSpec | None = None,
        interval: float = 0.1,
        tsdb: TimeSeriesDB | None = None,
        clock: Clock | None = None,
        batch_size: int = 32,
        sleep: Callable[[float], None] | None = None,
        cpu_drop_hook: Callable[[int], bool] | None = None,
        gpu_drop_hook: Callable[[int], bool] | None = None,
    ) -> None:
        self.node_id = node_id
        self.interval = interval
        self.tsdb = tsdb if tsdb is not None else TimeSeriesDB()
        self.clock = clock or WallClock()
        self.batch_size = batch_size
        self.gauges = UtilizationGauges()
        self.cpu_spec = cpu_spec or CpuSpec()
        self.gpu_spec = gpu_spec
        self.rapl = CpuRaplModel(self.cpu_spec, self.gauges)
        self.nvml = GpuNvmlModel(gpu_spec, self.gauges) if gpu_spec else None
        self._sleep = sleep or (lambda s: threading.Event().wait(s))

        # Busy-time trackers pipeline stages report into.
        self.cpu_tracker = BusyWindowTracker(self.gauges, "cpu", lanes=1)
        self.mem_tracker = BusyWindowTracker(self.gauges, "mem", lanes=1)
        self.gpu_tracker = BusyWindowTracker(self.gauges, "gpu", lanes=1)

        n_samplers = 1 + (1 if self.nvml else 0)
        self._barrier = threading.Barrier(n_samplers)
        self._cpu_q: queue.Queue = queue.Queue()
        self._gpu_q: queue.Queue = queue.Queue()
        self._cpu_sampler = CpuDramSampler(
            self.rapl,
            self._sleep,
            barrier=self._barrier,
            out=self._cpu_q,
            interval=interval,
            clock=self.clock,
            drop_hook=cpu_drop_hook,
        )
        self._gpu_sampler = (
            GpuSampler(
                self.nvml,
                self._sleep,
                barrier=self._barrier,
                out=self._gpu_q,
                interval=interval,
                clock=self.clock,
                drop_hook=gpu_drop_hook,
            )
            if self.nvml
            else None
        )
        self._flusher_stop = threading.Event()
        self._flusher = threading.Thread(
            target=self._flush_trackers, daemon=True, name="gauge-flusher"
        )
        self._running = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            raise RuntimeError("monitor already started")
        self._running = True
        self._cpu_sampler.start()
        if self._gpu_sampler:
            self._gpu_sampler.start()
        self._flusher.start()

    def _flush_trackers(self) -> None:
        while not self._flusher_stop.is_set():
            self._sleep(self.interval)
            self.cpu_tracker.flush(self.interval)
            self.mem_tracker.flush(self.interval)
            self.gpu_tracker.flush(self.interval)

    def stop(self) -> None:
        """Stop samplers, merge + interpolate, batch-write to the TSDB."""
        if not self._running:
            return
        self._running = False
        self._cpu_sampler.stop()
        if self._gpu_sampler:
            self._gpu_sampler.stop()
        self._barrier.abort()  # release anyone still waiting
        self._cpu_sampler.join()
        if self._gpu_sampler:
            self._gpu_sampler.join()
        self._flusher_stop.set()
        self._flusher.join(timeout=10.0)

        streams = [self._drain(self._cpu_q)]
        if self._gpu_sampler:
            streams.append(self._drain(self._gpu_q))
        acc = Accumulator(tick_interval=self.interval)
        merged = acc.merge(streams)

        # Batch Writer: flush in batches of N, tagged with the node id.
        batch: list[Point] = []
        self._interpolated = 0
        for s in merged:
            if s.interpolated:
                self._interpolated += 1
            batch.append(
                Point.make(
                    MEASUREMENT,
                    s.t,
                    tags={"node_id": self.node_id},
                    fields=s.fields,
                )
            )
            if len(batch) >= self.batch_size:
                self.tsdb.write_points(batch)
                batch = []
        if batch:
            self.tsdb.write_points(batch)

    @staticmethod
    def _drain(q: queue.Queue) -> list[tuple[float, dict[str, float]]]:
        out = []
        while True:
            try:
                out.append(q.get_nowait())
            except queue.Empty:
                return out

    def __enter__(self) -> "EnergyMonitor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- queries ---------------------------------------------------------------

    def query(self, start: float = float("-inf"), end: float = float("inf")) -> EnergyReport:
        """Aggregate this node's energy over [start, end]."""
        report = query_node(self.tsdb, self.node_id, start, end)
        return EnergyReport(
            cpu_j=report.cpu_j,
            dram_j=report.dram_j,
            gpu_j=report.gpu_j,
            duration_s=report.duration_s,
            samples=report.samples,
            interpolated_samples=getattr(self, "_interpolated", 0),
        )


def query_node(
    tsdb: TimeSeriesDB, node_id: str, start: float = float("-inf"), end: float = float("inf")
) -> EnergyReport:
    """Aggregate one node's joules from any TSDB (local or central)."""
    points = tsdb.query(MEASUREMENT, start, end, tags={"node_id": node_id})
    cpu = dram = gpu = 0.0
    t_min, t_max = float("inf"), float("-inf")
    for p in points:
        f = p.field_dict()
        cpu += f.get("cpu_energy", 0.0)
        dram += f.get("memory_energy", 0.0)
        gpu += f.get("gpu_energy", 0.0)
        t_min = min(t_min, p.time)
        t_max = max(t_max, p.time)
    duration = (t_max - t_min) if points else 0.0
    return EnergyReport(
        cpu_j=cpu,
        dram_j=dram,
        gpu_j=gpu,
        duration_s=duration,
        samples=len(points),
        interpolated_samples=0,
    )
