"""Barrier-synchronized energy samplers (Algorithm 1, lines 3–13).

Each node runs one CPU/DRAM sampler and, when a GPU is present, one GPU
sampler.  Both wait on a shared :class:`threading.Barrier` so their readings
carry the same timestamp ``t_k``, then read their power source for one
interval ``δ`` and enqueue ``(t_k, fields)`` tuples for the accumulator.

To exercise the interpolation path (Algorithm 1's "if a sampler misses its
interval"), samplers accept a ``drop_hook`` that tests use to make a sampler
skip chosen ticks.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable

from repro.energy.power_models import CpuRaplModel, GpuNvmlModel
from repro.util.clock import Clock, WallClock


class SamplerThread:
    """Base sampler: barrier-align, read, enqueue; repeat until stopped."""

    def __init__(
        self,
        name: str,
        barrier: threading.Barrier,
        out: "queue.Queue[tuple[float, dict[str, float]]]",
        interval: float,
        clock: Clock | None = None,
        drop_hook: Callable[[int], bool] | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.name = name
        self.barrier = barrier
        self.out = out
        self.interval = interval
        self.clock = clock or WallClock()
        self.drop_hook = drop_hook
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True, name=name)
        self.ticks = 0

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def join(self, timeout: float = 10.0) -> None:
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError(f"sampler {self.name} failed to stop")

    def _read(self, delta: float) -> dict[str, float]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _run(self) -> None:
        k = 0
        while not self._stop.is_set():
            try:
                # Align all samplers on the same t_k.
                self.barrier.wait(timeout=5.0)
            except threading.BrokenBarrierError:
                return
            if self._stop.is_set():
                return
            t_k = self.clock.now()
            fields = self._read(self.interval)
            self.ticks += 1
            if self.drop_hook is None or not self.drop_hook(k):
                self.out.put((t_k, fields))
            k += 1


class CpuDramSampler(SamplerThread):
    """Reads the RAPL-like source: ``{cpu_energy, memory_energy}`` joules.

    Mirrors ``perf stat -e power/energy-pkg/,power/energy-ram/ sleep δ``:
    the read itself spans the sampling interval (it sleeps ``δ``), so the
    returned joules are the integral over [t_k, t_k + δ].
    """

    def __init__(self, rapl: CpuRaplModel, sleep: Callable[[float], None], **kw) -> None:
        super().__init__(name="cpu-dram-sampler", **kw)
        self.rapl = rapl
        self._sleep = sleep

    def _read(self, delta: float) -> dict[str, float]:
        self._sleep(delta)  # 'perf stat ... sleep δ' measures across the wait
        e_pkg, e_ram = self.rapl.read_energy(delta)
        return {"cpu_energy": e_pkg, "memory_energy": e_ram}


class GpuSampler(SamplerThread):
    """Reads per-board NVML-like power and integrates: ``{gpu_energy}``.

    Mirrors Algorithm 1 line 11: ``E_gpu = Σ_i P_i · δ / 1000`` (the paper's
    NVML returns milliwatts; our model returns watts so no /1000).
    """

    def __init__(self, nvml: GpuNvmlModel, sleep: Callable[[float], None], **kw) -> None:
        super().__init__(name="gpu-sampler", **kw)
        self.nvml = nvml
        self._sleep = sleep

    def _read(self, delta: float) -> dict[str, float]:
        total_w = sum(self.nvml.power_w(i) for i in range(self.nvml.device_count))
        self._sleep(delta)
        return {"gpu_energy": total_w * delta}
