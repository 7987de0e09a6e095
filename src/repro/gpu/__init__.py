"""GPU substrate: simulated device + DALI-like preprocessing pipeline.

The paper offloads JPEG decode and augmentation to the GPU via NVIDIA DALI
and feeds it through ``external_source`` with asynchronous prefetch.  Here:

* :mod:`~repro.gpu.device` — a simulated GPU: a serial execution queue with
  a throughput model (work costs virtual-or-wall time) and a utilization
  gauge the NVML-like power model reads.
* :mod:`~repro.gpu.ops` — *real* numpy kernels (SJPG decode, resize, crop,
  normalize); the data transformations are genuine, only their placement on
  a "GPU" is simulated.
* :mod:`~repro.gpu.pipeline` — the DALI-like :class:`Pipeline`:
  ``external_source`` callback, prefetch queue depth Q, background
  preprocess workers, warm-up (Algorithm 3 line 4).
"""

from repro.gpu.device import GpuCostModel, SimulatedGPU
from repro.gpu.ops import decode_sample, normalize_batch, random_crop, resize_bilinear
from repro.gpu.pipeline import Pipeline, PipelineStats

__all__ = [
    "GpuCostModel",
    "SimulatedGPU",
    "decode_sample",
    "normalize_batch",
    "random_crop",
    "resize_bilinear",
    "Pipeline",
    "PipelineStats",
]
