"""Synthetic dataset generators matching the paper's three workloads.

=============  ==================  ===========================
Workload       Paper per-sample    Generator
=============  ==================  ===========================
ImageNet-like  ~0.1 MB             :class:`SyntheticImageNet`
COCO-like      ~0.2 MB             :class:`SyntheticCOCO`
Synthetic      2 MB exact          :class:`SyntheticRecords`
=============  ==================  ===========================

Image workloads generate smooth low-frequency random fields (so the SJPG
codec compresses them like natural images rather than noise) and encode them
for real; the synthetic workload produces exact-size opaque RAW records.
"""

from repro.data.datasets import (
    SyntheticCOCO,
    SyntheticImageNet,
    SyntheticRecords,
    build_dataset,
)
from repro.data.samples import smooth_image

__all__ = [
    "SyntheticCOCO",
    "SyntheticImageNet",
    "SyntheticRecords",
    "build_dataset",
    "smooth_image",
]
