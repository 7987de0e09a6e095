"""Training substrate: a numpy model and the training loop.

The paper trains ResNet-50 and VGG-19 with PyTorch DDP.  Here:

* :mod:`~repro.train.models` — a real trainable numpy MLP classifier and
  the ResNet-50 step-cost profile that paces its modeled GPU train step;
* :mod:`~repro.train.loop` — the epoch loop of Algorithm 3 lines 5–9:
  pull a batch, (modeled-)GPU train step, log loss against wall clock.
"""

from repro.train.loop import EpochLog, Trainer
from repro.train.models import (
    RESNET50_PROFILE,
    MLPClassifier,
    ModelProfile,
    SGDOptimizer,
)

__all__ = [
    "EpochLog",
    "Trainer",
    "MLPClassifier",
    "ModelProfile",
    "SGDOptimizer",
    "RESNET50_PROFILE",
]
