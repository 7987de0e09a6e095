"""Numpy model and the ResNet-50 step-cost profile.

:class:`MLPClassifier` is a real, trainable network (He-initialized two-layer
MLP with ReLU and softmax cross-entropy, fully vectorized forward/backward).
It stands in for ResNet-50 in convergence experiments: what Fig. 11 measures
is *how data-loading latency shifts the loss-vs-wall-clock curve*, which
needs a genuinely decreasing loss, not a genuine ResNet.

:class:`ModelProfile` carries an architecture's per-sample GPU train time,
which :class:`~repro.train.loop.Trainer` charges to the simulated GPU for
each step; the value approximates the paper's Quadro RTX 6000 measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelProfile:
    """Architecture-level step cost for the simulated GPU."""

    name: str
    train_s_per_sample: float  # fwd+bwd GPU time per sample

    def step_time(self, batch_size: int) -> float:
        return batch_size * self.train_s_per_sample


# ResNet-50: calibrated to the paper's local-disk epoch floor: ~100k
# samples in ~140 s of pure training -> 1.4 ms/sample.
RESNET50_PROFILE = ModelProfile(name="resnet50", train_s_per_sample=1.4e-3)


class SGDOptimizer:
    """SGD with momentum over a list of parameter arrays (in-place)."""

    def __init__(self, params: list[np.ndarray], lr: float = 0.05, momentum: float = 0.9) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        """Apply one optimizer update from ``grads``."""
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} grads, got {len(grads)}")
        for p, g, v in zip(self.params, grads, self._velocity):
            v *= self.momentum
            v -= self.lr * g
            p += v


class MLPClassifier:
    """Two-layer MLP with ReLU hidden layer and softmax cross-entropy.

    Input: float32 NCHW tensors (flattened internally).  All math is
    vectorized numpy; backward is exact (verified against numerical
    gradients in the tests).
    """

    def __init__(self, input_dim: int, num_classes: int, hidden: int = 128, seed: int = 0) -> None:
        if input_dim < 1 or num_classes < 2 or hidden < 1:
            raise ValueError(
                f"invalid sizes: input_dim={input_dim} num_classes={num_classes} hidden={hidden}"
            )
        rng = np.random.default_rng(seed)
        self.input_dim = input_dim
        self.num_classes = num_classes
        # He initialization for the ReLU layer, Xavier-ish for the head.
        self.w1 = rng.normal(0, np.sqrt(2.0 / input_dim), (input_dim, hidden)).astype(np.float64)
        self.b1 = np.zeros(hidden)
        self.w2 = rng.normal(0, np.sqrt(1.0 / hidden), (hidden, num_classes)).astype(np.float64)
        self.b2 = np.zeros(num_classes)

    @property
    def params(self) -> list[np.ndarray]:
        """Parameter arrays, optimizer-ordered."""
        return [self.w1, self.b1, self.w2, self.b2]

    def _flatten(self, x: np.ndarray) -> np.ndarray:
        flat = x.reshape(x.shape[0], -1).astype(np.float64)
        if flat.shape[1] != self.input_dim:
            raise ValueError(f"input dim {flat.shape[1]} != model dim {self.input_dim}")
        return flat

    def logits(self, x: np.ndarray) -> np.ndarray:
        flat = self._flatten(x)
        h = np.maximum(flat @ self.w1 + self.b1, 0.0)
        return h @ self.w2 + self.b2

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(x), axis=1)

    def loss_and_grads(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, list[np.ndarray]]:
        """Cross-entropy loss and exact gradients for one batch."""
        flat = self._flatten(x)
        n = flat.shape[0]
        if y.shape != (n,):
            raise ValueError(f"labels shape {y.shape} != ({n},)")
        pre = flat @ self.w1 + self.b1
        h = np.maximum(pre, 0.0)
        logits = h @ self.w2 + self.b2
        # Stable softmax cross-entropy.
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        probs = exp / exp.sum(axis=1, keepdims=True)
        loss = float(-np.mean(np.log(probs[np.arange(n), y] + 1e-12)))

        dlogits = probs
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        dw2 = h.T @ dlogits
        db2 = dlogits.sum(axis=0)
        dh = dlogits @ self.w2.T
        dh[pre <= 0] = 0.0
        dw1 = flat.T @ dh
        db1 = dh.sum(axis=0)
        return loss, [dw1, db1, dw2, db2]

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(x) == y))
