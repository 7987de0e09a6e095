"""Tests for the training substrate: model math and the loop."""

import numpy as np
import pytest

from repro.train.loop import EpochLog, Trainer
from repro.train.models import RESNET50_PROFILE, MLPClassifier, SGDOptimizer

# -- model math -------------------------------------------------------------------


def make_blob_problem(n=64, dim=12, classes=3, seed=0):
    """Linearly separable blobs: anything sane learns this."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 5.0, (classes, dim))
    y = rng.integers(0, classes, n)
    x = centers[y] + rng.normal(0, 0.5, (n, dim))
    return x.astype(np.float32), y.astype(np.int64)


def test_loss_is_log_c_on_zero_input():
    """Zero input -> zero logits -> exactly uniform softmax -> loss = ln C."""
    model = MLPClassifier(input_dim=12, num_classes=4, hidden=16, seed=0)
    x = np.zeros((8, 12), dtype=np.float32)
    y = np.zeros(8, dtype=np.int64)
    loss, _ = model.loss_and_grads(x, y)
    assert loss == pytest.approx(np.log(4), rel=1e-6)


def test_gradients_match_numerical():
    x, y = make_blob_problem(n=8, dim=5, classes=3)
    model = MLPClassifier(input_dim=5, num_classes=3, hidden=7, seed=1)
    _, grads = model.loss_and_grads(x, y)
    eps = 1e-6
    for p_idx, param in enumerate(model.params):
        flat = param.ravel()
        for k in np.random.default_rng(0).choice(flat.size, size=min(5, flat.size), replace=False):
            orig = flat[k]
            flat[k] = orig + eps
            lp, _ = model.loss_and_grads(x, y)
            flat[k] = orig - eps
            lm, _ = model.loss_and_grads(x, y)
            flat[k] = orig
            numeric = (lp - lm) / (2 * eps)
            assert grads[p_idx].ravel()[k] == pytest.approx(numeric, rel=1e-3, abs=1e-6)


def test_training_reduces_loss():
    x, y = make_blob_problem(n=128)
    model = MLPClassifier(input_dim=12, num_classes=3, hidden=32, seed=0)
    opt = SGDOptimizer(model.params, lr=0.1)
    first, _ = model.loss_and_grads(x, y)
    for _ in range(50):
        _, grads = model.loss_and_grads(x, y)
        opt.step(grads)
    final, _ = model.loss_and_grads(x, y)
    assert final < first * 0.3
    assert model.accuracy(x, y) > 0.9


def test_model_validation():
    with pytest.raises(ValueError):
        MLPClassifier(input_dim=0, num_classes=3)
    with pytest.raises(ValueError):
        MLPClassifier(input_dim=5, num_classes=1)
    model = MLPClassifier(input_dim=5, num_classes=3)
    with pytest.raises(ValueError):
        model.logits(np.zeros((2, 7), dtype=np.float32))
    with pytest.raises(ValueError):
        model.loss_and_grads(np.zeros((2, 5), dtype=np.float32), np.zeros(3, dtype=np.int64))


def test_optimizer_validation():
    model = MLPClassifier(input_dim=4, num_classes=2)
    with pytest.raises(ValueError):
        SGDOptimizer(model.params, lr=0.0)
    with pytest.raises(ValueError):
        SGDOptimizer(model.params, momentum=1.0)
    opt = SGDOptimizer(model.params)
    with pytest.raises(ValueError):
        opt.step([np.zeros(1)])


def test_nchw_input_is_flattened():
    model = MLPClassifier(input_dim=3 * 4 * 4, num_classes=2, hidden=8)
    x = np.random.default_rng(0).normal(size=(5, 3, 4, 4)).astype(np.float32)
    assert model.logits(x).shape == (5, 2)


def test_architecture_profiles():
    assert RESNET50_PROFILE.step_time(64) == pytest.approx(64 * 1.4e-3)


# -- Trainer ---------------------------------------------------------------------------


def fake_batches(n_batches, batch=8, dim=(3, 8, 8), classes=4, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 3.0, (classes, int(np.prod(dim))))
    out = []
    for _ in range(n_batches):
        y = rng.integers(0, classes, batch)
        x = centers[y] + rng.normal(0, 0.5, (batch, int(np.prod(dim))))
        out.append((x.reshape(batch, *dim).astype(np.float32), y.astype(np.int64)))
    return out


def test_trainer_epoch_log():
    model = MLPClassifier(input_dim=3 * 8 * 8, num_classes=4, hidden=32, seed=0)
    trainer = Trainer(model, RESNET50_PROFILE)
    log = trainer.run_epoch(fake_batches(10), epoch=0)
    assert log.batches == 10
    assert log.samples == 80
    assert len(log.losses) == 10
    assert log.times == sorted(log.times)
    assert log.duration_s > 0


def test_trainer_loss_decreases_over_epoch():
    model = MLPClassifier(input_dim=3 * 8 * 8, num_classes=4, hidden=32, seed=0)
    trainer = Trainer(model, RESNET50_PROFILE, lr=0.1)
    log = trainer.run_epoch(fake_batches(40), epoch=0)
    first5 = np.mean(log.losses[:5])
    last5 = np.mean(log.losses[-5:])
    assert last5 < first5


def test_trainer_gpu_accounting():
    model = MLPClassifier(input_dim=3 * 8 * 8, num_classes=4, hidden=16)
    trainer = Trainer(model, RESNET50_PROFILE)
    trainer.run_epoch(fake_batches(5))
    snap = trainer.gpu.snapshot()
    assert snap["kernels_run"] == 5
    assert snap["busy_s"] == pytest.approx(5 * RESNET50_PROFILE.step_time(8))


def test_moving_average_window():
    log = EpochLog(epoch=0, duration_s=1.0, losses=[4.0, 2.0, 0.0, 2.0], times=[1, 2, 3, 4])
    ma = log.moving_average(window=2)
    assert ma == [4.0, 3.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        log.moving_average(0)


def test_final_loss_empty_raises():
    log = EpochLog(epoch=0, duration_s=0.0)
    with pytest.raises(ValueError):
        log.final_loss
