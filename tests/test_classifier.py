import numpy as np
import pytest

from dawin.classifier import (
    MlpArchitecture,
    TrainConfig,
    calibrate_temperature,
    forward_batch,
    init_params,
    logits_batch,
    train,
    unpack,
)
from dawin.params import ParamVector, checkpoint_id

ARCH = MlpArchitecture(input_dim=4, hidden_widths=(8,), class_count=3)


def test_zero_weights_give_uniform_probs():
    theta = np.zeros(ARCH.param_count)
    probs = forward_batch(ARCH, theta, np.random.default_rng(0).normal(size=(5, 4)))
    np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-15)


def test_high_temperature_limit_is_uniform():
    rng = np.random.default_rng(1)
    theta = init_params(ARCH, rng)
    probs = forward_batch(ARCH, theta, rng.normal(size=(20, 4)), temperature=1e6)
    assert np.max(np.abs(probs - 1.0 / 3.0)) < 1e-4


def test_forward_matches_straight_line_oracle():
    # Hand-rolled forward pass: explicit matmuls, no shared code paths.
    rng = np.random.default_rng(0)
    theta = init_params(ARCH, rng)
    x = rng.normal(size=(9, 4))
    (w0, b0), (w1, b1) = unpack(ARCH, theta)
    hidden = np.tanh(x @ w0 + b0)
    logits = hidden @ w1 + b1
    expected = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(forward_batch(ARCH, theta, x), expected, atol=1e-10)


def test_probs_rows_on_simplex():
    rng = np.random.default_rng(5)
    theta = rng.normal(size=ARCH.param_count) * 3.0
    probs = forward_batch(ARCH, theta, rng.normal(size=(50, 4)))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(probs >= 0.0)


def test_gradient_matches_finite_differences():
    from dawin.classifier import _grad, mean_xentropy

    rng = np.random.default_rng(2)
    arch = MlpArchitecture(input_dim=3, hidden_widths=(5,), class_count=2)
    theta = init_params(arch, rng) + 0.1 * rng.normal(size=arch.param_count)
    x = rng.normal(size=(12, 3))
    y = rng.integers(0, 2, size=12)
    grad = _grad(arch, theta, x, y, weight_decay=0.0)
    h = 1e-5
    for i in rng.choice(arch.param_count, size=10, replace=False):
        bump = np.zeros_like(theta)
        bump[i] = h
        lo = mean_xentropy(arch, theta - bump, x, y)
        hi = mean_xentropy(arch, theta + bump, x, y)
        fd = (hi - lo) / (2 * h)
        assert abs(fd - grad[i]) <= 1e-4 * max(1.0, abs(fd))


def blob_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    x = rng.normal(size=(n, 4)) * 0.5
    x[:, 0] += np.where(y == 1, 3.0, -3.0)
    return x, y


def test_separable_blobs_reach_high_accuracy():
    x, y = blob_data()
    arch = MlpArchitecture(input_dim=4, hidden_widths=(8,), class_count=2)
    ckpt = train(arch, x, y, TrainConfig(epochs=30, seed=0))
    probs = forward_batch(arch, ckpt.payload, x)
    assert (probs.argmax(axis=1) == y).mean() >= 0.99


def test_training_is_deterministic():
    x, y = blob_data()
    arch = MlpArchitecture(input_dim=4, hidden_widths=(8,), class_count=2)
    cfg = TrainConfig(epochs=5, seed=11)
    a = train(arch, x, y, cfg)
    b = train(arch, x, y, cfg)
    assert np.array_equal(a.payload.values, b.payload.values)
    assert checkpoint_id(a) == checkpoint_id(b)


def test_finetune_records_parent_id():
    x, y = blob_data()
    arch = MlpArchitecture(input_dim=4, hidden_widths=(8,), class_count=2)
    parent = train(arch, x, y, TrainConfig(epochs=2, seed=0))
    child = train(arch, x, y, TrainConfig(epochs=1, seed=1), init=parent.payload, parent=parent)
    assert child.meta["parent"] == checkpoint_id(parent)


def test_train_rejects_out_of_range_labels():
    x, y = blob_data()
    arch = MlpArchitecture(input_dim=4, hidden_widths=(8,), class_count=2)
    with pytest.raises(ValueError):
        train(arch, x, y + 5, TrainConfig(epochs=1))


# ----- temperature calibration -----------------------------------------------------


def posterior_logits(n=5000, scale=1.0, seed=3):
    """Synthetic 2-class data where the true posterior is known, a model whose
    logits equal scale * log-posterior-odds, and labels sampled from it."""
    rng = np.random.default_rng(seed)
    p1 = rng.uniform(0.05, 0.95, size=n)
    logit = np.log(p1 / (1 - p1))
    logits = np.stack([np.zeros(n), logit], axis=1) * scale
    y = (rng.uniform(size=n) < p1).astype(np.int64)
    return logits, y


class _LogitArch:
    """calibrate_temperature only needs logits; feed them through an identity
    network so we can control them exactly."""


def _grid_best_temperature(logits, y, grid):
    from dawin.classifier import _nll_at_temperature

    return min(grid, key=lambda t: _nll_at_temperature(logits, y, t))


def calibrate_on_logits(logits, y, **kwargs):
    # A linear network with identity weights reproduces the logits exactly.
    n, c = logits.shape
    arch = MlpArchitecture(input_dim=c, hidden_widths=(), class_count=c)
    theta = np.concatenate([np.eye(c).ravel(), np.zeros(c)])
    assert np.allclose(logits_batch(arch, theta, logits), logits)
    return calibrate_temperature(arch, theta, logits, y, **kwargs)


def test_calibrated_model_keeps_temperature_near_one():
    logits, y = posterior_logits(scale=1.0)
    t = calibrate_on_logits(logits, y)
    assert 0.9 <= t <= 1.1
    # cross-check with a dense grid oracle
    grid = np.geomspace(0.25, 16.0, 4001)
    t_star = _grid_best_temperature(logits, y, grid)
    assert abs(t - t_star) <= 0.05 * t_star


def test_overconfident_model_gets_temperature_about_ten():
    logits, y = posterior_logits(scale=10.0)
    t = calibrate_on_logits(logits, y)
    assert abs(t - 10.0) <= 2.0
    grid = np.geomspace(0.25, 16.0, 4001)
    t_star = _grid_best_temperature(logits, y, grid)
    assert abs(t - t_star) <= 0.05 * t_star


def test_single_sample_calibration_is_finite():
    logits = np.array([[0.0, 2.0]])
    y = np.array([1])
    t = calibrate_on_logits(logits, y)
    assert np.isfinite(t) and t > 0.0


@pytest.mark.parametrize("hidden", [(), (12,), (7, 3, 9)])
@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
def test_stacked_logits_match_one_row_forwards(hidden, activation):
    # n = 37 is not a multiple of the 16-row chunks the merge strategies stack.
    arch = MlpArchitecture(input_dim=5, hidden_widths=hidden, class_count=4,
                           activation=activation)
    rng = np.random.default_rng(11)
    n = 37
    thetas = np.stack([init_params(arch, rng) + 0.3 * rng.normal(size=arch.param_count)
                       for _ in range(n)])
    x = rng.normal(size=(n, 5))
    expected = np.stack([forward_batch(arch, thetas[i], x[i : i + 1])[0] for i in range(n)])
    assert np.array_equal(forward_batch(arch, thetas, x), expected)
    logits = logits_batch(arch, thetas, x)
    assert logits.shape == (n, 4)
    assert np.array_equal(logits[5], logits_batch(arch, thetas[5], x[5:6])[0])


def test_stacked_logits_reject_wrong_stack_shape():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(6, 4))
    thetas = np.zeros((6, ARCH.param_count))
    for bad in (thetas[:5], thetas[:, :-1], np.zeros((6, ARCH.param_count + 1))):
        with pytest.raises(ValueError):
            logits_batch(ARCH, bad, x)
    with pytest.raises(ValueError):
        logits_batch(ARCH, thetas[None], x)
