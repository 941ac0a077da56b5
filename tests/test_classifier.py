from dataclasses import asdict

import numpy as np
import pytest

from dawin.classifier import (
    MlpArchitecture,
    TrainConfig,
    TrainJob,
    _check_inputs,
    _SgdStack,
    _softmax,
    _stack_grad,
    blended_forward,
    calibrate_temperature,
    forward_batch,
    init_params,
    logits_batch,
    mean_xentropy,
    train,
    train_many,
    unpack,
)
from dawin.params import Checkpoint, ParamVector, checkpoint_id

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
    rng = np.random.default_rng(2)
    arch = MlpArchitecture(input_dim=3, hidden_widths=(5,), class_count=2)
    theta = init_params(arch, rng) + 0.1 * rng.normal(size=arch.param_count)
    x = rng.normal(size=(12, 3))
    y = rng.integers(0, 2, size=12)
    stack = _SgdStack(arch, theta[None].copy(), [TrainConfig(weight_decay=0.0)])
    grad = _stack_grad(stack, x[None], (np.arange(12) * 2 + y)[None])[0]
    h = 1e-5
    for i in rng.choice(arch.param_count, size=10, replace=False):
        bump = np.zeros_like(theta)
        bump[i] = h
        lo = mean_xentropy(arch, theta - bump, x, y)
        hi = mean_xentropy(arch, theta + bump, x, y)
        fd = (hi - lo) / (2 * h)
        assert abs(fd - grad[i]) <= 1e-4 * max(1.0, abs(fd))


# ----- the one-model SGD loop this kernel replaced, kept as its oracle ----------
# Copied verbatim from the loop it replaced (names prefixed _ref), with its
# activation table and softmax, so the oracle shares only _check_inputs,
# init_params, unpack and mean_xentropy with the package.

_REF_ACTIVATIONS = {
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "relu": (lambda z: np.maximum(z, 0.0), lambda a: (a > 0.0).astype(np.float64)),
    "identity": (lambda z: z, lambda a: np.ones_like(a)),
}


def _ref_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _ref_grad(
    arch: MlpArchitecture,
    theta: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    weight_decay: float,
) -> np.ndarray:
    """Gradient of the mean cross-entropy plus the L2 term on the weights."""
    layers = unpack(arch, theta)
    act, dact = _REF_ACTIVATIONS[arch.activation]
    acts = [x]
    for w, b in layers[:-1]:
        acts.append(act(acts[-1] @ w + b))
    w_out, b_out = layers[-1]
    delta = _ref_softmax(acts[-1] @ w_out + b_out)
    n = x.shape[0]
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(layers)
    grads[-1] = (acts[-1].T @ delta, delta.sum(axis=0))
    back = delta @ w_out.T
    for li in range(len(layers) - 2, -1, -1):
        dz = back * dact(acts[li + 1])
        grads[li] = (acts[li].T @ dz, dz.sum(axis=0))
        if li > 0:
            back = dz @ layers[li][0].T

    flat = np.empty_like(theta)
    offset = 0
    for (gw, gb), (w, _) in zip(grads, layers):
        if weight_decay > 0.0:
            gw = gw + weight_decay * w
        flat[offset : offset + gw.size] = gw.ravel()
        offset += gw.size
        flat[offset : offset + gb.size] = gb
        offset += gb.size
    return flat


def _ref_train(
    arch: MlpArchitecture,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig = TrainConfig(),
    init: ParamVector | None = None,
    dataset_id: str = "",
    parent: Checkpoint | None = None,
) -> Checkpoint:
    """Minibatch SGD with momentum on mean cross-entropy.

    Deterministic: the same inputs, config, and init give a bit-identical
    checkpoint. Pass init (or parent) to fine-tune from an existing model;
    the parent's id is recorded in meta.
    """
    x = _check_inputs(arch, x)
    y = np.asarray(y)
    if y.shape != (x.shape[0],):
        raise ValueError(f"labels must have shape ({x.shape[0]},), got {y.shape}")
    y = y.astype(np.int64)
    if y.min() < 0 or y.max() >= arch.class_count:
        raise ValueError("labels out of range for the architecture's class count")

    rng = np.random.default_rng(config.seed)
    if init is None and parent is not None:
        init = parent.payload
    if init is not None:
        if init.layout_id != arch.layout_id:
            raise ValueError(f"init layout {init.layout_id!r} does not match {arch.layout_id!r}")
        theta = init.values.copy()
    else:
        theta = init_params(arch, rng)

    velocity = np.zeros_like(theta)
    n = x.shape[0]
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            grad = _ref_grad(arch, theta, x[idx], y[idx], config.weight_decay)
            velocity = config.momentum * velocity + grad
            theta = theta - config.learning_rate * velocity

    payload = ParamVector(theta, arch.layout_id)
    meta = {
        "config": asdict(config),
        "dataset_id": dataset_id,
        "final_train_loss": mean_xentropy(arch, theta, x, y),
        "n_train": int(n),
    }
    if parent is not None:
        meta["parent"] = checkpoint_id(parent)
    return Checkpoint(arch=arch.to_header(), payload=payload, meta=meta)


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


BLEND_GRID = pytest.mark.parametrize("hidden", [(), (12,), (7, 3, 9)])
BLEND_ACTIVATIONS = pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])


def blend_setup(hidden, activation, m=3, n=37):
    """An architecture, m basis vectors and n input rows for the blend tests."""
    arch = MlpArchitecture(input_dim=5, hidden_widths=hidden, class_count=4,
                           activation=activation)
    rng = np.random.default_rng(11)
    basis = [init_params(arch, rng) + 0.3 * rng.normal(size=arch.param_count)
             for _ in range(m)]
    return arch, basis, rng.normal(size=(n, 5)), rng


@BLEND_GRID
@BLEND_ACTIVATIONS
def test_blended_forward_one_hot_rows_equal_basis_forward(hidden, activation):
    arch, basis, x, rng = blend_setup(hidden, activation)
    n, m = x.shape[0], len(basis)
    for j in range(m):
        coeffs = np.zeros((n, m))
        coeffs[:, j] = 1.0
        assert np.array_equal(blended_forward(arch, basis, coeffs, x),
                              forward_batch(arch, basis[j], x))
    # Each row its own basis model.
    pick = rng.integers(0, m, size=n)
    full = [forward_batch(arch, theta, x) for theta in basis]
    expected = np.stack([full[j][i] for i, j in enumerate(pick)])
    assert np.array_equal(blended_forward(arch, basis, np.eye(m)[pick], x), expected)


@BLEND_GRID
@BLEND_ACTIVATIONS
def test_blended_forward_matches_one_row_forwards(hidden, activation):
    # Oracle: materialise each row's blend sum_j c_ij theta_j and run it on
    # its row alone. Summing layer outputs instead of parameters moves the
    # last bits only. Convex rows, as the pair strategies use, and
    # task-arithmetic rows (1, 0.3 w) on a base and two differences.
    arch, basis, x, rng = blend_setup(hidden, activation)
    n = x.shape[0]
    task_basis = [basis[0], basis[1] - basis[0], basis[2] - basis[0]]
    task_rows = np.column_stack([np.ones(n), 0.3 * rng.dirichlet(np.ones(2), size=n)])
    for b, coeffs in ((basis, rng.dirichlet(np.ones(3), size=n)), (task_basis, task_rows)):
        expected = np.empty((n, arch.class_count))
        for i in range(n):
            merged = coeffs[i, 0] * b[0]
            for c, theta in zip(coeffs[i, 1:], b[1:]):
                merged += c * theta
            expected[i] = forward_batch(arch, merged, x[i : i + 1])[0]
        probs = blended_forward(arch, b, coeffs, x)
        np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-13)
        assert np.array_equal(probs.argmax(axis=1), expected.argmax(axis=1))


def test_stacked_logits_reject_wrong_stack_shape():
    # logits_batch takes one flat vector per call: a per-row parameter stack
    # of any shape is rejected; per-row models go through blended_forward.
    rng = np.random.default_rng(12)
    x = rng.normal(size=(6, 4))
    thetas = np.zeros((6, ARCH.param_count))
    for bad in (thetas, thetas[:5], thetas[:, :-1], np.zeros((6, ARCH.param_count + 1)),
                thetas[None]):
        with pytest.raises(ValueError):
            logits_batch(ARCH, bad, x)
    # blended_forward needs one coefficient row per input, one column per model.
    for bad in (np.ones((5, 2)), np.ones((6, 3)), np.ones(6)):
        with pytest.raises(ValueError, match="coefficients"):
            blended_forward(ARCH, [thetas[0], thetas[1]], bad, x)


def test_blended_forward_rejects_non_finite_logits():
    rng = np.random.default_rng(13)
    basis = [init_params(ARCH, rng) for _ in range(2)]
    coeffs = np.array([[0.5, 0.5], [1e308, 1e308]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            blended_forward(ARCH, basis, coeffs, rng.normal(size=(2, 4)))


# ----- the allocating forward the in-place one replaced, kept as its oracle -----
# Copied verbatim from the forward it replaced (names prefixed _ref), on the
# oracle's activation table above: a fresh array per layer and per bias add,
# a divide by the temperature even at T = 1, and each row's max reduced along
# the row for every input shape.


def _ref_logits_batch(arch: MlpArchitecture, theta: ParamVector | np.ndarray, x: np.ndarray) -> np.ndarray:
    """Logits of every row of x under one flat parameter vector theta."""
    x = _check_inputs(arch, x)
    act, _ = _REF_ACTIVATIONS[arch.activation]
    layers = unpack(arch, theta)
    h = x
    for w, b in layers[:-1]:
        h = act(h @ w + b)
    w_out, b_out = layers[-1]
    return h @ w_out + b_out


def _ref_stack_softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, each row on its own; out may be z itself."""
    out = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _ref_forward_batch(
    arch: MlpArchitecture,
    theta: ParamVector | np.ndarray,
    x: np.ndarray,
    temperature: float = 1.0,
) -> np.ndarray:
    """Class probabilities, rows on the simplex. Logits are divided by temperature."""
    temperature = float(temperature)
    if not np.isfinite(temperature) or temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return _ref_stack_softmax(_ref_logits_batch(arch, theta, x) / temperature)


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _oracle_models(arch: MlpArchitecture, rng: np.random.Generator) -> list[np.ndarray]:
    """An ordinary model; an all-zero one (every logit tied at 0); one whose
    output weights are zero and whose output biases tie pairs of classes,
    -0.0 beside +0.0 among them; and one whose logits sit near +-1e3."""
    classes = arch.class_count
    ordinary = init_params(arch, rng) + 0.3 * rng.normal(size=arch.param_count)
    tied = ordinary.copy()
    tied[-classes * (arch.layer_shapes[-1][0] + 1) :] = 0.0
    tied[-classes:] = np.resize([2.0, 2.0, -0.0, 0.0, -1.0], classes)
    large = ordinary.copy()
    large[-classes:] += np.resize([1e3, -1e3, 1e3 - 1.0], classes)
    return [ordinary, np.zeros(arch.param_count), tied, large]


@BLEND_GRID
@BLEND_ACTIVATIONS
def test_forward_equals_allocating_oracle_bit_for_bit(hidden, activation):
    arch = MlpArchitecture(input_dim=5, hidden_widths=hidden, class_count=10,
                           activation=activation)
    rng = np.random.default_rng(21)
    x_all = rng.normal(size=(2000, 5))
    for theta in _oracle_models(arch, rng):
        for n in (1, 2, 17, 2000):
            x = x_all[:n]
            _assert_same_bits(logits_batch(arch, theta, x), _ref_logits_batch(arch, theta, x))
            for temperature in (1.0, 0.5, 3.0):
                _assert_same_bits(forward_batch(arch, theta, x, temperature),
                                  _ref_forward_batch(arch, theta, x, temperature))


def test_softmax_equals_row_max_oracle_on_every_shape():
    # A vector, a 2-D block (also in Fortran order and as a strided view)
    # and a 3-D (k, n, C) stack like the SGD kernel's; rows tied at +0, at
    # -0 and at 1e3, and rows mixing -0.0 and +0.0 as their max.
    rng = np.random.default_rng(22)
    block = 40.0 * rng.normal(size=(17, 10))
    block[1] = 0.0
    block[2] = -0.0
    block[3] = np.resize([-0.0, 0.0, -1.0], 10)
    block[4] = np.resize([0.0, -0.0, -3.0], 10)
    block[5] = np.resize([1e3, -1e3, 1e3], 10)
    stack = np.stack([block, -block[::-1], 1e3 + block])
    for z in (block[5], block[0], block, np.asfortranarray(block), block[:, ::2], stack):
        _assert_same_bits(_softmax(z), _ref_stack_softmax(z))
        buffer, ref_buffer = np.array(z), np.array(z)
        assert _softmax(buffer, out=buffer) is buffer
        _assert_same_bits(buffer, _ref_stack_softmax(ref_buffer, out=ref_buffer))


# Five jobs whose schedules disagree: batch lengths 8/8 (J0, J1), 8/8/1 (J2,
# a last batch of one row), 7/7/7/7/2 (J3) and 9 (J4); 2 to 6 epochs, so jobs
# finish at different steps; momentum 0 to 0.95; weight decay 0 on J2 and J4.
_JOB_SPECS = (
    dict(n=16, config=TrainConfig(epochs=3, batch_size=8, learning_rate=0.05,
                                  momentum=0.9, weight_decay=1e-4, seed=1)),
    dict(n=16, config=TrainConfig(epochs=2, batch_size=8, learning_rate=0.1,
                                  momentum=0.0, weight_decay=1e-3, seed=2), parent=True),
    dict(n=17, config=TrainConfig(epochs=2, batch_size=8, learning_rate=0.02,
                                  momentum=0.5, weight_decay=0.0, seed=3)),
    dict(n=30, config=TrainConfig(epochs=2, batch_size=7, learning_rate=0.03,
                                  momentum=0.95, weight_decay=2e-4, seed=4), init=True),
    dict(n=9, config=TrainConfig(epochs=6, batch_size=16, learning_rate=0.07,
                                 momentum=0.8, weight_decay=0.0, seed=5)),
)
# Job order per M: M = 2 steps both models as the whole stack, then J0 alone
# after J1 finishes; M = 3 mixes decayed and undecayed models in one stacked
# step and then splits them as J2's one-row batch comes up; M = 4 and 5 step
# non-adjacent models together.
_LOCKSTEP_ORDERS = {1: (2,), 2: (0, 1), 3: (0, 2, 1), 4: (3, 0, 4, 2), 5: (0, 1, 2, 3, 4)}


def _jobs(arch, order):
    rng = np.random.default_rng(99)
    parent = Checkpoint(
        arch=arch.to_header(),
        payload=ParamVector(init_params(arch, rng), arch.layout_id),
        meta={"dataset_id": "parent"},
    )
    jobs = []
    for j in order:
        spec = _JOB_SPECS[j]
        data = np.random.default_rng(10 + j)
        x = data.normal(size=(spec["n"], arch.input_dim))
        y = data.integers(0, arch.class_count, size=spec["n"])
        init = (
            ParamVector(init_params(arch, data) + 0.2, arch.layout_id) if spec.get("init") else None
        )
        jobs.append(TrainJob(x, y, spec["config"], init=init, dataset_id=f"job{j}",
                             parent=parent if spec.get("parent") else None))
    return jobs


@pytest.mark.parametrize("m", sorted(_LOCKSTEP_ORDERS))
@pytest.mark.parametrize("hidden", [(), (12,), (7, 3, 9)])
@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
def test_train_many_matches_one_model_loop(activation, hidden, m):
    arch = MlpArchitecture(input_dim=5, hidden_widths=hidden, class_count=4,
                           activation=activation)
    jobs = _jobs(arch, _LOCKSTEP_ORDERS[m])
    got = train_many(arch, jobs)
    assert len(got) == m
    for job, ckpt in zip(jobs, got):
        want = _ref_train(arch, job.x, job.y, job.config, job.init, job.dataset_id, job.parent)
        assert np.array_equal(ckpt.payload.values, want.payload.values)
        assert ckpt.meta == want.meta
        assert ckpt.arch == want.arch
    if m == 1:
        job = jobs[0]
        one = train(arch, job.x, job.y, job.config, job.init, job.dataset_id, job.parent)
        assert np.array_equal(one.payload.values, got[0].payload.values)
        assert one.meta == got[0].meta


def test_train_many_leaves_inits_alone_and_rejects_no_jobs():
    arch = MlpArchitecture(input_dim=5, hidden_widths=(12,), class_count=4)
    jobs = _jobs(arch, (1, 3))
    before = [jobs[0].parent.payload.values.copy(), jobs[1].init.values.copy()]
    train_many(arch, jobs)
    assert np.array_equal(jobs[0].parent.payload.values, before[0])
    assert np.array_equal(jobs[1].init.values, before[1])
    with pytest.raises(ValueError):
        train_many(arch, [])
