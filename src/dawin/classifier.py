"""Small deterministic softmax MLP: forward pass, SGD training, calibration.

Pure numpy so that a fixed seed gives bit-identical checkpoints. Parameters
live in the flat layout defined by params.mlp_layer_shapes; unpack() returns
reshaped views into that vector. Training runs on one in-place SGD kernel
over a stack of models (train_many); train is that kernel with one job.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import CheckpointFormatError
from .params import (
    Checkpoint,
    ParamVector,
    TrainConfig,
    checkpoint_id,
    mlp_layer_shapes,
    mlp_layout_id,
    mlp_param_count,
)
from .util import build


def _tanh_slope(a: np.ndarray, out: np.ndarray) -> None:
    np.multiply(a, a, out=out)
    np.subtract(1.0, out, out=out)


# Activation, applied in place to a fresh pre-activation buffer and returning
# it, and its derivative, written into a buffer in terms of the activation
# output so the forward cache is enough for backprop. The identity's
# derivative is None: backprop skips the multiply by one.
_ACTIVATIONS = {
    "tanh": (lambda z: np.tanh(z, out=z), _tanh_slope),
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda a, out: np.greater(a, 0.0, out=out)),
    "identity": (lambda z: z, None),
}


@dataclass(frozen=True)
class MlpArchitecture:
    input_dim: int = 16
    hidden_widths: tuple[int, ...] = (64,)
    class_count: int = 10
    activation: str = "tanh"

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1:
            raise ValueError("'input_dim' must be positive")
        if self.class_count < 2:
            raise ValueError("'class_count' must be at least 2")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("'hidden_widths' must be positive")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"'activation' must be one of {', '.join(_ACTIVATIONS)}, "
                             f"got {self.activation!r}")

    @property
    def layer_shapes(self) -> list[tuple[int, int]]:
        return mlp_layer_shapes(self.input_dim, self.hidden_widths, self.class_count)

    @property
    def param_count(self) -> int:
        return mlp_param_count(self.input_dim, self.hidden_widths, self.class_count)

    @property
    def layout_id(self) -> str:
        return mlp_layout_id(
            self.input_dim, self.hidden_widths, self.class_count, self.activation
        )

    def to_header(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_widths": list(self.hidden_widths),
            "class_count": self.class_count,
            "activation": self.activation,
        }

    @classmethod
    def from_header(cls, arch: dict, source: str = "checkpoint") -> "MlpArchitecture":
        """The architecture a checkpoint's arch names; a field out of range
        raises CheckpointFormatError naming source and the field."""
        return build(cls, arch, source, ("arch",), CheckpointFormatError)


def unpack(arch: MlpArchitecture, theta: ParamVector | np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat vector into [(W, b), ...] views, forward order."""
    values = theta.values if isinstance(theta, ParamVector) else np.asarray(theta, dtype=np.float64)
    if values.shape != (arch.param_count,):
        raise ValueError(
            f"expected {arch.param_count} parameters for {arch.layout_id}, got {values.shape}"
        )
    if isinstance(theta, ParamVector) and theta.layout_id != arch.layout_id:
        raise ValueError(f"layout {theta.layout_id!r} does not match {arch.layout_id!r}")
    layers = []
    offset = 0
    for fan_in, fan_out in arch.layer_shapes:
        w = values[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = values[offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def _unpack_stack(arch: MlpArchitecture, thetas: np.ndarray, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """unpack for an (n, P) stack: W views of shape (n, fan_in, fan_out) and
    b views of shape (n, 1, fan_out). The SGD kernel reads its stacks
    through it."""
    if thetas.shape != (n, arch.param_count):
        raise ValueError(
            f"expected a ({n}, {arch.param_count}) parameter stack for {arch.layout_id}, "
            f"got {thetas.shape}"
        )
    layers = []
    offset = 0
    for fan_in, fan_out in arch.layer_shapes:
        w = thetas[:, offset : offset + fan_in * fan_out].reshape(n, fan_in, fan_out)
        offset += fan_in * fan_out
        b = thetas[:, None, offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def init_params(arch: MlpArchitecture, rng: np.random.Generator) -> np.ndarray:
    """Uniform(-s, s) weights with s = sqrt(6 / (fan_in + fan_out)); zero biases."""
    chunks = []
    for fan_in, fan_out in arch.layer_shapes:
        s = math.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-s, s, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


def _check_inputs(arch: MlpArchitecture, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise ValueError(f"expected inputs of shape (n, {arch.input_dim}), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("inputs must be finite")
    return x


def logits_batch(arch: MlpArchitecture, theta: ParamVector | np.ndarray, x: np.ndarray) -> np.ndarray:
    """Logits of every row of x under one flat parameter vector theta."""
    x = _check_inputs(arch, x)
    act, _ = _ACTIVATIONS[arch.activation]
    layers = unpack(arch, theta)
    last = len(layers) - 1
    h = x
    for li, (w, b) in enumerate(layers):
        z = h @ w
        z += b
        h = z if li == last else act(z)
    return h


def blended_forward(
    arch: MlpArchitecture,
    basis: Sequence[ParamVector | np.ndarray],
    coeffs: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Class probabilities (T = 1) of each row x[i] under its own blend
    sum_j coeffs[i, j] * basis[j], without building any blended vector.

    Each layer is affine in its (W, b), so the blend's pre-activation is
    z = sum_j coeffs[:, j] * (h @ W_j + b_j), summed in basis order; the
    activation is applied to z, except after the last layer. This holds for
    layers affine in their parameters only (a bilinear layer such as
    attention's Q K^T breaks it). A one-hot row gives the bits of
    forward_batch under that basis model; other rows differ from a forward
    of the materialised blend in the last bits. A non-finite logit raises
    ValueError.
    """
    x = _check_inputs(arch, x)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (x.shape[0], len(basis)):
        raise ValueError(
            f"expected ({x.shape[0]}, {len(basis)}) coefficients, one row per input and "
            f"one column per basis model, got {coeffs.shape}"
        )
    models = [unpack(arch, theta) for theta in basis]
    columns = [coeffs[:, j : j + 1] for j in range(len(basis))]
    act, _ = _ACTIVATIONS[arch.activation]
    h = x
    last = len(arch.layer_shapes) - 1
    for li in range(last + 1):
        z = None
        for c, layers in zip(columns, models):
            w, b = layers[li]
            term = h @ w
            term += b
            term *= c
            if z is None:
                z = term
            else:
                z += term
        h = z if li == last else act(z)
    if not np.all(np.isfinite(h)):
        raise ValueError("blended logits must be finite")
    return _softmax(h, out=h)


def _softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, each row on its own; out may be z itself.
    A 2-D block takes its row maxima from a C-contiguous copy of z.T, which
    reduces faster: a max is exact in any order, up to the sign of a zero
    max, which exp(z - m) ignores."""
    if z.ndim == 2:
        m = np.ascontiguousarray(z.T).max(axis=0)[:, None]
    else:
        m = z.max(axis=-1, keepdims=True)
    out = np.subtract(z, m, out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def forward_batch(
    arch: MlpArchitecture,
    theta: ParamVector | np.ndarray,
    x: np.ndarray,
    temperature: float = 1.0,
) -> np.ndarray:
    """Class probabilities, rows on the simplex. Logits are divided by temperature."""
    temperature = float(temperature)
    if not np.isfinite(temperature) or temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    z = logits_batch(arch, theta, x)
    if temperature != 1.0:  # x / 1.0 == x exactly, so T = 1 skips the pass
        z /= temperature
    return _softmax(z, out=z)


def mean_xentropy(
    arch: MlpArchitecture, theta: ParamVector | np.ndarray, x: np.ndarray, y: np.ndarray
) -> float:
    """Mean negative log-likelihood of the true labels, in nats."""
    return _nll_at_temperature(logits_batch(arch, theta, x), y, 1.0)


@dataclass(frozen=True, eq=False)
class TrainJob:
    """One model for train_many: its data and config, and where it starts
    (init, else the parent's payload, else a fresh draw from config.seed).
    The parent's id is recorded in meta."""

    x: np.ndarray
    y: np.ndarray
    config: TrainConfig = TrainConfig()
    init: ParamVector | None = None
    dataset_id: str = ""
    parent: Checkpoint | None = None


class _SgdStack:
    """k models under SGD as one (k, P) stack: parameters, velocity and
    gradient, their per-layer views (made once), each model's learning rate,
    momentum and weight decay, and scratch buffers per batch length."""

    def __init__(self, arch: MlpArchitecture, theta: np.ndarray, configs: list[TrainConfig]):
        k = theta.shape[0]
        self.arch = arch
        self.theta = theta
        self.velocity = np.zeros_like(theta)
        self.grad = np.empty_like(theta)
        self.tmp = np.empty_like(theta)
        self.layers = _unpack_stack(arch, theta, k)
        self.grad_layers = [(w, b[:, 0, :]) for w, b in _unpack_stack(arch, self.grad, k)]
        self.tmp_weights = [w for w, _ in _unpack_stack(arch, self.tmp, k)]
        self.lr = np.array([[c.learning_rate] for c in configs])
        self.momentum = np.array([[c.momentum] for c in configs])
        self.decay = np.array([[c.weight_decay] for c in configs])
        # A model without decay gets no decay term: g + 0 * w turns -0.0 into +0.0.
        self.decayed = [i for i, c in enumerate(configs) if c.weight_decay > 0.0]
        self._scratch: dict[int, dict] = {}

    def scratch(self, n: int) -> dict:
        """Activation, backprop and softmax buffers for batches of n rows."""
        s = self._scratch.get(n)
        if s is None:
            k, arch = self.theta.shape[0], self.arch
            hidden = [(k, n, w) for w in arch.hidden_widths]
            s = self._scratch[n] = {
                "x": np.empty((k, n, arch.input_dim)),
                "hot": np.empty((k, n), dtype=np.int64),
                "hot_offset": (np.arange(k) * (n * arch.class_count))[:, None],
                "hidden": [np.empty(shape) for shape in hidden],
                "back": [np.empty(shape) for shape in hidden],
                "slope": [np.empty(shape) for shape in hidden],
                "delta": np.empty((k, n, arch.class_count)),
            }
        return s

    def step(self, x: np.ndarray, hot: np.ndarray) -> None:
        """One SGD-with-momentum step of every model on its own batch:
        v = momentum * v + grad, theta = theta - lr * v."""
        _stack_grad(self, x, hot)
        self.velocity *= self.momentum
        self.velocity += self.grad
        np.multiply(self.velocity, self.lr, out=self.tmp)
        self.theta -= self.tmp


def _stack_grad(stack: _SgdStack, x: np.ndarray, hot: np.ndarray) -> np.ndarray:
    """Gradient of each model's mean cross-entropy on its own batch, plus the
    L2 term on its weights, written into stack.grad and returned.

    x is (k, n, d): model i sees rows x[i]. hot holds, per model, the flat
    indices into its (n, C) block of the true labels, offset by i * n * C.
    Slice i equals a k = 1 call on x[i]: each matmul is one BLAS call per
    slice, and every other operation is elementwise or reduces within a slice.
    """
    k, n, _ = x.shape
    s = stack.scratch(n)
    act, slope = _ACTIVATIONS[stack.arch.activation]
    acts = [x]
    for (w, b), z in zip(stack.layers[:-1], s["hidden"]):
        np.matmul(acts[-1], w, out=z)
        z += b
        acts.append(act(z))
    w_out, b_out = stack.layers[-1]
    delta = s["delta"]
    np.matmul(acts[-1], w_out, out=delta)
    delta += b_out
    _softmax(delta, out=delta)
    delta.reshape(-1)[hot.reshape(-1)] -= 1.0
    delta /= n

    back = delta
    for li in range(len(stack.layers) - 1, -1, -1):
        gw, gb = stack.grad_layers[li]
        if li < len(stack.layers) - 1:
            dz = s["back"][li]
            np.matmul(back, stack.layers[li + 1][0].transpose(0, 2, 1), out=dz)
            if slope is not None:
                slope(acts[li + 1], s["slope"][li])
                dz *= s["slope"][li]
            back = dz
        np.matmul(acts[li].transpose(0, 2, 1), back, out=gw)
        np.add.reduce(back, axis=1, out=gb)

    if stack.decayed:
        np.multiply(stack.theta, stack.decay, out=stack.tmp)
        pairs = zip(stack.grad_layers, stack.tmp_weights)
        if len(stack.decayed) == k:
            for (gw, _), tw in pairs:
                gw += tw
        else:
            for (gw, _), tw in pairs:
                for i in stack.decayed:
                    gw[i] += tw[i]
    return stack.grad


def train_many(arch: MlpArchitecture, jobs: list[TrainJob]) -> list[Checkpoint]:
    """Minibatch SGD with momentum on mean cross-entropy for M >= 1 models in
    lockstep, as one (M, P) stack; one checkpoint per job, in job order.

    Each job draws its init (when it has none) and one permutation per epoch
    from its own default_rng(config.seed). At every step the jobs whose
    batches have the same length take one stacked step; a job with a short
    batch steps apart, and a finished job drops out, so no batch is padded.
    Each checkpoint is therefore bit-identical to training its job alone,
    and the same inputs give the same checkpoints.
    """
    jobs = list(jobs)
    if not jobs:
        raise ValueError("train_many needs at least one job")
    data, rngs, starts = [], [], []
    for job in jobs:
        x = _check_inputs(arch, job.x)
        y = np.asarray(job.y)
        if y.shape != (x.shape[0],):
            raise ValueError(f"labels must have shape ({x.shape[0]},), got {y.shape}")
        y = y.astype(np.int64)
        if y.min() < 0 or y.max() >= arch.class_count:
            raise ValueError("labels out of range for the architecture's class count")
        data.append((x, y))
        rng = np.random.default_rng(job.config.seed)
        init = job.init
        if init is None and job.parent is not None:
            init = job.parent.payload
        if init is not None:
            if init.layout_id != arch.layout_id:
                raise ValueError(f"init layout {init.layout_id!r} does not match {arch.layout_id!r}")
            starts.append(init.values)
        else:
            starts.append(init_params(arch, rng))
        rngs.append(rng)

    configs = [job.config for job in jobs]
    everyone = tuple(range(len(jobs)))
    full = _SgdStack(arch, np.array(starts, dtype=np.float64), configs)
    theta = full.theta
    substacks: dict[tuple[int, ...], _SgdStack] = {}
    sizes = [x.shape[0] for x, _ in data]
    per_epoch = [-(-n // c.batch_size) for n, c in zip(sizes, configs)]
    total = [c.epochs * e for c, e in zip(configs, per_epoch)]
    epoch_x: list[np.ndarray | None] = [None] * len(jobs)
    epoch_hot: list[np.ndarray | None] = [None] * len(jobs)

    for t in range(max(total)):
        groups: dict[int, list[tuple[int, int]]] = {}
        for i in everyone:
            if t >= total[i]:
                continue
            lo = (t % per_epoch[i]) * configs[i].batch_size
            if lo == 0:
                x, y = data[i]
                order = rngs[i].permutation(sizes[i])
                epoch_x[i] = x[order]
                # Flat index of each row's true label within its batch's (n, C) block.
                row = np.arange(sizes[i]) % configs[i].batch_size
                epoch_hot[i] = row * arch.class_count + y[order]
            n = min(configs[i].batch_size, sizes[i] - lo)
            groups.setdefault(n, []).append((i, lo))
        for n, members in groups.items():
            idx = tuple(i for i, _ in members)
            if idx == everyone:
                stack = full
            else:
                rows = list(idx)
                stack = substacks.get(idx)
                if stack is None:
                    stack = substacks[idx] = _SgdStack(arch, theta[rows], [configs[i] for i in idx])
                stack.theta[...] = theta[rows]
                stack.velocity[...] = full.velocity[rows]
            if len(members) == 1:
                (i, lo), = members
                xb = epoch_x[i][None, lo : lo + n]
                hot = epoch_hot[i][None, lo : lo + n]
            else:
                s = stack.scratch(n)
                xb = np.stack([epoch_x[i][lo : lo + n] for i, lo in members], out=s["x"])
                hot = np.stack([epoch_hot[i][lo : lo + n] for i, lo in members], out=s["hot"])
                hot += s["hot_offset"]
            stack.step(xb, hot)
            if stack is not full:
                theta[rows] = stack.theta
                full.velocity[rows] = stack.velocity

    out = []
    for job, (x, y), values in zip(jobs, data, theta):
        meta = {
            "config": asdict(job.config),
            "dataset_id": job.dataset_id,
            "final_train_loss": mean_xentropy(arch, values, x, y),
            "n_train": int(x.shape[0]),
        }
        if job.parent is not None:
            meta["parent"] = checkpoint_id(job.parent)
        out.append(
            Checkpoint(arch=arch.to_header(), payload=ParamVector(values, arch.layout_id), meta=meta)
        )
    return out


def train(
    arch: MlpArchitecture,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig = TrainConfig(),
    init: ParamVector | None = None,
    dataset_id: str = "",
    parent: Checkpoint | None = None,
) -> Checkpoint:
    """Minibatch SGD with momentum on mean cross-entropy: train_many of one job.

    Deterministic: the same inputs, config, and init give a bit-identical
    checkpoint. Pass init (or parent) to fine-tune from an existing model;
    the parent's id is recorded in meta.
    """
    return train_many(arch, [TrainJob(x, y, config, init, dataset_id, parent)])[0]


def _nll_at_temperature(logits: np.ndarray, y: np.ndarray, temperature: float) -> float:
    z = logits / temperature
    z = z - z.max(axis=1, keepdims=True)
    logz = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(logz - z[np.arange(len(y)), y]))


def calibrate_temperature(
    arch: MlpArchitecture,
    theta: ParamVector | np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    bounds: tuple[float, float] = (0.25, 16.0),
    tol: float = 1e-3,
) -> float:
    """Golden-section search for the temperature minimizing validation NLL.

    The search runs on log T over [log bounds[0], log bounds[1]] down to an
    interval of width tol.
    """
    x_val = _check_inputs(arch, x_val)
    y_val = np.asarray(y_val).astype(np.int64)
    if x_val.shape[0] == 0:
        raise ValueError("validation set is empty")
    if y_val.shape != (x_val.shape[0],):
        raise ValueError("validation labels do not match inputs")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (0.0 < lo < hi):
        raise ValueError("bounds must satisfy 0 < lo < hi")

    logits = logits_batch(arch, theta, x_val)
    objective = lambda u: _nll_at_temperature(logits, y_val, math.exp(u))

    a, b = math.log(lo), math.log(hi)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    return math.exp(0.5 * (a + b))
