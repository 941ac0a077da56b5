"""Small deterministic softmax MLP: forward pass, SGD training, calibration.

Pure numpy so that a fixed seed gives bit-identical checkpoints. Parameters
live in the flat layout defined by params.mlp_layer_shapes; unpack() returns
reshaped views into that vector.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CheckpointFormatError
from .params import (
    Checkpoint,
    ParamVector,
    _validate_arch_header,
    checkpoint_id,
    mlp_layer_shapes,
    mlp_layout_id,
    mlp_param_count,
)

# Activation and its derivative, the latter written in terms of the
# activation output so the forward cache is enough for backprop.
_ACTIVATIONS = {
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "relu": (lambda z: np.maximum(z, 0.0), lambda a: (a > 0.0).astype(np.float64)),
    "identity": (lambda z: z, lambda a: np.ones_like(a)),
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
            raise ValueError("input_dim must be positive")
        if self.class_count < 2:
            raise ValueError("class_count must be at least 2")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden widths must be positive")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

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
    def from_header(cls, header: dict) -> "MlpArchitecture":
        """The architecture a checkpoint header names; a missing, ill-typed or
        unknown field raises CheckpointFormatError naming the field."""
        arch = _validate_arch_header(header)
        if arch["activation"] not in _ACTIVATIONS:
            raise CheckpointFormatError(
                f"header arch field 'activation' names no known activation: "
                f"{arch['activation']!r}"
            )
        return cls(**arch)


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
    b views of shape (n, 1, fan_out). Kept apart from unpack, which every
    SGD step calls, so that the one-vector path pays nothing for stacks."""
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
    """Logits of every row of x.

    theta is one flat parameter vector for all rows, or an (n, P) stack that
    gives row i of x its own parameters theta[i]. A stack runs each layer as a
    stacked matmul, one (1, fan_in) @ (fan_in, fan_out) product per row: numpy
    makes the same BLAS call for each slice as for a one-row forward, so row i
    is bit-identical to logits_batch(arch, theta[i], x[i : i + 1]).
    """
    x = _check_inputs(arch, x)
    stacked = not isinstance(theta, ParamVector) and np.ndim(theta) == 2
    if stacked:
        layers = _unpack_stack(arch, np.asarray(theta, dtype=np.float64), x.shape[0])
        h = x[:, None, :]
    else:
        layers = unpack(arch, theta)
        h = x
    act, _ = _ACTIVATIONS[arch.activation]
    for w, b in layers[:-1]:
        h = act(h @ w + b)
    w_out, b_out = layers[-1]
    logits = h @ w_out + b_out
    return logits[:, 0, :] if stacked else logits


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward_batch(
    arch: MlpArchitecture,
    theta: ParamVector | np.ndarray,
    x: np.ndarray,
    temperature: float = 1.0,
) -> np.ndarray:
    """Class probabilities, rows on the simplex. Logits are divided by temperature.
    theta is one parameter vector or an (n, P) stack, as in logits_batch."""
    temperature = float(temperature)
    if not np.isfinite(temperature) or temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return _softmax(logits_batch(arch, theta, x) / temperature)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def mean_xentropy(
    arch: MlpArchitecture, theta: ParamVector | np.ndarray, x: np.ndarray, y: np.ndarray
) -> float:
    """Mean negative log-likelihood of the true labels, in nats."""
    return _nll_at_temperature(logits_batch(arch, theta, x), y, 1.0)


def _grad(
    arch: MlpArchitecture,
    theta: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    weight_decay: float,
) -> np.ndarray:
    """Gradient of the mean cross-entropy plus the L2 term on the weights."""
    layers = unpack(arch, theta)
    act, dact = _ACTIVATIONS[arch.activation]
    acts = [x]
    for w, b in layers[:-1]:
        acts.append(act(acts[-1] @ w + b))
    w_out, b_out = layers[-1]
    delta = _softmax(acts[-1] @ w_out + b_out)
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


def train(
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
            grad = _grad(arch, theta, x[idx], y[idx], config.weight_decay)
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
