"""Flat parameter vectors, interpolation arithmetic, task vectors, checkpoints.

Every model is handled as a flat float64 vector tagged with a layout id, so
merging is plain vector arithmetic regardless of architecture. The canonical
flat order is: for each layer in forward order, the weight matrix in row-major
order followed by its bias vector.

Checkpoint files: magic "DWIN1", a 4-byte little-endian header length, a UTF-8
JSON header (architecture + training metadata, whose config is a TrainConfig),
then the raw little-endian float64 payload.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .errors import CheckpointFormatError, IncompatibleModelsError
from .util import atomic_write, get, get_dataclass

CHECKPOINT_MAGIC = b"DWIN1"


def _freeze(values: Any) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True, order="C")
    if arr.ndim != 1:
        raise ValueError("parameter values must be one-dimensional")
    if arr.size == 0:
        raise ValueError("parameter vector is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("parameter values must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ParamVector:
    """Immutable flat view of one model's weights."""

    values: np.ndarray
    layout_id: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze(self.values))
        if not self.layout_id:
            raise ValueError("layout_id must be non-empty")

    def __len__(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class TaskVector:
    """Difference theta_task - theta_base, tied to the base layout."""

    delta: ParamVector
    base_layout: str

    def __post_init__(self) -> None:
        if self.delta.layout_id != self.base_layout:
            raise IncompatibleModelsError(
                f"task vector layout {self.delta.layout_id!r} does not match "
                f"base layout {self.base_layout!r}"
            )

    def __len__(self) -> int:
        return len(self.delta)


def check_compatible(a: ParamVector, b: ParamVector) -> None:
    if a.layout_id != b.layout_id:
        raise IncompatibleModelsError(
            f"layout mismatch: {a.layout_id!r} vs {b.layout_id!r}"
        )
    if len(a) != len(b):
        raise IncompatibleModelsError(
            f"length mismatch under layout {a.layout_id!r}: {len(a)} vs {len(b)}"
        )


def materialize(basis: Sequence[ParamVector], row: Sequence[float]) -> ParamVector:
    """sum_j row[j] * basis[j], added in basis order: the one parameter merge.
    Raises IncompatibleModelsError for basis vectors of different layouts or
    lengths, and ValueError for a row of the wrong length or a non-finite sum."""
    if len(row) != len(basis):
        raise ValueError(f"expected {len(basis)} coefficients, got {len(row)}")
    for theta in basis[1:]:
        check_compatible(basis[0], theta)
    acc = row[0] * basis[0].values
    for coeff, theta in zip(row[1:], basis[1:]):
        acc += coeff * theta.values
    return ParamVector(acc, basis[0].layout_id)


def interpolation_row(lam: float) -> tuple[float, float]:
    """The row (1 - lam, lam) on the basis (theta_0, theta_1)."""
    lam = float(lam)
    if not np.isfinite(lam) or lam < 0.0 or lam > 1.0:
        raise ValueError(f"interpolation coefficient must lie in [0, 1], got {lam}")
    return (1.0 - lam, lam)


def interpolate_pair(theta_0: ParamVector, theta_1: ParamVector, lam: float) -> ParamVector:
    """(1 - lam) * theta_0 + lam * theta_1, elementwise."""
    return materialize((theta_0, theta_1), interpolation_row(lam))


def make_task_vector(theta_task: ParamVector, theta_base: ParamVector) -> TaskVector:
    check_compatible(theta_task, theta_base)
    delta = theta_task.values - theta_base.values
    return TaskVector(ParamVector(delta, theta_base.layout_id), theta_base.layout_id)


def combine_task_vectors(
    theta_0: ParamVector,
    lambda_0: float,
    weights: Sequence[float],
    taus: Sequence[TaskVector],
) -> ParamVector:
    """theta_0 + lambda_0 * sum_j weights[j] * taus[j], added in task order."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"expected {len(taus)} weights, got shape {w.shape}")
    row = task_vector_coefficients(theta_0, lambda_0, w[None, :], taus)[0]
    return materialize((theta_0, *(tau.delta for tau in taus)), row)


def task_vector_coefficients(
    theta_0: ParamVector,
    lambda_0: float,
    weights: np.ndarray,
    taus: Sequence[TaskVector],
) -> np.ndarray:
    """The (n, 1 + M) coefficient rows of the basis theta_0, taus[0..M-1] for
    the (n, M) task weights: row i is (1, lambda_0 * weights[i, j] ...).

    Raises ValueError for a non-finite lambda_0 or weights that are not
    finite and non-negative, and IncompatibleModelsError for a task vector
    whose layout or length does not match theta_0.
    """
    lambda_0 = float(lambda_0)
    if not np.isfinite(lambda_0):
        raise ValueError("lambda_0 must be finite")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != len(taus):
        raise ValueError(f"expected {len(taus)} weights per row, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValueError("task-vector weights must be finite and non-negative")
    for tau in taus:
        if tau.base_layout != theta_0.layout_id or len(tau) != len(theta_0):
            raise IncompatibleModelsError(
                f"task vector (layout {tau.base_layout!r}, len {len(tau)}) does not "
                f"match base (layout {theta_0.layout_id!r}, len {len(theta_0)})"
            )
    rows = np.empty((w.shape[0], 1 + len(taus)))
    rows[:, 0] = 1.0
    np.multiply(lambda_0, w, out=rows[:, 1:])
    return rows


# ----- canonical MLP layout ---------------------------------------------------

def mlp_layer_shapes(
    input_dim: int, hidden_widths: Sequence[int], class_count: int
) -> list[tuple[int, int]]:
    """(fan_in, fan_out) per layer, forward order."""
    dims = [int(input_dim), *(int(w) for w in hidden_widths), int(class_count)]
    return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]


def mlp_param_count(input_dim: int, hidden_widths: Sequence[int], class_count: int) -> int:
    return sum(fi * fo + fo for fi, fo in mlp_layer_shapes(input_dim, hidden_widths, class_count))


def mlp_layout_id(
    input_dim: int, hidden_widths: Sequence[int], class_count: int, activation: str
) -> str:
    hidden = ",".join(str(int(w)) for w in hidden_widths) or "-"
    return f"mlp:d{int(input_dim)}:h{hidden}:{activation}:c{int(class_count)}"


def _arch_fields(doc, source: str, keys: tuple = ()) -> dict:
    """The architecture fields of a checkpoint header's arch at keys of doc,
    type-checked; their ranges are MlpArchitecture's to check."""
    return {
        key: get(doc, source, (*keys, key), kind, error=CheckpointFormatError)
        for key, kind in (("input_dim", int), ("hidden_widths", [int]),
                          ("class_count", int), ("activation", str))
    }


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings; a checkpoint's meta records the config that trained it."""

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


@dataclass(frozen=True)
class Checkpoint:
    """A parameter vector plus the architecture and provenance that made it."""

    arch: dict
    payload: ParamVector
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        arch = _arch_fields(self.arch, "checkpoint arch")
        object.__setattr__(self, "arch", arch)
        expected = mlp_param_count(arch["input_dim"], arch["hidden_widths"], arch["class_count"])
        if expected != len(self.payload):
            raise CheckpointFormatError(
                f"architecture implies {expected} parameters, payload has {len(self.payload)}"
            )
        layout = mlp_layout_id(
            arch["input_dim"], arch["hidden_widths"], arch["class_count"], arch["activation"]
        )
        if self.payload.layout_id != layout:
            raise CheckpointFormatError(
                f"payload layout {self.payload.layout_id!r} does not match "
                f"architecture layout {layout!r}"
            )


def checkpoint_id(ckpt: Checkpoint) -> str:
    """Stable short id: hash of layout and payload bytes."""
    digest = hashlib.sha256()
    digest.update(ckpt.payload.layout_id.encode("utf-8"))
    digest.update(np.ascontiguousarray(ckpt.payload.values, dtype="<f8").tobytes())
    return digest.hexdigest()[:16]


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    header = {
        "arch": ckpt.arch,
        "meta": ckpt.meta,
        "param_count": len(ckpt.payload),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = b"".join(
        [
            CHECKPOINT_MAGIC,
            struct.pack("<I", len(header_bytes)),
            header_bytes,
            np.ascontiguousarray(ckpt.payload.values, dtype="<f8").tobytes(),
        ]
    )
    atomic_write(path, blob)


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 4:
        raise CheckpointFormatError(f"{path}: file too short for a checkpoint")
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {blob[:5]!r}")
    offset = len(CHECKPOINT_MAGIC)
    (header_len,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if len(blob) < offset + header_len:
        raise CheckpointFormatError(f"{path}: truncated header")
    try:
        header = json.loads(blob[offset : offset + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, huge ints, deep nesting
        raise CheckpointFormatError(f"{path}: header is not valid JSON: {exc}") from exc
    offset += header_len
    arch = _arch_fields(header, path, ("arch",))
    declared = get(header, path, ("param_count",), int, error=CheckpointFormatError)
    payload_bytes = blob[offset:]
    if len(payload_bytes) % 8 != 0 or len(payload_bytes) // 8 != declared:
        raise CheckpointFormatError(
            f"{path}: payload holds {len(payload_bytes) / 8:g} float64 values, "
            f"header declares {declared}"
        )
    expected = mlp_param_count(arch["input_dim"], arch["hidden_widths"], arch["class_count"])
    if expected != declared:
        raise CheckpointFormatError(
            f"{path}: header inconsistency, architecture implies {expected} "
            f"parameters but header declares {declared}"
        )
    values = np.frombuffer(payload_bytes, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise CheckpointFormatError(f"{path}: payload contains non-finite values")
    layout = mlp_layout_id(
        arch["input_dim"], arch["hidden_widths"], arch["class_count"], arch["activation"]
    )
    meta = get(header, path, ("meta",), dict, {}, CheckpointFormatError)
    if "config" in meta:
        get_dataclass(TrainConfig, header, path, ("meta", "config"), CheckpointFormatError)
    return Checkpoint(arch=arch, payload=ParamVector(values, layout), meta=meta)
