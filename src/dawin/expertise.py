"""Per-sample expertise estimation from prediction entropy.

The central quantity: given candidate models' predictive distributions on the
same input, each model's interpolation coefficient is the softmax of negative
entropies,

    lambda_j(x) = exp(-H_j(x)) / sum_k exp(-H_k(x)),

which for two models reduces to sigmoid(H_0 - H_1). An optional domain-level
offset nudges the two-model coefficient using entropy dispersion statistics,

    O(X) = (std(H_0)/mean(H_0) + std(H_1)/mean(H_1)) / 2
    T(X) = (mean(H_0) + mean(H_1)) / mean(H_0)
    lambda(x) = (exp(-H_1) + O/T) / (exp(-H_0) + exp(-H_1) + O),

with population (1/N) statistics. All entropies are in nats; probabilities
are clipped below at 1e-12 inside logs.
"""

from __future__ import annotations

import enum
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, softmax

from .errors import (
    DataFormatError,
    DegenerateDomainError,
    InsufficientSamplesError,
    UndefinedOracleError,
)
from .util import atomic_write, read_csv

PROB_EPS = 1e-12

PSEUDO_LABEL_VARIANTS = ("avg_soft", "avg_hard", "mid_soft", "mid_hard")


def entropy(p: np.ndarray) -> np.ndarray | float:
    """Shannon entropy in nats along the last axis, with 0 ln 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    terms = np.where(p > 0.0, p * np.log(np.maximum(p, PROB_EPS)), 0.0)
    h = -terms.sum(axis=-1)
    return float(h) if np.ndim(h) == 0 else h


def xentropy(p: np.ndarray, y: np.ndarray | int) -> np.ndarray | float:
    """Cross-entropy to the true label: -ln p_y, clipped below at 1e-12."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim == 1:
        return float(-np.log(max(float(p[int(y)]), PROB_EPS)))
    rows = np.arange(p.shape[0])
    return -np.log(np.maximum(p[rows, np.asarray(y, dtype=np.int64)], PROB_EPS))


def soft_xentropy(p: np.ndarray, q: np.ndarray) -> np.ndarray | float:
    """-sum_c q_c ln p_c along the last axis (q is the target distribution)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    out = -(q * np.log(np.maximum(p, PROB_EPS))).sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


# ----- coefficients -----------------------------------------------------------

def coeff_pair(h0: np.ndarray | float, h1: np.ndarray | float) -> np.ndarray | float:
    """Two-model coefficient exp(-h1) / (exp(-h0) + exp(-h1)) = sigmoid(h0 - h1)."""
    h0 = np.asarray(h0, dtype=np.float64)
    h1 = np.asarray(h1, dtype=np.float64)
    if np.any(h0 < 0.0) or np.any(h1 < 0.0):
        raise ValueError("entropies must be non-negative")
    out = expit(h0 - h1)
    return float(out) if np.ndim(out) == 0 else out


def coeff_multi(entropies: np.ndarray) -> np.ndarray:
    """Softmax of negative entropies along the last axis (max-shifted)."""
    h = np.asarray(entropies, dtype=np.float64)
    if h.shape[-1] < 2:
        raise ValueError("need at least two models")
    if np.any(h < 0.0):
        raise ValueError("entropies must be non-negative")
    return softmax(-h, axis=-1)


@dataclass(frozen=True)
class DomainOffset:
    """Dispersion statistics behind the offset-adjusted coefficient."""

    o: float
    t: float
    mean_h0: float
    mean_h1: float
    n: int


def domain_offset(h0: np.ndarray, h1: np.ndarray) -> DomainOffset:
    h0 = np.asarray(h0, dtype=np.float64)
    h1 = np.asarray(h1, dtype=np.float64)
    if h0.shape != h1.shape or h0.ndim != 1:
        raise ValueError("entropy arrays must be one-dimensional and equal length")
    n = h0.shape[0]
    if n < 2:
        raise InsufficientSamplesError(f"offset statistics need at least 2 samples, got {n}")
    m0, m1 = float(h0.mean()), float(h1.mean())
    if m0 <= 0.0 or m1 <= 0.0:
        raise DegenerateDomainError("zero mean entropy, offset undefined")
    s0 = float(h0.std())  # population std, ddof=0
    s1 = float(h1.std())
    o = 0.5 * (s0 / m0 + s1 / m1)
    t = (m0 + m1) / m0
    return DomainOffset(o=o, t=t, mean_h0=m0, mean_h1=m1, n=n)


def coeff_pair_offset(h0: np.ndarray, h1: np.ndarray) -> tuple[np.ndarray, DomainOffset]:
    """Offset-adjusted two-model coefficients for a sample set, with the
    offset computed from the same entropies; the offset is returned too."""
    h0 = np.asarray(h0, dtype=np.float64)
    h1 = np.asarray(h1, dtype=np.float64)
    off = domain_offset(h0, h1)
    e0, e1 = np.exp(-h0), np.exp(-h1)
    lam = (e1 + off.o / off.t) / (e0 + e1 + off.o)
    return lam, off


def oracle_coeff(p0_y: np.ndarray | float, p1_y: np.ndarray | float) -> np.ndarray | float:
    """Hindsight coefficient from true-label masses: p1_y / (p0_y + p1_y).

    Equals exp(-l1) / (exp(-l0) + exp(-l1)) for the label cross-entropies.
    Masses are clipped to PROB_EPS, except where both lie below it: clipping
    would give 0.5 there, so those rows take the unclipped ratio.
    """
    p0 = np.asarray(p0_y, dtype=np.float64)
    p1 = np.asarray(p1_y, dtype=np.float64)
    if np.any((p0 == 0.0) & (p1 == 0.0)):
        raise UndefinedOracleError("both true-label masses are zero for some sample")
    both_tiny = (p0 < PROB_EPS) & (p1 < PROB_EPS)
    c0, c1 = np.clip(p0, PROB_EPS, 1.0), np.clip(p1, PROB_EPS, 1.0)
    out = c1 / (c0 + c1)
    if np.any(both_tiny):
        out = np.where(both_tiny, p1 / (p0 + p1), out)
    return float(out) if np.ndim(out) == 0 else out


def pseudo_label_coeff(
    variant: str,
    p0: np.ndarray,
    p1: np.ndarray,
    p_mid: np.ndarray | None = None,
) -> np.ndarray | float:
    """Coefficient from cross-entropy against a pseudo-label.

    variant is one of avg_soft, avg_hard, mid_soft, mid_hard. avg_* targets
    the prediction average (p0 + p1)/2; mid_* targets the prediction of the
    midpoint-merged model (required argument p_mid). *_hard replaces the
    target with a one-hot at its argmax.
    """
    if variant not in PSEUDO_LABEL_VARIANTS:
        raise ValueError(f"unknown pseudo-label variant {variant!r}")
    squeeze = np.asarray(p0).ndim == 1
    p0 = np.atleast_2d(np.asarray(p0, dtype=np.float64))
    p1 = np.atleast_2d(np.asarray(p1, dtype=np.float64))
    if variant.startswith("avg"):
        target = 0.5 * (p0 + p1)
    else:
        if p_mid is None:
            raise ValueError("mid_* variants require the midpoint model's predictions")
        target = np.atleast_2d(np.asarray(p_mid, dtype=np.float64))
    if variant.endswith("hard"):
        hard = np.zeros_like(target)
        hard[np.arange(target.shape[0]), target.argmax(axis=1)] = 1.0
        target = hard
    l0 = soft_xentropy(p0, target)
    l1 = soft_xentropy(p1, target)
    lam = expit(np.asarray(l0) - np.asarray(l1))
    return float(lam[0]) if squeeze else lam


# ----- correctness splits and correlation -------------------------------------

class Split(str, enum.Enum):
    TRUE_TRUE = "TrueTrue"
    TRUE_FALSE = "TrueFalse"
    FALSE_TRUE = "FalseTrue"
    FALSE_FALSE = "FalseFalse"


def split_masks(preds0: np.ndarray, preds1: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray]:
    c0 = np.asarray(preds0) == np.asarray(y)
    c1 = np.asarray(preds1) == np.asarray(y)
    return {
        Split.TRUE_TRUE.value: c0 & c1,
        Split.TRUE_FALSE.value: c0 & ~c1,
        Split.FALSE_TRUE.value: ~c0 & c1,
        Split.FALSE_FALSE.value: ~c0 & ~c1,
    }


def pearson_r(x: np.ndarray, y: np.ndarray) -> float | None:
    """Pearson correlation in a single pass with compensated summation.

    Raw moments are accumulated with math.fsum (exact compensated sums); a
    zero-variance side yields None instead of a division blowup.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson_r expects two equal-length vectors")
    n = x.shape[0]
    if n < 2:
        return None
    sx = math.fsum(x)
    sy = math.fsum(y)
    sxx = math.fsum(x * x)
    syy = math.fsum(y * y)
    sxy = math.fsum(x * y)
    vx = n * sxx - sx * sx
    vy = n * syy - sy * sy
    if vx <= 0.0 or vy <= 0.0:
        return None
    return float((n * sxy - sx * sy) / math.sqrt(vx * vy))


def ratio_correlation(
    h0: np.ndarray,
    h1: np.ndarray,
    l0: np.ndarray,
    l1: np.ndarray,
    preds0: np.ndarray,
    preds1: np.ndarray,
    y: np.ndarray,
) -> dict[str, float]:
    """Pearson r between H0/(H0+H1) and l0/(l0+l1), overall and per split.

    Splits with fewer than two samples or zero variance are absent from the
    result rather than reported as some sentinel.
    """
    h0 = np.asarray(h0, dtype=np.float64)
    h1 = np.asarray(h1, dtype=np.float64)
    l0 = np.asarray(l0, dtype=np.float64)
    l1 = np.asarray(l1, dtype=np.float64)
    hr = h0 / (h0 + h1)
    lr = l0 / (l0 + l1)
    out: dict[str, float] = {}
    overall = pearson_r(hr, lr)
    if overall is not None:
        out["overall"] = overall
    for name, mask in split_masks(preds0, preds1, y).items():
        if mask.sum() >= 2:
            r = pearson_r(hr[mask], lr[mask])
            if r is not None:
                out[name] = r
    return out


# ----- coefficient batches ----------------------------------------------------

COEFF_MODES = ("plain", "offset_adjusted", "oracle") + tuple(
    f"pseudo_label:{v}" for v in PSEUDO_LABEL_VARIANTS
)


@dataclass(frozen=True)
class CoefficientBatch:
    """Coefficients for one domain: (n,) scalars for two models, else (n, M) rows."""

    coefficients: np.ndarray
    mode: str
    model_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        coeffs = np.array(self.coefficients, dtype=np.float64, copy=True)
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        if coeffs.ndim == 1:
            if np.any(coeffs < 0.0) or np.any(coeffs > 1.0):
                raise ValueError("scalar coefficients must lie in [0, 1]")
        elif coeffs.ndim == 2:
            if coeffs.shape[1] < 2:
                raise ValueError("coefficient rows need at least two columns")
            if np.any(coeffs < 0.0) or np.any(np.abs(coeffs.sum(axis=1) - 1.0) > 1e-9):
                raise ValueError("coefficient rows must lie on the simplex")
        else:
            raise ValueError("coefficients must be a vector or a matrix")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)
        if self.mode not in COEFF_MODES:
            raise ValueError(f"unknown coefficient mode {self.mode!r}")
        object.__setattr__(self, "model_ids", tuple(self.model_ids))

    @property
    def n_models(self) -> int:
        return 2 if self.coefficients.ndim == 1 else int(self.coefficients.shape[1])

    def as_matrix(self) -> np.ndarray:
        """(n, M) rows; scalar lambda expands to (1 - lambda, lambda)."""
        if self.coefficients.ndim == 2:
            return np.array(self.coefficients, copy=True)
        lam = self.coefficients
        return np.column_stack([1.0 - lam, lam])


def coefficients_to_csv(batch: CoefficientBatch) -> str:
    mat = batch.as_matrix()
    buf = io.StringIO()
    cols = ["sample_index"] + [f"lambda_{j}" for j in range(mat.shape[1])] + ["mode"]
    buf.write(",".join(cols) + "\n")
    for i, row in enumerate(mat):
        buf.write(str(i))
        for v in row:
            buf.write(",%.17g" % v)
        buf.write("," + batch.mode + "\n")
    return buf.getvalue()


def save_coefficients(batch: CoefficientBatch, path: str) -> None:
    atomic_write(path, coefficients_to_csv(batch))


def load_coefficients(path: str) -> CoefficientBatch:
    rows = read_csv(path)
    if len(rows) < 2:
        raise DataFormatError(f"{path}: no coefficient rows")
    header = rows[0]
    if len(header) < 4 or header[0] != "sample_index" or header[-1] != "mode":
        raise DataFormatError(f"{path}: bad header {header!r}")
    m = len(header) - 2
    if header[1:-1] != [f"lambda_{j}" for j in range(m)]:
        raise DataFormatError(f"{path}: lambda columns malformed")
    mat = np.empty((len(rows) - 1, m))
    mode = None
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != m + 2:
            raise DataFormatError(f"{path}: row {i}: expected {m + 2} fields")
        try:
            if int(row[0]) != i - 1:
                raise DataFormatError(f"{path}: row {i}: sample_index out of order")
            mat[i - 1] = [float(v) for v in row[1:-1]]
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {i}: {exc}") from exc
        # Two columns are stored as (1 - lambda, lambda) and only lambda is
        # kept, so the row must sum to 1 as M >= 3 rows must.
        if m == 2 and not abs(mat[i - 1].sum() - 1.0) <= 1e-9:
            raise DataFormatError(f"{path}: row {i}: lambda_0 + lambda_1 is not 1 within 1e-9")
        if mode is None:
            mode = row[-1]
        elif row[-1] != mode:
            raise DataFormatError(f"{path}: row {i}: mixed modes in one batch")
    if mode not in COEFF_MODES:
        raise DataFormatError(f"{path}: unknown mode {mode!r}")
    coeffs = mat[:, 1] if m == 2 else mat
    try:
        return CoefficientBatch(coefficients=coeffs, mode=mode)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
