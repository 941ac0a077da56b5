"""Beta and Dirichlet mixtures for compressing per-sample coefficients.

EM with method-of-moments M-steps. For a component with responsibility
weights gamma over values lambda_i:

    mean  = sum gamma_i lambda_i / sum gamma_i
    s^2   = sum gamma_i (lambda_i - mean)^2 / sum gamma_i
    C     = mean (1 - mean) / s^2 - 1
    a     = C mean + eps,   b = C (1 - mean) + eps,   eps = 1e-6.

Degenerate variances fall back by cause: s^2 < 1e-12 (a point mass) uses
C = 1e2 so the component concentrates at the mean; C <= 0 (variance at or
above Bernoulli level) uses C = 1e-2, the diffuse limit. Values are clipped
into [1e-6, 1 - 1e-6] before fitting, memberships come from K-means on the
raw values, and components are returned sorted by mean. Method-of-moments
updates carry no monotonicity guarantee, so a step that would lower the
log-likelihood is rolled back and the fit stops there.

One EM loop (_em) serves both families. Each family gives it a range check,
run once per fit; a log density over logs taken once per fit; a moment
estimator; and a sort key. Both estimators share _concentration, the one
place the point-mass and diffuse fallbacks live. The Dirichlet variant works
on simplex rows: its K-means init runs on the last coordinate and the
component precision comes from the first coordinate's variance.

The E-step works on a component-major (K, n) log-joint that, with its
scratch and mask buffers, is allocated once per fit: each iteration fills the
K rows with per-row scalar ops from logs taken once per fit, and
_logsumexp_components reduces them with scipy's own algorithm, so fits match
a column-by-column scipy.special.logsumexp bit for bit. Lanes whose exp is
exactly +0.0 (below EXP_ZERO_BELOW, and the maxima scipy leaves out of the
sum) are zeroed around np.exp, whose underflow path costs several times a
normal lane. The M-step takes all K components' moments as row sums of the
responsibility block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import InsufficientSamplesError
from .util import atomic_write, bad_field, get, read_json

VALUE_CLIP = 1e-6
SHAPE_EPS = 1e-6
POINT_MASS_VAR = 1e-12
CONCENTRATION_POINT_MASS = 1e2
CONCENTRATION_DIFFUSE = 1e-2
RESP_FLOOR_FRACTION = 1e-8
PI_FLOOR = 1e-12
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 200
MIXTURE_SCHEMA_VERSION = 1
# np.exp(x) is exactly +0.0 below ln 2^-1075 ~ -745.1332, where the result
# rounds to zero; the bound sits below that with a margin.
EXP_ZERO_BELOW = -746.0


def kmeans_1d(values: np.ndarray, k: int) -> np.ndarray:
    """Lloyd's algorithm on scalars, centers seeded at evenly spaced quantiles.

    Deterministic: quantile initialization needs no randomness. Iterates to an
    assignment fixpoint or 100 rounds; empty clusters keep their previous
    center. Returned labels are remapped so cluster centers increase with the
    label.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("kmeans_1d expects a vector")
    n = values.shape[0]
    if k < 1:
        raise ValueError("k must be positive")
    if n < k:
        raise InsufficientSamplesError(f"need at least {k} values, got {n}")
    centers = np.quantile(values, (np.arange(k) + 0.5) / k)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(100):
        dist = np.abs(values[:, None] - centers[None, :])
        new_labels = dist.argmin(axis=1)
        for j in range(k):
            mask = new_labels == j
            if mask.any():
                centers[j] = values[mask].mean()
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    order = np.argsort(centers, kind="stable")
    remap = np.empty(k, dtype=np.int64)
    remap[order] = np.arange(k)
    return remap[labels]


def _concentration(mean: float, var: float) -> float:
    """Moment-matched precision C = mean (1 - mean) / var - 1, with the
    point-mass and diffuse fallbacks."""
    if var < POINT_MASS_VAR:
        return CONCENTRATION_POINT_MASS
    conc = mean * (1.0 - mean) / var - 1.0
    if conc <= 0.0:
        conc = CONCENTRATION_DIFFUSE
    return conc


def _weighted_var(x, mean, resp, mass, work) -> np.ndarray:
    """sum_i resp[k, i] (x_i - mean[k])^2 / mass[k] for every row k of a
    (K, n) responsibility block; work is a (K, n) scratch."""
    for row, m in zip(work, mean):
        np.subtract(x, m, out=row)
    np.square(work, out=work)
    work *= resp
    return work.sum(axis=1) / mass


def _beta_mom(values, resp, mass, work) -> list[tuple[float, float]]:
    """Method-of-moments Beta shapes, one (a, b) per row of a (K, n)
    responsibility block whose row sums are mass; work is a (K, n) scratch."""
    mean = (np.multiply(resp, values, out=work).sum(axis=1) / mass).tolist()
    var = _weighted_var(values, mean, resp, mass, work).tolist()
    return [(c * m + SHAPE_EPS, c * (1.0 - m) + SHAPE_EPS)
            for m, c in zip(mean, map(_concentration, mean, var))]


def _dirichlet_mom(rows, resp, mass, work) -> list[np.ndarray]:
    """Method-of-moments Dirichlet alpha per row of a (K, n) responsibility
    block; the precision comes from the first coordinate's variance."""
    mean = (resp[:, :, None] * rows).sum(axis=1) / mass[:, None]
    var1 = _weighted_var(rows[:, 0], mean[:, 0], resp, mass, work)
    return [_concentration(m[0], v) * m + SHAPE_EPS for m, v in zip(mean, var1.tolist())]


def _clipped_logs(x) -> tuple[np.ndarray, np.ndarray]:
    """ln x and ln(1 - x) after clipping x into [1e-6, 1 - 1e-6]."""
    x = np.clip(np.asarray(x, dtype=np.float64), VALUE_CLIP, 1.0 - VALUE_CLIP)
    return np.log(x), np.log(1.0 - x)


def _beta_log_density(log_x, log_1mx, a, b):
    """ln Beta(x; a, b) from ln x and ln(1 - x). Scalar shapes give one
    density; (K, 1) shape columns give a component-major (K, n) block."""
    const = gammaln(a + b) - gammaln(a) - gammaln(b)
    return const + (a - 1.0) * log_x + (b - 1.0) * log_1mx


def _clipped_log_rows(rows) -> np.ndarray:
    """ln of every coordinate after clipping into [1e-6, 1 - 1e-6]."""
    return np.log(np.clip(np.asarray(rows, dtype=np.float64), VALUE_CLIP, 1.0 - VALUE_CLIP))


def _dirichlet_log_density(log_rows: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """ln Dir(row; alpha) from log rows, summed per row over the M models.
    An (M,) alpha gives one density per row; a (K, 1, M) stack gives a
    component-major (K, n) block."""
    const = gammaln(alpha.sum(axis=-1)) - gammaln(alpha).sum(axis=-1)
    return const + ((alpha - 1.0) * log_rows).sum(axis=-1)


def _exp_zeroing(x: np.ndarray, zero: np.ndarray) -> None:
    """exp(x) in place, with +0.0 in the lanes flagged by zero. Those lanes
    hold 0.0 while np.exp runs, so none takes its slow underflow path."""
    np.putmask(x, zero, 0.0)
    np.exp(x, out=x)
    np.putmask(x, zero, 0.0)


def _logsumexp_components(log_joint: np.ndarray, work=None, masks=None) -> np.ndarray:
    """ln sum_k exp(log_joint[k, i]) for a component-major (K, n) array.

    Bit-identical to scipy.special.logsumexp(x, axis=1) on the C-ordered
    (n, K) transpose x, because it takes scipy 1.17's steps: the entries equal
    to the column maximum are taken out of the sum and counted (m), the rest
    gives s = sum exp(x - max) / m, and the result is log1p(s) + log(m) + max.
    With no tied maximum, m = 1 and that is log1p(s) + max exactly. numpy
    sums a C-ordered (n, K) row left to right only while K < 8, the order in
    which the rows of a (K, n) array add; for K >= 8 it sums pairwise, so that
    case sums a C-ordered (n, K) copy. Where a result is not finite (a column
    of -inf, an inf or a nan), scipy's own call answers. The scratch buffers
    work (K, n) and masks (2, K, n, bool) are allocated when not given.
    """
    if work is None:
        work = np.empty(log_joint.shape)
        masks = np.empty((2,) + log_joint.shape, dtype=bool)
    zero, low = masks
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = log_joint.max(axis=0)
        np.equal(log_joint, a_max, out=zero)
        # n maxima in all can hide a tie only beside a nan column, which falls back.
        m = zero.sum(axis=0, dtype=np.float64) if np.count_nonzero(zero) > a_max.size else None
        np.subtract(log_joint, a_max, out=work)
        zero |= np.less(work, EXP_ZERO_BELOW, out=low)
        _exp_zeroing(work, zero)
        if work.shape[0] < 8:
            s = work.sum(axis=0)
        else:
            s = np.ascontiguousarray(work.T).sum(axis=1)
        out = np.log1p(s) + a_max if m is None else np.log1p(s / m) + np.log(m) + a_max
    if not np.isfinite(out).all():
        return logsumexp(np.ascontiguousarray(log_joint.T), axis=1)
    return out


def _log_pi(pis) -> np.ndarray:
    """(K, 1) column of floored log mixing proportions."""
    return np.array([np.log(max(pi, PI_FLOOR)) for pi in pis])[:, None]


def _renormalize(comps: list[tuple]) -> list[tuple]:
    total = sum(max(pi, PI_FLOOR) for _, pi in comps)
    return [(params, max(pi, PI_FLOOR) / total) for params, pi in comps]


def _em(init_values, k, log_density, mom, tol, max_iter):
    """The EM loop both families run, over (params, pi) pairs.

    K-means on init_values gives the first memberships. log_density(params,
    out, work) writes the K components' log densities into the (K, n) block
    out; mom(resp, mass, work) is the M-step, one parameter set per row of a
    (K, n) responsibility block with row sums mass. Both may overwrite the
    (K, n) scratch work. Rows of zero mass give unused nan moments, hence the
    errstate. Returns (comps, trace, converged, iterations), comps in
    component order.
    """
    n = init_values.shape[0]
    if n < max(k, 2):
        raise InsufficientSamplesError(f"need at least {max(k, 2)} samples, got {n}")
    if k < 1:
        raise ValueError("k must be positive")
    labels = kmeans_1d(init_values, k)
    log_joint, work = np.empty((2, k, n))
    masks = np.empty((2, k, n), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        # An empty init cluster still needs parameters; the global fit keeps
        # it harmless until responsibilities decide its fate.
        global_params = mom(np.ones((1, n)), np.full(1, float(n)), work[:1])[0]
        members = (labels == np.arange(k)[:, None]).astype(np.float64)
        counts = members.sum(axis=1)
        comps = _renormalize([
            (params if count > 0 else global_params, count / n)
            for params, count in zip(mom(members, counts, work), counts)
        ])

        trace: list[float] = []
        converged = False
        iterations = 0
        for it in range(max_iter):
            log_density([p for p, _ in comps], log_joint, work)
            for row, (_, pi) in zip(log_joint, comps):
                row += np.log(max(pi, PI_FLOOR))
            log_norm = _logsumexp_components(log_joint, work, masks)
            loglik = float(log_norm.sum())
            if trace and loglik < trace[-1] - 1e-10:
                # Moment-matching step lowered the likelihood; undo and stop.
                comps = prev_comps
                converged = True
                break
            trace.append(loglik)
            iterations = it + 1
            if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol:
                converged = True
                break
            gamma = np.subtract(log_joint, log_norm, out=work)
            _exp_zeroing(gamma, np.less(gamma, EXP_ZERO_BELOW, out=masks[0]))
            mass = gamma.sum(axis=1)
            prev_comps = comps
            # Starved components freeze their parameters and floor their weight.
            comps = _renormalize([
                (old, PI_FLOOR) if m < RESP_FLOOR_FRACTION * n else (new, m / n)
                for (old, _), new, m in zip(comps, mom(gamma, mass, log_joint), mass)
            ])
    return comps, trace, converged, iterations


@dataclass(frozen=True)
class _Mixture:
    components: tuple
    loglik_trace: tuple[float, ...]
    converged: bool
    iterations: int
    clip: float = VALUE_CLIP

    @property
    def k(self) -> int:
        return len(self.components)


# ----- Beta -----------------------------------------------------------------------

def beta_log_pdf(x: np.ndarray | float, a: float, b: float) -> np.ndarray | float:
    """Log Beta(a, b) density; x is clipped into [1e-6, 1 - 1e-6]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    out = _beta_log_density(*_clipped_logs(x), a, b)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class BetaComponent:
    a: float
    b: float
    pi: float

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)


@dataclass(frozen=True)
class BetaMixtureModel(_Mixture):
    components: tuple[BetaComponent, ...]


def em_fit(
    values: np.ndarray,
    k: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BetaMixtureModel:
    """Fit a K-component Beta mixture to scalar coefficients."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("em_fit expects a vector of coefficients")
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValueError("coefficients must lie in [0, 1]")
    values = np.clip(values, VALUE_CLIP, 1.0 - VALUE_CLIP)
    log_x, log_1mx = np.log(values), np.log(1.0 - values)

    def log_density(shapes, out, work):
        a, b = map(np.array, zip(*shapes))
        const = gammaln(a + b) - gammaln(a) - gammaln(b)
        for row, tmp, c, am1, bm1 in zip(out, work, const, a - 1.0, b - 1.0):
            np.multiply(log_x, am1, out=row)
            row += c
            row += np.multiply(log_1mx, bm1, out=tmp)

    comps, trace, converged, iterations = _em(
        values, k, log_density, lambda *block: _beta_mom(values, *block), tol, max_iter
    )
    comps.sort(key=lambda c: c[0][0] / (c[0][0] + c[0][1]))
    return BetaMixtureModel(
        components=tuple(BetaComponent(a=a, b=b, pi=pi) for (a, b), pi in comps),
        loglik_trace=tuple(trace),
        converged=converged,
        iterations=iterations,
    )


def infer_membership(
    model: BetaMixtureModel, lam: np.ndarray | float, posterior: bool = False
) -> np.ndarray | int:
    """Component index per value: argmax of the Beta density, ties to the
    lower index. posterior=True weighs densities by the mixing proportions."""
    comps = model.components
    if any(c.a <= 0.0 or c.b <= 0.0 for c in comps):
        raise ValueError("shape parameters must be positive")
    log_x, log_1mx = _clipped_logs(lam)
    column = (-1,) + (1,) * log_x.ndim
    a = np.array([c.a for c in comps]).reshape(column)
    b = np.array([c.b for c in comps]).reshape(column)
    scores = _beta_log_density(log_x, log_1mx, a, b)
    if posterior:
        scores = _log_pi([c.pi for c in comps]).reshape(column) + scores
    member = scores.argmax(axis=0)
    return int(member) if np.ndim(member) == 0 else member


# ----- Dirichlet ------------------------------------------------------------------

@dataclass(frozen=True)
class DirichletComponent:
    alpha: tuple[float, ...]
    pi: float

    @property
    def mean(self) -> tuple[float, ...]:
        total = sum(self.alpha)
        return tuple(a / total for a in self.alpha)


@dataclass(frozen=True)
class DirichletMixtureModel(_Mixture):
    components: tuple[DirichletComponent, ...]

    @property
    def n_models(self) -> int:
        return len(self.components[0].alpha)


def dirichlet_em_fit(
    rows: np.ndarray,
    k: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DirichletMixtureModel:
    """Fit a K-component Dirichlet mixture to simplex rows. With two columns
    this reproduces em_fit exactly (alpha = (b, a))."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise ValueError("expected (n, M) rows with M >= 2")
    if not (np.all(rows >= -1e-9) and np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-6)):
        raise ValueError("rows must lie on the probability simplex within 1e-6")
    rows = np.clip(rows, VALUE_CLIP, 1.0 - VALUE_CLIP)
    log_rows = np.log(rows)
    comps, trace, converged, iterations = _em(
        rows[:, -1], k,
        lambda alphas, out, work: np.copyto(
            out, _dirichlet_log_density(log_rows, np.stack(alphas)[:, None, :])),
        lambda *block: _dirichlet_mom(rows, *block),
        tol, max_iter,
    )
    comps.sort(key=lambda c: c[0][-1] / c[0].sum())
    return DirichletMixtureModel(
        components=tuple(
            DirichletComponent(alpha=tuple(float(a) for a in alpha), pi=pi)
            for alpha, pi in comps
        ),
        loglik_trace=tuple(trace),
        converged=converged,
        iterations=iterations,
    )


def dirichlet_membership(
    model: DirichletMixtureModel, rows: np.ndarray, posterior: bool = False
) -> np.ndarray | int:
    rows = np.asarray(rows, dtype=np.float64)
    single = rows.ndim == 1
    alpha = np.array([c.alpha for c in model.components], dtype=np.float64)
    if np.any(alpha <= 0.0):
        raise ValueError("concentration parameters must be positive")
    scores = _dirichlet_log_density(_clipped_log_rows(np.atleast_2d(rows)), alpha[:, None, :])
    if posterior:
        scores = _log_pi([c.pi for c in model.components]) + scores
    member = scores.argmax(axis=0)
    return int(member[0]) if single else member


# ----- persistence --------------------------------------------------------------

def mixture_to_dict(model: BetaMixtureModel | DirichletMixtureModel) -> dict:
    if isinstance(model, BetaMixtureModel):
        family = "beta"
        comps = [{"a": c.a, "b": c.b, "pi": c.pi} for c in model.components]
    else:
        family = "dirichlet"
        comps = [{"alpha": list(c.alpha), "pi": c.pi} for c in model.components]
    return {
        "schema_version": MIXTURE_SCHEMA_VERSION,
        "family": family,
        "components": comps,
        "loglik_trace": list(model.loglik_trace),
        "converged": model.converged,
        "iterations": model.iterations,
        "clip": model.clip,
        "shape_eps": SHAPE_EPS,
    }


def mixture_from_dict(data: dict, source: str = "<dict>") -> BetaMixtureModel | DirichletMixtureModel:
    """The mixture in a JSON document read from source; a field of the wrong
    type or value is a DataFormatError naming source and the field. Keys it
    does not read, such as the legacy 'seed', are ignored."""
    where = f"{source}: malformed mixture"
    version = get(data, where, ("schema_version",), int)
    if version != MIXTURE_SCHEMA_VERSION:
        raise bad_field(where, ("schema_version",), f"unsupported version {version}")
    family = get(data, where, ("family",), str)
    common = {
        "loglik_trace": tuple(get(data, where, ("loglik_trace",), [float])),
        "converged": get(data, where, ("converged",), bool),
        "iterations": get(data, where, ("iterations",), int),
        "clip": get(data, where, ("clip",), float),
    }
    count = len(get(data, where, ("components",), list))
    if family == "beta":
        return BetaMixtureModel(components=tuple(
            BetaComponent(**{key: get(data, where, ("components", j, key), float)
                             for key in ("a", "b", "pi")})
            for j in range(count)
        ), **common)
    if family == "dirichlet":
        return DirichletMixtureModel(components=tuple(
            DirichletComponent(alpha=tuple(get(data, where, ("components", j, "alpha"), [float])),
                               pi=get(data, where, ("components", j, "pi"), float))
            for j in range(count)
        ), **common)
    raise bad_field(where, ("family",), f"unknown mixture family {family!r}")


def save_mixture(model: BetaMixtureModel | DirichletMixtureModel, path: str) -> None:
    atomic_write(path, json.dumps(mixture_to_dict(model), sort_keys=True, indent=2) + "\n")


def load_mixture(path: str) -> BetaMixtureModel | DirichletMixtureModel:
    return mixture_from_dict(read_json(path), path)
