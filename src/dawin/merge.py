"""Merging, selection, and ensembling strategies over candidate models.

Every strategy returns a StrategyResult holding the final predictive
distributions, the coefficient actually applied per sample (when the notion
applies), the number of distinct parameter merges performed, and wall time.
Temperatures, when supplied, shape entropy estimation only; final predictions
always come from unscaled logits.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .classifier import MlpArchitecture, forward_batch
from .databench import Domain
from .errors import IncompatibleModelsError
from .expertise import (
    coeff_multi,
    coeff_pair,
    coeff_pair_offset,
    domain_offset,
    entropy,
    oracle_coeff,
)
from .mixture import (
    dirichlet_component_mean,
    dirichlet_em_fit,
    dirichlet_membership,
    em_fit,
    infer_membership,
)
from .params import (
    ParamVector,
    TaskVector,
    check_compatible,
    combine_task_vector_rows,
    combine_task_vectors,
    interpolate_pair,
)
from .util import atomic_write

DEFAULT_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))

# Rows per stacked forward in the per-sample strategies: each step builds
# STACK_ROWS merged parameter vectors and runs them in one forward call.
STACK_ROWS = 16

STRATEGY_KINDS = (
    "zs",
    "ft",
    "static",
    "wise_sweep",
    "uniform_soup",
    "greedy_soup",
    "dawin_sample",
    "dawin_clustered",
    "dawin_task_arith",
    "dcs",
    "doe",
    "oracle_sample",
    "oracle_domain",
)


@dataclass(frozen=True)
class MergeStrategy:
    """A strategy kind plus the knobs it needs."""

    kind: str
    lam: float = 0.5
    grid: tuple[float, ...] = DEFAULT_GRID
    k: int = 3
    lambda0: float = 0.3

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("static coefficient must lie in [0, 1]")
        grid = tuple(float(g) for g in self.grid)
        if len(grid) < 1 or any(not 0.0 <= g <= 1.0 for g in grid):
            raise ValueError("grid values must lie in [0, 1]")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.lambda0 <= 0.0:
            raise ValueError("lambda0 must be positive")


@dataclass(frozen=True)
class MergeOptions:
    """Cross-strategy evaluation knobs."""

    offset_adjust: bool = True
    temperatures: tuple[float, ...] | None = None
    batch_size: int | None = None
    posterior_membership: bool = False
    wise_scale: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size is not None and self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if self.wise_scale is not None and self.wise_scale <= 0.0:
            raise ValueError("wise_scale must be positive")


@dataclass
class StrategyResult:
    strategy: str
    domain: str
    probs: np.ndarray
    preds: np.ndarray
    chosen: np.ndarray | None
    merge_count: int
    wall_ms: float
    extras: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return int(self.probs.shape[0])


def accuracy(result: StrategyResult, y: np.ndarray) -> float:
    y = np.asarray(y)
    if y.shape != result.preds.shape:
        raise ValueError("label shape does not match predictions")
    return float((result.preds == y).mean())


def mean_prediction_entropy(result: StrategyResult) -> float:
    return float(np.mean(entropy(result.probs)))


def save_predictions(result: StrategyResult, path: str) -> None:
    """CSV rows: sample_index,argmax,chosen_lambda_json,strategy."""
    lines = ["sample_index,argmax,chosen_lambda_json,strategy"]
    for i in range(result.n):
        if result.chosen is None:
            chosen = "null"
        else:
            value = result.chosen[i]
            chosen = json.dumps(
                float(value) if np.ndim(value) == 0 else [float(v) for v in value]
            )
        lines.append(f"{i},{int(result.preds[i])},\"{chosen}\",{result.strategy}")
    atomic_write(path, "\n".join(lines) + "\n")


# ----- shared helpers -----------------------------------------------------------

def _model_probs(
    arch: MlpArchitecture,
    thetas: Sequence[ParamVector],
    x: np.ndarray,
    temperatures: tuple[float, ...] | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-model probabilities at estimation temperature, plus raw (T=1) probs.

    Returns (raw_probs_per_model, entropy_matrix). Entropies honour the
    temperatures; the returned probability matrices do not.
    """
    if temperatures is not None and len(temperatures) != len(thetas):
        raise ValueError("need one temperature per model")
    raw = [forward_batch(arch, th, x) for th in thetas]
    if temperatures is None:
        ents = np.stack([entropy(p) for p in raw], axis=1)
    else:
        ents = np.stack(
            [
                entropy(forward_batch(arch, th, x, t))
                for th, t in zip(thetas, temperatures)
            ],
            axis=1,
        )
    return raw, ents


def _chunks(n: int, batch_size: int | None, min_tail: int):
    """Index chunks of batch_size rows (all n rows when None). A tail shorter
    than min_tail, too short for the chunk's statistics, joins the chunk
    before it."""
    step = batch_size or n
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] < min_tail:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [n]):
        yield np.arange(start, stop)


def _apply_wise_scale(lam: np.ndarray, scale: float | None) -> np.ndarray:
    if scale is None:
        return lam
    return np.clip(lam * scale, 0.0, 1.0)


def _pair_lambdas(h0: np.ndarray, h1: np.ndarray, options: MergeOptions) -> np.ndarray:
    if options.offset_adjust:
        lam, _ = coeff_pair_offset(h0, h1)
    else:
        lam = coeff_pair(h0, h1)
    return _apply_wise_scale(np.asarray(lam, dtype=np.float64), options.wise_scale)


def _per_sample_probs(arch: MlpArchitecture, x: np.ndarray, merged_rows) -> np.ndarray:
    """Probabilities of each row of x under its own merged model.

    merged_rows(rows) returns the (len, P) stack of merged parameter vectors
    for the rows selected by the slice; STACK_ROWS of them are built and run
    through one stacked forward at a time.
    """
    probs = np.empty((x.shape[0], arch.class_count))
    for start in range(0, x.shape[0], STACK_ROWS):
        rows = slice(start, start + STACK_ROWS)
        probs[rows] = forward_batch(arch, merged_rows(rows), x[rows])
    return probs


def _interpolated_rows(theta0: ParamVector, theta1: ParamVector, lam: np.ndarray) -> np.ndarray:
    """theta0 * (1 - lam[i]) + theta1 * lam[i] for each i, as an (n, P) stack."""
    merged = np.multiply(theta0.values, (1.0 - lam)[:, None])
    merged += np.multiply(theta1.values, lam[:, None])
    return merged


# ----- plain and static strategies ----------------------------------------------

def model_eval(
    arch: MlpArchitecture, theta: ParamVector, domain: Domain, name: str
) -> StrategyResult:
    start = time.perf_counter()
    probs = forward_batch(arch, theta, domain.x)
    return StrategyResult(
        strategy=name,
        domain=domain.name,
        probs=probs,
        preds=probs.argmax(axis=1),
        chosen=None,
        merge_count=0,
        wall_ms=(time.perf_counter() - start) * 1e3,
    )


def static_eval(
    arch: MlpArchitecture,
    theta0: ParamVector,
    theta1: ParamVector,
    lam: float,
    domain: Domain,
    name: str = "static",
) -> StrategyResult:
    start = time.perf_counter()
    merged = interpolate_pair(theta0, theta1, lam)
    probs = forward_batch(arch, merged, domain.x)
    return StrategyResult(
        strategy=name,
        domain=domain.name,
        probs=probs,
        preds=probs.argmax(axis=1),
        chosen=np.full(domain.n_samples, float(lam)),
        merge_count=1,
        wall_ms=(time.perf_counter() - start) * 1e3,
        extras={"lam": float(lam)},
    )


@dataclass(frozen=True)
class WiseSweepResult:
    rows: tuple[dict, ...]
    best_lam: float


def wise_sweep(
    arch: MlpArchitecture,
    theta0: ParamVector,
    theta1: ParamVector,
    id_val: Domain,
    test_domains: Sequence[Domain],
    grid: Sequence[float] = DEFAULT_GRID,
) -> WiseSweepResult:
    """Accuracy table over the static grid; best row by ID validation accuracy,
    ties broken toward the smaller coefficient."""
    rows = []
    best_lam, best_acc = None, -1.0
    for lam in grid:
        merged = interpolate_pair(theta0, theta1, lam)
        val_probs = forward_batch(arch, merged, id_val.x)
        val_acc = float((val_probs.argmax(axis=1) == id_val.y).mean())
        row = {"lam": float(lam), "id_val_acc": val_acc, "test_acc": {}}
        for dom in test_domains:
            probs = forward_batch(arch, merged, dom.x)
            row["test_acc"][dom.name] = float((probs.argmax(axis=1) == dom.y).mean())
        rows.append(row)
        if val_acc > best_acc:
            best_acc, best_lam = val_acc, float(lam)
    return WiseSweepResult(rows=tuple(rows), best_lam=best_lam)


def uniform_soup(params: Sequence[ParamVector]) -> ParamVector:
    if len(params) < 2:
        raise ValueError("uniform soup needs at least two models")
    base = params[0]
    for other in params[1:]:
        check_compatible(base, other)
    stacked = np.stack([p.values for p in params])
    return ParamVector(stacked.mean(axis=0), base.layout_id)


def greedy_soup(
    arch: MlpArchitecture,
    params: Sequence[ParamVector],
    id_val: Domain,
) -> tuple[ParamVector, list[int]]:
    """Ingredient order by descending ID validation accuracy; keep an
    ingredient only if the running average does not lose accuracy."""
    if len(params) < 2:
        raise ValueError("greedy soup needs at least two models")
    base = params[0]
    for other in params[1:]:
        check_compatible(base, other)

    def val_acc(values: np.ndarray) -> float:
        probs = forward_batch(arch, values, id_val.x)
        return float((probs.argmax(axis=1) == id_val.y).mean())

    solo = [val_acc(p.values) for p in params]
    order = sorted(range(len(params)), key=lambda i: (-solo[i], i))
    kept = [order[0]]
    current = params[order[0]].values.copy()
    current_acc = solo[order[0]]
    for i in order[1:]:
        candidate = (current * len(kept) + params[i].values) / (len(kept) + 1)
        candidate_acc = val_acc(candidate)
        if candidate_acc >= current_acc:
            kept.append(i)
            current = candidate
            current_acc = candidate_acc
    return ParamVector(current, base.layout_id), kept


# ----- dynamic strategies -------------------------------------------------------

def dawin_sample_eval(
    arch: MlpArchitecture,
    theta0: ParamVector,
    theta1: ParamVector,
    domain: Domain,
    options: MergeOptions = MergeOptions(),
) -> StrategyResult:
    """Per-sample entropy-ratio interpolation: one merge per test sample."""
    start = time.perf_counter()
    n = domain.n_samples
    probs = np.empty((n, arch.class_count))
    chosen = np.empty(n)
    merge_count = 0
    for idx in _chunks(n, options.batch_size, min_tail=2):
        _, ents = _model_probs(arch, [theta0, theta1], domain.x[idx], options.temperatures)
        lam = _pair_lambdas(ents[:, 0], ents[:, 1], options)
        chosen[idx] = lam
        probs[idx] = _per_sample_probs(
            arch, domain.x[idx], lambda sl: _interpolated_rows(theta0, theta1, lam[sl])
        )
        merge_count += len(idx)
    return StrategyResult(
        strategy="dawin_sample",
        domain=domain.name,
        probs=probs,
        preds=probs.argmax(axis=1),
        chosen=chosen,
        merge_count=merge_count,
        wall_ms=(time.perf_counter() - start) * 1e3,
        extras={"offset_adjust": options.offset_adjust},
    )


def dawin_clustered_eval(
    arch: MlpArchitecture,
    theta0: ParamVector,
    theta1: ParamVector,
    domain: Domain,
    k: int = 3,
    options: MergeOptions = MergeOptions(),
) -> StrategyResult:
    """Coefficient compression: fit a K-component Beta mixture to the
    per-sample coefficients, merge once per component at its mean, and route
    every sample to its membership component. A batch_size below max(k, 2)
    is rejected whatever the domain's size, even where the tail fold would
    leave a single valid chunk."""
    if options.batch_size is not None and options.batch_size < max(k, 2):
        raise ValueError(
            f"batch_size {options.batch_size} is below max(k, 2) = {max(k, 2)}: "
            "every chunk needs that many rows for a K-component fit"
        )
    start = time.perf_counter()
    n = domain.n_samples
    probs = np.empty((n, arch.class_count))
    chosen = np.empty(n)
    merge_count = 0
    chunk_count = 0
    for idx in _chunks(n, options.batch_size, min_tail=max(k, 2)):
        _, ents = _model_probs(arch, [theta0, theta1], domain.x[idx], options.temperatures)
        lam = _pair_lambdas(ents[:, 0], ents[:, 1], options)
        model = em_fit(lam, k, seed=options.seed)
        member = np.atleast_1d(infer_membership(model, lam, options.posterior_membership))
        for j, comp in enumerate(model.components):
            merged = interpolate_pair(theta0, theta1, min(max(comp.mean, 0.0), 1.0))
            merge_count += 1
            mask = member == j
            if mask.any():
                sel = idx[mask]
                probs[sel] = forward_batch(arch, merged, domain.x[sel])
                chosen[sel] = comp.mean
        chunk_count += 1
    return StrategyResult(
        strategy="dawin_clustered",
        domain=domain.name,
        probs=probs,
        preds=probs.argmax(axis=1),
        chosen=chosen,
        merge_count=merge_count,
        wall_ms=(time.perf_counter() - start) * 1e3,
        extras={"k": int(k), "chunks": chunk_count, "offset_adjust": options.offset_adjust},
    )


def dawin_task_arith_eval(
    arch: MlpArchitecture,
    theta0: ParamVector,
    experts: Sequence[ParamVector],
    taus: Sequence[TaskVector],
    domain: Domain,
    lambda0: float = 0.3,
    k: int | None = 1,
    options: MergeOptions = MergeOptions(),
) -> StrategyResult:
    """Dynamic task arithmetic: theta_0 + lambda0 * sum_j lambda_j(x) tau_j.

    Coefficients are the softmax of negative expert entropies. k=None merges
    per sample; an integer k compresses rows with a K-component Dirichlet
    mixture and merges once per component.
    """
    if len(experts) != len(taus) or len(experts) < 2:
        raise ValueError("need matching experts and task vectors, at least two")
    start = time.perf_counter()
    n = domain.n_samples
    m = len(experts)
    _, ents = _model_probs(arch, list(experts), domain.x, options.temperatures)
    rows = coeff_multi(ents)
    chosen = np.empty((n, m))
    merge_count = 0
    if k is None:
        probs = _per_sample_probs(
            arch, domain.x, lambda sl: combine_task_vector_rows(theta0, lambda0, rows[sl], taus)
        )
        merge_count = n
        chosen[:] = rows
    else:
        probs = np.empty((n, arch.class_count))
        model = dirichlet_em_fit(rows, k, seed=options.seed)
        member = np.atleast_1d(dirichlet_membership(model, rows, options.posterior_membership))
        for j in range(model.k):
            weights = dirichlet_component_mean(model, j)
            merged = combine_task_vectors(theta0, lambda0, weights, list(taus))
            merge_count += 1
            mask = member == j
            if mask.any():
                probs[mask] = forward_batch(arch, merged, domain.x[mask])
                chosen[mask] = weights
    return StrategyResult(
        strategy="dawin_task_arith",
        domain=domain.name,
        probs=probs,
        preds=probs.argmax(axis=1),
        chosen=chosen,
        merge_count=merge_count,
        wall_ms=(time.perf_counter() - start) * 1e3,
        extras={"lambda0": float(lambda0), "k": k, "raw_coefficients": rows},
    )


def dcs_eval(
    arch: MlpArchitecture,
    thetas: Sequence[ParamVector],
    domain: Domain,
    options: MergeOptions = MergeOptions(),
) -> StrategyResult:
    """Dynamic classifier selection: per sample, the lowest-entropy model
    answers alone. Ties go to the lower model index. No parameters are merged."""
    if len(thetas) < 2:
        raise ValueError("need at least two models")
    start = time.perf_counter()
    raw, ents = _model_probs(arch, list(thetas), domain.x, options.temperatures)
    selected = ents.argmin(axis=1)
    stacked = np.stack(raw, axis=1)
    probs = stacked[np.arange(domain.n_samples), selected]
    counts = np.bincount(selected, minlength=len(thetas))
    return StrategyResult(
        strategy="dcs",
        domain=domain.name,
        probs=probs,
        preds=probs.argmax(axis=1),
        chosen=None,
        merge_count=0,
        wall_ms=(time.perf_counter() - start) * 1e3,
        extras={"selected_counts": [int(c) for c in counts]},
    )


def doe_eval(
    arch: MlpArchitecture,
    thetas: Sequence[ParamVector],
    domain: Domain,
    options: MergeOptions = MergeOptions(),
) -> StrategyResult:
    """Dynamic output ensembling: probability average weighted by the
    entropy-ratio coefficients. Outputs stay on the simplex by convexity."""
    if len(thetas) < 2:
        raise ValueError("need at least two models")
    start = time.perf_counter()
    raw, ents = _model_probs(arch, list(thetas), domain.x, options.temperatures)
    weights = coeff_multi(ents)
    stacked = np.stack(raw, axis=1)  # (n, M, C)
    probs = (weights[:, :, None] * stacked).sum(axis=1)
    return StrategyResult(
        strategy="doe",
        domain=domain.name,
        probs=probs,
        preds=probs.argmax(axis=1),
        chosen=weights,
        merge_count=0,
        wall_ms=(time.perf_counter() - start) * 1e3,
    )


# ----- oracles ------------------------------------------------------------------

def oracle_sample_eval(
    arch: MlpArchitecture,
    theta0: ParamVector,
    theta1: ParamVector,
    domain: Domain,
) -> StrategyResult:
    """Hindsight per-sample coefficients from true-label masses."""
    start = time.perf_counter()
    n = domain.n_samples
    rows = np.arange(n)
    p0 = forward_batch(arch, theta0, domain.x)
    p1 = forward_batch(arch, theta1, domain.x)
    lam = np.asarray(oracle_coeff(p0[rows, domain.y], p1[rows, domain.y]))
    probs = _per_sample_probs(
        arch, domain.x, lambda sl: _interpolated_rows(theta0, theta1, lam[sl])
    )
    return StrategyResult(
        strategy="oracle_sample",
        domain=domain.name,
        probs=probs,
        preds=probs.argmax(axis=1),
        chosen=lam,
        merge_count=n,
        wall_ms=(time.perf_counter() - start) * 1e3,
    )


def oracle_domain_search(
    arch: MlpArchitecture,
    theta0: ParamVector,
    theta1: ParamVector,
    domain: Domain,
    grid: Sequence[float] = DEFAULT_GRID,
) -> StrategyResult:
    """Best static coefficient for this labeled domain, searched on the grid.
    Ties go to the smaller coefficient."""
    start = time.perf_counter()
    best = None
    table = []
    for lam in grid:
        merged = interpolate_pair(theta0, theta1, lam)
        probs = forward_batch(arch, merged, domain.x)
        acc = float((probs.argmax(axis=1) == domain.y).mean())
        table.append({"lam": float(lam), "accuracy": acc})
        if best is None or acc > best[1]:
            best = (float(lam), acc, probs)
    lam_star, _, probs = best
    return StrategyResult(
        strategy="oracle_domain",
        domain=domain.name,
        probs=probs,
        preds=probs.argmax(axis=1),
        chosen=np.full(domain.n_samples, lam_star),
        merge_count=len(table),
        wall_ms=(time.perf_counter() - start) * 1e3,
        extras={"best_lam": lam_star, "table": table},
    )
