"""Merging, selection, and ensembling strategies over candidate models.

Each strategy picks coefficient rows on a basis of parameter vectors or model
outputs, and one engine turns rows into a StrategyResult: the predictive
distributions, the coefficient applied per sample (when the notion applies),
the number of distinct parameter merges used, and wall time. Temperatures,
when supplied, shape entropy estimation only; final predictions always come
from unscaled logits. Every whole-domain forward goes through a ForwardCache,
so strategies that share one see each model's outputs on a domain computed
once. STRATEGIES, at the end, is the one list of strategy kinds: how each
runs, its knob defaults and its domains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .classifier import MlpArchitecture, blended_forward, forward_batch
from .databench import Domain
from .expertise import (
    coeff_multi,
    coeff_pair,
    coeff_pair_offset,
    entropy,
    oracle_coeff,
)
from .mixture import (
    dirichlet_em_fit,
    dirichlet_membership,
    em_fit,
    infer_membership,
)
from .params import (
    ParamVector,
    TaskVector,
    check_compatible,
    interpolation_row,
    materialize,
    task_vector_coefficients,
)

DEFAULT_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))

# Knob defaults of every kind; a kind's STRATEGIES entry may override them.
_KNOB_DEFAULTS = {"lam": 0.5, "grid": DEFAULT_GRID, "k": 3, "lambda0": 0.3}


@dataclass(frozen=True)
class MergeStrategy:
    """A strategy kind (a key of STRATEGIES) plus the knobs it needs. A knob
    left at None takes the kind's default."""

    kind: str
    lam: float | None = None
    grid: tuple[float, ...] | None = None
    k: int | None = None
    lambda0: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRATEGIES:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        for name, value in {**_KNOB_DEFAULTS, **STRATEGIES[self.kind].defaults}.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
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

    def __post_init__(self) -> None:
        if self.batch_size is not None and self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")


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


# ----- shared helpers -----------------------------------------------------------

def _result(name, domain, probs, start, chosen=None, merge_count=0, extras=None):
    """The StrategyResult that predicts the argmax of probs, timed from start."""
    return StrategyResult(
        strategy=name,
        domain=domain.name,
        probs=probs,
        preds=probs.argmax(axis=1),
        chosen=chosen,
        merge_count=merge_count,
        wall_ms=(time.perf_counter() - start) * 1e3,
        extras={} if extras is None else extras,
    )


class _Same:
    """A key part that compares its object by identity. It holds the object,
    so the id stays that object's for as long as the key lives."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other) -> bool:
        return isinstance(other, _Same) and other.obj is self.obj


def _key(part):
    if isinstance(part, tuple):
        return tuple(_key(p) for p in part)
    if isinstance(part, (ParamVector, Domain)):
        return _Same(part)
    return part


class ForwardCache:
    """Whole-domain model outputs shared by the strategies of one evaluation
    scope, and the selections that do not depend on the domain (a sweep
    winner, a soup), shared by every scope made with the same selections dict.

    An output is keyed by what was run: a model, or the recipe that builds a
    merge, such as a basis and a constant row ((theta0, theta1), (1 - lam,
    lam)); the domain; and the temperature. Models and domains count by
    identity. A hit runs neither the forward nor the merge, and cached arrays
    are read-only. Forwards on part of a domain never come from here: a
    chunk's forward need not give the bits of the same rows of the
    whole-domain forward.
    """

    def __init__(self, selections: dict | None = None):
        self._outputs: dict = {}
        self._selections = {} if selections is None else selections

    def probs(
        self,
        arch: MlpArchitecture,
        model,
        domain: Domain,
        temperature: float = 1.0,
        build: Callable[[], ParamVector | np.ndarray] | None = None,
    ) -> np.ndarray:
        """Probabilities of every row of domain under model, a ParamVector or,
        with build, a recipe tuple that build() turns into one."""
        key = (_key(model), _Same(domain), float(temperature))
        out = self._outputs.get(key)
        if out is None:
            out = forward_batch(arch, model if build is None else build(), domain.x, temperature)
            out.flags.writeable = False
            self._outputs[key] = out
        return out

    def selection(self, key: tuple, compute: Callable[[], object]):
        """compute(), run once per key for every scope sharing the selections."""
        key = _key(key)
        if key not in self._selections:
            self._selections[key] = compute()
        return self._selections[key]


def _model_probs(
    cache: ForwardCache,
    arch: MlpArchitecture,
    thetas: Sequence[ParamVector],
    domain: Domain,
    rows: np.ndarray | None = None,
    temperatures: tuple[float, ...] | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-model probabilities at estimation temperature, plus raw (T=1) probs,
    on the given rows of domain (all of it, through cache, when rows is None).

    Returns (raw_probs_per_model, entropy_matrix). Entropies honour the
    temperatures; the returned probability matrices do not.
    """
    if temperatures is not None and len(temperatures) != len(thetas):
        raise ValueError("need one temperature per model")
    if rows is None:
        forward = lambda theta, t: cache.probs(arch, theta, domain, t)  # noqa: E731
    else:
        x = domain.x[rows]
        forward = lambda theta, t: forward_batch(arch, theta, x, t)  # noqa: E731
    raw = [forward(th, 1.0) for th in thetas]
    if temperatures is None:
        ents = np.stack([entropy(p) for p in raw], axis=1)
    else:
        ents = np.stack(
            [entropy(forward(th, t)) for th, t in zip(thetas, temperatures)], axis=1
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


def _chunk_lambdas(cache, arch, theta0, theta1, domain, idx, options) -> np.ndarray:
    """Per-sample pair coefficients of the rows idx of domain: from the
    cached whole-domain outputs when the domain is not streamed, and from a
    forward of those rows alone when it is."""
    rows = None if options.batch_size is None else idx
    _, ents = _model_probs(cache, arch, [theta0, theta1], domain, rows, options.temperatures)
    if options.offset_adjust:
        lam, _ = coeff_pair_offset(ents[:, 0], ents[:, 1])
    else:
        lam = coeff_pair(ents[:, 0], ents[:, 1])
    return np.asarray(lam, dtype=np.float64)


def _pair_rows(lam: np.ndarray) -> np.ndarray:
    """Coefficient rows (1 - lam[i], lam[i]) on the basis (theta0, theta1)."""
    return np.column_stack([1.0 - lam, lam])


# ----- evaluation engine --------------------------------------------------------
# Weight-space rows take one path per shape: a constant row per domain
# (_row_probs), K rows routed by a membership (_routed_probs), or a row per
# sample (classifier.blended_forward). Output-space rows: _output_mix.

def _row_probs(cache, arch, basis: tuple, row: tuple, domain) -> np.ndarray:
    """Probabilities on the whole domain of the vector the constant row
    materialises on basis."""
    return cache.probs(arch, (basis, row), domain, build=lambda: materialize(basis, row))


def _routed_probs(arch, basis, rows, member, x) -> np.ndarray:
    """Probabilities of each x[i] under the vector rows[member[i]]
    materialises on basis. Every row is materialised, members or not."""
    probs = np.empty((x.shape[0], arch.class_count))
    for j, row in enumerate(rows):
        merged = materialize(basis, row)
        mask = member == j
        if mask.any():
            probs[mask] = forward_batch(arch, merged, x[mask])
    return probs


def _output_mix(cache, arch, thetas, domain, options, row_rule):
    """(rows, probs): row_rule maps the models' (n, M) entropies to one row per
    sample, and probs[i] = sum_j rows[i, j] * p_j(x_i), at T = 1."""
    if len(thetas) < 2:
        raise ValueError("need at least two models")
    raw, ents = _model_probs(cache or ForwardCache(), arch, list(thetas), domain,
                             temperatures=options.temperatures)
    rows = row_rule(ents)
    stacked = np.stack(raw, axis=1)  # (n, M, C)
    return rows, (rows[:, :, None] * stacked).sum(axis=1)


def _grid_search(cache, arch, theta0, theta1, domain, grid):
    """Each grid coefficient's accuracy on the labeled domain, the index of the
    best (ties go to the earlier one) and the best one's probabilities."""
    accs, best, best_probs = [], 0, None
    for i, lam in enumerate(grid):
        probs = _row_probs(cache, arch, (theta0, theta1), interpolation_row(lam), domain)
        accs.append(float((probs.argmax(axis=1) == domain.y).mean()))
        if best_probs is None or accs[i] > accs[best]:
            best, best_probs = i, probs
    return accs, best, best_probs


# ----- plain and static strategies ----------------------------------------------

def model_eval(
    arch: MlpArchitecture,
    theta: ParamVector,
    domain: Domain,
    name: str,
    cache: ForwardCache | None = None,
) -> StrategyResult:
    start = time.perf_counter()
    cache = cache or ForwardCache()
    return _result(name, domain, cache.probs(arch, theta, domain), start)


def static_eval(
    arch: MlpArchitecture,
    theta0: ParamVector,
    theta1: ParamVector,
    lam: float,
    domain: Domain,
    name: str = "static",
    cache: ForwardCache | None = None,
) -> StrategyResult:
    start = time.perf_counter()
    cache = cache or ForwardCache()
    probs = _row_probs(cache, arch, (theta0, theta1), interpolation_row(lam), domain)
    return _result(name, domain, probs, start, chosen=np.full(domain.n_samples, float(lam)),
                   merge_count=1, extras={"lam": float(lam)})


@dataclass(frozen=True)
class WiseSweepResult:
    rows: tuple[dict, ...]
    best_lam: float


def wise_sweep(
    arch: MlpArchitecture,
    theta0: ParamVector,
    theta1: ParamVector,
    id_val: Domain,
    grid: Sequence[float] = DEFAULT_GRID,
    cache: ForwardCache | None = None,
) -> WiseSweepResult:
    """Accuracy table over the static grid; best row by ID validation accuracy,
    ties broken toward the smaller coefficient."""
    accs, best, _ = _grid_search(cache or ForwardCache(), arch, theta0, theta1, id_val, grid)
    rows = tuple({"lam": float(lam), "id_val_acc": acc} for lam, acc in zip(grid, accs))
    return WiseSweepResult(rows=rows, best_lam=float(grid[best]))


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
    cache: ForwardCache | None = None,
) -> tuple[ParamVector, list[int]]:
    """Ingredient order by descending ID validation accuracy; keep an
    ingredient only if the running average does not lose accuracy. A
    candidate soup's recipe is its ingredients in the order they joined."""
    if len(params) < 2:
        raise ValueError("greedy soup needs at least two models")
    base = params[0]
    for other in params[1:]:
        check_compatible(base, other)
    cache = cache or ForwardCache()

    def val_acc(model, build=None) -> float:
        probs = cache.probs(arch, model, id_val, build=build)
        return float((probs.argmax(axis=1) == id_val.y).mean())

    solo = [val_acc(p) for p in params]
    order = sorted(range(len(params)), key=lambda i: (-solo[i], i))
    kept = [order[0]]
    current = params[order[0]].values.copy()
    current_acc = solo[order[0]]
    for i in order[1:]:
        candidate = (current * len(kept) + params[i].values) / (len(kept) + 1)
        recipe = ("greedy_soup", *(params[j] for j in kept), params[i])
        candidate_acc = val_acc(recipe, build=lambda: candidate)
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
    cache: ForwardCache | None = None,
) -> StrategyResult:
    """Per-sample entropy-ratio interpolation: one merge per test sample,
    run as one blended forward per chunk, so no merged vector is built."""
    start = time.perf_counter()
    cache = cache or ForwardCache()
    n = domain.n_samples
    probs = np.empty((n, arch.class_count))
    chosen = np.empty(n)
    merge_count = 0
    for idx in _chunks(n, options.batch_size, min_tail=2):
        lam = _chunk_lambdas(cache, arch, theta0, theta1, domain, idx, options)
        chosen[idx] = lam
        probs[idx] = blended_forward(arch, [theta0, theta1], _pair_rows(lam), domain.x[idx])
        merge_count += len(idx)
    return _result("dawin_sample", domain, probs, start, chosen=chosen, merge_count=merge_count,
                   extras={"offset_adjust": options.offset_adjust})


def dawin_clustered_eval(
    arch: MlpArchitecture,
    theta0: ParamVector,
    theta1: ParamVector,
    domain: Domain,
    k: int = 3,
    options: MergeOptions = MergeOptions(),
    cache: ForwardCache | None = None,
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
    cache = cache or ForwardCache()
    n = domain.n_samples
    probs = np.empty((n, arch.class_count))
    chosen = np.empty(n)
    merge_count = 0
    chunk_count = 0
    for idx in _chunks(n, options.batch_size, min_tail=max(k, 2)):
        lam = _chunk_lambdas(cache, arch, theta0, theta1, domain, idx, options)
        model = em_fit(lam, k)
        member = np.atleast_1d(infer_membership(model, lam, options.posterior_membership))
        means = np.array([comp.mean for comp in model.components])
        rows = [interpolation_row(min(max(mean, 0.0), 1.0)) for mean in means]
        probs[idx] = _routed_probs(arch, (theta0, theta1), rows, member, domain.x[idx])
        chosen[idx] = means[member]
        merge_count += len(rows)
        chunk_count += 1
    return _result(
        "dawin_clustered", domain, probs, start, chosen=chosen, merge_count=merge_count,
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
    cache: ForwardCache | None = None,
) -> StrategyResult:
    """Dynamic task arithmetic: theta_0 + lambda0 * sum_j lambda_j(x) tau_j.

    Coefficients are the softmax of negative expert entropies, from the task
    experts at T=1: options.temperatures belong to the theta0/theta1 pair.
    k=None merges per sample, as one blended forward on the basis theta_0,
    tau_1..tau_M with rows (1, lambda0 * lambda_j(x)); an integer k
    compresses rows with a K-component Dirichlet mixture and merges once per
    component.
    """
    if len(experts) != len(taus) or len(experts) < 2:
        raise ValueError("need matching experts and task vectors, at least two")
    start = time.perf_counter()
    cache = cache or ForwardCache()
    _, ents = _model_probs(cache, arch, list(experts), domain)
    rows = coeff_multi(ents)
    basis = [theta0, *(tau.delta for tau in taus)]
    if k is None:
        coeffs = task_vector_coefficients(theta0, lambda0, rows, taus)
        probs = blended_forward(arch, basis, coeffs, domain.x)
        chosen, merge_count = rows.copy(), domain.n_samples
    else:
        model = dirichlet_em_fit(rows, k)
        member = np.atleast_1d(dirichlet_membership(model, rows, options.posterior_membership))
        means = np.array([comp.mean for comp in model.components])
        coeffs = task_vector_coefficients(theta0, lambda0, means, taus)
        probs = _routed_probs(arch, basis, coeffs, member, domain.x)
        chosen, merge_count = means[member], len(means)
    return _result(
        "dawin_task_arith", domain, probs, start, chosen=chosen, merge_count=merge_count,
        extras={"lambda0": float(lambda0), "k": k, "raw_coefficients": rows},
    )


def dcs_eval(
    arch: MlpArchitecture,
    thetas: Sequence[ParamVector],
    domain: Domain,
    options: MergeOptions = MergeOptions(),
    cache: ForwardCache | None = None,
) -> StrategyResult:
    """Dynamic classifier selection: per sample, the lowest-entropy model
    answers alone, a one-hot row. Ties go to the lower model index. No
    parameters are merged."""
    start = time.perf_counter()
    rows, probs = _output_mix(cache, arch, thetas, domain, options,
                              lambda ents: np.eye(len(thetas))[ents.argmin(axis=1)])
    return _result("dcs", domain, probs, start,
                   extras={"selected_counts": [int(c) for c in rows.sum(axis=0)]})


def doe_eval(
    arch: MlpArchitecture,
    thetas: Sequence[ParamVector],
    domain: Domain,
    options: MergeOptions = MergeOptions(),
    cache: ForwardCache | None = None,
) -> StrategyResult:
    """Dynamic output ensembling: probability average weighted by the
    entropy-ratio coefficients. Outputs stay on the simplex by convexity."""
    start = time.perf_counter()
    weights, probs = _output_mix(cache, arch, thetas, domain, options, coeff_multi)
    return _result("doe", domain, probs, start, chosen=weights)


# ----- oracles ------------------------------------------------------------------

def oracle_sample_eval(
    arch: MlpArchitecture,
    theta0: ParamVector,
    theta1: ParamVector,
    domain: Domain,
    cache: ForwardCache | None = None,
) -> StrategyResult:
    """Hindsight per-sample coefficients from true-label masses."""
    start = time.perf_counter()
    cache = cache or ForwardCache()
    n = domain.n_samples
    rows = np.arange(n)
    p0 = cache.probs(arch, theta0, domain)
    p1 = cache.probs(arch, theta1, domain)
    lam = np.asarray(oracle_coeff(p0[rows, domain.y], p1[rows, domain.y]))
    probs = blended_forward(arch, [theta0, theta1], _pair_rows(lam), domain.x)
    return _result("oracle_sample", domain, probs, start, chosen=lam, merge_count=n)


def oracle_domain_search(
    arch: MlpArchitecture,
    theta0: ParamVector,
    theta1: ParamVector,
    domain: Domain,
    grid: Sequence[float] = DEFAULT_GRID,
    cache: ForwardCache | None = None,
) -> StrategyResult:
    """Best static coefficient for this labeled domain, searched on the grid.
    Ties go to the smaller coefficient."""
    start = time.perf_counter()
    accs, best, probs = _grid_search(cache or ForwardCache(), arch, theta0, theta1, domain, grid)
    lam_star = float(grid[best])
    table = [{"lam": float(lam), "accuracy": acc} for lam, acc in zip(grid, accs)]
    return _result(
        "oracle_domain", domain, probs, start, chosen=np.full(domain.n_samples, lam_star),
        merge_count=len(table), extras={"best_lam": lam_star, "table": table},
    )


# ----- strategy table -----------------------------------------------------------


@dataclass(frozen=True)
class StrategyEntry:
    """How harness.run_main runs one strategy kind.

    run(strategy, experts, suite, domain, options, cache) evaluates the kind
    on one domain, with experts a harness.ExpertSet and cache the
    ForwardCache of that domain's scope. defaults override _KNOB_DEFAULTS for
    this kind. A task-level kind (on_tasks) needs the task experts, runs on
    the task test splits, and its report rows record lambda0.
    """

    run: Callable[..., StrategyResult]
    defaults: dict = field(default_factory=dict)
    on_tasks: bool = False

    def domains(self, suite) -> list[Domain]:
        if self.on_tasks:
            return [split.test for split in suite.mtl_tasks]
        return list(suite.test_domains)


# Runners name the strategy functions and never hold them, so each call looks
# the name up in this module when it runs and a rebinding of it (a tracer's
# wrapper, say) reaches every kind. The sweep winner and the soups do not
# depend on the domain, so each is a selection: built once per run.


def _run_wise_sweep(strategy, experts, suite, domain, options, cache):
    arch, t0, t1 = experts.arch, experts.theta0, experts.theta1
    sweep = cache.selection(
        ("wise_sweep", t0, t1, suite.id_val, strategy.grid),
        lambda: wise_sweep(arch, t0, t1, suite.id_val, strategy.grid, cache),
    )
    result = static_eval(arch, t0, t1, sweep.best_lam, domain, name="wise_sweep", cache=cache)
    result.extras["best_lam"] = sweep.best_lam
    return result


def _run_uniform_soup(strategy, experts, suite, domain, options, cache):
    pair = (experts.theta0, experts.theta1)
    soup = cache.selection(("uniform_soup", *pair), lambda: uniform_soup(list(pair)))
    return model_eval(experts.arch, soup, domain, "uniform_soup", cache=cache)


def _run_greedy_soup(strategy, experts, suite, domain, options, cache):
    pair = (experts.theta0, experts.theta1)
    soup, kept = cache.selection(
        ("greedy_soup", *pair, suite.id_val),
        lambda: greedy_soup(experts.arch, list(pair), suite.id_val, cache),
    )
    result = model_eval(experts.arch, soup, domain, "greedy_soup", cache=cache)
    result.extras["kept"] = list(kept)
    return result


# The lambdas abbreviate the runner arguments: s strategy, e experts, o
# options, c cache.
STRATEGIES = {
    "zs": StrategyEntry(
        lambda s, e, suite, dom, o, c: model_eval(e.arch, e.theta0, dom, "zs", cache=c)
    ),
    "ft": StrategyEntry(
        lambda s, e, suite, dom, o, c: model_eval(e.arch, e.theta1, dom, "ft", cache=c)
    ),
    "static": StrategyEntry(
        lambda s, e, suite, dom, o, c: static_eval(e.arch, e.theta0, e.theta1, s.lam, dom, cache=c)
    ),
    "wise_sweep": StrategyEntry(_run_wise_sweep),
    "uniform_soup": StrategyEntry(_run_uniform_soup),
    "greedy_soup": StrategyEntry(_run_greedy_soup),
    "dawin_sample": StrategyEntry(
        lambda s, e, suite, dom, o, c: dawin_sample_eval(e.arch, e.theta0, e.theta1, dom, o, c)
    ),
    "dawin_clustered": StrategyEntry(
        lambda s, e, suite, dom, o, c: dawin_clustered_eval(
            e.arch, e.theta0, e.theta1, dom, k=s.k, options=o, cache=c
        )
    ),
    "dawin_task_arith": StrategyEntry(
        lambda s, e, suite, dom, o, c: dawin_task_arith_eval(
            e.arch, e.theta0, e.task_params(), e.task_vectors(), dom,
            lambda0=s.lambda0, k=s.k, options=o, cache=c,
        ),
        defaults={"k": 1},
        on_tasks=True,
    ),
    "dcs": StrategyEntry(
        lambda s, e, suite, dom, o, c: dcs_eval(e.arch, [e.theta0, e.theta1], dom, o, c)
    ),
    "doe": StrategyEntry(
        lambda s, e, suite, dom, o, c: doe_eval(e.arch, [e.theta0, e.theta1], dom, o, c)
    ),
    "oracle_sample": StrategyEntry(
        lambda s, e, suite, dom, o, c: oracle_sample_eval(e.arch, e.theta0, e.theta1, dom, c)
    ),
    "oracle_domain": StrategyEntry(
        lambda s, e, suite, dom, o, c: oracle_domain_search(
            e.arch, e.theta0, e.theta1, dom, s.grid, c
        )
    ),
}
