"""Experiment orchestration.

Builds the benchmark suite, trains the role experts (generalist, specialist,
task experts), runs merging strategies over every test domain, assembles the
split/correlation/entropy analyses, executes the named property checks, and
emits versioned reports. Reports are reproducible bit-for-bit except for the
wall-clock fields, which are explicitly marked non-deterministic.
"""
from __future__ import annotations

import itertools
import json
import os
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.special import expit

from .classifier import MlpArchitecture, TrainConfig, TrainJob, train, train_many
from .databench import BenchmarkSuite
from .errors import DataFormatError, UndefinedOracleError
from .expertise import (
    Split,
    coeff_multi,
    coeff_pair,
    coeff_pair_offset,
    entropy,
    oracle_coeff,
    ratio_correlation,
    split_masks,
    xentropy,
)
from .merge import (
    DEFAULT_GRID,
    STRATEGIES,
    ForwardCache,
    MergeOptions,
    MergeStrategy,
    StrategyResult,
    accuracy,
    dawin_clustered_eval,
    dawin_sample_eval,
    dawin_task_arith_eval,
    mean_prediction_entropy,
    model_eval,
    oracle_domain_search,
    oracle_sample_eval,
    static_eval,
    wise_sweep,
)
from .mixture import em_fit, mixture_from_dict, mixture_to_dict
from .params import (
    Checkpoint,
    ParamVector,
    checkpoint_id,
    combine_task_vectors,
    load_checkpoint,
    make_task_vector,
    save_checkpoint,
)
from .util import atomic_write, build, get, get_dataclass, read_json

SCHEMA_VERSION = 1
HISTOGRAM_BINS = 50
XENT_CLIP = 50.0
NONDETERMINISTIC_FIELDS = ("wall_ms",)

# Frozen role defaults. The pretrain schedule mildly undertrains the
# generalist, the finetune schedule is short and hot, and weight decay keeps
# the true-class masses away from the oracle's 1e-12 floor on seed 0.
PRETRAIN_CONFIG = TrainConfig(
    epochs=40, batch_size=8, learning_rate=0.045, weight_decay=1e-4, seed=101
)
FINETUNE_CONFIG = TrainConfig(
    epochs=5, batch_size=8, learning_rate=0.02, weight_decay=1e-4, seed=202
)
TASK_SEED_BASE = 301


def task_config(index: int) -> TrainConfig:
    return TrainConfig(
        epochs=15, batch_size=8, learning_rate=0.03, weight_decay=1e-4,
        seed=TASK_SEED_BASE + int(index),
    )


def default_architecture(suite: BenchmarkSuite) -> MlpArchitecture:
    return MlpArchitecture(
        input_dim=suite.spec.dim,
        hidden_widths=(64, 64),
        class_count=suite.spec.class_count,
    )


def report_root() -> str:
    """Default output root for reports; overridable via DAWIN_REPORT_DIR."""
    return os.environ.get("DAWIN_REPORT_DIR", ".")


# ----- experts ------------------------------------------------------------------


@dataclass(frozen=True)
class ExpertSet:
    """The trained role models for one suite."""

    arch: MlpArchitecture
    pretrain: Checkpoint
    finetune: Checkpoint
    task_experts: tuple[Checkpoint, ...] = ()

    @property
    def theta0(self) -> ParamVector:
        return self.pretrain.payload

    @property
    def theta1(self) -> ParamVector:
        return self.finetune.payload

    def task_params(self) -> list[ParamVector]:
        return [c.payload for c in self.task_experts]

    def task_vectors(self):
        return [make_task_vector(c.payload, self.theta0) for c in self.task_experts]


def build_experts(suite: BenchmarkSuite, with_tasks: bool = True) -> ExpertSet:
    """Train the generalist on the pretrain mix, then, in one lockstep call,
    the specialist from it on id_train and one expert per task split (each
    from the generalist), all on the frozen role configs."""
    arch = default_architecture(suite)
    zs = train(
        arch, suite.pretrain_mix.x, suite.pretrain_mix.y, PRETRAIN_CONFIG,
        dataset_id=suite.pretrain_mix.name,
    )
    splits = [(suite.id_train, FINETUNE_CONFIG)]
    if with_tasks:
        splits += [(split.train, task_config(j)) for j, split in enumerate(suite.mtl_tasks)]
    ft, *tasks = train_many(
        arch,
        [TrainJob(d.x, d.y, config, init=zs.payload, dataset_id=d.name, parent=zs)
         for d, config in splits],
    )
    return ExpertSet(arch=arch, pretrain=zs, finetune=ft, task_experts=tuple(tasks))


# ----- report types ---------------------------------------------------------------


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    samples: int
    violations: int
    tolerance: float
    verdict: str
    measured: float | None = None

    def __post_init__(self) -> None:
        if self.violations > self.samples:
            raise ValueError("violations cannot exceed the precondition sample count")
        if self.verdict not in ("pass", "fail"):
            raise ValueError(f"verdict must be pass or fail, got {self.verdict!r}")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _check(name, samples, violations, tolerance, ok, measured=None) -> PropertyCheck:
    return PropertyCheck(
        name=name,
        samples=int(samples),
        violations=int(violations),
        tolerance=float(tolerance),
        verdict="pass" if ok else "fail",
        measured=None if measured is None else float(measured),
    )


@dataclass
class EvalReport:
    """One experiment's metrics, analyses, and checks in emittable form."""

    suite_seed: int
    schema_version: int = SCHEMA_VERSION
    config: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    ood_average: dict = field(default_factory=dict)
    splits: dict = field(default_factory=dict)
    correlations: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    entropy_bars: dict = field(default_factory=dict)
    property_checks: list = field(default_factory=list)

    def add_result(self, result: StrategyResult, y: np.ndarray, extras: dict | None = None):
        acc = accuracy(result, y)
        if not 0.0 <= acc <= 1.0:
            raise ValueError(f"accuracy {acc} outside [0, 1]")
        row = {
            "strategy": result.strategy,
            "domain": result.domain,
            "accuracy": acc,
            "mean_entropy": mean_prediction_entropy(result),
            "merge_count": int(result.merge_count),
            "wall_ms": float(result.wall_ms),
        }
        if extras:
            row["extras"] = extras
        self.rows.append(row)
        return row

    def add_histogram(self, name: str, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        counts, _ = np.histogram(values, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
        if int(counts.sum()) != values.size:
            raise ValueError("histogram lost samples: coefficients outside [0, 1]")
        self.histograms[name] = {"counts": [int(c) for c in counts], "n": int(values.size)}

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "suite_seed": self.suite_seed,
            "nondeterministic_fields": list(NONDETERMINISTIC_FIELDS),
            "config": self.config,
            "rows": self.rows,
            "ood_average": self.ood_average,
            "splits": self.splits,
            "correlations": self.correlations,
            "histograms": self.histograms,
            "entropy_bars": self.entropy_bars,
            "property_checks": [vars(c) for c in self.property_checks],
        }


def report_from_dict(data: dict, source: str = "<dict>") -> EvalReport:
    """The report in a JSON document read from source; a field of the wrong
    type or value is a DataFormatError naming source and the field."""
    where = f"{source}: malformed report"
    report = EvalReport(
        suite_seed=get(data, where, ("suite_seed",), int),
        schema_version=get(data, where, ("schema_version",), int),
        rows=get(data, where, ("rows",), [dict], []),
        **{key: get(data, where, (key,), dict, {}) for key in (
            "config", "ood_average", "splits", "correlations", "histograms", "entropy_bars")},
    )
    for j in range(len(get(data, where, ("property_checks",), list, []))):
        at = ("property_checks", j)
        report.property_checks.append(build(PropertyCheck, {
            key: get(data, where, (*at, key), kind, *default) for key, kind, *default in (
                ("name", str), ("samples", int), ("violations", int), ("tolerance", float),
                ("verdict", str), ("measured", float, None))
        }, where, at))
    return report


def report_signature(report: EvalReport) -> dict:
    """The report dict without the keys its nondeterministic_fields names."""
    data = report.to_dict()
    drop = set(data["nondeterministic_fields"])

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k not in drop}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return strip(data)


def emit_report(report: EvalReport, path: str, format: str = "json") -> None:
    if format == "json":
        atomic_write(path, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    elif format == "csv":
        lines = ["strategy,domain,accuracy,mean_entropy,merge_count,wall_ms"]
        for row in report.rows:
            lines.append(
                "%s,%s,%.17g,%.17g,%d,%.6g"
                % (
                    row["strategy"],
                    row["domain"],
                    row["accuracy"],
                    row["mean_entropy"],
                    row["merge_count"],
                    row["wall_ms"],
                )
            )
        atomic_write(path, "\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown report format {format!r}")


def load_report(path: str) -> EvalReport:
    return report_from_dict(read_json(path), path)


def _ood_average(report: EvalReport, ood_names) -> None:
    ood_names = set(ood_names)
    per_strategy: dict[str, list[float]] = {}
    for row in report.rows:
        if row["domain"] in ood_names:
            per_strategy.setdefault(row["strategy"], []).append(row["accuracy"])
    report.ood_average = {
        s: float(np.mean(v)) for s, v in sorted(per_strategy.items()) if v
    }


# ----- pilot --------------------------------------------------------------------


def run_pilot(
    suite: BenchmarkSuite,
    experts: ExpertSet | None = None,
    grid=DEFAULT_GRID,
) -> EvalReport:
    """ZS / FT / best-static / oracle-domain / oracle-sample over every test
    domain, with the best static coefficient picked on ID validation. The
    strategies share one ForwardCache per domain."""
    experts = experts or build_experts(suite, with_tasks=False)
    arch, t0, t1 = experts.arch, experts.theta0, experts.theta1
    report = EvalReport(suite_seed=suite.seed)
    report.config = {
        "operation": "pilot",
        "grid": [float(g) for g in grid],
        "architecture": dict(experts.pretrain.arch),
    }
    sweep = wise_sweep(arch, t0, t1, suite.id_val, grid)
    lam_star = sweep.best_lam
    report.config["best_static_lam"] = lam_star
    for dom in suite.test_domains:
        cache = ForwardCache()
        report.add_result(model_eval(arch, t0, dom, "zs", cache), dom.y)
        report.add_result(model_eval(arch, t1, dom, "ft", cache), dom.y)
        static = static_eval(arch, t0, t1, lam_star, dom, name="static_best", cache=cache)
        report.add_result(static, dom.y, extras={"lam": lam_star})
        domain_best = oracle_domain_search(arch, t0, t1, dom, grid, cache)
        report.add_result(domain_best, dom.y, extras={"best_lam": domain_best.extras["best_lam"]})
        report.add_result(oracle_sample_eval(arch, t0, t1, dom, cache), dom.y)
    _ood_average(report, (d.name for d in suite.ood_tests))
    return report


# ----- main comparison -------------------------------------------------------------


def run_main(
    suite: BenchmarkSuite,
    strategies,
    options: MergeOptions = MergeOptions(),
    experts: ExpertSet | None = None,
) -> EvalReport:
    """Per-strategy metrics on each kind's domains (STRATEGIES), instrumented
    with merge counts and wall-clock. A kind given as a plain string takes its
    defaults.

    Evaluation runs domain by domain, every strategy on a domain sharing one
    ForwardCache, and the selections that do not depend on the domain are
    made once per run; rows come out strategy by strategy, each strategy's in
    its domain order."""
    strategies = [s if isinstance(s, MergeStrategy) else MergeStrategy(str(s)) for s in strategies]
    task_kinds = [s.kind for s in strategies if STRATEGIES[s.kind].on_tasks]
    experts = experts or build_experts(suite, with_tasks=bool(task_kinds))
    if task_kinds and not experts.task_experts:
        raise DataFormatError(f"{task_kinds[0]} needs trained task experts")
    report = EvalReport(suite_seed=suite.seed)
    report.config = {
        "operation": "main",
        "strategies": [vars(s) for s in strategies],
        "options": vars(options),
        "architecture": dict(experts.pretrain.arch),
    }
    runs: dict[str, tuple] = {}  # domain name -> (domain, indices of its strategies)
    for i, strategy in enumerate(strategies):
        for dom in STRATEGIES[strategy.kind].domains(suite):
            runs.setdefault(dom.name, (dom, []))[1].append(i)
    placed, selections = [], {}
    for dom, indices in runs.values():
        cache = ForwardCache(selections)
        for i in indices:
            strategy = strategies[i]
            entry = STRATEGIES[strategy.kind]
            extras = {"lambda0": strategy.lambda0} if entry.on_tasks else None
            result = entry.run(strategy, experts, suite, dom, options, cache)
            placed.append((i, report.add_result(result, dom.y, extras=extras)))
    report.rows = [row for _, row in sorted(placed, key=lambda pair: pair[0])]
    _ood_average(report, (d.name for d in suite.ood_tests))
    return report


# ----- analysis -------------------------------------------------------------------


def _entropy_bars(entropies: dict, mask: np.ndarray) -> dict:
    """Mean entropy of each model over the masked samples."""
    return {name: float(h[mask].mean()) for name, h in entropies.items()}


def run_analysis(
    suite: BenchmarkSuite,
    experts: ExpertSet | None = None,
    options: MergeOptions = MergeOptions(),
) -> EvalReport:
    """Four-way split counts, per-split correlations, coefficient histograms,
    and mean-entropy bars (ZS / FT / WA(0.5) / dawin_sample) per domain plus
    pooled over the whole test population. The ZS/FT outputs, WA(0.5) and
    dawin_sample share one ForwardCache per domain."""
    experts = experts or build_experts(suite, with_tasks=False)
    arch, t0, t1 = experts.arch, experts.theta0, experts.theta1
    report = EvalReport(suite_seed=suite.seed)
    report.config = {
        "operation": "analysis",
        "options": vars(options),
        "architecture": dict(experts.pretrain.arch),
    }
    pooled: dict[str, list[np.ndarray]] = {}
    pooled_masks: dict[str, list[np.ndarray]] = {}
    for dom in suite.test_domains:
        cache = ForwardCache()
        p0, p1 = cache.probs(arch, t0, dom), cache.probs(arch, t1, dom)
        h0, h1 = entropy(p0), entropy(p1)
        l0 = np.minimum(xentropy(p0, dom.y), XENT_CLIP)
        l1 = np.minimum(xentropy(p1, dom.y), XENT_CLIP)
        preds0, preds1 = p0.argmax(axis=1), p1.argmax(axis=1)
        masks = split_masks(preds0, preds1, dom.y)
        report.splits[dom.name] = {name: int(m.sum()) for name, m in masks.items()}
        report.correlations[dom.name] = ratio_correlation(
            h0, h1, l0, l1, preds0, preds1, dom.y
        )

        lam_plain = np.asarray(coeff_pair(h0, h1))
        report.add_histogram(f"{dom.name}/entropy", lam_plain)
        lam_off, _ = coeff_pair_offset(h0, h1)
        report.add_histogram(f"{dom.name}/entropy_offset", lam_off)
        rows_idx = np.arange(dom.n_samples)
        try:
            lam_oracle = np.asarray(oracle_coeff(p0[rows_idx, dom.y], p1[rows_idx, dom.y]))
            report.add_histogram(f"{dom.name}/oracle", lam_oracle)
        except UndefinedOracleError:
            # Both true-class masses vanished for some sample; the oracle
            # histogram is undefined on this domain, not an error.
            report.histograms[f"{dom.name}/oracle"] = {"counts": None, "n": 0}

        wa = static_eval(arch, t0, t1, 0.5, dom, name="wa_half", cache=cache)
        dw = dawin_sample_eval(arch, t0, t1, dom, options, cache)
        h = {"zs": h0, "ft": h1, "wa_half": entropy(wa.probs), "dawin_sample": entropy(dw.probs)}
        report.entropy_bars[dom.name] = {
            name: _entropy_bars(h, mask) if mask.any() else None
            for name, mask in (("overall", np.ones(dom.n_samples, bool)), *masks.items())
        }
        for key, arr in h.items():
            pooled.setdefault(key, []).append(arr)
        for name, mask in masks.items():
            pooled_masks.setdefault(name, []).append(mask)

    cat = {key: np.concatenate(vals) for key, vals in pooled.items()}
    cat_masks = {name: np.concatenate(vals) for name, vals in pooled_masks.items()}
    bars = {"overall": _entropy_bars(cat, np.ones(len(cat["zs"]), bool))}
    bars.update((name, _entropy_bars(cat, mask)) for name, mask in cat_masks.items() if mask.any())
    report.entropy_bars["pooled"] = bars
    report.splits["pooled"] = {name: int(mask.sum()) for name, mask in cat_masks.items()}
    return report


# ----- property suite ---------------------------------------------------------------


def _lemma1_violations(entropies: np.ndarray, expert_sets, tol: float = 1e-12):
    """Count rows violating expert dominance of the entropy-ratio coefficients.

    For each row, given the true-expert index set J (every j in J has entropy
    <= every i outside J), the coefficients must satisfy (a) lam_j >= lam_i
    pairwise and (b) mean over J of lam_j >= 1/M. Both hold exactly for the
    softmax form; tol only absorbs float roundoff.

    Rows whose J does not meet the precondition (within tol) are not counted.
    J may be empty or hold all M models; such rows say nothing about dominance
    and are skipped rather than counted. Returns (checked, violations).
    """
    lam = coeff_multi(entropies)
    m = entropies.shape[1]
    sizes = [len(experts_j) for experts_j in expert_sets]
    cols = np.fromiter(
        itertools.chain.from_iterable(expert_sets), dtype=np.int64, count=sum(sizes)
    )
    in_j = np.zeros(entropies.shape, dtype=bool)
    in_j[np.repeat(np.arange(len(sizes)), sizes), cols] = True
    j_size = in_j.sum(axis=1)
    h_j_max = np.where(in_j, entropies, -np.inf).max(axis=1)
    h_rest_min = np.where(in_j, np.inf, entropies).min(axis=1)
    checked = (j_size > 0) & (j_size < m) & (h_j_max <= h_rest_min + tol)
    lam_j_min = np.where(in_j, lam, np.inf).min(axis=1)
    lam_rest_max = np.where(in_j, -np.inf, lam).max(axis=1)
    lam_j_mean = np.where(in_j, lam, 0.0).sum(axis=1) / np.maximum(j_size, 1)
    violated = (lam_j_min < lam_rest_max - tol) | (lam_j_mean < 1.0 / m - tol)
    return int(checked.sum()), int((checked & violated).sum())


def _correct_expert_sets(prob_sets, y):
    preds = np.stack([p.argmax(axis=1) for p in prob_sets], axis=1)
    hits = preds == np.asarray(y)[:, None]
    return [tuple(np.flatnonzero(row)) for row in hits]


# The clustered check's fixed component count: every streamed chunk needs at
# least this many rows for its K-component fit.
CLUSTERED_K = 3


@dataclass
class CheckContext:
    """One property-suite run's inputs and the work its checks share. Each
    shared piece is computed on first use, so any check can run alone. Every
    whole-domain forward of the run goes through cache."""

    suite: BenchmarkSuite
    experts: ExpertSet
    options: MergeOptions = MergeOptions()
    cache: ForwardCache = field(default_factory=ForwardCache)

    @cached_property
    def outputs(self) -> dict[str, tuple]:
        """Per test domain: (domain, ZS probs, FT probs, ZS entropies, FT entropies)."""
        arch, t0, t1 = self.experts.arch, self.experts.theta0, self.experts.theta1
        out = {}
        for dom in self.suite.test_domains:
            p0, p1 = self.cache.probs(arch, t0, dom), self.cache.probs(arch, t1, dom)
            out[dom.name] = (dom, p0, p1, entropy(p0), entropy(p1))
        return out

    @cached_property
    def task_outputs(self) -> list[tuple]:
        """Per task test split, with task experts only: (split, each expert's
        probs, their (n, M) entropies)."""
        params = self.experts.task_params()
        out = []
        for split in self.suite.mtl_tasks if params else ():
            probs = [self.cache.probs(self.experts.arch, p, split.test) for p in params]
            out.append((split, probs, np.stack([entropy(p) for p in probs], axis=1)))
        return out

    @cached_property
    def dawin(self) -> dict[str, StrategyResult]:
        """dawin_sample per test domain at the run's options."""
        e = self.experts
        return {dom.name: dawin_sample_eval(e.arch, e.theta0, e.theta1, dom, self.options,
                                            self.cache)
                for dom in self.suite.test_domains}

    @cached_property
    def pilot(self) -> EvalReport:
        return run_pilot(self.suite, self.experts)


def _coefficient_algebra(ctx: CheckContext) -> list[PropertyCheck]:
    """Eq. 1 on random entropies, to 1e-12 within 1 s: the pair rule's simplex
    membership, swap symmetry, shift invariance and sigmoid identity, and
    coeff_multi's row sums, signs, shift invariance and pair agreement."""
    rng = np.random.default_rng(0)
    n = 100_000
    start = time.perf_counter()
    h = rng.uniform(0.0, 20.0, size=(n, 2))
    shift = rng.uniform(0.0, 5.0, size=n)
    lam = np.asarray(coeff_pair(h[:, 0], h[:, 1]))
    hm = rng.uniform(0.0, 20.0, size=(n, 4))
    rows = coeff_multi(hm)
    rows_shift = coeff_multi(hm + rng.uniform(0.0, 5.0, size=n)[:, None])
    dev = np.concatenate([
        np.maximum.reduce([
            np.abs(lam + np.asarray(coeff_pair(h[:, 1], h[:, 0])) - 1.0),
            np.abs(np.asarray(coeff_pair(h[:, 0] + shift, h[:, 1] + shift)) - lam),
            np.abs(lam - expit(h[:, 0] - h[:, 1])),
            np.maximum(-lam, lam - 1.0),
        ]),
        np.maximum.reduce([
            np.abs(rows.sum(axis=1) - 1.0),
            -rows.min(axis=1),
            np.abs(rows_shift - rows).max(axis=1),
            np.abs(coeff_multi(h)[:, 1] - lam),
        ]),
    ])
    elapsed = time.perf_counter() - start
    bad = int(np.count_nonzero(~(dev <= 1e-12)))
    return [_check("coefficient_algebra", dev.size, bad, 1e-12, bad == 0 and elapsed < 1.0,
                   measured=dev.max())]


# Criterion 2's 5 s budget, split between its synthetic and benchmark halves.
DOMINANCE_SECONDS = 2.5


def _expert_dominance_synthetic(ctx: CheckContext) -> list[PropertyCheck]:
    """Lemma 1 on 25,000 rows for each M = 2..5, J planted as each row's |J|
    lowest entropies: all 100,000 rows meet the precondition, none violates."""
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    checked = violations = 0
    for m in (2, 3, 4, 5):
        ents = rng.uniform(0.0, 4.0, size=(25_000, m))
        sizes = rng.integers(1, m, size=25_000)
        order = np.argsort(ents, axis=1)
        c, v = _lemma1_violations(ents, [tuple(order[i, :s]) for i, s in enumerate(sizes)])
        checked += c
        violations += v
    ok = violations == 0 and checked == 100_000
    return [_check("expert_dominance_synthetic", checked, violations, 1e-12,
                   ok and time.perf_counter() - start < DOMINANCE_SECONDS)]


def _lemma_expert_dominance_benchmark(ctx: CheckContext) -> list[PropertyCheck]:
    """Lemma 1 on benchmark samples, J = the models that answer correctly: the
    ZS/FT pair on every test domain, and the task experts on every task test
    split when the run has them."""
    start = time.perf_counter()
    groups = [([p0, p1], np.stack([h0, h1], axis=1), dom.y)
              for dom, p0, p1, h0, h1 in ctx.outputs.values()]
    groups += [(probs, ents, split.test.y) for split, probs, ents in ctx.task_outputs]
    counts = [_lemma1_violations(ents, _correct_expert_sets(probs, y)) for probs, ents, y in groups]
    checked, violations = (sum(col) for col in zip(*counts))
    return [_check("lemma_expert_dominance_benchmark", checked, violations, 1e-12,
                   violations == 0 and time.perf_counter() - start < DOMINANCE_SECONDS)]


def _em_monotone_loglik(ctx: CheckContext) -> list[PropertyCheck]:
    """No EM step lowers the log-likelihood by more than 1e-9, over 50 random
    Beta mixtures of 120-400 draws per component, fit with K = 1..4."""
    rng = np.random.default_rng(2)
    worst, bad = 0.0, 0
    for _ in range(50):
        parts = []
        for _ in range(int(rng.integers(1, 4))):
            a, b = rng.uniform(0.8, 12.0, size=2)
            parts.append(rng.beta(a, b, size=int(rng.integers(120, 400))))
        values = np.clip(np.concatenate(parts), 1e-4, 1.0 - 1e-4)
        k = int(rng.integers(1, 5))
        rng.integers(2**31)  # once the fit's seed; drawn still so later datasets stay the same
        model = em_fit(values, k=k)
        step = float(np.diff(model.loglik_trace).min(initial=0.0))
        worst = min(worst, step)
        bad += step < -1e-9
    return [_check("em_monotone_loglik", 50, bad, 1e-9, bad == 0, measured=worst)]


def _em_recovery(ctx: CheckContext) -> list[PropertyCheck]:
    """K = 2 EM on 20,000 draws of a 0.4/0.6 mix of Beta(2, 20) and Beta(20, 2)
    recovers the weights to 0.05 and the means to 0.02. Measured is the larger
    deviation as a share of its bound."""
    rng = np.random.default_rng(3)
    low, high = rng.beta(2.0, 20.0, size=20_000), rng.beta(20.0, 2.0, size=20_000)
    values = np.where(rng.random(20_000) < 0.4, low, high)
    lo, hi = sorted(em_fit(values, k=2).components, key=lambda c: c.mean)
    weight_dev = max(abs(lo.pi - 0.4), abs(hi.pi - 0.6))
    mean_dev = max(abs(lo.mean - 2.0 / 22.0), abs(hi.mean - 20.0 / 22.0))
    bad = int(not weight_dev <= 0.05) + int(not mean_dev <= 0.02)
    return [_check("em_recovery", 2, bad, 1.0, bad == 0,
                   measured=max(weight_dev / 0.05, mean_dev / 0.02))]


def _em_runtime_50k(ctx: CheckContext) -> list[PropertyCheck]:
    """K = 3 EM on 50,000 draws from three Betas ends within 60 s with three
    components."""
    rng = np.random.default_rng(4)
    values = np.concatenate(
        [rng.beta(2.0, 14.0, size=25_000), rng.beta(6.0, 6.0, size=12_500),
         rng.beta(16.0, 3.0, size=12_500)]
    )
    start = time.perf_counter()
    model = em_fit(values, k=3)
    ok = time.perf_counter() - start <= 60.0 and len(model.components) == 3
    return [_check("em_runtime_50k", 1, int(not ok), 60.0, ok)]


def _entropy_valley(ctx: CheckContext) -> list[PropertyCheck]:
    """Mean entropies along the static grid. Pooled over every test sample,
    some blend is not blunter than the sharper endpoint, and dawin_sample not
    blunter than that blend. Per test domain, some blend sits below both
    endpoints and above dawin_sample; measured is the best shortfall, the
    least over the grid of each blend's larger miss."""
    e = ctx.experts
    pooled = {key: [] for key in ("zs", "ft", "dawin", *DEFAULT_GRID)}
    per_domain = []
    for name, (dom, _, _, h0, h1) in ctx.outputs.items():
        h = {"zs": h0, "ft": h1, "dawin": entropy(ctx.dawin[name].probs)}
        h.update((g, entropy(static_eval(e.arch, e.theta0, e.theta1, g, dom,
                                         cache=ctx.cache).probs))
                 for g in DEFAULT_GRID)
        for key, arr in h.items():
            pooled[key].append(arr)
        mean = {key: float(arr.mean()) for key, arr in h.items()}
        floor = min(mean["zs"], mean["ft"])
        shortfall = min(max(mean[g] - floor, mean["dawin"] - mean[g]) for g in DEFAULT_GRID)
        per_domain.append(_check(f"entropy_valley[{name}]", len(DEFAULT_GRID), int(shortfall > 0),
                                 0.0, shortfall <= 0.0, measured=shortfall))
    mean = {key: float(np.concatenate(arrs).mean()) for key, arrs in pooled.items()}
    best_static = min(mean[g] for g in DEFAULT_GRID)
    ok_static = best_static <= min(mean["zs"], mean["ft"])
    ok_dawin = mean["dawin"] <= best_static
    return [
        _check("entropy_valley_pooled_static", len(DEFAULT_GRID), int(not ok_static), 0.0,
               ok_static, measured=best_static - min(mean["zs"], mean["ft"])),
        _check("entropy_valley_pooled_dawin", 1, int(not ok_dawin), 0.0, ok_dawin,
               measured=mean["dawin"] - best_static),
        *per_domain,
    ]


def _pilot_ordering_chain(ctx: CheckContext) -> list[PropertyCheck]:
    """Pilot OOD averages: oracle_sample >= oracle_domain >= static_best >=
    max(zs, ft), and oracle_sample beats static_best by at least 0.01."""
    ood = ctx.pilot.ood_average
    slacks = (
        ood["oracle_sample"] - ood["oracle_domain"],
        ood["oracle_domain"] - ood["static_best"],
        ood["static_best"] - max(ood["zs"], ood["ft"]),
    )
    margin = ood["oracle_sample"] - ood["static_best"]
    bad = sum(not s >= 0.0 for s in slacks) + int(not margin >= 0.01)
    return [_check("pilot_ordering_chain", 4, bad, 0.01, bad == 0, measured=margin)]


def _clustered_gap_and_count(ctx: CheckContext) -> list[PropertyCheck]:
    """K = 3 clustered merging stays within 0.01 accuracy of dawin_sample on
    every test domain, with exactly K merges."""
    e = ctx.experts
    worst, bad = 0.0, 0
    for name, (dom, *_) in ctx.outputs.items():
        clustered = dawin_clustered_eval(e.arch, e.theta0, e.theta1, dom, k=CLUSTERED_K,
                                         options=ctx.options, cache=ctx.cache)
        gap = abs(accuracy(clustered, dom.y) - accuracy(ctx.dawin[name], dom.y))
        worst = max(worst, gap)
        bad += gap > 0.01 or clustered.merge_count != CLUSTERED_K
    return [_check("clustered_gap_and_count", len(ctx.outputs), bad, 0.01, bad == 0,
                   measured=worst)]


def _batch_size_sweep(ctx: CheckContext) -> list[PropertyCheck]:
    """dawin_sample's OOD-average accuracy spreads by at most 0.01 over batch
    sizes 32..2048 and the whole domain (only the offset statistics depend on
    the batch)."""
    e = ctx.experts
    averages = []
    for bs in (32, 64, 128, 256, 512, 1024, 2048, None):
        opts = replace(ctx.options, batch_size=bs)
        averages.append(float(np.mean([
            accuracy(ctx.dawin[dom.name] if opts == ctx.options
                     else dawin_sample_eval(e.arch, e.theta0, e.theta1, dom, opts, ctx.cache),
                     dom.y)
            for dom in ctx.suite.ood_tests
        ])))
    spread = max(averages) - min(averages)
    return [_check("batch_size_sweep", len(averages), int(spread > 0.01), 0.01, spread <= 0.01,
                   measured=spread)]


def _truetrue_correlation_positive(ctx: CheckContext) -> list[PropertyCheck]:
    """Pooled over every test sample, the TrueTrue split's entropy-ratio vs
    loss-ratio correlation is positive."""
    parts = {key: [] for key in ("h0", "h1", "l0", "l1", "p0", "p1", "y")}
    for dom, p0, p1, h0, h1 in ctx.outputs.values():
        parts["h0"].append(h0)
        parts["h1"].append(h1)
        parts["l0"].append(np.minimum(xentropy(p0, dom.y), XENT_CLIP))
        parts["l1"].append(np.minimum(xentropy(p1, dom.y), XENT_CLIP))
        parts["p0"].append(p0.argmax(axis=1))
        parts["p1"].append(p1.argmax(axis=1))
        parts["y"].append(dom.y)
    cat = {key: np.concatenate(vals) for key, vals in parts.items()}
    corr = ratio_correlation(
        cat["h0"], cat["h1"], cat["l0"], cat["l1"], cat["p0"], cat["p1"], cat["y"]
    )
    tt = corr.get(Split.TRUE_TRUE.value)
    ok = tt is not None and tt > 0.0
    return [_check("truetrue_correlation_positive", 1, int(not ok), 0.0, ok, measured=tt)]


def _offset_changes_coefficients(ctx: CheckContext) -> list[PropertyCheck]:
    """Toggling the offset adjustment moves some coefficient dawin_sample
    chooses on id_test by more than 1e-6."""
    e, dom = ctx.experts, ctx.suite.id_test
    toggled = replace(ctx.options, offset_adjust=not ctx.options.offset_adjust)
    other = dawin_sample_eval(e.arch, e.theta0, e.theta1, dom, toggled, ctx.cache)
    delta = float(np.abs(ctx.dawin[dom.name].chosen - other.chosen).max())
    return [_check("offset_changes_coefficients", dom.n_samples, int(not delta > 1e-6), 1e-6,
                   delta > 1e-6, measured=delta)]


def _class_priors_uniform(ctx: CheckContext) -> list[PropertyCheck]:
    """Every generated domain's class priors are within 0.02 of uniform."""
    c = ctx.suite.spec.class_count
    devs = [float(np.abs(np.bincount(d.y, minlength=c) / d.n_samples - 1.0 / c).max())
            for d in ctx.suite.domains().values()]
    bad = sum(not dev < 0.02 for dev in devs)
    return [_check("class_priors_uniform", len(devs), bad, 0.02, bad == 0, measured=max(devs))]


def _specialist_generalist_asymmetry(ctx: CheckContext) -> list[PropertyCheck]:
    """FT beats ZS on id_test and ZS beats FT on some OOD domain: the gap
    changes sign, which is what makes interpolation interesting."""

    def zs_minus_ft(name):
        dom, p0, p1, _, _ = ctx.outputs[name]
        return float((p0.argmax(axis=1) == dom.y).mean() - (p1.argmax(axis=1) == dom.y).mean())

    id_gap = -zs_minus_ft(ctx.suite.id_test.name)
    flips = [zs_minus_ft(dom.name) for dom in ctx.suite.ood_tests]
    ok = id_gap > 0.0 and any(f > 0.0 for f in flips)
    return [_check("specialist_generalist_asymmetry", 1 + len(flips), int(not ok), 0.0, ok,
                   measured=id_gap)]


def _mtl_diagonal_dominance(ctx: CheckContext) -> list[PropertyCheck]:
    """With task experts: on each task's test split, its own expert gets the
    largest mean coefficient."""
    tasks = ctx.task_outputs
    if not tasks:
        return []
    off_diag = sum(int(coeff_multi(ents).mean(axis=0).argmax() != i)
                   for i, (_, _, ents) in enumerate(tasks))
    return [_check("mtl_diagonal_dominance", len(tasks), off_diag, 0.0, off_diag == 0)]


def _mtl_dynamic_vs_static(ctx: CheckContext) -> list[PropertyCheck]:
    """With task experts: dynamic task arithmetic (K = 1) does not lose to
    static task arithmetic at the same scale 0.3, averaged over the task
    test splits."""
    e = ctx.experts
    if not e.task_experts:
        return []
    params, taus = e.task_params(), e.task_vectors()
    tests = [split.test for split in ctx.suite.mtl_tasks]
    static_theta = combine_task_vectors(e.theta0, 0.3, np.ones(len(params)), taus)
    acc_static = np.mean([
        accuracy(model_eval(e.arch, static_theta, d, "task_arith", ctx.cache), d.y) for d in tests
    ])
    acc_dyn = np.mean([
        accuracy(dawin_task_arith_eval(e.arch, e.theta0, params, taus, d, lambda0=0.3, k=1,
                                       options=ctx.options, cache=ctx.cache), d.y)
        for d in tests
    ])
    ok = acc_dyn >= acc_static
    return [_check("mtl_dynamic_vs_static", len(tests), int(not ok), 0.0, ok,
                   measured=acc_dyn - acc_static)]


def _determinism(ctx: CheckContext) -> list[PropertyCheck]:
    """Four bit-identical repeats: the specialist retrained from the
    generalist with its checkpoint's own config, dawin_sample on id_test run
    again on a fresh ForwardCache, the specialist through a checkpoint file, and a K = 2 mixture
    through JSON."""
    e, ft, dom = ctx.experts, ctx.experts.finetune, ctx.suite.id_train
    config = get_dataclass(TrainConfig, ft.meta, "specialist checkpoint meta", ("config",))
    retrained = train(e.arch, dom.x, dom.y, config, init=e.theta0, dataset_id=dom.name,
                      parent=e.pretrain)
    rerun = dawin_sample_eval(e.arch, e.theta0, e.theta1, ctx.suite.id_test, ctx.options)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(ft, os.path.join(tmp, "ft.ckpt"))
        loaded = load_checkpoint(os.path.join(tmp, "ft.ckpt"))
    model = em_fit(np.random.default_rng(8).beta(3.0, 5.0, size=2000), k=2)
    again = mixture_from_dict(json.loads(json.dumps(mixture_to_dict(model))))
    same = [
        np.array_equal(retrained.payload.values, e.theta1.values),
        np.array_equal(rerun.probs, ctx.dawin[ctx.suite.id_test.name].probs),
        np.array_equal(loaded.payload.values, e.theta1.values)
        and checkpoint_id(loaded) == checkpoint_id(ft) and loaded.meta == ft.meta,
        mixture_to_dict(again) == mixture_to_dict(model)
        and all((a.a, a.b, a.pi) == (b.a, b.b, b.pi)
                for a, b in zip(model.components, again.components)),
    ]
    bad = same.count(False)
    return [_check("determinism", 4, bad, 0.0, bad == 0)]


# Every property check, in the order `dawin suite` runs and prints them. Each
# takes a CheckContext and returns its PropertyChecks, named as its key, except
# that entropy_valley returns entropy_valley_pooled_static,
# entropy_valley_pooled_dawin and entropy_valley[<domain>] per test domain, and
# the mtl_ checks return none without task experts.
CHECKS: dict[str, Callable[[CheckContext], list[PropertyCheck]]] = {
    "coefficient_algebra": _coefficient_algebra,
    "expert_dominance_synthetic": _expert_dominance_synthetic,
    "lemma_expert_dominance_benchmark": _lemma_expert_dominance_benchmark,
    "em_monotone_loglik": _em_monotone_loglik,
    "em_recovery": _em_recovery,
    "em_runtime_50k": _em_runtime_50k,
    "entropy_valley": _entropy_valley,
    "pilot_ordering_chain": _pilot_ordering_chain,
    "clustered_gap_and_count": _clustered_gap_and_count,
    "batch_size_sweep": _batch_size_sweep,
    "truetrue_correlation_positive": _truetrue_correlation_positive,
    "offset_changes_coefficients": _offset_changes_coefficients,
    "class_priors_uniform": _class_priors_uniform,
    "specialist_generalist_asymmetry": _specialist_generalist_asymmetry,
    "mtl_diagonal_dominance": _mtl_diagonal_dominance,
    "mtl_dynamic_vs_static": _mtl_dynamic_vs_static,
    "determinism": _determinism,
}


def run_property_suite(
    suite: BenchmarkSuite,
    experts: ExpertSet | None = None,
    options: MergeOptions = MergeOptions(),
) -> list[PropertyCheck]:
    """Every check in CHECKS, in order, on one shared context; failures are
    data. A batch size too small for the clustered check is a usage error,
    raised before any check runs."""
    if options.batch_size is not None and options.batch_size < CLUSTERED_K:
        raise ValueError(
            f"batch_size {options.batch_size} is below {CLUSTERED_K}, the component count of "
            "the clustered_gap_and_count check"
        )
    ctx = CheckContext(suite, experts or build_experts(suite), options)
    return [check for run in CHECKS.values() for check in run(ctx)]


def failed_checks(checks) -> int:
    return sum(1 for c in checks if not c.passed)
