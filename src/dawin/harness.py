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
from dataclasses import dataclass, field, replace

import numpy as np

from .classifier import MlpArchitecture, TrainConfig, TrainJob, forward_batch, train, train_many
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
from .mixture import em_fit
from .params import Checkpoint, ParamVector, combine_task_vectors, make_task_vector
from .util import atomic_write

SCHEMA_VERSION = 1
HISTOGRAM_BINS = 50
XENT_CLIP = 50.0

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


def build_experts(
    suite: BenchmarkSuite,
    arch: MlpArchitecture | None = None,
    pretrain_config: TrainConfig = PRETRAIN_CONFIG,
    finetune_config: TrainConfig = FINETUNE_CONFIG,
    with_tasks: bool = True,
) -> ExpertSet:
    """Train the generalist on the pretrain mix, then, in one lockstep call,
    the specialist from it on id_train and one expert per task split (each
    from the generalist)."""
    arch = arch or default_architecture(suite)
    zs = train(
        arch, suite.pretrain_mix.x, suite.pretrain_mix.y, pretrain_config,
        dataset_id=suite.pretrain_mix.name,
    )
    splits = [(suite.id_train, finetune_config)]
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
            "nondeterministic_fields": ["wall_ms"],
            "config": self.config,
            "rows": self.rows,
            "ood_average": self.ood_average,
            "splits": self.splits,
            "correlations": self.correlations,
            "histograms": self.histograms,
            "entropy_bars": self.entropy_bars,
            "property_checks": [vars(c) for c in self.property_checks],
        }


def report_from_dict(data: dict) -> EvalReport:
    if "schema_version" not in data:
        raise DataFormatError("report is missing the schema_version field")
    report = EvalReport(
        suite_seed=int(data["suite_seed"]),
        schema_version=int(data["schema_version"]),
        config=dict(data.get("config", {})),
        rows=list(data.get("rows", [])),
        ood_average=dict(data.get("ood_average", {})),
        splits=dict(data.get("splits", {})),
        correlations=dict(data.get("correlations", {})),
        histograms=dict(data.get("histograms", {})),
        entropy_bars=dict(data.get("entropy_bars", {})),
    )
    report.property_checks = [PropertyCheck(**c) for c in data.get("property_checks", [])]
    return report


def report_signature(report: EvalReport) -> dict:
    """The report dict with every non-deterministic field stripped."""

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "wall_ms"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return strip(report.to_dict())


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid report JSON ({exc})") from exc
    return report_from_dict(data)


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
    domain, with the best static coefficient picked on ID validation."""
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
        report.add_result(model_eval(arch, t0, dom, "zs"), dom.y)
        report.add_result(model_eval(arch, t1, dom, "ft"), dom.y)
        static = static_eval(arch, t0, t1, lam_star, dom, name="static_best")
        report.add_result(static, dom.y, extras={"lam": lam_star})
        domain_best = oracle_domain_search(arch, t0, t1, dom, grid)
        report.add_result(domain_best, dom.y, extras={"best_lam": domain_best.extras["best_lam"]})
        report.add_result(oracle_sample_eval(arch, t0, t1, dom), dom.y)
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
    defaults."""
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
    for strategy in strategies:
        entry = STRATEGIES[strategy.kind]
        extras = {"lambda0": strategy.lambda0} if entry.on_tasks else None
        for dom in entry.domains(suite):
            result = entry.run(strategy, experts, suite, dom, options)
            report.add_result(result, dom.y, extras=extras)
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
    pooled over the whole test population."""
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
        p0 = forward_batch(arch, t0, dom.x)
        p1 = forward_batch(arch, t1, dom.x)
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

        wa = static_eval(arch, t0, t1, 0.5, dom, name="wa_half")
        dw = dawin_sample_eval(arch, t0, t1, dom, options)
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


def run_property_suite(
    suite: BenchmarkSuite,
    experts: ExpertSet | None = None,
    options: MergeOptions = MergeOptions(),
    rng_seed: int = 0,
) -> list[PropertyCheck]:
    """Every cross-module invariant as a named check; failures are data."""
    experts = experts or build_experts(suite)
    arch, t0, t1 = experts.arch, experts.theta0, experts.theta1
    rng = np.random.default_rng(rng_seed)
    checks: list[PropertyCheck] = []

    # Coefficient algebra on random entropies: simplex membership, pair symmetry,
    # shift invariance, and the sigmoid identity.
    n = 100_000
    h = rng.uniform(0.0, np.log(suite.spec.class_count), size=(n, 2))
    lam = coeff_pair(h[:, 0], h[:, 1])
    lam_swap = coeff_pair(h[:, 1], h[:, 0])
    shift = rng.uniform(0.0, 2.0, size=n)  # entropies stay non-negative
    lam_shift = coeff_pair(h[:, 0] + shift, h[:, 1] + shift)
    sigmoid = 1.0 / (1.0 + np.exp(-(h[:, 0] - h[:, 1])))
    err = np.maximum.reduce(
        [
            np.abs(lam + lam_swap - 1.0),
            np.abs(lam_shift - lam),
            np.abs(lam - sigmoid),
            np.maximum(-lam, lam - 1.0),
        ]
    )
    checks.append(
        _check("coefficient_algebra", n, int((err > 1e-12).sum()), 1e-12, (err <= 1e-12).all(),
               measured=float(err.max()))
    )

    # Expert dominance: synthetic entropy configurations with planted expert sets.
    per_m = 25_000
    total_checked = total_violations = 0
    for m in (2, 3, 4, 5):
        hs = np.sort(rng.uniform(0.0, 3.0, size=(per_m, m)), axis=1)
        sizes = rng.integers(1, m, size=per_m)
        perms = np.argsort(rng.random((per_m, m)), axis=1)
        shuffled = np.take_along_axis(hs, perms, axis=1)
        expert_sets = []
        for i in range(per_m):
            order = np.argsort(shuffled[i], kind="stable")
            expert_sets.append(tuple(order[: sizes[i]]))
        checked, violations = _lemma1_violations(shuffled, expert_sets)
        total_checked += checked
        total_violations += violations
    checks.append(
        _check("expert_dominance_synthetic", total_checked, total_violations,
               1e-12, total_violations == 0)
    )

    # Expert dominance on benchmark samples: J = the models that answer correctly.
    checked = violations = 0
    for dom in suite.test_domains:
        probs = [forward_batch(arch, t0, dom.x), forward_batch(arch, t1, dom.x)]
        ents = np.stack([entropy(p) for p in probs], axis=1)
        c, v = _lemma1_violations(ents, _correct_expert_sets(probs, dom.y))
        checked += c
        violations += v
    if experts.task_experts:
        params = experts.task_params()
        for split in suite.mtl_tasks:
            probs = [forward_batch(arch, p, split.test.x) for p in params]
            ents = np.stack([entropy(p) for p in probs], axis=1)
            c, v = _lemma1_violations(ents, _correct_expert_sets(probs, split.test.y))
            checked += c
            violations += v
    checks.append(
        _check("lemma_expert_dominance_benchmark", checked, violations, 1e-12,
               violations == 0)
    )

    # EM log-likelihood monotonicity over random datasets.
    decreasing = 0
    datasets = 50
    for i in range(datasets):
        k_true = int(rng.integers(1, 4))
        parts = []
        for _ in range(k_true):
            a, b = rng.uniform(0.8, 12.0, size=2)
            parts.append(rng.beta(a, b, size=rng.integers(120, 400)))
        values = np.clip(np.concatenate(parts), 1e-4, 1.0 - 1e-4)
        model = em_fit(values, k=int(rng.integers(1, 5)), seed=int(rng.integers(2**31)))
        trace = np.asarray(model.loglik_trace)
        decreasing += int((np.diff(trace) < -1e-9).sum())
    checks.append(_check("em_monotone_loglik", datasets, decreasing, 1e-9, decreasing == 0))

    # Domain cache for the benchmark-level checks below.
    cache = {}
    for dom in suite.test_domains:
        p0 = forward_batch(arch, t0, dom.x)
        p1 = forward_batch(arch, t1, dom.x)
        cache[dom.name] = (dom, p0, p1, entropy(p0), entropy(p1))

    # Entropy valley, pooled population: some grid coefficient must not be
    # blunter than the sharper endpoint, and dawin_sample must match it.
    h_ends = []
    static_curve = {g: [] for g in DEFAULT_GRID}
    h_dawin = []
    for dom, p0, p1, h0, h1 in cache.values():
        h_ends.append((h0, h1))
        for g in DEFAULT_GRID:
            static_curve[g].append(entropy(static_eval(arch, t0, t1, g, dom).probs))
        h_dawin.append(entropy(dawin_sample_eval(arch, t0, t1, dom, options).probs))
    pooled_zs = float(np.concatenate([h for h, _ in h_ends]).mean())
    pooled_ft = float(np.concatenate([h for _, h in h_ends]).mean())
    pooled_curve = {g: float(np.concatenate(v).mean()) for g, v in static_curve.items()}
    pooled_dw = float(np.concatenate(h_dawin).mean())
    best_g = min(pooled_curve, key=pooled_curve.get)
    ok_i = pooled_curve[best_g] <= min(pooled_zs, pooled_ft)
    ok_ii = pooled_dw <= pooled_curve[best_g]
    checks.append(
        _check("entropy_valley_pooled_static", len(DEFAULT_GRID), int(not ok_i), 0.0, ok_i,
               measured=pooled_curve[best_g] - min(pooled_zs, pooled_ft))
    )
    checks.append(
        _check("entropy_valley_pooled_dawin", 1, int(not ok_ii), 0.0, ok_ii,
               measured=pooled_dw - pooled_curve[best_g])
    )

    # Pilot ordering on the OOD average.
    pilot = run_pilot(suite, experts)
    ood = pilot.ood_average
    chain_ok = (
        ood["oracle_sample"] >= ood["oracle_domain"] >= ood["static_best"]
        >= max(ood["zs"], ood["ft"])
    )
    checks.append(
        _check("pilot_ordering_chain", 4, int(not chain_ok), 0.0, chain_ok,
               measured=ood["oracle_sample"] - ood["static_best"])
    )

    # Clustered compression stays within a point of exact per-sample merging.
    worst_gap = 0.0
    bad = 0
    k = 3
    for dom, p0, p1, h0, h1 in cache.values():
        exact = accuracy(dawin_sample_eval(arch, t0, t1, dom, options), dom.y)
        clustered = dawin_clustered_eval(arch, t0, t1, dom, k=k, options=options)
        gap = abs(accuracy(clustered, dom.y) - exact)
        worst_gap = max(worst_gap, gap)
        if gap > 0.01 or clustered.merge_count != k:
            bad += 1
    checks.append(
        _check("clustered_gap_and_count", len(cache), bad, 0.01, bad == 0,
               measured=worst_gap)
    )

    # Batch-size sweep of the OOD average (the offset statistics are the only
    # batch-dependent piece).
    ood_names = {d.name for d in suite.ood_tests}
    sweep_vals = []
    for bs in (32, 64, 128, 256, 512, 1024, 2048, None):
        opts = replace(options, batch_size=bs)
        accs = [
            accuracy(dawin_sample_eval(arch, t0, t1, dom, opts), dom.y)
            for dom, *_ in cache.values()
            if dom.name in ood_names
        ]
        sweep_vals.append(float(np.mean(accs)))
    spread = max(sweep_vals) - min(sweep_vals)
    checks.append(
        _check("batch_size_sweep", len(sweep_vals), int(spread > 0.01), 0.01,
               spread <= 0.01, measured=spread)
    )

    # Correlation sign on the TrueTrue split, pooled over all test samples.
    parts = {key: [] for key in ("h0", "h1", "l0", "l1", "p0", "p1", "y")}
    for dom, p0, p1, h0, h1 in cache.values():
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
    ok_tt = tt is not None and tt > 0.0
    checks.append(_check("truetrue_correlation_positive", 1, int(not ok_tt), 0.0,
                         ok_tt, measured=tt))

    # Offset adjustment must actually move the coefficients.
    dom, p0, p1, h0, h1 = cache[suite.id_test.name]
    lam_plain = np.asarray(coeff_pair(h0, h1))
    lam_offset, _ = coeff_pair_offset(h0, h1)
    delta = float(np.abs(lam_plain - lam_offset).max())
    checks.append(
        _check("offset_changes_coefficients", dom.n_samples, int(delta == 0.0), 0.0,
               delta > 0.0, measured=delta)
    )

    # Class priors stay uniform in every generated domain.
    bad_domains = 0
    domains = suite.domains()
    for name, dom in domains.items():
        counts = np.bincount(dom.y, minlength=suite.spec.class_count)
        if np.abs(counts / dom.n_samples - 1.0 / suite.spec.class_count).max() > 0.02:
            bad_domains += 1
    checks.append(
        _check("class_priors_uniform", len(domains), bad_domains, 0.02, bad_domains == 0)
    )

    # Specialist/generalist accuracy gaps flip sign between ID and some OOD
    # domain; this asymmetry is what makes interpolation interesting.
    id_gap = accuracy(model_eval(arch, t1, suite.id_test, "ft"), suite.id_test.y) - accuracy(
        model_eval(arch, t0, suite.id_test, "zs"), suite.id_test.y
    )
    flips = []
    for dom in suite.ood_tests:
        zs_acc = accuracy(model_eval(arch, t0, dom, "zs"), dom.y)
        ft_acc = accuracy(model_eval(arch, t1, dom, "ft"), dom.y)
        flips.append(zs_acc - ft_acc)
    ok_asym = id_gap > 0.0 and any(f > 0.0 for f in flips)
    checks.append(
        _check("specialist_generalist_asymmetry", 1 + len(flips), int(not ok_asym),
               0.0, ok_asym, measured=id_gap)
    )

    # MTL block: diagonal dominance of the mean coefficient matrix, and the
    # dynamic rule not losing to static task arithmetic at the same scale.
    if experts.task_experts:
        params = experts.task_params()
        taus = experts.task_vectors()
        m = len(params)
        matrix = np.empty((len(suite.mtl_tasks), m))
        for i, split in enumerate(suite.mtl_tasks):
            ents = np.stack(
                [entropy(forward_batch(arch, p, split.test.x)) for p in params], axis=1
            )
            matrix[i] = coeff_multi(ents).mean(axis=0)
        off_diag = sum(int(matrix[i].argmax() != i) for i in range(len(suite.mtl_tasks)))
        checks.append(
            _check("mtl_diagonal_dominance", len(suite.mtl_tasks), off_diag, 0.0,
                   off_diag == 0)
        )
        static_theta = combine_task_vectors(t0, 0.3, np.ones(m), taus)
        acc_static = float(
            np.mean(
                [
                    accuracy(model_eval(arch, static_theta, s.test, "task_arith"), s.test.y)
                    for s in suite.mtl_tasks
                ]
            )
        )
        acc_dyn = float(
            np.mean(
                [
                    accuracy(
                        dawin_task_arith_eval(
                            arch, t0, params, taus, s.test, lambda0=0.3, k=1,
                            options=options,
                        ),
                        s.test.y,
                    )
                    for s in suite.mtl_tasks
                ]
            )
        )
        ok_mtl = acc_dyn >= acc_static
        checks.append(
            _check("mtl_dynamic_vs_static", len(suite.mtl_tasks), int(not ok_mtl), 0.0,
                   ok_mtl, measured=acc_dyn - acc_static)
        )

    # Determinism: retraining the specialist and re-running dawin_sample must
    # reproduce bit-identical outputs.
    ft_again = train(
        arch, suite.id_train.x, suite.id_train.y, FINETUNE_CONFIG,
        init=experts.pretrain.payload, dataset_id=suite.id_train.name,
        parent=experts.pretrain,
    )
    same_train = bool(np.array_equal(ft_again.payload.values, t1.values))
    r1 = dawin_sample_eval(arch, t0, t1, suite.id_test, options)
    r2 = dawin_sample_eval(arch, t0, t1, suite.id_test, options)
    same_eval = bool(np.array_equal(r1.probs, r2.probs))
    checks.append(
        _check("determinism", 2, int(not same_train) + int(not same_eval), 0.0,
               same_train and same_eval)
    )
    return checks


def failed_checks(checks) -> int:
    return sum(1 for c in checks if not c.passed)
