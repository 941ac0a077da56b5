"""The layer map: which dawin names a traced run wraps, and how the spans
they record become the per-layer metrics.

Each dawin module imports its collaborators by name (``from .mixture import
em_fit``), so a call is intercepted by rebinding the name in the *caller's*
module. Names the benchmark itself calls (``databench.generate``,
``params.save_checkpoint``, ``merge.dawin_task_arith_eval``) are wrapped in
their own module.

``merge.<kind>.*`` covers every call into a merge function attributed to
that kind: the StrategyResult's name for the ``*_eval`` functions, and the
function's own name for the ``wise_sweep``, ``uniform_soup`` and
``greedy_soup`` helpers that build a kind's model.

Per-layer metrics are totals for one pass, taken as the median over the
traced passes. Training runs in set-up for every workload but ``reproduce``,
so the ``classifier.train_ms.*`` and SGD metrics are totals for one build of
the experts: the traced set-up where set-up trains, else the passes.
"""
from __future__ import annotations

import math
import os
import statistics

from dawin import mixture
from spans import Span, Target, self_ms

# Every strategy kind the program offers; named here rather than read from
# dawin so the benchmark keeps reporting all of them across refactors.
KINDS = (
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

# StrategyResult names that are a kind under another label: the pilot's
# best static merge and the analysis' midpoint merge are static merges.
_RESULT_KIND = {"static_best": "static", "wa_half": "static"}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _forward_attrs(args, kwargs, result):
    arch = _arg(args, kwargs, 0, "arch")
    rows = int(result.shape[0])
    flops = sum(2 * fan_in * fan_out for fan_in, fan_out in arch.layer_shapes)
    return {"rows": rows, "mflop": rows * flops / 1e6}


def _train_attrs(args, kwargs, result):
    n = len(_arg(args, kwargs, 2, "y"))
    config = _arg(args, kwargs, 3, "config")
    dataset = str(_arg(args, kwargs, 5, "dataset_id", ""))
    if dataset == "pretrain_mix":
        role = "pretrain"
    elif dataset == "id_train":
        role = "finetune"
    else:
        role = "task"
    steps = config.epochs * math.ceil(n / config.batch_size) if config else 0
    return {"role": role, "steps": steps}


def _em_attrs(args, kwargs, model):
    """Capped: stopped at max_iter unconverged. Rollback: converged although
    the last two log-likelihoods differ by at least tol, i.e. the fit stopped
    because an M-step lowered the likelihood."""
    tol = float(_arg(args, kwargs, 2, "tol", mixture.DEFAULT_TOL))
    max_iter = int(_arg(args, kwargs, 3, "max_iter", mixture.DEFAULT_MAX_ITER))
    trace = model.loglik_trace
    gap_open = len(trace) < 2 or abs(trace[-1] - trace[-2]) >= tol
    return {
        "iterations": int(model.iterations),
        "capped": int(not model.converged and model.iterations >= max_iter),
        "rollbacks": int(model.converged and gap_open),
    }


def _iter_attrs(args, kwargs, model):
    return {"iterations": int(model.iterations)}


def _strategy_attrs(args, kwargs, result):
    return {
        "kind": _RESULT_KIND.get(result.strategy, result.strategy),
        "merges": int(result.merge_count),
        "rows": int(result.n),
    }


def _helper_attrs(kind):
    return lambda args, kwargs, result: {"kind": kind}


def _csv_attrs(args, kwargs, result):
    domains = os.path.join(_arg(args, kwargs, 1, "directory"), "domains")
    return {"csv_bytes": sum(e.stat().st_size for e in os.scandir(domains))}


_STRATEGY_FNS = (
    "model_eval",
    "static_eval",
    "dawin_sample_eval",
    "dawin_clustered_eval",
    "dawin_task_arith_eval",
    "dcs_eval",
    "doe_eval",
    "oracle_sample_eval",
    "oracle_domain_search",
)
_HELPER_FNS = ("wise_sweep", "uniform_soup", "greedy_soup")


def _targets() -> list[Target]:
    t = [
        Target("dawin.databench", "generate", "databench.generate"),
        Target("dawin.databench", "save_suite", "databench.save_suite", _csv_attrs),
        Target("dawin.databench", "load_suite", "databench.load_suite"),
        Target("dawin.harness", "train", "classifier.train", _train_attrs),
        Target("dawin.classifier", "logits_batch", "classifier.forward", _forward_attrs),
        Target("dawin.params", "save_checkpoint", "params.checkpoint_io"),
        Target("dawin.params", "load_checkpoint", "params.checkpoint_io"),
        Target("dawin.merge", "interpolate_pair", "params.interpolate"),
        Target("dawin.merge", "em_fit", "mixture.em", _em_attrs),
        Target("dawin.harness", "em_fit", "mixture.em", _em_attrs),
        Target("dawin.merge", "dirichlet_em_fit", "mixture.dirichlet", _iter_attrs),
        Target("dawin.merge", "infer_membership", "mixture.membership"),
        Target("dawin.merge", "dirichlet_membership", "mixture.membership"),
        Target("dawin.harness", "run_pilot", "harness.pilot"),
        Target("dawin.harness", "run_main", "harness.main"),
        Target("dawin.harness", "run_analysis", "harness.analysis"),
        Target("dawin.harness", "emit_report", "harness.emit"),
        Target("dawin.harness", "run_property_suite", "harness.property_suite"),
    ]
    for module in ("dawin.merge", "dawin.harness"):
        t.append(Target(module, "combine_task_vectors", "params.combine"))
        t.append(Target(module, "entropy", "expertise.entropy"))
        for fn in ("coeff_pair", "coeff_pair_offset", "coeff_multi", "oracle_coeff"):
            t.append(Target(module, fn, "expertise.coeff"))
        for fn in _STRATEGY_FNS:
            t.append(Target(module, fn, f"merge.{fn}", _strategy_attrs))
        for fn in _HELPER_FNS:
            t.append(Target(module, fn, f"merge.{fn}", _helper_attrs(fn)))
    return t


TARGETS = _targets()


def _scope_totals(pairs: list[tuple[Span, float]]) -> dict[str, float]:
    """Calls, ms and self ms per span name and per merge kind, plus the sum
    of every numeric attribute, for the (span, self ms) pairs of one scope."""
    tot: dict[str, float] = {}

    def add(key, value):
        tot[key] = tot.get(key, 0.0) + value

    for span, own in pairs:
        prefixes = [span.name]
        attrs = span.attrs or {}
        if span.name.startswith("merge.") and attrs.get("kind") in KINDS:
            prefixes.append(f"kind.{attrs['kind']}")
        if span.name == "classifier.train":
            prefixes.append(f"classifier.train.{attrs['role']}")
        for p in prefixes:
            add(f"{p}.calls", 1)
            add(f"{p}.ms", span.ms)
            add(f"{p}.self_ms", own)
            add(f"{p}.errors", span.error is not None)
            for key, value in attrs.items():
                if isinstance(value, (int, float)):
                    add(f"{p}.{key}", value)
    return tot


def _pass_metrics(tot: dict[str, float], param_count: int) -> dict[str, float]:
    g = lambda key: tot.get(key, 0.0)  # noqa: E731
    merges = sum(g(f"merge.{fn}.merges") for fn in _STRATEGY_FNS)
    forward_calls = g("classifier.forward.calls")
    em_iterations = g("mixture.em.iterations")
    m = {
        "databench.generate_ms": g("databench.generate.ms"),
        "databench.save_suite_ms": g("databench.save_suite.ms"),
        "databench.load_suite_ms": g("databench.load_suite.ms"),
        "databench.csv_mb": g("databench.save_suite.csv_bytes") / 1e6,
        "classifier.forward_calls": forward_calls,
        "classifier.forward_rows": g("classifier.forward.rows"),
        "classifier.rows_per_forward": (
            g("classifier.forward.rows") / forward_calls if forward_calls else 0.0
        ),
        "classifier.forward_ms": g("classifier.forward.ms"),
        "classifier.forward_mflop": g("classifier.forward.mflop"),
        "params.merges": merges,
        "params.merge_mb": merges * param_count * 8 * 3 / 1e6,
        "params.interpolate_calls": g("params.interpolate.calls"),
        "params.interpolate_ms": g("params.interpolate.ms"),
        "params.combine_calls": g("params.combine.calls"),
        "params.combine_ms": g("params.combine.ms"),
        "params.checkpoint_io_ms": g("params.checkpoint_io.ms"),
        "expertise.entropy_calls": g("expertise.entropy.calls"),
        "expertise.entropy_ms": g("expertise.entropy.ms"),
        "expertise.coeff_ms": g("expertise.coeff.ms"),
        "mixture.em_fits": g("mixture.em.calls"),
        "mixture.em_iterations": em_iterations,
        "mixture.em_capped": g("mixture.em.capped"),
        "mixture.em_rollbacks": g("mixture.em.rollbacks"),
        "mixture.em_ms": g("mixture.em.ms"),
        "mixture.em_us_per_iter": (
            g("mixture.em.ms") * 1e3 / em_iterations if em_iterations else 0.0
        ),
        "mixture.dirichlet_fits": g("mixture.dirichlet.calls"),
        "mixture.dirichlet_iterations": g("mixture.dirichlet.iterations"),
        "mixture.dirichlet_ms": g("mixture.dirichlet.ms"),
        "mixture.membership_ms": g("mixture.membership.ms"),
    }
    for kind in KINDS:
        for stat in ("calls", "ms", "self_ms"):
            m[f"merge.{kind}.{stat}"] = g(f"kind.{kind}.{stat}")
    for stage in ("pilot", "main", "analysis", "emit"):
        m[f"harness.{stage}_ms"] = g(f"harness.{stage}.ms")
    return m


def _train_metrics(tot: dict[str, float]) -> dict[str, float]:
    steps = tot.get("classifier.train.steps", 0.0)
    train_ms = tot.get("classifier.train.ms", 0.0)
    m = {
        f"classifier.train_ms.{role}": tot.get(f"classifier.train.{role}.ms", 0.0)
        for role in ("pretrain", "finetune", "task")
    }
    m["classifier.sgd_steps"] = steps
    m["classifier.sgd_step_us"] = train_ms * 1e3 / steps if steps else 0.0
    return m


def _median_each(rows: list[dict[str, float]]) -> dict[str, float]:
    if not rows:
        return {}
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


# Printed by the traced check workload only. check is not gated, so these
# are not in BENCHMARK.json; the units live here.
PROPERTY_SUITE_UNITS = {
    "harness.property_suite_ms": "ms",
    "harness.property_suite.self_ms": "ms",
    "harness.property_suite_crashes": "count",
}


def property_suite_metrics(spans: list[Span], pass_scopes: list[str]) -> dict[str, float]:
    """Time per pass (median over the traced passes) of the property suite,
    and the number of its calls in the whole run that raised."""
    pairs = [(s, own) for s, own in zip(spans, self_ms(spans)) if s.name == "harness.property_suite"]
    per_pass = [
        {
            "harness.property_suite_ms": sum(s.ms for s, _ in pairs if s.scope == scope),
            "harness.property_suite.self_ms": sum(own for s, own in pairs if s.scope == scope),
        }
        for scope in pass_scopes
    ]
    m = _median_each(per_pass)
    m["harness.property_suite_crashes"] = sum(s.error is not None for s, _ in pairs)
    return m


def layer_metrics(
    spans: list[Span], pass_scopes: list[str], param_count: int
) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run (see module doc)."""
    by_scope: dict[str, list[tuple[Span, float]]] = {}
    for span, own in zip(spans, self_ms(spans)):
        by_scope.setdefault(span.scope, []).append((span, own))
    totals = {scope: _scope_totals(pairs) for scope, pairs in by_scope.items()}
    empty: dict[str, float] = {}
    metrics = _median_each(
        [_pass_metrics(totals.get(s, empty), param_count) for s in pass_scopes]
    )
    # Train metrics describe one build of the experts: the traced set-up when
    # set-up trains (check's passes also retrain one expert), else each pass.
    scopes = ["setup"] if totals.get("setup", empty).get("classifier.train.calls") else pass_scopes
    metrics.update(_median_each([_train_metrics(totals.get(s, empty)) for s in scopes]))
    return metrics
