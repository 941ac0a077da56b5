import dataclasses
import json
import re

import numpy as np
import pytest

from dawin import classifier, harness, merge
from dawin.errors import DataFormatError
from dawin.harness import (
    EvalReport,
    HISTOGRAM_BINS,
    PropertyCheck,
    emit_report,
    failed_checks,
    load_report,
    report_from_dict,
    report_signature,
    run_analysis,
    run_main,
    run_pilot,
)
from dawin.merge import (
    DEFAULT_GRID,
    STRATEGIES,
    MergeStrategy,
    model_eval,
)

import freeze_reference

PILOT_NAMES = {"zs", "ft", "static_best", "oracle_domain", "oracle_sample"}


def test_seed0_checkpoints_match_golden_ledger(experts0, golden0):
    assert freeze_reference.checkpoint_hashes(experts0) == golden0["checkpoints"]


def test_seed0_decisions_match_golden_ledger(pilot0, main0, analysis0, golden0):
    got = freeze_reference.decision_hashes(pilot0, main0, analysis0)
    assert got == {name: golden0["decisions"][name] for name in got}


def test_pilot_covers_every_strategy_and_domain(suite0, pilot0):
    domains = {d.name for d in suite0.test_domains}
    assert len(pilot0.rows) == len(PILOT_NAMES) * len(domains)
    seen = {(r["strategy"], r["domain"]) for r in pilot0.rows}
    assert seen == {(s, d) for s in PILOT_NAMES for d in domains}


def test_pilot_endpoint_rows_match_direct_eval(suite0, experts0, pilot0):
    dom = suite0.id_test
    zs = model_eval(experts0.arch, experts0.theta0, dom, "zs")
    ft = model_eval(experts0.arch, experts0.theta1, dom, "ft")
    by_key = {(r["strategy"], r["domain"]): r["accuracy"] for r in pilot0.rows}
    assert by_key[("zs", dom.name)] == (zs.preds == dom.y).mean()
    assert by_key[("ft", dom.name)] == (ft.preds == dom.y).mean()


def test_pilot_matches_frozen_reference(suite0, experts0, pilot0, reference0):
    assert freeze_reference.reference(suite0, experts0, pilot0) == reference0


def test_report_json_round_trip(pilot0, tmp_path):
    path = tmp_path / "pilot.json"
    emit_report(pilot0, path)
    loaded = load_report(path)
    assert report_signature(loaded) == report_signature(pilot0)
    # wall clock is the one field allowed to drift, so signatures strip it
    for row in report_signature(loaded)["rows"]:
        assert "wall_ms" not in row
    assert all("wall_ms" in row for row in loaded.rows)


def test_report_csv_shape(pilot0, tmp_path):
    path = tmp_path / "pilot.csv"
    emit_report(pilot0, path, format="csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "strategy,domain,accuracy,mean_entropy,merge_count,wall_ms"
    assert len(lines) == len(pilot0.rows) + 1


def test_report_schema_version_round_trip(pilot0):
    data = pilot0.to_dict()
    assert data["schema_version"] == 1
    assert data["nondeterministic_fields"] == ["wall_ms"]
    again = report_from_dict(data)
    assert again.schema_version == 1


def test_report_signature_strips_every_declared_field(monkeypatch):
    report = EvalReport(
        suite_seed=0,
        config={"lag": 1, "nested": {"lag": 2, "keep": 3}},
        rows=[{"strategy": "zs", "lag": 4, "wall_ms": 5.0, "extras": {"lag": [6], "k": 3}}],
    )
    kept = report_signature(report)
    assert kept["config"] == report.config and kept["rows"][0]["extras"]["lag"] == [6]
    assert "wall_ms" not in kept["rows"][0]
    monkeypatch.setattr(harness, "NONDETERMINISTIC_FIELDS", ("wall_ms", "lag"))
    sig = report_signature(report)
    assert sig["nondeterministic_fields"] == ["wall_ms", "lag"]
    assert sig["config"] == {"nested": {"keep": 3}}
    assert sig["rows"] == [{"strategy": "zs", "extras": {"k": 3}}]


def test_report_missing_schema_version():
    with pytest.raises(DataFormatError):
        report_from_dict({"suite_seed": 0})


@pytest.mark.parametrize("change", [
    {"rows": 5}, {"config": [1]}, {"suite_seed": "x"}, {"property_checks": [{"name": "c"}]},
], ids=["rows_int", "config_list", "seed_str", "check_fields_missing"])
def test_report_of_the_wrong_shape_names_its_file(tmp_path, change):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({**EvalReport(suite_seed=0).to_dict(), **change}))
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: malformed report: "):
        load_report(path)


def test_property_check_validation():
    with pytest.raises(ValueError):
        PropertyCheck(name="x", samples=5, violations=6, tolerance=0.0, verdict="pass")
    with pytest.raises(ValueError):
        PropertyCheck(name="x", samples=5, violations=0, tolerance=0.0, verdict="maybe")


def test_failed_checks_counts_fail_verdicts():
    checks = [
        PropertyCheck(name="a", samples=10, violations=0, tolerance=0.0, verdict="pass"),
        PropertyCheck(name="b", samples=10, violations=3, tolerance=0.0, verdict="fail"),
        PropertyCheck(name="c", samples=10, violations=1, tolerance=0.0, verdict="fail"),
    ]
    assert failed_checks(checks) == 2
    assert failed_checks([]) == 0


def test_add_histogram_bins_and_range():
    report = EvalReport(suite_seed=0)
    rng = np.random.default_rng(5)
    values = rng.uniform(size=333)
    report.add_histogram("lam", values)
    hist = report.histograms["lam"]
    assert len(hist["counts"]) == HISTOGRAM_BINS
    assert sum(hist["counts"]) == 333
    with pytest.raises(ValueError):
        report.add_histogram("bad", np.array([0.2, 1.5]))


def test_add_result_rejects_shape_mismatch(suite0, experts0):
    report = EvalReport(suite_seed=0)
    out = model_eval(experts0.arch, experts0.theta0, suite0.id_test, "zs")
    with pytest.raises(ValueError):
        report.add_result(out, suite0.id_test.y[:-1])


def test_offset_toggle_changes_coefficients(checks0):
    check = checks0["offset_changes_coefficients"]
    assert check.passed, check


def test_pilot_signature_is_reproducible(suite0, experts0, pilot0):
    again = run_pilot(suite0, experts0)
    assert report_signature(again) == report_signature(pilot0)


def test_merge_strategy_takes_kind_defaults():
    for kind in STRATEGIES:
        strat = MergeStrategy(kind)
        assert strat.kind == kind
        assert (strat.lam, strat.grid, strat.lambda0) == (0.5, DEFAULT_GRID, 0.3)
    assert MergeStrategy("dawin_clustered").k == 3
    assert MergeStrategy("dawin_task_arith").k == 1
    assert MergeStrategy("dawin_task_arith", k=2).k == 2
    with pytest.raises(ValueError):
        MergeStrategy("telepathy")


def test_run_main_finds_strategy_functions_when_it_runs(suite0, experts0, monkeypatch):
    # a runner that held model_eval itself would miss a rebinding of the name
    real, names = merge.model_eval, []

    def spy(*args, **kwargs):
        names.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(merge, "model_eval", spy)
    run_main(suite0, ["zs", "uniform_soup"], experts=experts0)
    # run_main evaluates domain by domain
    assert names == ["zs", "uniform_soup"] * len(suite0.test_domains)


def test_run_main_dispatches_every_pair_kind(suite0, main0):
    kinds = [k for k in STRATEGIES if k != "dawin_task_arith"]
    report = main0
    task_rows = [r for r in report.rows if r["strategy"] == "dawin_task_arith"]
    # the multi-task rule runs on the task test splits with K=1: one merge each
    assert [r["domain"] for r in task_rows] == [s.test.name for s in suite0.mtl_tasks]
    assert all(r["merge_count"] == 1 for r in task_rows)
    pair_rows = [r for r in report.rows if r["strategy"] != "dawin_task_arith"]
    assert len(pair_rows) == len(kinds) * len(suite0.test_domains)
    assert set(report.ood_average) == set(kinds)
    n = suite0.id_test.n_samples
    expect_merges = {
        "zs": 0, "ft": 0, "uniform_soup": 0, "greedy_soup": 0, "dcs": 0, "doe": 0,
        "static": 1, "wise_sweep": 1, "dawin_clustered": 3,
        "dawin_sample": n, "oracle_sample": n, "oracle_domain": 9,
    }
    for row in pair_rows:
        assert 0.0 <= row["accuracy"] <= 1.0
        if row["domain"] == suite0.id_test.name:
            assert row["merge_count"] == expect_merges[row["strategy"]], row["strategy"]


def _same_extras(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) if isinstance(a[k], np.ndarray) else a[k] == b[k] for k in a
    )


@pytest.mark.parametrize(
    "options",
    [merge.MergeOptions(), merge.MergeOptions(batch_size=64),
     merge.MergeOptions(temperatures=(1.5, 0.7))],
    ids=["whole", "batch64", "temperatures"],
)
def test_shared_forwards_change_no_output(suite0, experts0, options, monkeypatch):
    # Each kind's results inside one run_main, where the strategies on a
    # domain share a ForwardCache, equal the kind run alone on a cache that
    # keeps nothing, so that no forward is served from another: not across
    # kinds, and not a T != 1 or chunk forward from a whole-domain T = 1 one.
    # Two temperatures fit the ZS/FT pair, not the four task experts.
    kinds = [k for k in STRATEGIES if options.temperatures is None or not STRATEGIES[k].on_tasks]
    shared = []
    for kind in kinds:
        entry = STRATEGIES[kind]

        def recording(*args, run=entry.run):
            shared.append(run(*args))
            return shared[-1]

        monkeypatch.setitem(STRATEGIES, kind, dataclasses.replace(entry, run=recording))
    report = run_main(suite0, kinds, options, experts=experts0)
    monkeypatch.undo()

    def keep_nothing(self, arch, model, domain, temperature=1.0, build=None):
        return classifier.forward_batch(arch, model if build is None else build(), domain.x,
                                        temperature)

    monkeypatch.setattr(merge.ForwardCache, "probs", keep_nothing)
    alone, alone_report = [], EvalReport(suite_seed=suite0.seed)
    for kind in kinds:
        strategy, entry = MergeStrategy(kind), STRATEGIES[kind]
        for dom in entry.domains(suite0):
            result = entry.run(strategy, experts0, suite0, dom, options, merge.ForwardCache())
            alone.append(result)
            extras = {"lambda0": strategy.lambda0} if entry.on_tasks else None
            alone_report.add_result(result, dom.y, extras=extras)
    assert report_signature(report)["rows"] == report_signature(alone_report)["rows"]
    shared.sort(key=lambda r: kinds.index(r.strategy))
    assert len(shared) == len(alone)
    for a, b in zip(shared, alone):
        assert (a.strategy, a.domain, a.merge_count) == (b.strategy, b.domain, b.merge_count)
        assert np.array_equal(a.probs, b.probs) and np.array_equal(a.preds, b.preds)
        assert a.chosen is None and b.chosen is None or np.array_equal(a.chosen, b.chosen)
        assert _same_extras(a.extras, b.extras), a.strategy


# The kinds of the eval_static benchmark workload, at their defaults.
STATIC_KINDS = ["zs", "ft", "static", "wise_sweep", "uniform_soup", "greedy_soup", "dcs", "doe",
                "oracle_domain"]


@pytest.fixture
def forwards(suite0, monkeypatch):
    """Whole-model forwards per domain name, counted at
    classifier.logits_batch; the per-sample blended forwards do not call it."""
    names = {id(d.x): d.name for d in suite0.domains().values()}
    counts: dict[str, int] = {}
    real = classifier.logits_batch

    def spy(arch, theta, x):
        name = names.get(id(x), "rows")
        counts[name] = counts.get(name, 0) + 1
        return real(arch, theta, x)

    monkeypatch.setattr(classifier, "logits_batch", spy)
    return counts


def test_run_main_runs_each_static_model_once_per_domain(suite0, experts0, forwards):
    # Without sharing this was 155: the sweep and the greedy soup re-ran on
    # id_val for every test domain, and zs/ft/dcs/doe each ran ZS and FT.
    run_main(suite0, STATIC_KINDS, experts=experts0)
    # id_val: 9 sweep points and 3 greedy-soup forwards, once per run. Per
    # test domain: ZS, FT, the 9 grid points (static 0.5 and the sweep winner
    # among them) and the two soups.
    assert forwards == {"id_val": 12, **{d.name: 13 for d in suite0.test_domains}}
    assert sum(forwards.values()) == 77


def test_pilot_and_analysis_share_forwards_per_domain(suite0, experts0, forwards):
    run_pilot(suite0, experts0)
    # 9 sweep points on id_val; per domain ZS, FT and the 9 grid points, which
    # static_best and oracle_sample share (79 without sharing).
    assert forwards == {"id_val": 9, **{d.name: 11 for d in suite0.test_domains}}
    forwards.clear()
    run_analysis(suite0, experts0)
    # ZS, FT and WA(0.5) per domain; dawin_sample reuses ZS and FT (25 without).
    assert forwards == {d.name: 3 for d in suite0.test_domains}


def test_chunk_forwards_never_come_from_the_cache(suite0, experts0, forwards):
    # A chunk's forward differs in the last bits from the same rows of the
    # whole-domain forward, so it runs even with the whole-domain outputs held.
    e, dom = experts0, suite0.id_test
    cache = merge.ForwardCache()
    for theta in (e.theta0, e.theta1):
        cache.probs(e.arch, theta, dom)
    forwards.clear()
    options = merge.MergeOptions(batch_size=64)
    merge.dawin_sample_eval(e.arch, e.theta0, e.theta1, dom, options, cache)
    assert forwards == {"rows": 2 * len(list(merge._chunks(dom.n_samples, 64, min_tail=2)))}


def test_cached_outputs_are_read_only(suite0, experts0):
    cache = merge.ForwardCache()
    probs = model_eval(experts0.arch, experts0.theta0, suite0.id_test, "zs", cache).probs
    assert cache.probs(experts0.arch, experts0.theta0, suite0.id_test) is probs
    with pytest.raises(ValueError):
        probs[0, 0] = 0.0


def test_run_analysis_structure(suite0, analysis0):
    report = analysis0
    names = [d.name for d in suite0.test_domains]
    for name in names:
        split = report.splits[name]
        assert set(split) == {"TrueTrue", "TrueFalse", "FalseTrue", "FalseFalse"}
        assert sum(split.values()) == suite0.domains()[name].n_samples
        assert set(report.entropy_bars[name]["overall"]) == {"zs", "ft", "wa_half", "dawin_sample"}
        assert report.histograms[f"{name}/entropy"]["n"] == suite0.domains()[name].n_samples
    pooled = report.entropy_bars["pooled"]["overall"]
    # the dynamic merge should not raise pooled prediction entropy above either endpoint
    assert pooled["dawin_sample"] <= min(pooled["zs"], pooled["ft"])


def test_lemma1_violation_counter_preconditions():
    ents = np.array([[0.1, 0.5, 0.9], [0.5, 0.2, 0.9]])
    checked, violations = harness._lemma1_violations(ents, [{0}, {1}])
    assert (checked, violations) == (2, 0)
    # highest-entropy model claimed as the expert: precondition filters it out
    checked, violations = harness._lemma1_violations(ents[:1], [{2}])
    assert (checked, violations) == (0, 0)
    # empty and full expert sets are skipped, not counted
    checked, violations = harness._lemma1_violations(ents, [set(), {0, 1, 2}])
    assert (checked, violations) == (0, 0)


def _lemma1_violations_loop(entropies, expert_sets, tol=1e-12):
    """Per-row reference for harness._lemma1_violations."""
    lam = harness.coeff_multi(entropies)
    m = entropies.shape[1]
    checked = violations = 0
    for i, experts_j in enumerate(expert_sets):
        j = np.asarray(sorted(experts_j), dtype=np.int64)
        if j.size == 0 or j.size == m:
            continue
        rest = np.setdiff1d(np.arange(m), j)
        if entropies[i, j].max() > entropies[i, rest].min() + tol:
            continue
        checked += 1
        if lam[i, j].min() < lam[i, rest].max() - tol:
            violations += 1
        elif lam[i, j].mean() < 1.0 / m - tol:
            violations += 1
    return checked, violations


def _mixed_expert_sets(rng, ents):
    """Planted, random, empty and full expert sets as set, tuple and np.int64 tuple."""
    n, m = ents.shape
    order = np.argsort(ents, axis=1, kind="stable")
    sets = []
    for i in range(n):
        kind = i % 6
        if kind == 0:
            members = order[i, : rng.integers(1, m)]  # planted: meets the precondition
        elif kind == 1:
            members = np.flatnonzero(rng.random(m) < 0.5)  # precondition may fail
        elif kind == 2:
            members = order[i, -rng.integers(1, m):]  # highest entropies: usually fails
        elif kind == 3:
            members = np.arange(0)
        elif kind == 4:
            members = np.arange(m)
        else:
            members = order[i, : rng.integers(0, m + 1)]
        form = rng.integers(3)
        if form == 0:
            sets.append({int(c) for c in members})
        elif form == 1:
            sets.append(tuple(int(c) for c in members))
        else:
            sets.append(tuple(np.int64(c) for c in members))
    return sets


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_lemma1_counter_matches_per_row_loop(m):
    rng = np.random.default_rng(100 + m)
    ents = rng.uniform(0.0, 3.0, size=(600, m))
    ents[::3] = np.round(ents[::3], 1)  # tied entropies
    ents[1::7, :] = 0.7  # every model tied
    sets = _mixed_expert_sets(rng, ents)
    checked, violations = harness._lemma1_violations(ents, sets)
    assert (checked, violations) == _lemma1_violations_loop(ents, sets)
    assert 0 < checked < len(sets)


def test_lemma1_counter_reports_violations_of_an_inverted_rule(monkeypatch):
    def inverted(entropies):
        # softmax of +entropy: the blunter model gets the larger coefficient
        z = np.exp(entropies - entropies.max(axis=-1, keepdims=True))
        return z / z.sum(axis=-1, keepdims=True)

    monkeypatch.setattr(harness, "coeff_multi", inverted)
    rng = np.random.default_rng(3)
    for m in (2, 3, 4, 5):
        ents = rng.uniform(0.0, 3.0, size=(500, m))
        sets = _mixed_expert_sets(rng, ents)
        result = harness._lemma1_violations(ents, sets)
        assert result == _lemma1_violations_loop(ents, sets)
        assert result[1] > 0


@pytest.fixture(scope="module")
def tiny_experts(tiny_suite):
    return harness.build_experts(tiny_suite, with_tasks=True)


def test_property_suite_runs_with_task_experts(tiny_suite, tiny_experts):
    def dominance_samples(experts):
        run = harness.CHECKS["lemma_expert_dominance_benchmark"]
        [check] = run(harness.CheckContext(tiny_suite, experts))
        return check.samples

    assert tiny_experts.task_experts
    pair_only = dataclasses.replace(tiny_experts, task_experts=())
    assert dominance_samples(tiny_experts) > dominance_samples(pair_only)


def test_seed0_property_suite_fails_only_the_documented_check(checks0):
    assert [name for name, c in checks0.items() if not c.passed] == ["entropy_valley[ood_rot60]"]
