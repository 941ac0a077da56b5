import numpy as np
import pytest

from dawin import merge
from dawin.classifier import MlpArchitecture, forward_batch, init_params
from dawin.databench import Domain
from dawin.errors import IncompatibleModelsError
from dawin.expertise import coeff_multi, coeff_pair_offset, entropy, oracle_coeff
from dawin.merge import (
    DEFAULT_GRID,
    STRATEGIES,
    MergeOptions,
    MergeStrategy,
    dawin_clustered_eval,
    dawin_sample_eval,
    dawin_task_arith_eval,
    dcs_eval,
    doe_eval,
    greedy_soup,
    model_eval,
    oracle_domain_search,
    oracle_sample_eval,
    static_eval,
    uniform_soup,
    wise_sweep,
)
from dawin.mixture import dirichlet_em_fit, dirichlet_membership, em_fit, infer_membership
from dawin.params import ParamVector, combine_task_vectors, interpolate_pair, make_task_vector

ARCH = MlpArchitecture(input_dim=5, hidden_widths=(12,), class_count=10)


def rand_theta(seed):
    rng = np.random.default_rng(seed)
    return ParamVector(init_params(ARCH, rng) + 0.3 * rng.normal(size=ARCH.param_count),
                       ARCH.layout_id)


def rand_domain(seed, n=80, name="dom"):
    rng = np.random.default_rng(seed)
    return Domain(name, rng.normal(size=(n, 5)), rng.integers(0, 10, size=n),
                  {"kind": "identity"})


T0 = rand_theta(0)
T1 = rand_theta(1)
DOM = rand_domain(2)


def test_static_endpoints_match_raw_models():
    zs = model_eval(ARCH, T0, DOM, "zs")
    ft = model_eval(ARCH, T1, DOM, "ft")
    assert np.array_equal(static_eval(ARCH, T0, T1, 0.0, DOM).preds, zs.preds)
    assert np.array_equal(static_eval(ARCH, T0, T1, 1.0, DOM).preds, ft.preds)


def test_wise_sweep_grid_contract():
    out = wise_sweep(ARCH, T0, T1, DOM, DEFAULT_GRID)
    assert len(out.rows) == 9
    # best row by exhaustive re-scan
    best = max(out.rows, key=lambda r: r["id_val_acc"])
    assert out.rows[[r["lam"] for r in out.rows].index(out.best_lam)]["id_val_acc"] == best["id_val_acc"]


def test_wise_sweep_binary_grid_compares_raw_models():
    out = wise_sweep(ARCH, T0, T1, DOM, (0.0, 1.0))
    accs = {r["lam"]: r["id_val_acc"] for r in out.rows}
    zs = model_eval(ARCH, T0, DOM, "zs")
    ft = model_eval(ARCH, T1, DOM, "ft")
    assert accs[0.0] == (zs.preds == DOM.y).mean()
    assert accs[1.0] == (ft.preds == DOM.y).mean()


def test_wise_sweep_tie_breaks_toward_smaller_lambda():
    out = wise_sweep(ARCH, T0, T0, DOM, DEFAULT_GRID)  # all rows tie
    assert out.best_lam == DEFAULT_GRID[0]


def test_uniform_soup_closed_forms():
    same = uniform_soup([T0, T0])
    assert np.array_equal(same.values, T0.values)
    a = ParamVector(np.array([0.0, 2.0]), "pair")
    b = ParamVector(np.array([2.0, 0.0]), "pair")
    assert np.array_equal(uniform_soup([a, b]).values, [1.0, 1.0])


def test_greedy_soup_never_hurts_id_val():
    models = [rand_theta(s) for s in range(4)]
    soup, kept = greedy_soup(ARCH, models, DOM)
    def acc(theta):
        probs = forward_batch(ARCH, theta, DOM.x)
        return (probs.argmax(axis=1) == DOM.y).mean()
    assert acc(soup) >= max(acc(m) for m in models)
    assert len(kept) >= 1


def test_dawin_sample_identical_models_give_half():
    out = dawin_sample_eval(ARCH, T0, T0, DOM, MergeOptions(offset_adjust=False))
    np.testing.assert_allclose(out.chosen, 0.5, atol=1e-12)
    assert np.array_equal(out.preds, model_eval(ARCH, T0, DOM, "zs").preds)


def test_dawin_sample_one_hot_versus_uniform_coefficient():
    from dawin.expertise import coeff_pair

    # entropies 0 (one-hot confident) vs ln C (uniform): lam = C/(C+1)
    c = 10
    lam = coeff_pair(np.log(c), 0.0)
    assert abs(lam - c / (c + 1.0)) < 1e-12


def test_dawin_sample_merge_count_and_chosen_range():
    out = dawin_sample_eval(ARCH, T0, T1, DOM)
    assert out.merge_count == DOM.n_samples
    assert np.all((out.chosen > 0.0) & (out.chosen < 1.0))


def test_dawin_clustered_k1_equals_static_at_mean_coefficient():
    opts = MergeOptions(offset_adjust=False)
    per_sample = dawin_sample_eval(ARCH, T0, T1, DOM, opts)
    clustered = dawin_clustered_eval(ARCH, T0, T1, DOM, k=1, options=opts)
    assert clustered.merge_count == 1
    static = static_eval(ARCH, T0, T1, float(clustered.chosen[0]), DOM)
    assert np.array_equal(clustered.preds, static.preds)
    # the K=1 component mean tracks the sample-coefficient mean
    assert abs(clustered.chosen[0] - per_sample.chosen.mean()) < 0.05


def test_dawin_clustered_merge_count_is_k():
    for k in (2, 3):
        out = dawin_clustered_eval(ARCH, T0, T1, DOM, k=k)
        assert out.merge_count == k
        assert out.extras["k"] == k


def test_dawin_clustered_tiny_slice_approaches_per_sample():
    dom = rand_domain(11, n=200)
    opts = MergeOptions(offset_adjust=False)
    per_sample = dawin_sample_eval(ARCH, T0, T1, dom, opts)
    heavy = dawin_clustered_eval(ARCH, T0, T1, dom, k=12, options=opts)
    gap = abs((per_sample.preds == dom.y).mean() - (heavy.preds == dom.y).mean())
    assert gap <= 0.01


def test_task_arith_identical_entropies_spread_uniformly():
    taus = [make_task_vector(rand_theta(s), T0) for s in (3, 4, 5)]
    out = dawin_task_arith_eval(ARCH, T0, [T1, T1, T1], taus, DOM, k=None)
    np.testing.assert_allclose(out.chosen, 1.0 / 3.0, atol=1e-12)


def test_task_arith_lambda0_zero_is_pretrained():
    experts = [rand_theta(s) for s in (3, 4)]
    taus = [make_task_vector(e, T0) for e in experts]
    out = dawin_task_arith_eval(ARCH, T0, experts, taus, DOM, lambda0=0.0, k=None)
    assert np.array_equal(out.preds, model_eval(ARCH, T0, DOM, "zs").preds)


def test_task_arith_k1_single_merge():
    experts = [rand_theta(s) for s in (3, 4, 5)]
    taus = [make_task_vector(e, T0) for e in experts]
    out = dawin_task_arith_eval(ARCH, T0, experts, taus, DOM, k=1)
    assert out.merge_count == 1
    assert out.chosen.shape == (DOM.n_samples, 3)


def test_dcs_selects_lower_entropy_model():
    from dawin.expertise import entropy

    out = dcs_eval(ARCH, [T0, T1], DOM)
    p0 = forward_batch(ARCH, T0, DOM.x)
    p1 = forward_batch(ARCH, T1, DOM.x)
    expected = np.where(entropy(p0) <= entropy(p1), p0.argmax(1), p1.argmax(1))
    assert np.array_equal(out.preds, expected)
    assert out.merge_count == 0


def test_dcs_identical_models():
    out = dcs_eval(ARCH, [T0, T0], DOM)
    assert np.array_equal(out.preds, model_eval(ARCH, T0, DOM, "zs").preds)


def test_doe_equal_inputs_pass_through():
    out = doe_eval(ARCH, [T0, T0], DOM)
    np.testing.assert_allclose(out.probs, forward_batch(ARCH, T0, DOM.x), atol=1e-12)


def test_doe_outputs_are_convex_combinations():
    out = doe_eval(ARCH, [T0, T1], DOM)
    p0 = forward_batch(ARCH, T0, DOM.x)
    p1 = forward_batch(ARCH, T1, DOM.x)
    lo = np.minimum(p0, p1) - 1e-12
    hi = np.maximum(p0, p1) + 1e-12
    assert np.all((out.probs >= lo) & (out.probs <= hi))
    np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-9)


def test_doe_one_hot_model_dominates():
    from dawin.expertise import coeff_pair

    # weights from entropies 0 vs ln C push the average toward the one-hot row
    c = 4
    lam_onehot = coeff_pair(np.log(c), 0.0)
    onehot = np.zeros(c)
    onehot[2] = 1.0
    uniform = np.full(c, 1.0 / c)
    blended = (1 - lam_onehot) * uniform + lam_onehot * onehot
    assert blended.argmax() == 2


def test_oracle_sample_closed_forms(suite0, experts0):
    out = oracle_sample_eval(experts0.arch, experts0.theta0, experts0.theta1, suite0.id_test)
    assert out.merge_count == suite0.id_test.n_samples
    assert np.all((out.chosen >= 0.0) & (out.chosen <= 1.0))


def test_oracle_domain_reports_grid_table():
    out = oracle_domain_search(ARCH, T0, T1, DOM, (0.0, 1.0))
    accs = [row["accuracy"] for row in out.extras["table"]]
    zs = (model_eval(ARCH, T0, DOM, "zs").preds == DOM.y).mean()
    ft = (model_eval(ARCH, T1, DOM, "ft").preds == DOM.y).mean()
    assert accs == [zs, ft]
    assert (out.preds == DOM.y).mean() == max(accs)


def test_oracle_domain_max_of_table():
    out = oracle_domain_search(ARCH, T0, T1, DOM)
    best = max(row["accuracy"] for row in out.extras["table"])
    assert (out.preds == DOM.y).mean() == best


def test_strategy_kinds_inventory():
    assert len(STRATEGIES) == 13
    assert "dawin_sample" in STRATEGIES
    assert "dawin_clustered" in STRATEGIES
    # only the multi-task rule runs on the task splits
    assert [kind for kind, entry in STRATEGIES.items() if entry.on_tasks] == ["dawin_task_arith"]
    with pytest.raises(ValueError):
        MergeStrategy(kind="nope")


def test_batch_size_chunking_matches_full_batch():
    full = dawin_sample_eval(ARCH, T0, T1, DOM, MergeOptions(offset_adjust=False))
    chunked = dawin_sample_eval(
        ARCH, T0, T1, DOM, MergeOptions(offset_adjust=False, batch_size=16)
    )
    # without domain statistics the per-sample rule is batch-size independent
    np.testing.assert_allclose(chunked.chosen, full.chosen, atol=1e-12)
    assert np.array_equal(chunked.preds, full.preds)


def test_benchmark_lambda_distribution_is_nondegenerate(suite0, experts0):
    out = dawin_sample_eval(experts0.arch, experts0.theta0, experts0.theta1, suite0.id_test)
    assert float(out.chosen.std()) > 0.01


# ----- blended per-sample forwards against the materialising one-row loops ---
#
# The per-sample kinds run one blended forward and never build theta(x). These
# oracles build every sample's merged vector and run it alone. The blend sums
# per-layer outputs instead of parameters, so probs agree to 1e-13 (the
# largest gap measured on the seed-0 and seed-3 experts was 7.2e-15); preds,
# chosen and merge_count stay exact.

BLEND_ATOL = 1e-13


def one_row_interpolated_probs(arch, theta0, theta1, x, lam):
    """Oracle: one merged model and one one-row forward per sample."""
    buf = np.empty_like(theta0.values)
    tmp = np.empty_like(buf)
    probs = np.empty((x.shape[0], arch.class_count))
    for i in range(x.shape[0]):
        np.multiply(theta0.values, 1.0 - lam[i], out=buf)
        np.multiply(theta1.values, lam[i], out=tmp)
        buf += tmp
        probs[i] = forward_batch(arch, buf, x[i : i + 1])[0]
    return probs


def one_row_task_arith_probs(arch, theta0, lambda0, rows, taus, x):
    """Oracle: the k=None loop of dynamic task arithmetic, one merged model
    per sample."""
    probs = np.empty((x.shape[0], arch.class_count))
    for i in range(x.shape[0]):
        merged = theta0.values.copy()
        for weight, tau in zip(rows[i], taus):
            merged += lambda0 * weight * tau.delta.values
        probs[i] = forward_batch(arch, merged, x[i : i + 1])[0]
    return probs


def assert_same_result(out, probs, chosen, n):
    np.testing.assert_allclose(out.probs, probs, rtol=0, atol=BLEND_ATOL)
    assert np.array_equal(out.preds, probs.argmax(axis=1))
    assert np.array_equal(out.chosen, chosen)
    assert out.merge_count == n


def check_pair_strategies(arch, theta0, theta1, dom):
    p0 = forward_batch(arch, theta0, dom.x)
    p1 = forward_batch(arch, theta1, dom.x)
    lam, _ = coeff_pair_offset(entropy(p0), entropy(p1))
    assert_same_result(dawin_sample_eval(arch, theta0, theta1, dom),
                       one_row_interpolated_probs(arch, theta0, theta1, dom.x, lam),
                       lam, dom.n_samples)
    rows = np.arange(dom.n_samples)
    lam = np.asarray(oracle_coeff(p0[rows, dom.y], p1[rows, dom.y]))
    assert_same_result(oracle_sample_eval(arch, theta0, theta1, dom),
                       one_row_interpolated_probs(arch, theta0, theta1, dom.x, lam),
                       lam, dom.n_samples)


def check_task_arith(arch, theta0, experts, taus, dom, lambda0=0.3):
    rows = coeff_multi(np.stack([entropy(forward_batch(arch, e, dom.x)) for e in experts], axis=1))
    out = dawin_task_arith_eval(arch, theta0, experts, taus, dom, lambda0=lambda0, k=None)
    assert_same_result(out, one_row_task_arith_probs(arch, theta0, lambda0, rows, taus, dom.x),
                       rows, dom.n_samples)


def test_stacked_pair_strategies_match_one_row_loop():
    dom = rand_domain(20, n=53)
    check_pair_strategies(ARCH, T0, T1, dom)


def test_stacked_task_arith_matches_one_row_loop():
    experts = [rand_theta(s) for s in (3, 4, 5)]
    taus = [make_task_vector(e, T0) for e in experts]
    check_task_arith(ARCH, T0, experts, taus, rand_domain(21, n=39))


def test_stacked_strategies_match_one_row_loop_on_seed0_experts(suite0, experts0):
    check_pair_strategies(experts0.arch, experts0.theta0, experts0.theta1, suite0.ood_tests[1])
    check_task_arith(experts0.arch, experts0.theta0, experts0.task_params(),
                     experts0.task_vectors(), suite0.mtl_tasks[0].test)


def test_task_arith_per_sample_rejects_mismatched_task_vector():
    experts = [rand_theta(s) for s in (3, 4)]
    other = ParamVector(np.ones(ARCH.param_count), "other")
    taus = [make_task_vector(experts[0], T0), make_task_vector(other, other)]
    with pytest.raises(IncompatibleModelsError):
        dawin_task_arith_eval(ARCH, T0, experts, taus, DOM, k=None)


def test_short_tail_chunk_joins_the_previous_chunk():
    # 33 rows in chunks of 16 leave a 1-row tail, too short for offset statistics.
    dom = rand_domain(22, n=33)
    out = dawin_sample_eval(ARCH, T0, T1, dom, MergeOptions(batch_size=16))
    assert out.merge_count == 33
    tail = Domain("tail", dom.x[16:], dom.y[16:], dom.shift_spec)
    alone = dawin_sample_eval(ARCH, T0, T1, tail)
    assert np.array_equal(out.chosen[16:], alone.chosen)
    assert np.array_equal(out.probs[16:], alone.probs)
    # K=3 needs 3 rows per chunk: a 2-row tail folds in, a 3-row tail stands.
    folded = dawin_clustered_eval(ARCH, T0, T1, rand_domain(23, n=34), k=3,
                                  options=MergeOptions(batch_size=16))
    assert folded.extras["chunks"] == 2
    kept = dawin_clustered_eval(ARCH, T0, T1, rand_domain(23, n=35), k=3,
                                options=MergeOptions(batch_size=16))
    assert kept.extras["chunks"] == 3


def test_clustered_rejects_batch_size_below_k():
    # Every chunk would be too small for a K-component fit: a usage error up front.
    with pytest.raises(ValueError, match="batch_size 2 is below max"):
        dawin_clustered_eval(ARCH, T0, T1, DOM, k=3, options=MergeOptions(batch_size=2))
    # The rule is on the options alone: a 4-row domain, which the tail fold
    # would leave as one valid chunk, is rejected all the same.
    with pytest.raises(ValueError, match="batch_size 2 is below max"):
        dawin_clustered_eval(ARCH, T0, T1, rand_domain(24, n=4), k=3,
                             options=MergeOptions(batch_size=2))
    out = dawin_clustered_eval(ARCH, T0, T1, DOM, k=3, options=MergeOptions(batch_size=3))
    assert out.extras["chunks"] == DOM.n_samples // 3


# ----- routed and output-mixed kinds against their one-component loops -------
#
# The clustered kinds route each sample to one of K materialised rows, and
# dcs mixes model outputs with one-hot rows. These oracles are the loops the
# engine replaced: one interpolate_pair or combine_task_vectors per
# component, then a forward of its member rows; and dcs's direct pick. Every
# output stays bit-identical.


def one_component_loop(arch, merged, member, x):
    """Oracle: each component's merged model forwarded on its members alone."""
    probs = np.empty((x.shape[0], arch.class_count))
    for j, theta in enumerate(merged):
        mask = member == j
        if mask.any():
            probs[mask] = forward_batch(arch, theta, x[mask])
    return probs


@pytest.mark.parametrize("posterior", [False, True])
@pytest.mark.parametrize("k", [2, 3])
def test_clustered_matches_one_component_loop(k, posterior):
    dom = rand_domain(25, n=90)
    out = dawin_clustered_eval(ARCH, T0, T1, dom, k=k,
                               options=MergeOptions(posterior_membership=posterior))
    lam, _ = coeff_pair_offset(entropy(forward_batch(ARCH, T0, dom.x)),
                               entropy(forward_batch(ARCH, T1, dom.x)))
    lam = np.asarray(lam, dtype=np.float64)
    model = em_fit(lam, k)
    member = np.atleast_1d(infer_membership(model, lam, posterior))
    means = [comp.mean for comp in model.components]
    merged = [interpolate_pair(T0, T1, min(max(m, 0.0), 1.0)) for m in means]
    assert np.array_equal(out.probs, one_component_loop(ARCH, merged, member, dom.x))
    assert np.array_equal(out.chosen, np.array(means)[member])
    assert out.merge_count == k


@pytest.mark.parametrize("posterior", [False, True])
@pytest.mark.parametrize("k", [2, 3])
def test_task_arith_integer_k_matches_one_component_loop(k, posterior):
    dom = rand_domain(26, n=90)
    experts = [rand_theta(s) for s in (3, 4, 5)]
    taus = [make_task_vector(e, T0) for e in experts]
    out = dawin_task_arith_eval(ARCH, T0, experts, taus, dom, lambda0=0.3, k=k,
                                options=MergeOptions(posterior_membership=posterior))
    rows = coeff_multi(np.stack([entropy(forward_batch(ARCH, e, dom.x)) for e in experts], axis=1))
    model = dirichlet_em_fit(rows, k)
    member = np.atleast_1d(dirichlet_membership(model, rows, posterior))
    means = [comp.mean for comp in model.components]
    merged = [combine_task_vectors(T0, 0.3, w, taus) for w in means]
    assert np.array_equal(out.probs, one_component_loop(ARCH, merged, member, dom.x))
    assert np.array_equal(out.chosen, np.array(means)[member])
    assert out.merge_count == k


@pytest.mark.parametrize("temperatures", [None, (1.5, 0.7, 1.1)])
def test_dcs_equals_the_selected_models_outputs(temperatures):
    thetas = [T0, T1, rand_theta(3)]
    out = dcs_eval(ARCH, thetas, DOM, MergeOptions(temperatures=temperatures))
    stacked = np.stack([forward_batch(ARCH, t, DOM.x) for t in thetas], axis=1)
    temps = temperatures or (1.0,) * len(thetas)
    ents = np.stack([entropy(forward_batch(ARCH, t, DOM.x, T)) for t, T in zip(thetas, temps)],
                    axis=1)
    assert np.array_equal(out.probs, stacked[np.arange(DOM.n_samples), ents.argmin(axis=1)])


def test_materialised_vectors_per_kind(monkeypatch):
    # Parameter vectors each kind builds on one domain with a fresh cache:
    # one per constant or clustered row; none for per-sample rows (a blended
    # forward) or output-space rows.
    built = []
    real = merge.materialize

    def spy(basis, row):
        built.append(row)
        return real(basis, row)

    monkeypatch.setattr(merge, "materialize", spy)
    experts = [rand_theta(s) for s in (3, 4, 5)]
    taus = [make_task_vector(e, T0) for e in experts]
    fresh = merge.ForwardCache
    runs = {
        "zs": lambda: model_eval(ARCH, T0, DOM, "zs", fresh()),
        "ft": lambda: model_eval(ARCH, T1, DOM, "ft", fresh()),
        "static": lambda: static_eval(ARCH, T0, T1, 0.5, DOM, cache=fresh()),
        "dawin_sample": lambda: dawin_sample_eval(ARCH, T0, T1, DOM, cache=fresh()),
        "dawin_clustered": lambda: dawin_clustered_eval(ARCH, T0, T1, DOM, k=3, cache=fresh()),
        "dawin_clustered_batch32": lambda: dawin_clustered_eval(
            ARCH, T0, T1, DOM, k=3, options=MergeOptions(batch_size=32), cache=fresh()),
        "task_arith_k2": lambda: dawin_task_arith_eval(ARCH, T0, experts, taus, DOM, k=2,
                                                       cache=fresh()),
        "task_arith_knone": lambda: dawin_task_arith_eval(ARCH, T0, experts, taus, DOM, k=None,
                                                          cache=fresh()),
        "dcs": lambda: dcs_eval(ARCH, [T0, T1], DOM, cache=fresh()),
        "doe": lambda: doe_eval(ARCH, [T0, T1], DOM, cache=fresh()),
        "oracle_sample": lambda: oracle_sample_eval(ARCH, T0, T1, DOM, fresh()),
        "oracle_domain": lambda: oracle_domain_search(ARCH, T0, T1, DOM, cache=fresh()),
    }
    counts, results = {}, {}
    for name, run in runs.items():
        built.clear()
        results[name] = run()
        counts[name] = len(built)
    # 80 rows in chunks of 32: three chunks, K = 3 rows each
    assert results["dawin_clustered_batch32"].extras["chunks"] == 3
    assert counts == {
        "zs": 0, "ft": 0, "static": 1, "dawin_sample": 0, "dawin_clustered": 3,
        "dawin_clustered_batch32": 9, "task_arith_k2": 2, "task_arith_knone": 0,
        "dcs": 0, "doe": 0, "oracle_sample": 0, "oracle_domain": len(DEFAULT_GRID),
    }
    # where vectors are built, the merge count is the number built
    for name in ("static", "dawin_clustered", "dawin_clustered_batch32", "task_arith_k2",
                 "oracle_domain"):
        assert results[name].merge_count == counts[name], name
