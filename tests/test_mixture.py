import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from dawin import merge
from dawin import mixture as mx
from dawin.errors import DataFormatError, InsufficientSamplesError
from dawin.mixture import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    PI_FLOOR,
    RESP_FLOOR_FRACTION,
    VALUE_CLIP,
    BetaComponent,
    BetaMixtureModel,
    DirichletComponent,
    DirichletMixtureModel,
    _logsumexp_components,
    beta_log_pdf,
    dirichlet_em_fit,
    dirichlet_membership,
    em_fit,
    infer_membership,
    kmeans_1d,
    load_mixture,
    mixture_from_dict,
    mixture_to_dict,
    save_mixture,
)


def test_kmeans_separated_clusters():
    values = np.array([0.1, 0.11, 0.9, 0.91])
    labels = kmeans_1d(values, 2)
    assert labels.tolist() == [0, 0, 1, 1]


def test_kmeans_degenerate_ks():
    values = np.array([0.3, 0.5, 0.7])
    assert kmeans_1d(values, 1).tolist() == [0, 0, 0]
    assert sorted(kmeans_1d(values, 3).tolist()) == [0, 1, 2]
    with pytest.raises(InsufficientSamplesError):
        kmeans_1d(values, 4)


def _beta_mom_one(values, resp):
    block = resp[None, :]
    return mx._beta_mom(values, block, block.sum(axis=1), np.empty_like(block))[0]


def test_mom_direct_substitution():
    # mean 0.5, var 0.05: C = 0.25/0.05 - 1 = 4, so (a, b) ~ (2, 2)
    rng = np.random.default_rng(0)
    values = rng.uniform(size=4000)
    values = 0.5 + math.sqrt(0.05) * (values - values.mean()) / values.std()
    a, b = _beta_mom_one(values, np.ones_like(values))
    assert abs(a - 2.0) < 1e-4 and abs(b - 2.0) < 1e-4

    values = 0.8 + math.sqrt(0.01) * (values - values.mean()) / values.std()
    a, b = _beta_mom_one(values, np.ones_like(values))
    # C = 0.16/0.01 - 1 = 15; a = 12, b = 3
    assert abs(a - 12.0) < 1e-4 and abs(b - 3.0) < 1e-4


def test_mom_point_mass_fallback():
    for v in (0.3, 0.5, 0.85):
        a, b = _beta_mom_one(np.full(100, v), np.ones(100))
        assert abs(a / (a + b) - v) < 1e-6


def test_beta_log_pdf_closed_forms():
    assert abs(beta_log_pdf(0.5, 1.0, 1.0)) < 1e-12
    assert abs(beta_log_pdf(0.5, 2.0, 2.0) - math.log(1.5)) < 1e-12


def test_beta_pdf_integrates_to_one():
    # trapezoid quadrature oracle, independent of the pdf normalization
    grid = np.linspace(1e-6, 1.0 - 1e-6, 20001)
    pdf = np.exp(beta_log_pdf(grid, 8.0, 3.0))
    integral = float(np.sum((pdf[1:] + pdf[:-1]) * np.diff(grid)) / 2.0)
    assert abs(integral - 1.0) < 1e-3


def test_em_single_component_recovery():
    rng = np.random.default_rng(0)
    values = rng.beta(2.0, 5.0, size=20000)
    model = em_fit(values, 1)
    assert abs(model.components[0].mean - 2.0 / 7.0) < 0.02


def test_em_two_component_recovery():
    rng = np.random.default_rng(1)
    n = 20000
    pick = rng.uniform(size=n) < 0.6
    values = np.where(pick, rng.beta(20.0, 2.0, size=n), rng.beta(2.0, 20.0, size=n))
    model = em_fit(values, 2)
    comps = sorted(model.components, key=lambda c: c.mean)
    assert abs(comps[0].pi - 0.4) < 0.05 and abs(comps[1].pi - 0.6) < 0.05
    assert abs(comps[0].mean - 2.0 / 22.0) < 0.02
    assert abs(comps[1].mean - 20.0 / 22.0) < 0.02


def test_em_loglik_trace_monotone_on_random_datasets():
    rng = np.random.default_rng(2)
    for trial in range(50):
        n = int(rng.integers(60, 400))
        k = int(rng.integers(1, 4))
        values = rng.beta(rng.uniform(0.5, 8), rng.uniform(0.5, 8), size=n)
        model = em_fit(values, k)
        trace = np.array(model.loglik_trace)
        assert trace.size >= 1
        assert np.all(np.diff(trace) >= -1e-9)


def test_em_deterministic_given_seed():
    rng = np.random.default_rng(3)
    values = rng.beta(3, 2, size=500)
    a = em_fit(values, 3)
    b = em_fit(values, 3)
    assert a.components == b.components
    assert a.loglik_trace == b.loglik_trace


def test_membership_routes_to_the_right_component():
    comps = (
        dict(a=2.0, b=20.0, pi=0.5),
        dict(a=20.0, b=2.0, pi=0.5),
    )
    from dawin.mixture import BetaComponent

    model = BetaMixtureModel(
        components=tuple(BetaComponent(**c) for c in comps),
        loglik_trace=(0.0,),
        converged=True,
        iterations=1,
    )
    assert infer_membership(model, 0.05) == 0
    assert infer_membership(model, 0.95) == 1
    one = em_fit(np.random.default_rng(4).beta(2, 2, size=100), 1)
    assert np.all(infer_membership(one, np.linspace(0.05, 0.95, 9)) == 0)


def test_component_mean_closed_forms():
    model = em_fit(np.random.default_rng(5).beta(2, 2, size=50), 1)
    # closed forms checked on hand-built components
    from dawin.mixture import BetaComponent

    assert abs(BetaComponent(8.0, 3.0, 1.0).mean - 8.0 / 11.0) < 1e-12
    assert BetaComponent(2.0, 2.0, 1.0).mean == 0.5
    assert BetaComponent(1.0, 3.0, 1.0).mean == 0.25
    assert 0.0 < model.components[0].mean < 1.0


def test_mixture_mean_consistency():
    rng = np.random.default_rng(6)
    n = 10000
    pick = rng.uniform(size=n) < 0.3
    values = np.where(pick, rng.beta(1.5, 6, size=n), rng.beta(9, 3, size=n))
    model = em_fit(values, 2)
    mix_mean = sum(c.pi * c.mean for c in model.components)
    assert abs(mix_mean - values.mean()) < 0.02


# ----- Dirichlet extension ---------------------------------------------------------


def test_dirichlet_degenerate_rows():
    v = np.array([0.2, 0.5, 0.3])
    rows = np.tile(v, (200, 1))
    model = dirichlet_em_fit(rows, 1)
    np.testing.assert_allclose(model.components[0].mean, v, atol=1e-6)


def test_dirichlet_single_component_recovery():
    rng = np.random.default_rng(7)
    rows = rng.dirichlet((2.0, 5.0, 3.0), size=20000)
    model = dirichlet_em_fit(rows, 1)
    np.testing.assert_allclose(model.components[0].mean, [0.2, 0.5, 0.3], atol=0.02)


def test_dirichlet_agrees_with_beta_on_pairs():
    rng = np.random.default_rng(8)
    n = 4000
    pick = rng.uniform(size=n) < 0.5
    lam = np.where(pick, rng.beta(2, 12, size=n), rng.beta(12, 2, size=n))
    rows = np.column_stack([1.0 - lam, lam])
    beta_member = np.asarray(infer_membership(em_fit(lam, 2), lam))
    dir_model = dirichlet_em_fit(rows, 2)
    dir_member = np.asarray(dirichlet_membership(dir_model, rows))
    # allow a global relabeling between the two fits
    agree = (beta_member == dir_member).mean()
    assert max(agree, 1.0 - agree) >= 0.99


def test_dirichlet_loglik_monotone():
    rng = np.random.default_rng(9)
    rows = rng.dirichlet((1.5, 3.0, 2.0), size=800)
    model = dirichlet_em_fit(rows, 2)
    assert np.all(np.diff(model.loglik_trace) >= -1e-9)


# ----- serialization ---------------------------------------------------------------


def test_beta_mixture_json_round_trip(tmp_path):
    values = np.random.default_rng(10).beta(3, 5, size=400)
    model = em_fit(values, 2)
    path = tmp_path / "mix.json"
    save_mixture(model, path)
    loaded = load_mixture(path)
    assert isinstance(loaded, BetaMixtureModel)
    assert loaded.components == model.components
    assert loaded.loglik_trace == model.loglik_trace
    assert loaded.converged == model.converged
    assert loaded == model


def test_dirichlet_mixture_json_round_trip(tmp_path):
    rows = np.random.default_rng(11).dirichlet((2, 3, 4), size=300)
    model = dirichlet_em_fit(rows, 2)
    save_mixture(model, tmp_path / "dir.json")
    loaded = load_mixture(tmp_path / "dir.json")
    assert isinstance(loaded, DirichletMixtureModel)
    assert loaded == model


def test_mixture_dict_rejects_garbage(tmp_path):
    with pytest.raises(DataFormatError):
        mixture_from_dict({"family": "gaussian"})
    model = em_fit(np.random.default_rng(12).beta(2, 2, size=60), 1)
    data = mixture_to_dict(model)
    del data["components"]
    with pytest.raises(DataFormatError):
        mixture_from_dict(data)
    for key, value in (("schema_version", 2), ("family", "gaussian")):
        with pytest.raises(DataFormatError, match=str(value)):
            mixture_from_dict({**mixture_to_dict(model), key: value})
    for key in ("loglik_trace", "converged", "iterations", "clip"):
        data = mixture_to_dict(model)
        del data[key]
        with pytest.raises(DataFormatError, match=key):
            mixture_from_dict(data)
    with pytest.raises(DataFormatError, match="malformed"):
        mixture_from_dict([mixture_to_dict(model)])
    bad = tmp_path / "bad.json"
    for text in ('{"family": ', b"\xff\xfe"):
        bad.write_text(text) if isinstance(text, str) else bad.write_bytes(text)
        with pytest.raises(DataFormatError, match="invalid JSON"):
            load_mixture(bad)
    bad.write_text(json.dumps({**mixture_to_dict(model), "family": "gaussian"}))
    with pytest.raises(DataFormatError, match="bad.json"):
        load_mixture(bad)
    for unreadable in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(DataFormatError, match=re.escape(str(unreadable))):
            load_mixture(unreadable)
    # Files written before the fits lost their unused seed carry a "seed" key.
    old = tmp_path / "old.json"
    old.write_text(json.dumps({**mixture_to_dict(model), "seed": 7}))
    assert load_mixture(old) == model


def test_fits_reject_nan_coefficients():
    values = np.random.default_rng(13).beta(2, 2, size=60)
    values[5] = np.nan
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        em_fit(values, 2)
    rows = np.column_stack([1.0 - values, values])
    with pytest.raises(ValueError, match="simplex"):
        dirichlet_em_fit(rows, 2)
    rows = np.random.default_rng(14).dirichlet((2, 3, 4), size=60)
    rows[7, 0] = np.nan
    with pytest.raises(ValueError, match="simplex"):
        dirichlet_em_fit(rows, 2)


# ----- exact oracles: the E-step before the component-major kernel ---------------
#
# These are the scalar-per-component implementations the kernel replaced, kept
# verbatim (only renamed), with their own copies of the moment estimators so
# that no oracle calls the code under test. The kernel must reproduce them bit
# for bit: equal fitted models (components, loglik trace, iterations, flags)
# and equal memberships.


def _ref_concentration(mean, var):
    if var < 1e-12:
        return 1e2
    conc = mean * (1.0 - mean) / var - 1.0
    if conc <= 0.0:
        conc = 1e-2
    return conc


def _ref_beta_mom(values, resp):
    total = resp.sum()
    if total <= 0.0:
        raise ValueError("zero effective weight")
    mean = float((resp * values).sum() / total)
    var = float((resp * (values - mean) ** 2).sum() / total)
    conc = _ref_concentration(mean, var)
    return conc * mean + 1e-6, conc * (1.0 - mean) + 1e-6


def _ref_dirichlet_mom(rows, resp):
    total = resp.sum()
    if total <= 0.0:
        raise ValueError("zero effective weight")
    mean = (resp[:, None] * rows).sum(axis=0) / total
    var1 = float((resp * (rows[:, 0] - mean[0]) ** 2).sum() / total)
    return _ref_concentration(mean[0], var1) * mean + 1e-6


def _ref_beta_log_pdf(x, a, b):
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    x = np.clip(np.asarray(x, dtype=np.float64), VALUE_CLIP, 1.0 - VALUE_CLIP)
    out = (
        gammaln(a + b)
        - gammaln(a)
        - gammaln(b)
        + (a - 1.0) * np.log(x)
        + (b - 1.0) * np.log(1.0 - x)
    )
    return float(out) if np.ndim(out) == 0 else out


def _ref_log_joint_beta(values, comps):
    cols = [
        np.log(max(pi, PI_FLOOR)) + _ref_beta_log_pdf(values, a, b) for a, b, pi in comps
    ]
    return np.stack(cols, axis=1)


def _ref_em_fit(values, k, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("em_fit expects a vector of coefficients")
    if np.any(values < 0.0) or np.any(values > 1.0):
        raise ValueError("coefficients must lie in [0, 1]")
    n = values.shape[0]
    if n < max(k, 2):
        raise InsufficientSamplesError(f"need at least {max(k, 2)} values, got {n}")
    if k < 1:
        raise ValueError("k must be positive")
    values = np.clip(values, VALUE_CLIP, 1.0 - VALUE_CLIP)

    labels = kmeans_1d(values, k)
    comps = []
    global_shapes = _ref_beta_mom(values, np.ones(n))
    for j in range(k):
        mask = labels == j
        pi = mask.sum() / n
        shapes = _ref_beta_mom(values, mask.astype(np.float64)) if mask.any() else global_shapes
        comps.append((shapes[0], shapes[1], pi))
    comps = _ref_renormalize(comps)

    trace = []
    converged = False
    iterations = 0
    for it in range(max_iter):
        log_joint = _ref_log_joint_beta(values, comps)
        log_norm = logsumexp(log_joint, axis=1)
        loglik = float(log_norm.sum())
        if trace and loglik < trace[-1] - 1e-10:
            comps = prev_comps
            converged = True
            break
        trace.append(loglik)
        iterations = it + 1
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break
        gamma = np.exp(log_joint - log_norm[:, None])
        prev_comps = comps
        new_comps = []
        for j in range(k):
            mass = gamma[:, j].sum()
            if mass < RESP_FLOOR_FRACTION * n:
                a, b, _ = comps[j]
                new_comps.append((a, b, PI_FLOOR))
                continue
            a, b = _ref_beta_mom(values, gamma[:, j])
            new_comps.append((a, b, mass / n))
        comps = _ref_renormalize(new_comps)

    comps = sorted(comps, key=lambda c: c[0] / (c[0] + c[1]))
    return BetaMixtureModel(
        components=tuple(BetaComponent(a=a, b=b, pi=pi) for a, b, pi in comps),
        loglik_trace=tuple(trace),
        converged=converged,
        iterations=iterations,
    )


def _ref_renormalize(comps):
    total = sum(max(pi, PI_FLOOR) for _, _, pi in comps)
    return [(a, b, max(pi, PI_FLOOR) / total) for a, b, pi in comps]


def _ref_infer_membership(model, lam, posterior=False):
    lam = np.asarray(lam, dtype=np.float64)
    scores = np.stack(
        [
            _ref_beta_log_pdf(lam, c.a, c.b) + (np.log(max(c.pi, PI_FLOOR)) if posterior else 0.0)
            for c in model.components
        ],
        axis=-1,
    )
    member = scores.argmax(axis=-1)
    return int(member) if np.ndim(member) == 0 else member


def _ref_dirichlet_log_pdf(rows, alpha):
    alpha = np.asarray(alpha, dtype=np.float64)
    if np.any(alpha <= 0.0):
        raise ValueError("concentration parameters must be positive")
    rows = np.clip(np.asarray(rows, dtype=np.float64), VALUE_CLIP, 1.0 - VALUE_CLIP)
    out = (
        gammaln(alpha.sum())
        - gammaln(alpha).sum()
        + ((alpha - 1.0) * np.log(rows)).sum(axis=-1)
    )
    return float(out) if np.ndim(out) == 0 else out


def _ref_dirichlet_em_fit(rows, k, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise ValueError("expected (n, M) rows with M >= 2")
    if np.any(rows < -1e-9) or np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError("rows must lie on the probability simplex within 1e-6")
    n = rows.shape[0]
    if n < max(k, 2):
        raise InsufficientSamplesError(f"need at least {max(k, 2)} rows, got {n}")
    if k < 1:
        raise ValueError("k must be positive")
    rows = np.clip(rows, VALUE_CLIP, 1.0 - VALUE_CLIP)

    labels = kmeans_1d(rows[:, -1], k)
    global_alpha = _ref_dirichlet_mom(rows, np.ones(n))
    comps = []
    for j in range(k):
        mask = labels == j
        pi = mask.sum() / n
        alpha = _ref_dirichlet_mom(rows, mask.astype(np.float64)) if mask.any() else global_alpha
        comps.append((alpha, pi))
    comps = _ref_renormalize_dir(comps)

    trace = []
    converged = False
    iterations = 0
    for it in range(max_iter):
        log_joint = np.stack(
            [np.log(max(pi, PI_FLOOR)) + _ref_dirichlet_log_pdf(rows, alpha) for alpha, pi in comps],
            axis=1,
        )
        log_norm = logsumexp(log_joint, axis=1)
        loglik = float(log_norm.sum())
        if trace and loglik < trace[-1] - 1e-10:
            comps = prev_comps
            converged = True
            break
        trace.append(loglik)
        iterations = it + 1
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break
        gamma = np.exp(log_joint - log_norm[:, None])
        prev_comps = comps
        new_comps = []
        for j in range(k):
            mass = gamma[:, j].sum()
            if mass < RESP_FLOOR_FRACTION * n:
                new_comps.append((comps[j][0], PI_FLOOR))
                continue
            new_comps.append((_ref_dirichlet_mom(rows, gamma[:, j]), mass / n))
        comps = _ref_renormalize_dir(new_comps)

    comps = sorted(comps, key=lambda c: c[0][-1] / c[0].sum())
    return DirichletMixtureModel(
        components=tuple(
            DirichletComponent(alpha=tuple(float(a) for a in alpha), pi=pi)
            for alpha, pi in comps
        ),
        loglik_trace=tuple(trace),
        converged=converged,
        iterations=iterations,
    )


def _ref_renormalize_dir(comps):
    total = sum(max(pi, PI_FLOOR) for _, pi in comps)
    return [(alpha, max(pi, PI_FLOOR) / total) for alpha, pi in comps]


def _ref_dirichlet_membership(model, rows, posterior=False):
    rows = np.asarray(rows, dtype=np.float64)
    single = rows.ndim == 1
    rows2 = np.atleast_2d(rows)
    scores = np.stack(
        [
            _ref_dirichlet_log_pdf(rows2, np.asarray(c.alpha))
            + (np.log(max(c.pi, PI_FLOOR)) if posterior else 0.0)
            for c in model.components
        ],
        axis=1,
    )
    member = scores.argmax(axis=1)
    return int(member[0]) if single else member


def _rolled_back(model):
    trace = model.loglik_trace
    return model.converged and (len(trace) < 2 or abs(trace[-1] - trace[-2]) >= DEFAULT_TOL)


def _assert_beta_fit_matches(values, k, **kw):
    expected = _ref_em_fit(values, k, **kw)
    model = em_fit(values, k, **kw)
    assert model == expected
    for posterior in (False, True):
        assert np.array_equal(
            infer_membership(model, values, posterior),
            _ref_infer_membership(expected, values, posterior),
        )
    return model


def _assert_dirichlet_fit_matches(rows, k, **kw):
    expected = _ref_dirichlet_em_fit(rows, k, **kw)
    model = dirichlet_em_fit(rows, k, **kw)
    assert model == expected
    for posterior in (False, True):
        assert np.array_equal(
            dirichlet_membership(model, rows, posterior),
            _ref_dirichlet_membership(expected, rows, posterior),
        )
    return model


@pytest.mark.parametrize("k", range(1, 11))
def test_em_fit_equals_reference_fit(k):
    # K >= 8 crosses the kernel's pairwise-sum branch.
    rng = np.random.default_rng(40 + k)
    n = int(rng.integers(60, 200))
    values = rng.beta(rng.uniform(0.5, 6.0), rng.uniform(0.5, 6.0), size=n)
    _assert_beta_fit_matches(values, k)
    ties = np.round(values, 2)  # many repeated values
    ties[:4] = (0.0, 1.0, 0.0, 1.0)  # exact ends, clipped before fitting
    _assert_beta_fit_matches(ties, k, max_iter=40)
    masses = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
    _assert_beta_fit_matches(masses, k, max_iter=40)


def test_em_fit_reference_edge_cases():
    rng = np.random.default_rng(50)
    # A point mass leaves every component but the first empty; they starve.
    starved = _assert_beta_fit_matches(np.full(120, 0.37), 3)
    assert min(c.pi for c in starved.components) < 1e-9
    # A likelihood drop is rolled back.
    rb = np.concatenate([rng.beta(40, 4, size=100), rng.beta(2, 2, size=50), np.full(50, 0.1)])
    rolled = _assert_beta_fit_matches(rb, 3)
    assert _rolled_back(rolled)
    # A fit cut off by the iteration cap.
    capped = _assert_beta_fit_matches(rng.beta(2, 3, size=150), 4, max_iter=5)
    assert not capped.converged and capped.iterations == 5
    # Scalar memberships go through the same kernel.
    for lam in (0.0, 0.37, 1.0):
        for posterior in (False, True):
            assert infer_membership(starved, lam, posterior) == _ref_infer_membership(
                starved, lam, posterior
            )


def test_em_fit_equals_reference_on_seed0_clustered_inputs(suite0, experts0):
    options = merge.MergeOptions()
    for dom in suite0.test_domains:
        lam = merge._chunk_lambdas(merge.ForwardCache(), experts0.arch, experts0.theta0,
                                   experts0.theta1, dom, np.arange(dom.n_samples), options)
        _assert_beta_fit_matches(lam, 3)


def test_membership_tied_maxima_pick_the_lower_index():
    twin = BetaComponent(a=3.0, b=4.0, pi=0.25)
    model = BetaMixtureModel(
        components=(BetaComponent(a=1.0, b=9.0, pi=0.5), twin, twin),
        loglik_trace=(0.0,),
        converged=True,
        iterations=1,
    )
    lam = np.linspace(0.0, 1.0, 41)
    for posterior in (False, True):
        member = infer_membership(model, lam, posterior)
        assert np.array_equal(member, _ref_infer_membership(model, lam, posterior))
        assert not np.any(member == 2)


@pytest.mark.parametrize("k", range(1, 11))
def test_dirichlet_em_fit_equals_reference_fit(k):
    rng = np.random.default_rng(60 + k)
    n = int(rng.integers(60, 200))
    m = 2 + k % 4
    rows = rng.dirichlet(rng.uniform(0.4, 5.0, size=m), size=n)
    _assert_dirichlet_fit_matches(rows, k, max_iter=60)
    corners = np.zeros((n, m))
    corners[np.arange(n), rng.integers(0, m, size=n)] = 1.0  # point masses at 0 and 1
    _assert_dirichlet_fit_matches(corners, k, max_iter=40)


def test_dirichlet_reference_edge_cases():
    rows = np.tile([0.2, 0.5, 0.3], (90, 1))
    starved = _assert_dirichlet_fit_matches(rows, 3)
    assert min(c.pi for c in starved.components) < 1e-9
    rng = np.random.default_rng(70)
    capped = _assert_dirichlet_fit_matches(rng.dirichlet((1.0, 2.0, 3.0), size=120), 3, max_iter=4)
    assert not capped.converged and capped.iterations == 4
    for posterior in (False, True):
        assert dirichlet_membership(starved, rows[0], posterior) == _ref_dirichlet_membership(
            starved, rows[0], posterior
        )


@pytest.mark.parametrize("k", range(1, 11))
def test_logsumexp_components_equals_scipy(k):
    rng = np.random.default_rng(80 + k)
    # C-ordered (n, K), the layout the fits used to hand to scipy.
    rows = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3, 1e8], size=(300, 1)), size=(300, k))
    rows[:40] = np.round(rows[:40])  # tied maxima
    rows[40:60, 0] = rows[40:60, -1]
    rows[60:80, rng.integers(0, k)] = -np.inf
    rows[80:90] = -np.inf  # all -inf rows fall back to scipy
    rows[90, 0] = np.inf
    a = rows.T  # component-major view
    expected = logsumexp(a.T, axis=1)
    assert np.array_equal(_logsumexp_components(a), expected, equal_nan=True)
    assert np.array_equal(_logsumexp_components(np.ascontiguousarray(a)), expected, equal_nan=True)
    assert np.all(np.isneginf(_logsumexp_components(a)[80:90]))
    finite = np.isfinite(rows).all(axis=1)
    assert np.array_equal(
        _logsumexp_components(np.ascontiguousarray(a[:, finite])), expected[finite]
    )


def test_mixture_hot_path_skips_scipy_logsumexp(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("scipy logsumexp called on finite input")

    monkeypatch.setattr(mx, "logsumexp", forbidden)
    values = np.random.default_rng(90).beta(2, 5, size=200)
    em_fit(values, 3)
    dirichlet_em_fit(np.column_stack([values, 1.0 - values]), 2)


# ----- exact-zero lanes and the other lane classes of the E-step --------------------

# exp(x) is subnormal for x in (ln 2^-1075, ln 2^-1022) and exactly 0 below.
LN_HALF_SMALLEST_SUBNORMAL = -1075 * math.log(2.0)
LN_SMALLEST_NORMAL = -1022 * math.log(2.0)


def test_exp_is_positive_zero_below_the_bound():
    assert mx.EXP_ZERO_BELOW < LN_HALF_SMALLEST_SUBNORMAL
    sweep = np.concatenate([
        np.linspace(mx.EXP_ZERO_BELOW, mx.EXP_ZERO_BELOW - 2.0, 2_000_001),
        -np.geomspace(-mx.EXP_ZERO_BELOW, 1e300, 1_000_001),
        [-np.inf],
    ])
    out = np.exp(sweep)
    assert np.all(out == 0.0) and not np.signbit(out).any()
    assert np.exp(np.nextafter(LN_HALF_SMALLEST_SUBNORMAL, 0.0)) > 0.0


@pytest.mark.parametrize("k", [2, 3, 9])
def test_logsumexp_components_keeps_subnormal_terms(k):
    # Each column's maximum is exactly 0, so log1p(s) = s and a term of
    # subnormal size shows in the result; a bound above ln 2^-1075 drops it.
    rng = np.random.default_rng(110 + k)
    lanes = [-708.0, -709.0, -720.0, -740.0, -745.0, -745.13, -745.14, -746.0, -800.0, -1e8, -np.inf]
    a = rng.choice(lanes, size=(k, 500))
    a[rng.integers(0, k, size=500), np.arange(500)] = 0.0
    a[:2, 450:] = 0.0  # tied maxima
    expected = logsumexp(np.ascontiguousarray(a.T), axis=1)
    assert np.array_equal(_logsumexp_components(a), expected)
    tiny = (expected > 0.0) & (expected < np.finfo(np.float64).tiny)
    assert tiny.sum() > 10


@pytest.fixture
def lane_counts(monkeypatch):
    """Counts the E-step lanes of each class over the fits a test runs."""
    counts = Counter()
    lse, exp_zeroing = mx._logsumexp_components, mx._exp_zeroing

    def counting_lse(log_joint, *buffers):
        a_max = log_joint.max(axis=0)
        counts["tied maxima"] += np.count_nonzero(log_joint == a_max) > a_max.shape[0]
        return lse(log_joint, *buffers)

    def counting_exp(x, zero):
        counts["near point mass"] += np.count_nonzero(x < -1e7)
        counts["exactly zero"] += np.count_nonzero(x < mx.EXP_ZERO_BELOW)
        counts["subnormal"] += np.count_nonzero(
            (x > LN_HALF_SMALLEST_SUBNORMAL) & (x < LN_SMALLEST_NORMAL)
        )
        exp_zeroing(x, zero)

    monkeypatch.setattr(mx, "_logsumexp_components", counting_lse)
    monkeypatch.setattr(mx, "_exp_zeroing", counting_exp)
    return counts


def test_fits_equal_reference_on_near_point_masses(lane_counts):
    # A cluster with spread 2e-6 fits a + b ~ 1e10, as on the seed-0 inputs:
    # its log-joint lanes reach about -1e9, and some lanes' exp is subnormal.
    rng = np.random.default_rng(100)
    lam = np.concatenate([rng.beta(2, 5, size=300), 0.3 + 2e-6 * rng.standard_normal(200)])
    for k in (3, 9):  # K >= 8 sums the terms pairwise
        model = _assert_beta_fit_matches(lam, k, max_iter=60)
        assert max(c.a + c.b for c in model.components) > 1e9
    rows = np.column_stack([0.5 * (1.0 - lam), 0.5 * (1.0 - lam), lam])
    for k in (3, 8):
        _assert_dirichlet_fit_matches(rows, k, max_iter=40)
    assert lane_counts["near point mass"] > 1000
    assert lane_counts["exactly zero"] > lane_counts["near point mass"]
    assert lane_counts["subnormal"] > 10


def test_fits_equal_reference_on_tied_maxima(lane_counts):
    # Mirrored dyadic clusters of 256 values fit mirrored components (a, b)
    # and (b, a) exactly; at x = 0.5 their log-joints often tie as the column
    # maximum, depending on the rounding of the two sums.
    for seed in range(20):
        half = np.random.default_rng(seed).integers(1, 21, size=256) / 64.0
        _assert_beta_fit_matches(np.concatenate([half, 1.0 - half, [0.5]]), 3, max_iter=5)
    assert lane_counts["tied maxima"] >= 1


def test_fits_equal_reference_with_starved_components(lane_counts):
    starved = _assert_beta_fit_matches(np.full(120, 0.37), 3)
    assert sum(c.pi < 1e-9 for c in starved.components) == 2
    rows = np.tile([0.2, 0.5, 0.3], (90, 1))
    starved = _assert_dirichlet_fit_matches(rows, 9)
    assert sum(c.pi < 1e-9 for c in starved.components) == 8


# ----- input checks and fallbacks ----------------------------------------------------


def test_concentration_fallbacks():
    assert mx._concentration(0.5, 0.25) == mx.CONCENTRATION_DIFFUSE == 1e-2  # C = 0
    assert mx._concentration(0.5, 0.3) == 1e-2  # above the Bernoulli variance
    assert mx._concentration(0.3, 1e-13) == mx.CONCENTRATION_POINT_MASS == 1e2
    assert mx._concentration(0.5, 0.05) == 4.0


def test_input_checks_raise_with_their_messages():
    values = np.random.default_rng(120).beta(2, 2, size=20)
    cases = [
        (lambda: kmeans_1d(values[None, :], 2), ValueError, "kmeans_1d expects a vector"),
        (lambda: kmeans_1d(values, 0), ValueError, "k must be positive"),
        (lambda: em_fit(values[None, :], 2), ValueError, "em_fit expects a vector of coefficients"),
        (lambda: em_fit(values, 0), ValueError, "k must be positive"),
        (lambda: em_fit(values[:1], 1), InsufficientSamplesError, "need at least 2 samples, got 1"),
        (lambda: em_fit(values[:3], 4), InsufficientSamplesError, "need at least 4 samples, got 3"),
        (lambda: beta_log_pdf(0.5, 0.0, 1.0), ValueError, "shape parameters must be positive"),
        (lambda: beta_log_pdf(0.5, 1.0, -1.0), ValueError, "shape parameters must be positive"),
        (lambda: dirichlet_em_fit(values, 2), ValueError, r"expected \(n, M\) rows with M >= 2"),
        (lambda: dirichlet_em_fit(np.ones((20, 1)), 2), ValueError, r"expected \(n, M\) rows"),
        (lambda: dirichlet_em_fit(np.full((20, 2), 0.5), 0), ValueError, "k must be positive"),
    ]
    bad_beta = BetaMixtureModel(
        components=(BetaComponent(a=2.0, b=3.0, pi=0.5), BetaComponent(a=0.0, b=3.0, pi=0.5)),
        loglik_trace=(0.0,), converged=True, iterations=1,
    )
    bad_dirichlet = DirichletMixtureModel(
        components=(DirichletComponent(alpha=(1.0, 0.0), pi=1.0),),
        loglik_trace=(0.0,), converged=True, iterations=1,
    )
    cases += [
        (lambda: infer_membership(bad_beta, 0.5), ValueError, "shape parameters must be positive"),
        (lambda: dirichlet_membership(bad_dirichlet, [0.5, 0.5]), ValueError,
         "concentration parameters must be positive"),
    ]
    for call, error, message in cases:
        with pytest.raises(error, match=message):
            call()
