import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from dawin.errors import UndefinedOracleError
from dawin.expertise import (
    COEFF_MODES,
    CoefficientBatch,
    Split,
    coeff_multi,
    coeff_pair,
    coeff_pair_offset,
    domain_offset,
    entropy,
    load_coefficients,
    oracle_coeff,
    pearson_r,
    pseudo_label_coeff,
    ratio_correlation,
    save_coefficients,
    soft_xentropy,
    split_masks,
    xentropy,
)

entropies = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


def test_entropy_closed_forms():
    assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0
    assert abs(entropy(np.full(4, 0.25)) - math.log(4)) < 1e-12
    assert abs(entropy(np.array([0.5, 0.5, 0.0, 0.0])) - math.log(2)) < 1e-12


def test_xentropy_closed_forms():
    assert xentropy(np.array([0.0, 1.0]), 1) == 0.0
    assert abs(xentropy(np.array([math.exp(-2), 1 - math.exp(-2)]), 0) - 2.0) < 1e-12
    clipped = xentropy(np.array([0.0, 1.0]), 0)
    assert np.isfinite(clipped)
    assert abs(clipped - (-math.log(1e-12))) < 1e-9


def test_coeff_pair_closed_forms():
    assert coeff_pair(0.7, 0.7) == 0.5
    assert abs(coeff_pair(math.log(2), 0.0) - 2.0 / 3.0) < 1e-12


@given(entropies, entropies)
def test_coeff_pair_symmetry(h0, h1):
    assert abs(coeff_pair(h0, h1) + coeff_pair(h1, h0) - 1.0) < 1e-12


@given(entropies, entropies)
def test_coeff_pair_sigmoid_identity(h0, h1):
    assert abs(coeff_pair(h0, h1) - expit(h0 - h1)) < 1e-12


@given(entropies, entropies, st.floats(min_value=0.0, max_value=5.0))
def test_coeff_pair_shift_invariance(h0, h1, shift):
    assert abs(coeff_pair(h0 + shift, h1 + shift) - coeff_pair(h0, h1)) < 1e-12


def test_coeff_pair_rejects_negative_entropy():
    with pytest.raises(ValueError):
        coeff_pair(-0.1, 0.5)


def test_coeff_multi_closed_forms():
    np.testing.assert_allclose(coeff_multi(np.array([[1.0, 1.0, 1.0]])), 1.0 / 3.0, atol=1e-12)
    out = coeff_multi(np.array([[0.0, math.log(2)]]))[0]
    np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_coeff_multi_rows_on_simplex_and_ordered():
    rng = np.random.default_rng(0)
    h = rng.uniform(0.0, 4.0, size=(1000, 5))
    lam = coeff_multi(h)
    np.testing.assert_allclose(lam.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(lam > 0.0)
    # lower entropy must always get the larger coefficient
    for i, j in [(0, 1), (2, 4)]:
        mask = h[:, i] < h[:, j]
        assert np.all(lam[mask, i] > lam[mask, j])


def test_coeff_multi_pair_consistency():
    rng = np.random.default_rng(1)
    h = rng.uniform(0.0, 3.0, size=(200, 2))
    lam = coeff_multi(h)
    np.testing.assert_allclose(lam[:, 1], coeff_pair(h[:, 0], h[:, 1]), atol=1e-12)


# ----- offset adjustment -----------------------------------------------------------


def test_offset_zero_variance_reduces_to_plain():
    # dyadic constants so the population std is exactly zero
    h0 = np.full(50, 0.75)
    h1 = np.full(50, 0.25)
    off = domain_offset(h0, h1)
    assert off.o == 0.0
    lam, _ = coeff_pair_offset(h0, h1)
    np.testing.assert_allclose(lam, coeff_pair(h0, h1), atol=1e-15)


def test_offset_statistics_direct_substitution():
    # equal means h, equal stds s: T = 2 and O = s/h
    rng = np.random.default_rng(2)
    base = rng.normal(size=400)
    base = (base - base.mean()) / base.std()
    h, s = 1.5, 0.2
    h0 = h + s * base
    h1 = h + s * base[::-1]
    off = domain_offset(h0, h1)
    assert abs(off.t - 2.0) < 1e-12
    assert abs(off.o - s / h) < 1e-12


def two_pass_offset_oracle(h0, h1):
    # Independent reimplementation: explicit python loops, two passes.
    n = len(h0)
    m0 = sum(h0) / n
    m1 = sum(h1) / n
    s0 = math.sqrt(sum((v - m0) ** 2 for v in h0) / n)
    s1 = math.sqrt(sum((v - m1) ** 2 for v in h1) / n)
    o = 0.5 * (s0 / m0 + s1 / m1)
    t = (m0 + m1) / m0
    return [
        (math.exp(-b) + o / t) / (math.exp(-a) + math.exp(-b) + o)
        for a, b in zip(h0, h1)
    ]


def test_offset_matches_two_pass_oracle():
    rng = np.random.default_rng(3)
    h0 = rng.uniform(0.1, 2.0, size=300)
    h1 = rng.uniform(0.1, 2.0, size=300)
    lam, _ = coeff_pair_offset(h0, h1)
    assert np.all((lam > 0.0) & (lam < 1.0))
    np.testing.assert_allclose(lam, two_pass_offset_oracle(h0, h1), atol=1e-12)


# ----- oracles and pseudo labels ---------------------------------------------------


def test_oracle_coeff_closed_forms():
    assert oracle_coeff(0.2, 0.8) == 0.8
    assert oracle_coeff(0.37, 0.37) == 0.5
    # An overconfident, wrong pair: both masses under PROB_EPS still give the ratio, not 0.5.
    assert oracle_coeff(1e-14, 3e-14) == 0.75 and oracle_coeff(0.0, 1e-13) == 1.0


def test_oracle_coeff_equals_xentropy_coeff_pair():
    rng = np.random.default_rng(4)
    p0 = rng.uniform(0.01, 1.0, size=500)
    p1 = rng.uniform(0.01, 1.0, size=500)
    lam = oracle_coeff(p0, p1)
    via_xent = coeff_pair(-np.log(p0), -np.log(p1))
    np.testing.assert_allclose(lam, via_xent, atol=1e-12)


def test_oracle_coeff_undefined_when_both_masses_vanish():
    with pytest.raises(UndefinedOracleError):
        oracle_coeff(np.array([0.5, 0.0]), np.array([0.5, 0.0]))


def test_pseudo_label_symmetry():
    p = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
    for variant in ("avg_soft", "avg_hard", "mid_soft", "mid_hard"):
        lam = pseudo_label_coeff(variant, p, p, p_mid=p)
        np.testing.assert_allclose(lam, 0.5, atol=1e-12)


def test_avg_hard_prefers_the_confident_model():
    p0 = np.array([[0.9, 0.05, 0.05]])
    p1 = np.array([[0.4, 0.3, 0.3]])
    lam = pseudo_label_coeff("avg_hard", p0, p1)
    # lam weights model 1; the confident model 0 should dominate
    assert lam[0] < 0.5


def test_mid_variants_require_p_mid():
    p = np.array([[0.5, 0.5]])
    with pytest.raises(ValueError):
        pseudo_label_coeff("mid_soft", p, p)


def test_soft_xentropy_hand_example():
    p = np.array([0.5, 0.25, 0.25])
    q = np.array([0.2, 0.3, 0.5])
    expected = -(0.2 * math.log(0.5) + 0.3 * math.log(0.25) + 0.5 * math.log(0.25))
    assert abs(soft_xentropy(p, q) - expected) < 1e-12


def test_coeff_modes_list():
    assert COEFF_MODES[:3] == ("plain", "offset_adjusted", "oracle")
    assert "pseudo_label:mid_hard" in COEFF_MODES


# ----- splits and correlation ------------------------------------------------------


def test_split_masks_partition():
    rng = np.random.default_rng(5)
    y = rng.integers(0, 4, size=200)
    p0 = rng.integers(0, 4, size=200)
    p1 = rng.integers(0, 4, size=200)
    masks = split_masks(p0, p1, y)
    total = np.zeros(200, dtype=int)
    for mask in masks.values():
        total += mask.astype(int)
    assert np.all(total == 1)


def test_correctness_split_cases():
    # the first position reports model 0's correctness, the second model 1's
    cases = {
        (3, 3, 3): Split.TRUE_TRUE,
        (3, 5, 3): Split.TRUE_FALSE,
        (5, 3, 3): Split.FALSE_TRUE,
        (5, 6, 3): Split.FALSE_FALSE,
    }
    p0, p1, y = (np.array(column) for column in zip(*cases))
    masks = split_masks(p0, p1, y)
    for i, split in enumerate(cases.values()):
        assert [name for name, mask in masks.items() if mask[i]] == [split.value]


def test_pearson_closed_forms():
    x = np.arange(10.0)
    assert abs(pearson_r(x, 2.0 * x + 1.0) - 1.0) < 1e-12
    assert abs(pearson_r(x, -0.5 * x) + 1.0) < 1e-12
    assert pearson_r(x, np.full(10, 3.0)) is None


def naive_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def test_pearson_matches_two_pass_oracle():
    rng = np.random.default_rng(6)
    x = rng.normal(size=1000)
    y = 0.3 * x + rng.normal(size=1000)
    assert abs(pearson_r(x, y) - naive_pearson(list(x), list(y))) < 1e-10


def test_ratio_correlation_reports_splits():
    rng = np.random.default_rng(7)
    n = 400
    h0 = rng.uniform(0.1, 2.0, size=n)
    h1 = rng.uniform(0.1, 2.0, size=n)
    l0 = h0 + 0.1 * rng.normal(size=n) ** 2
    l1 = h1 + 0.1 * rng.normal(size=n) ** 2
    y = rng.integers(0, 3, size=n)
    preds0 = np.where(rng.uniform(size=n) < 0.7, y, (y + 1) % 3)
    preds1 = np.where(rng.uniform(size=n) < 0.7, y, (y + 2) % 3)
    out = ratio_correlation(h0, h1, l0, l1, preds0, preds1, y)
    assert "overall" in out and "TrueTrue" in out
    assert out["overall"] > 0.5  # ratios are tightly coupled by construction


# ----- batches ---------------------------------------------------------------------


def test_coefficient_batch_round_trip(tmp_path):
    # the CSV carries exactly sample_index,lambda_j...,mode; ids are in-memory
    lam = np.random.default_rng(8).uniform(size=64)
    batch = CoefficientBatch(lam, mode="plain", model_ids=("aaa", "bbb"))
    path = tmp_path / "coeffs.csv"
    save_coefficients(batch, path)
    assert path.read_text().splitlines()[0] == "sample_index,lambda_0,lambda_1,mode"
    loaded = load_coefficients(path)
    np.testing.assert_array_equal(loaded.coefficients, lam)
    assert loaded.mode == "plain"


def test_coefficient_batch_rows_round_trip(tmp_path):
    rows = coeff_multi(np.random.default_rng(9).uniform(0, 3, size=(32, 3)))
    batch = CoefficientBatch(rows, mode="plain", model_ids=("a", "b", "c"))
    save_coefficients(batch, tmp_path / "rows.csv")
    loaded = load_coefficients(tmp_path / "rows.csv")
    np.testing.assert_array_equal(loaded.coefficients, rows)


def test_coefficient_batch_rejects_out_of_range():
    with pytest.raises(ValueError):
        CoefficientBatch(np.array([0.2, 1.4]), mode="plain")
