"""Acceptance gate: each criterion looks up its checks in the seed-0 property
suite (`harness.CHECKS`, the definitions `dawin suite` runs), adds only what is
specific to this fixture, and prints one verdict line, echoed again after the
run via the conftest summary hook."""
import numpy as np
import pytest

import conftest

from dawin import harness
from dawin.databench import generate, SuiteSpec
from dawin.expertise import pearson_r


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"{tag} criterion {name}{suffix}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(f"ACCEPTANCE {line}")


def _gate(name: str, checks, detail: str, **facts: bool) -> None:
    """Print the criterion's verdict, then assert each of its registry checks
    and each fixture-specific fact."""
    _verdict(name, all(c.passed for c in checks) and all(facts.values()), detail)
    for check in checks:
        assert check.passed, check
    for fact, holds in facts.items():
        assert holds, fact


def test_criterion_1_eq1_algebra(checks0):
    check = checks0["coefficient_algebra"]
    _gate("1 eq1-algebra", [check], f"max dev {check.measured:.3g}")


def test_criterion_2_lemma_dominance(checks0):
    synthetic = checks0["expert_dominance_synthetic"]
    bench = checks0["lemma_expert_dominance_benchmark"]
    _gate(
        "2 lemma-dominance",
        [synthetic, bench],
        f"synthetic {synthetic.samples} bench {bench.samples} violations "
        f"{synthetic.violations + bench.violations}",
        bench_samples_over_1000=bench.samples > 1000,
    )


def test_criterion_3a_em_monotone(checks0):
    check = checks0["em_monotone_loglik"]
    _gate("3a em-monotone", [check], f"worst step {check.measured:.3g}")


def test_criterion_3b_em_recovery(checks0):
    check = checks0["em_recovery"]
    _gate("3b em-recovery", [check], f"worst dev / bound {check.measured:.4f}")


def test_criterion_3c_em_50k_runtime(checks0):
    check = checks0["em_runtime_50k"]
    _gate("3c em-50k-runtime", [check], f"within {check.tolerance:g}s")


def test_criterion_4_pilot_ordering(checks0, pilot0, reference0):
    check = checks0["pilot_ordering_chain"]
    _gate(
        "4 pilot-ordering",
        [check],
        f"oracle-sample margin {check.measured:.4f}",
        pilot_matches_frozen_seed0_reference=(
            pilot0.ood_average == reference0["pilot_ood_average"]
        ),
    )


def test_criterion_5_clustered_gap(checks0):
    check = checks0["clustered_gap_and_count"]
    _gate("5 clustered-gap", [check], f"worst |gap| {check.measured:.4f}")


VALLEY_DOMAINS = ("id_test", "ood_rot30", "ood_rot60", "ood_noise1", "ood_scale")


@pytest.mark.parametrize("name", VALLEY_DOMAINS)
def test_criterion_6_entropy_valley(checks0, name):
    check = checks0[f"entropy_valley[{name}]"]
    _gate(f"6 entropy-valley[{name}]", [check], f"best shortfall {check.measured:+.4f}")


def _two_pass_pearson(x, y):
    # deliberately naive reference: explicit mean pass then moment pass
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / (sxx * syy) ** 0.5


def test_criterion_7_correlation(checks0):
    rng = np.random.default_rng(6)
    machinery_dev = 0.0
    for _ in range(5):
        x = rng.normal(size=4000)
        y = 0.4 * x + rng.normal(size=4000)
        machinery_dev = max(machinery_dev, abs(pearson_r(x, y) - _two_pass_pearson(x, y)))
    check = checks0["truetrue_correlation_positive"]
    _gate(
        "7 correlation",
        [check],
        f"machinery dev {machinery_dev:.2e}, TrueTrue r {check.measured:.4f}",
        pearson_matches_two_pass_oracle=machinery_dev <= 1e-10,
    )


def test_criterion_8_mtl_dominance(suite0, experts0, checks0):
    m = len(experts0.task_experts)
    assert m == len(suite0.mtl_tasks) == 4
    diagonal = checks0["mtl_diagonal_dominance"]
    dynamic = checks0["mtl_dynamic_vs_static"]
    _gate(
        "8 mtl-dominance",
        [diagonal, dynamic],
        f"diagonal {m - diagonal.violations}/{m}, dynamic - static {dynamic.measured:+.4f}",
    )


def test_criterion_9_batch_robustness(checks0):
    check = checks0["batch_size_sweep"]
    _gate("9 batch-robustness", [check], f"OOD-average spread {check.measured:.4f}")


def test_criterion_10_determinism(checks0, pilot0):
    fresh_suite = generate(0, SuiteSpec())
    fresh_experts = harness.build_experts(fresh_suite, with_tasks=False)
    fresh_pilot = harness.run_pilot(fresh_suite, fresh_experts)
    same_pilot = harness.report_signature(fresh_pilot) == harness.report_signature(pilot0)
    check = checks0["determinism"]
    _gate(
        "10 determinism",
        [check],
        f"pilot {'bit-identical' if same_pilot else 'DRIFTED'}, "
        f"{check.samples - check.violations}/{check.samples} repeats bit-identical "
        "(retrain, dawin_sample, checkpoint, mixture)",
        fresh_pilot_bit_identical=same_pilot,
    )
