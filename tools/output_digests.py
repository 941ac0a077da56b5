"""Print output digests that pin what a seed's evaluation produces.

A change that claims "no number moved" runs this before and after and
compares the lines. Per seed (default spec, experts from
``build_experts(with_tasks=True)``), each value is the first 16 hex digits of
a sha256:

    pilot         report_signature of run_pilot
    main          report_signature of run_main over all 13 strategy kinds
    analysis      report_signature of run_analysis
    knone_probs   probs of dawin_task_arith_eval(k=None, lambda0=0.3) on
                  every task test split
    knone_chosen  chosen coefficients of the same calls
    suite         run_property_suite with the task experts

and the decision digests, which leave out the probabilities and the values
derived from them (entropies, correlations, measured gaps), so a change that
moves probabilities in the last bits but no decision keeps them:

    pilot_rows, main_rows
                    each row's strategy, domain, accuracy and merge_count
    analysis_splits the analysis report's split counts and coefficient
                    histograms (it has no strategy rows)
    knone_preds     preds of the k=None calls
    suite_verdicts  each check's name, verdict, samples and violations

Run from the repository root:

    python3 tools/output_digests.py --seeds 0 3

The hashing is ``perfbench/workloads.py``'s ``digest``, the scheme the BENCH
records rely on.
"""
import argparse
import os
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from dawin import databench, harness
from dawin.merge import STRATEGIES, dawin_task_arith_eval
from workloads import LAMBDA0
from workloads import digest as full_digest


def digest(obj) -> str:
    return full_digest(obj)[:16]


def row_decisions(report) -> list:
    return [[r["strategy"], r["domain"], r["accuracy"], r["merge_count"]] for r in report.rows]


def seed_digests(seed: int) -> dict:
    suite = databench.generate(seed, databench.SuiteSpec())
    experts = harness.build_experts(suite, with_tasks=True)
    reports = {
        "pilot": harness.run_pilot(suite, experts),
        "main": harness.run_main(suite, list(STRATEGIES), experts=experts),
        "analysis": harness.run_analysis(suite, experts),
    }
    out = {name: digest(harness.report_signature(r)) for name, r in reports.items()}
    params, taus = experts.task_params(), experts.task_vectors()
    exact = [
        dawin_task_arith_eval(
            experts.arch, experts.theta0, params, taus, split.test, lambda0=LAMBDA0, k=None
        )
        for split in suite.mtl_tasks
    ]
    out["knone_probs"] = digest([r.probs for r in exact])
    out["knone_chosen"] = digest([r.chosen for r in exact])
    checks = harness.run_property_suite(suite, experts)
    out["suite"] = digest([vars(c) for c in checks])
    out["pilot_rows"] = digest(row_decisions(reports["pilot"]))
    out["main_rows"] = digest(row_decisions(reports["main"]))
    analysis = reports["analysis"]
    out["analysis_splits"] = digest([analysis.splits, analysis.histograms])
    out["knone_preds"] = digest([r.preds for r in exact])
    out["suite_verdicts"] = digest([[c.name, c.passed, c.samples, c.violations] for c in checks])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for name, value in seed_digests(seed).items():
            print(f"seed {seed} {name} {value}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
