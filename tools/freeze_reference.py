"""Freeze the seed-0 fixed point and print output digests per seed.

    python3 tools/freeze_reference.py              # rewrite both seed-0 files, print seed 0
    python3 tools/freeze_reference.py --seeds 0 3  # print only

One pipeline run per seed (default spec): generate, build_experts with task
experts, pilot, main over every kind, analysis, k=None dawin_task_arith on each
task test split, and the property suite. tests/data/reference_seed0.json holds
seed 0's pilot table, best static coefficient and midpoint-merge accuracies
(reference); golden_seed0.json the sha256 of every role checkpoint and of the
pilot, main and analysis decisions (checkpoint_hashes, decision_hashes).
Tier-1 calls those three functions on its session fixtures.

Each printed line is ``seed N name value``, the first 16 hex digits of
sha256_hex over pilot, main, analysis (report_signature), knone_probs,
knone_chosen, suite (every check's fields), and the decisions, which leave out
probabilities and what derives from them: pilot_rows, main_rows (strategy,
domain, accuracy, merge_count per row), analysis_splits (split counts and
histograms), knone_preds, suite_verdicts (name, verdict, samples, violations).

sha256_hex(obj) is the sha256 of json.dumps(obj, sort_keys=True) in UTF-8, each
numpy array leaf replaced by the sha256 hex of its little-endian bytes; any
other value JSON cannot write raises TypeError. A checkpoint's payload_sha256
is that array-leaf hash; its meta_sha256 hashes the meta dumped with sort_keys
and separators (',', ':').
"""
import argparse
import collections
import hashlib
import json
import os
import sys

import numpy as np

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from dawin import databench, harness
from dawin.merge import STRATEGIES, MergeStrategy, dawin_task_arith_eval, static_eval
from dawin.util import atomic_write

REFERENCE = os.path.normpath(os.path.join(ROOT, "tests", "data", "reference_seed0.json"))
GOLDEN = os.path.normpath(os.path.join(ROOT, "tests", "data", "golden_seed0.json"))

# The ledger's notes are part of its frozen bytes, so they stay verbatim.
CHECKPOINTS_NOTE = (
    "Seed-0 checkpoints of harness.build_experts(generate(0, SuiteSpec())), roles pretrain, "
    "finetune, task0..task3. payload_sha256 hashes the payload as little-endian float64 bytes; "
    "meta_sha256 hashes json.dumps(meta, sort_keys=True, separators=(',', ':')) in UTF-8. Exact: "
    "any change moves a number."
)
DECISIONS_NOTE = (
    "Seed-0 decisions of harness.run_pilot, run_main over every STRATEGIES kind, and "
    "run_analysis, each on generate(0, SuiteSpec()) with build_experts' experts. pilot_rows and "
    "main_rows hash each report row's [strategy, domain, accuracy, merge_count] in row order; "
    "analysis_splits hashes [report.splits, report.histograms]. Each value is the sha256 of "
    "json.dumps(value, sort_keys=True) in UTF-8 (the first 16 hex digits are "
    "tools/output_digests.py's pilot_rows, main_rows and analysis_splits). Exact: a change that "
    "moves a prediction, a merge count or a coefficient histogram moves a hash."
)

SeedRun = collections.namedtuple("SeedRun", "suite experts pilot main analysis knone checks")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_leaf(value) -> str:
    if not isinstance(value, np.ndarray):
        raise TypeError(f"cannot hash a {type(value).__name__}")
    return _sha256(np.ascontiguousarray(value, dtype=value.dtype.newbyteorder("<")).tobytes())


def sha256_hex(obj) -> str:
    return _sha256(json.dumps(obj, sort_keys=True, default=_array_leaf).encode("utf-8"))


def checkpoint_hashes(experts) -> dict:
    roles = {"pretrain": experts.pretrain, "finetune": experts.finetune}
    roles.update((f"task{j}", c) for j, c in enumerate(experts.task_experts))
    compact = {"sort_keys": True, "separators": (",", ":")}
    return {
        role: {
            "meta_sha256": _sha256(json.dumps(c.meta, **compact).encode("utf-8")),
            "payload_sha256": _array_leaf(c.payload.values),
        }
        for role, c in roles.items()
    }


def _rows(report) -> list:
    return [[r["strategy"], r["domain"], r["accuracy"], r["merge_count"]] for r in report.rows]


def _decisions(pilot, main, analysis) -> dict:
    splits = [analysis.splits, analysis.histograms]
    return {"pilot_rows": _rows(pilot), "main_rows": _rows(main), "analysis_splits": splits}


def decision_hashes(pilot, main, analysis) -> dict:
    return {name: sha256_hex(value) for name, value in _decisions(pilot, main, analysis).items()}


def run_seed(seed: int) -> SeedRun:
    suite = databench.generate(seed, databench.SuiteSpec())
    ex = harness.build_experts(suite, with_tasks=True)
    pilot = harness.run_pilot(suite, ex)
    main = harness.run_main(suite, list(STRATEGIES), experts=ex)
    analysis = harness.run_analysis(suite, ex)
    lambda0 = MergeStrategy("dawin_task_arith").lambda0
    args = (ex.arch, ex.theta0, ex.task_params(), ex.task_vectors())
    knone = [dawin_task_arith_eval(*args, s.test, lambda0=lambda0, k=None) for s in suite.mtl_tasks]
    return SeedRun(suite, ex, pilot, main, analysis, knone, harness.run_property_suite(suite, ex))


def digests(run: SeedRun) -> dict:
    values = {
        name: harness.report_signature(getattr(run, name)) for name in ("pilot", "main", "analysis")
    }
    values["knone_probs"] = [r.probs for r in run.knone]
    values["knone_chosen"] = [r.chosen for r in run.knone]
    values["suite"] = [vars(c) for c in run.checks]
    values.update(_decisions(run.pilot, run.main, run.analysis))
    values["knone_preds"] = [r.preds for r in run.knone]
    values["suite_verdicts"] = [[c.name, c.passed, c.samples, c.violations] for c in run.checks]
    return {name: sha256_hex(value)[:16] for name, value in values.items()}


def reference(suite, experts, pilot) -> dict:
    half = {}
    for dom in suite.test_domains:
        result = static_eval(experts.arch, experts.theta0, experts.theta1, 0.5, dom)
        half[dom.name] = float((result.preds == dom.y).mean())
    return {
        "suite_seed": suite.seed,
        "best_static_lam": pilot.config["best_static_lam"],
        "pilot_rows": [{k: r[k] for k in ("strategy", "domain", "accuracy")} for r in pilot.rows],
        "pilot_ood_average": pilot.ood_average,
        "static_half_accuracy": half,
    }


def golden(run: SeedRun) -> dict:
    return {
        "suite_seed": run.suite.seed,
        "note": CHECKPOINTS_NOTE,
        "checkpoints": checkpoint_hashes(run.experts),
        "decisions": {"note": DECISIONS_NOTE, **decision_hashes(run.pilot, run.main, run.analysis)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", help="print these seeds' lines only")
    args = parser.parse_args(argv)
    for seed in args.seeds or [0]:
        run = run_seed(seed)
        if args.seeds is None:
            ref = reference(run.suite, run.experts, run.pilot)
            atomic_write(REFERENCE, json.dumps(ref, indent=2, sort_keys=True) + "\n")
            atomic_write(GOLDEN, json.dumps(golden(run), indent=2) + "\n")
            print(f"wrote {REFERENCE} and {GOLDEN}", file=sys.stderr)
        for name, value in digests(run).items():
            print(f"seed {seed} {name} {value}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
