#!/usr/bin/env python3
"""Upper-bound pilot on the synthetic distribution-shift suite.

Pipeline:
1. generate the seed-0 benchmark (rotation / noise / scale shifts)
2. train the generalist (pretrain mix) and the specialist (ID train split)
3. score ZS, FT, best static interpolation, and both hindsight oracles
   on every test domain

The gap between oracle-sample and best-static is the headroom that
sample-wise coefficients can claim. Equivalent CLI: `dawin eval` with the
same strategy list.

Output: pilot.json under DAWIN_REPORT_DIR (default: the current directory)
and the table below.
"""
import os

from dawin import databench, harness
from dawin.params import load_checkpoint, save_checkpoint

SEED = 0
CACHE = os.path.join(os.path.dirname(__file__), "_cache")

STRATEGIES = ["zs", "ft", "static_best", "oracle_domain", "oracle_sample"]


def experts_with_cache(suite):
    os.makedirs(CACHE, exist_ok=True)
    zs_path = os.path.join(CACHE, f"zs_seed{SEED}.ckpt")
    ft_path = os.path.join(CACHE, f"ft_seed{SEED}.ckpt")
    if os.path.exists(zs_path) and os.path.exists(ft_path):
        zs, ft = load_checkpoint(zs_path), load_checkpoint(ft_path)
        arch = harness.default_architecture(suite)
        return harness.ExpertSet(arch=arch, pretrain=zs, finetune=ft)
    experts = harness.build_experts(suite, with_tasks=False)
    save_checkpoint(experts.pretrain, zs_path)
    save_checkpoint(experts.finetune, ft_path)
    return experts


def main():
    suite = databench.generate(SEED, databench.SuiteSpec())
    experts = experts_with_cache(suite)
    report = harness.run_pilot(suite, experts)

    domains = [d.name for d in suite.test_domains]
    acc = {(r["strategy"], r["domain"]): r["accuracy"] for r in report.rows}
    width = max(len(d) for d in domains)
    print(f"best static coefficient (ID val): {report.config['best_static_lam']}")
    print()
    print(" " * width + "  " + "  ".join(f"{s:>13}" for s in STRATEGIES))
    for dom in domains:
        row = "  ".join(f"{acc[(s, dom)]:13.4f}" for s in STRATEGIES)
        print(f"{dom:<{width}}  {row}")
    print()
    print("OOD average:")
    for strat in STRATEGIES:
        print(f"  {strat:<14} {report.ood_average[strat]:.4f}")
    headroom = report.ood_average["oracle_sample"] - report.ood_average["static_best"]
    print(f"\nsample-wise headroom over best static: {headroom:+.4f}")

    out = os.path.join(harness.report_root(), "pilot.json")
    harness.emit_report(report, out)
    print(f"report written to {out}")


if __name__ == "__main__":
    main()
