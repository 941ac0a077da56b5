#!/usr/bin/env python3
"""Beta-mixture compression of the coefficient distribution.

Per-sample merging costs one parameter interpolation per test input. Fitting
a small Beta mixture to the coefficients and merging once per component cuts
that to K merges while routing each sample to its membership component.

Pipeline:
1. per-sample entropy-ratio coefficients on a shifted domain
2. Beta mixture fits for K = 1, 2, 3, 5
3. accuracy / merge-count / log-likelihood table against exact per-sample merging
"""
import json
import os

import numpy as np

from dawin import databench, harness
from dawin.classifier import forward_batch
from dawin.expertise import coeff_pair, entropy
from dawin.merge import accuracy, dawin_clustered_eval, dawin_sample_eval
from dawin.mixture import em_fit, mixture_to_dict

DOMAIN = "ood_rot30"
KS = (1, 2, 3, 5)

suite = databench.generate(0, databench.SuiteSpec())
experts = harness.build_experts(suite, with_tasks=False)
arch, t0, t1 = experts.arch, experts.theta0, experts.theta1
dom = suite.domains()[DOMAIN]

h0 = entropy(forward_batch(arch, t0, dom.x))
h1 = entropy(forward_batch(arch, t1, dom.x))
lam = np.asarray(coeff_pair(h0, h1))
print(f"{DOMAIN}: {dom.n_samples} samples, coefficient mean {lam.mean():.4f} "
      f"std {lam.std():.4f}")

exact = dawin_sample_eval(arch, t0, t1, dom)
print(f"\nper-sample merging: accuracy {accuracy(exact, dom.y):.4f}, "
      f"{exact.merge_count} merges")

print(f"\n{'K':>3}  {'accuracy':>9}  {'gap':>8}  {'merges':>7}  {'loglik':>10}")
for k in KS:
    model = em_fit(lam, k=k)
    clustered = dawin_clustered_eval(arch, t0, t1, dom, k=k)
    acc = accuracy(clustered, dom.y)
    gap = acc - accuracy(exact, dom.y)
    print(f"{k:>3}  {acc:>9.4f}  {gap:>+8.4f}  {clustered.merge_count:>7}  "
          f"{model.loglik_trace[-1]:>10.2f}")

# keep the K=3 fit around for inspection
out = os.path.join(harness.report_root(), f"mixture_{DOMAIN}_k3.json")
os.makedirs(os.path.dirname(out), exist_ok=True)
with open(out, "w") as fh:
    json.dump(mixture_to_dict(em_fit(lam, k=3)), fh, indent=2, sort_keys=True)
print(f"\nK=3 mixture written to {out}")
