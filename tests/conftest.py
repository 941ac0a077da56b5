"""Shared fixtures. The seed-0 suite and its trained experts are expensive
(a few seconds), so they are built once per session and shared read-only."""
import json
import os
import sys

import pytest

from dawin import databench, harness, merge

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))  # freeze_reference

# Verdict lines recorded by the acceptance tests; echoed after the run so the
# per-criterion ledger survives output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# Small generation spec for tests that only exercise plumbing, not trends.
TINY_SPEC = databench.SuiteSpec(
    class_count=4,
    dim=6,
    n_id_train=240,
    n_id_val=80,
    n_test=120,
    ood_shifts=(
        {"kind": "rotation", "angle_deg": 45.0},
        {"kind": "noise", "sigma": 0.8},
    ),
    pretrain_angles=(0.0, 30.0),
    n_pretrain_per_angle=120,
    task_count=2,
    task_angles=(0.0, 30.0),
    n_task_train=160,
    n_task_test=80,
)


@pytest.fixture(scope="session")
def suite0():
    return databench.generate(0, databench.SuiteSpec())


@pytest.fixture(scope="session")
def experts0(suite0):
    return harness.build_experts(suite0)


@pytest.fixture(scope="session")
def pilot0(suite0, experts0):
    return harness.run_pilot(suite0, experts0)


@pytest.fixture(scope="session")
def main0(suite0, experts0):
    """run_main over every strategy kind on seed 0, at the kinds' defaults."""
    return harness.run_main(suite0, list(merge.STRATEGIES), experts=experts0)


@pytest.fixture(scope="session")
def analysis0(suite0, experts0):
    return harness.run_analysis(suite0, experts0)


@pytest.fixture(scope="session")
def checks0(suite0, experts0):
    """The seed-0 property suite, with task experts, by check name."""
    return {c.name: c for c in harness.run_property_suite(suite0, experts0)}


@pytest.fixture(scope="session")
def tiny_suite():
    return databench.generate(7, TINY_SPEC)


@pytest.fixture(scope="session")
def reference0():
    with open(os.path.join(DATA_DIR, "reference_seed0.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def golden0():
    with open(os.path.join(DATA_DIR, "golden_seed0.json")) as fh:
        return json.load(fh)
