"""Corrupted input files: every reader raises a DawinError whose message
starts with the file it read, and nothing else. When a corrupted JSON file
still parses to an object, an error about it also names one of its fields.

Each case takes one valid file and corrupts it once: a truncation, a flipped
byte, or, for JSON, a value swapped for one of another type or a deleted key.
"""
import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dawin import databench, expertise, harness, mixture, params
from dawin.classifier import MlpArchitecture, init_params
from dawin.errors import DawinError

# A suite small enough that load_suite takes a few milliseconds.
SPEC = databench.SuiteSpec(
    class_count=3, dim=4, n_id_train=6, n_id_val=6, n_test=6,
    ood_shifts=({"kind": "rotation", "angle_deg": 45.0}, {"kind": "noise", "sigma": 0.8}),
    pretrain_angles=(0.0,), n_pretrain_per_angle=6,
    task_count=1, task_angles=(0.0,), n_task_train=4, n_task_test=4,
)
SWAPS = (None, True, 5, -1, 1.5, "x", [], [1], {})


def _report() -> harness.EvalReport:
    report = harness.EvalReport(suite_seed=0)
    report.config = {"operation": "main", "k": 3}
    report.rows = [{"strategy": "zs", "domain": "id_test", "accuracy": 0.5,
                    "mean_entropy": 0.1, "merge_count": 0, "wall_ms": 1.0}]
    report.ood_average = {"zs": 0.5}
    report.histograms = {"dawin": {"counts": [1, 0], "n": 1}}
    report.property_checks = [harness.PropertyCheck("check", 3, 0, 0.0, "pass", 0.5)]
    return report


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """kind -> (file to corrupt, its reader, the path its errors start with)."""
    root = tmp_path_factory.mktemp("corrupt")
    suite = root / "suite"
    databench.save_suite(databench.generate(1, SPEC), suite)
    coeffs, mix, report, ckpt = (root / n for n in ("c.csv", "m.json", "r.json", "k.ckpt"))
    expertise.save_coefficients(
        expertise.CoefficientBatch(np.linspace(0.1, 0.9, 8), mode="plain"), coeffs
    )
    mixture.save_mixture(mixture.em_fit(np.random.default_rng(0).beta(2, 3, 60), 2), mix)
    harness.emit_report(_report(), report)
    arch = MlpArchitecture(input_dim=4, hidden_widths=(3,), class_count=3)
    values = init_params(arch, np.random.default_rng(0))
    params.save_checkpoint(
        params.Checkpoint(arch.to_header(), params.ParamVector(values, arch.layout_id)), ckpt
    )
    return {
        "manifest": (suite / "manifest.json", lambda: databench.load_suite(suite), suite),
        "domain_csv": (suite / "domains" / "id_test.csv", lambda: databench.load_suite(suite),
                       suite),
        "coefficient_csv": (coeffs, lambda: expertise.load_coefficients(coeffs), coeffs),
        "mixture_json": (mix, lambda: mixture.load_mixture(mix), mix),
        "report_json": (report, lambda: harness.load_report(report), report),
        "checkpoint": (ckpt, lambda: params.load_checkpoint(ckpt), ckpt),
    }


def _paths(node, prefix=()):
    """Every position in a JSON document, as a key path; () is the root."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _edited(doc, path, value=None, delete=False) -> bytes:
    doc = copy.deepcopy(doc)
    if not path:
        return json.dumps(value).encode()
    node = doc
    for key in path[:-1]:
        node = node[key]
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(doc).encode()


def _names_a_field(message: str, *docs) -> bool:
    """Whether message names a key of one of docs, quoted, or a list entry."""
    keys = {key for doc in docs for path in _paths(doc) for key in path if isinstance(key, str)}
    return any(f"{key!r}" in message for key in keys) or bool(re.search(r"\bentry \d+", message))


def _parsed(blob: bytes):
    try:
        return json.loads(blob)
    except ValueError:
        return None


def _flipped(blob: bytes, index: int, mask: int) -> bytes:
    out = bytearray(blob)
    out[index] ^= mask
    return bytes(out)


def _mutants(blob: bytes, is_json: bool):
    last = len(blob) - 1
    options = [
        st.integers(0, last).map(lambda n: blob[:n]),
        st.builds(_flipped, st.just(blob), st.integers(0, last), st.integers(1, 255)),
    ]
    if is_json:
        doc = json.loads(blob)
        paths = list(_paths(doc))
        keyed = [p for p in paths if p and isinstance(p[-1], str)]
        options.append(st.builds(_edited, st.just(doc), st.sampled_from(paths),
                                 st.sampled_from(SWAPS)))
        options.append(st.sampled_from(keyed).map(lambda p: _edited(doc, p, delete=True)))
    return st.one_of(options)


@pytest.mark.parametrize("kind", ["manifest", "domain_csv", "coefficient_csv", "mixture_json",
                                  "report_json", "checkpoint"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_corrupt_file_raises_a_dawin_error_naming_it(corpus, kind, data):
    path, read, prefix = corpus[kind]
    blob = path.read_bytes()
    mutant = data.draw(_mutants(blob, path.suffix == ".json"))
    path.write_bytes(mutant)
    try:
        read()
    except DawinError as exc:
        assert str(exc).startswith(str(prefix)), exc
        doc = _parsed(mutant) if path.suffix == ".json" else None
        if isinstance(doc, dict) and str(exc).startswith(f"{path}: "):
            assert _names_a_field(str(exc), json.loads(blob), doc), exc
    finally:
        path.write_bytes(blob)
