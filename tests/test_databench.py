import io
import json
import os

import numpy as np
import pytest

from dawin.classifier import forward_batch
from dawin.databench import (
    Domain,
    SuiteSpec,
    apply_shift,
    domain_to_csv,
    generate,
    load_domain,
    load_suite,
    rotation_matrix,
    save_domain,
    save_suite,
)
from dawin.errors import DataFormatError

from conftest import TINY_SPEC


def test_identity_shift_returns_copy():
    x = np.random.default_rng(0).normal(size=(10, 4))
    out = apply_shift(x, {"kind": "identity"})
    np.testing.assert_array_equal(out, x)
    assert out is not x


def test_rotation_matrix_is_orthogonal_and_periodic():
    for dim in (4, 7, 16):
        r = rotation_matrix(dim, 33.0)
        np.testing.assert_allclose(r @ r.T, np.eye(dim), atol=1e-12)
        np.testing.assert_allclose(rotation_matrix(dim, 360.0), np.eye(dim), atol=1e-12)


def test_full_turn_domain_is_statistically_identity(suite0, experts0):
    # 2 pi rotation leaves the classifier's view of the data unchanged.
    rotated = apply_shift(suite0.id_test.x, {"kind": "rotation", "angle_deg": 360.0})
    probs_raw = forward_batch(experts0.arch, experts0.theta1, suite0.id_test.x)
    probs_rot = forward_batch(experts0.arch, experts0.theta1, rotated)
    acc_raw = (probs_raw.argmax(axis=1) == suite0.id_test.y).mean()
    acc_rot = (probs_rot.argmax(axis=1) == suite0.id_test.y).mean()
    assert abs(acc_raw - acc_rot) < 0.01


def test_generation_is_deterministic_and_serialization_byte_identical(tmp_path):
    a = generate(7, TINY_SPEC)
    b = generate(7, TINY_SPEC)
    np.testing.assert_array_equal(a.id_train.x, b.id_train.x)
    save_suite(a, tmp_path / "a")
    save_suite(b, tmp_path / "b")
    files_a = sorted(os.listdir(tmp_path / "a" / "domains"))
    assert files_a == sorted(os.listdir(tmp_path / "b" / "domains"))
    for name in files_a:
        assert (tmp_path / "a" / "domains" / name).read_bytes() == (
            tmp_path / "b" / "domains" / name
        ).read_bytes()
    assert (tmp_path / "a" / "manifest.json").read_bytes() == (
        tmp_path / "b" / "manifest.json"
    ).read_bytes()


def test_suite_round_trip(tiny_suite, tmp_path):
    save_suite(tiny_suite, tmp_path / "suite")
    loaded = load_suite(tmp_path / "suite")
    assert loaded.seed == tiny_suite.seed
    assert loaded.spec == tiny_suite.spec
    for name, dom in tiny_suite.domains().items():
        other = loaded.domains()[name]
        np.testing.assert_array_equal(dom.x, other.x)
        np.testing.assert_array_equal(dom.y, other.y)
        assert dom.shift_spec == other.shift_spec


@pytest.mark.parametrize("role", ["pretrain_mix", "id_val", "ood_tests"])
def test_manifest_missing_role_is_a_data_error(tiny_suite, tmp_path, role):
    save_suite(tiny_suite, tmp_path / "suite")
    path = tmp_path / "suite" / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["roles"][role]
    path.write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError, match=f"manifest.json: .*'{role}'"):
        load_suite(tmp_path / "suite")


@pytest.mark.parametrize(
    "where, key",
    [("domains.id_val", "path"), ("domains.ood_rot45", "shift_spec"),
     ("mtl_tasks.0", "train"), ("mtl_tasks.1", "test")],
)
def test_manifest_entry_missing_key_is_a_data_error(tiny_suite, tmp_path, where, key):
    save_suite(tiny_suite, tmp_path / "suite")
    path = tmp_path / "suite" / "manifest.json"
    manifest = json.loads(path.read_text())
    section, name = where.split(".")
    entry = manifest[section][int(name) if section == "mtl_tasks" else name]
    del entry[key]
    path.write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError, match=f"manifest.json: .*{name}.* '{key}'"):
        load_suite(tmp_path / "suite")


@pytest.mark.parametrize("section, value", [("domains", []), ("domains", 5), ("mtl_tasks", 3)])
def test_manifest_section_of_wrong_type_is_a_data_error(tiny_suite, tmp_path, section, value):
    save_suite(tiny_suite, tmp_path / "suite")
    path = tmp_path / "suite" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[section] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError, match="manifest.json: "):
        load_suite(tmp_path / "suite")


@pytest.mark.parametrize("field, value, fragment", [
    ("dim", 5, "dimension 6 does not match spec 5"),
    ("class_count", 2, "label exceeds class count 2"),
])
def test_domain_that_disagrees_with_the_spec_names_its_csv(
    tiny_suite, tmp_path, field, value, fragment
):
    save_suite(tiny_suite, tmp_path / "suite")
    path = tmp_path / "suite" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["spec"][field] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError) as exc:
        load_suite(tmp_path / "suite")
    assert str(exc.value).startswith(str(tmp_path / "suite" / "domains")), exc.value
    assert str(exc.value).endswith(".csv: " + fragment), exc.value


def test_class_priors_are_near_uniform(checks0):
    check = checks0["class_priors_uniform"]
    assert check.passed, check


def test_ood_domains_really_shift(suite0):
    for dom in suite0.ood_tests:
        assert dom.shift_spec["kind"] != "identity"
        assert not np.array_equal(dom.x, suite0.id_test.x)


def test_expert_asymmetry_precondition(checks0):
    """The specialist wins in-distribution while the generalist wins on at
    least one shifted domain: the gap changes sign."""
    check = checks0["specialist_generalist_asymmetry"]
    assert check.passed, check


# ----- domain CSV format -----------------------------------------------------------


def test_domain_csv_round_trip_bit_identical(tiny_suite, tmp_path):
    dom = tiny_suite.id_val
    path = tmp_path / "dom.csv"
    save_domain(dom, path)
    loaded = load_domain(path, name=dom.name, shift_spec=dom.shift_spec)
    np.testing.assert_array_equal(loaded.x, dom.x)
    np.testing.assert_array_equal(loaded.y, dom.y)


def test_short_row_names_row_index(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n")
    with pytest.raises(DataFormatError, match="row 2"):
        load_domain(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataFormatError, match="empty"):
        load_domain(path)


def test_header_only_rejected(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("label,f0,f1\n")
    with pytest.raises(DataFormatError, match="no data rows"):
        load_domain(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(DataFormatError):
        load_domain(path)


def test_negative_label_rejected(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("label,f0\n-1,0.5\n")
    with pytest.raises(DataFormatError, match="negative label"):
        load_domain(path)


def test_csv_uses_17_significant_digits():
    dom = Domain("d", np.array([[1.0 / 3.0]]), np.array([0]), {"kind": "identity"})
    text = domain_to_csv(dom)
    assert "0.33333333333333331" in text


def _ref_domain_to_csv(domain: Domain) -> str:
    """The per-value writer domain_to_csv replaced, kept as its oracle."""
    buf = io.StringIO()
    cols = ["label"] + [f"f{i}" for i in range(domain.dim)]
    buf.write(",".join(cols) + "\n")
    for label, row in zip(domain.y, domain.x):
        buf.write(str(int(label)))
        for v in row:
            buf.write(",%.17g" % v)
        buf.write("\n")
    return buf.getvalue()


def test_csv_writer_matches_per_value_writer(tiny_suite):
    for dom in tiny_suite.domains().values():
        assert domain_to_csv(dom) == _ref_domain_to_csv(dom)
    odd = np.array([[0.0, -0.0, 1e-310, -1.7976931348623157e308, 5e-324, 123456789.0, 0.1]])
    dom = Domain("odd", odd, np.array([12]), {"kind": "identity"})
    assert domain_to_csv(dom) == _ref_domain_to_csv(dom)


def test_spec_validation():
    with pytest.raises(ValueError):
        SuiteSpec(class_count=1)
    with pytest.raises(ValueError):
        SuiteSpec(task_count=4, task_angles=(0.0,))
    with pytest.raises(ValueError):
        Domain("d", np.empty((0, 3)), np.empty(0, dtype=int), {"kind": "identity"})
