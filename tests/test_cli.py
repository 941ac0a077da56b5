import contextlib
import dataclasses
import io
import json
import re
import shutil
import struct
import subprocess

import numpy as np
import pytest

from conftest import TINY_SPEC
from dawin import cli, harness
from dawin.classifier import MlpArchitecture, forward_batch
from dawin.databench import SuiteSpec, generate, load_suite, save_suite
from dawin.expertise import (
    COEFF_MODES,
    coeff_multi,
    coeff_pair,
    coeff_pair_offset,
    entropy,
    load_coefficients,
    oracle_coeff,
    pseudo_label_coeff,
)
from dawin.harness import load_report, report_signature
from dawin.mixture import mixture_from_dict
from dawin.params import checkpoint_id, interpolate_pair, load_checkpoint


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """A generated tiny suite plus CLI-trained endpoint checkpoints."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.json"
    spec.write_text(json.dumps(dataclasses.asdict(TINY_SPEC)))
    suite = root / "suite"
    assert cli.main(["gen", "--seed", "7", "--spec", str(spec), "--out", str(suite)]) == 0
    zs = root / "zs.ckpt"
    ft = root / "ft.ckpt"
    assert cli.main([
        "train", "--suite", str(suite), "--role", "pretrain",
        "--epochs", "4", "--out", str(zs),
    ]) == 0
    assert cli.main([
        "train", "--suite", str(suite), "--role", "finetune",
        "--init", str(zs), "--epochs", "2", "--out", str(ft),
    ]) == 0
    return {"root": root, "spec": spec, "suite": suite, "zs": zs, "ft": ft}


def test_gen_is_idempotent(cli_env, tmp_path):
    again = tmp_path / "suite2"
    assert cli.main([
        "gen", "--seed", "7", "--spec", str(cli_env["spec"]), "--out", str(again),
    ]) == 0
    first = (cli_env["suite"] / "manifest.json").read_bytes()
    assert (again / "manifest.json").read_bytes() == first
    for csv in sorted(p.name for p in (cli_env["suite"] / "domains").iterdir()):
        assert (again / "domains" / csv).read_bytes() == (
            cli_env["suite"] / "domains" / csv
        ).read_bytes()


def test_gen_seed_precedence_config_vs_flag(cli_env, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "spec": dataclasses.asdict(TINY_SPEC)}))
    out_cfg = tmp_path / "from_config"
    assert cli.main(["gen", "--config", str(cfg), "--out", str(out_cfg)]) == 0
    assert json.loads((out_cfg / "manifest.json").read_text())["seed"] == 3
    out_flag = tmp_path / "from_flag"
    assert cli.main(["gen", "--config", str(cfg), "--seed", "5", "--out", str(out_flag)]) == 0
    assert json.loads((out_flag / "manifest.json").read_text())["seed"] == 5


def test_gen_spec_is_a_partial_override(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dim": 8}))
    assert cli.main(["gen", "--spec", str(spec), "--out", str(tmp_path / "cli")]) == 0
    save_suite(generate(0, SuiteSpec(dim=8)), tmp_path / "direct")
    manifest = (tmp_path / "cli" / "manifest.json").read_bytes()
    assert manifest == (tmp_path / "direct" / "manifest.json").read_bytes()


def test_trained_checkpoints_are_loadable(cli_env):
    zs = load_checkpoint(cli_env["zs"])
    ft = load_checkpoint(cli_env["ft"])
    assert zs.arch == ft.arch
    assert ft.meta.get("parent") == checkpoint_id(zs)
    assert zs.meta["dataset_id"] == "pretrain_mix"
    assert ft.meta["dataset_id"] == "id_train"


def test_eval_clustered_reports_k_merges(cli_env, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main([
        "eval", "--suite", str(cli_env["suite"]),
        "--theta0", str(cli_env["zs"]), "--theta1", str(cli_env["ft"]),
        "--strategy", "dawin_clustered", "--k", "3", "--out", str(out),
    ]) == 0
    report = load_report(out)
    assert report.rows, "expected one row per test domain"
    for row in report.rows:
        assert row["strategy"] == "dawin_clustered"
        assert row["merge_count"] == 3
    assert report.config["cli"]["k"] == 3


def test_eval_is_idempotent_across_report_roots(cli_env, tmp_path, monkeypatch):
    signatures = []
    for sub in ("a", "b"):
        rootdir = tmp_path / sub
        rootdir.mkdir()
        monkeypatch.setenv("DAWIN_REPORT_DIR", str(rootdir))
        assert cli.main([
            "eval", "--suite", str(cli_env["suite"]),
            "--theta0", str(cli_env["zs"]), "--theta1", str(cli_env["ft"]),
            "--strategy", "zs", "--strategy", "static", "--lam", "0.4",
            "--out", "report.json",
        ]) == 0
        signatures.append(report_signature(load_report(rootdir / "report.json")))
    assert signatures[0] == signatures[1]


def test_coeffs_then_fit_mixture_round_trip(cli_env, tmp_path):
    coeffs = tmp_path / "coeffs.csv"
    assert cli.main([
        "coeffs", "--suite", str(cli_env["suite"]), "--domain", "id_test",
        "--model", str(cli_env["zs"]), "--model", str(cli_env["ft"]),
        "--out", str(coeffs),
    ]) == 0
    header = coeffs.read_text().splitlines()[0]
    assert header == "sample_index,lambda_0,lambda_1,mode"
    fitted = tmp_path / "mixture.json"
    assert cli.main([
        "fit-mixture", "--coeffs", str(coeffs), "--k", "2", "--out", str(fitted),
    ]) == 0
    model = mixture_from_dict(json.loads(fitted.read_text()))
    assert len(model.components) == 2


@pytest.mark.parametrize("rows, fragment", [
    (["0,0.7,0.3,plain", "1,nan,nan,plain"], "row 2"),  # two columns: a Beta fit
    (["0,0.2,0.3,0.5,plain", "1,nan,0.3,0.5,plain"], "finite"),  # a Dirichlet fit
    (["0,0.9,0.1,plain", "1,0.9,0.4,plain", "2,0.5,0.5,plain"], "row 2"),  # lambda_0 read
    (["0,0.5,0.5,plain", "1,0.5\xff,0.5,plain"], "decode"),  # not UTF-8
    (["0,0.5,0.5,plain", "1,0.5" + "0" * 131072 + ",0.5,plain"], "field limit"),  # csv.Error
], ids=["beta_nan", "dirichlet_nan", "pair_not_on_simplex", "not_utf8", "field_over_limit"])
def test_fit_mixture_rejects_bad_coefficients(tmp_path, capsys, rows, fragment):
    m = rows[0].count(",") - 1
    coeffs = tmp_path / "coeffs.csv"
    header = ",".join(["sample_index"] + [f"lambda_{j}" for j in range(m)] + ["mode"])
    coeffs.write_bytes(("\n".join([header] + rows) + "\n").encode("latin-1"))
    capsys.readouterr()
    code = cli.main(["fit-mixture", "--coeffs", str(coeffs), "--k", "1",
                     "--out", str(tmp_path / "mix.json")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and str(coeffs) in err[0] and fragment in err[0], err
    assert not (tmp_path / "mix.json").exists()


def test_fit_mixture_on_three_columns_fits_a_dirichlet(tmp_path):
    rows = np.random.default_rng(0).dirichlet((2.0, 3.0, 4.0), size=40)
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("sample_index,lambda_0,lambda_1,lambda_2,mode\n" + "".join(
        f"{i},{r[0]:.17g},{r[1]:.17g},{1.0 - r[0] - r[1]:.17g},plain\n" for i, r in enumerate(rows)
    ))
    fitted = tmp_path / "mix.json"
    assert cli.main(["fit-mixture", "--coeffs", str(coeffs), "--k", "2",
                     "--out", str(fitted)]) == 0
    model = mixture_from_dict(json.loads(fitted.read_text()))
    assert model.k == 2 and model.n_models == 3


def test_coeffs_oracle_needs_labels(cli_env, tmp_path):
    unlabeled = tmp_path / "points.csv"
    dim = TINY_SPEC.dim
    header = ",".join(f"f{i}" for i in range(dim))
    rows = [",".join("0.1" for _ in range(dim)) for _ in range(4)]
    unlabeled.write_text(header + "\n" + "\n".join(rows) + "\n")
    code = cli.main([
        "coeffs", "--domain", str(unlabeled), "--mode", "oracle",
        "--model", str(cli_env["zs"]), "--model", str(cli_env["ft"]),
        "--out", str(tmp_path / "coeffs.csv"),
    ])
    assert code == 2


def test_suite_domain_csv_not_utf8_exits_2(cli_env, tmp_path, capsys):
    suite = tmp_path / "suite"
    shutil.copytree(cli_env["suite"], suite)
    csv = suite / "domains" / "id_test.csv"
    csv.write_bytes(csv.read_bytes() + b"\xff\xfe")
    capsys.readouterr()
    code = cli.main(["eval", "--suite", str(suite), "--theta0", str(cli_env["zs"]),
                     "--theta1", str(cli_env["ft"]), "--strategy", "zs",
                     "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and str(csv) in err[0] and "UTF-8" in err[0], err


_F6 = "f0,f1,f2,f3,f4,f5"


@pytest.mark.parametrize("content, fragments", [
    (b"\x00\xff\xfe\x81binary", ["UTF-8"]),
    (f"{_F6}\n0,0,0,0,0,0\n0.1,nan,0,0,0,0\n".encode(), ["row 2", "non-finite"]),
    (f"{_F6}\n0,0,0,0,0,inf\n".encode(), ["row 1", "non-finite"]),
    (f"{_F6}\n0.1,0.2,0.3\n".encode(), ["row 1", "expected 6 fields, got 3"]),
    (b"f0,f1,f2\n0.1,0.2,0.3\n0.4,0.5,0.6\n", ["3 features per row", "take 6"]),
], ids=["binary", "nan", "inf", "short_row", "three_columns"])
def test_coeffs_bad_feature_only_domain_exits_2(cli_env, tmp_path, capsys, content, fragments):
    points = tmp_path / "points.csv"
    points.write_bytes(content)
    capsys.readouterr()
    code = cli.main([
        "coeffs", "--domain", str(points),
        "--model", str(cli_env["zs"]), "--model", str(cli_env["ft"]),
        "--out", str(tmp_path / "coeffs.csv"),
    ])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and str(points) in err[0], err
    assert all(f in err[0] for f in fragments), err
    assert not (tmp_path / "coeffs.csv").exists()


def test_coeffs_labeled_domain_with_a_bad_row_names_row_and_field(cli_env, tmp_path, capsys):
    # A labeled CSV keeps the labeled reader's message; it does not fall back
    # to the feature-only reader.
    bad = tmp_path / "bad.csv"
    lines = (cli_env["suite"] / "domains" / "id_test.csv").read_text().splitlines()
    bad.write_text("\n".join(lines + ["x,0,0,0,0,0,0"]) + "\n")
    capsys.readouterr()
    code = cli.main([
        "coeffs", "--domain", str(bad),
        "--model", str(cli_env["zs"]), "--model", str(cli_env["ft"]),
        "--out", str(tmp_path / "coeffs.csv"),
    ])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1, err
    assert str(bad) in err[0] and f"row {len(lines)}" in err[0] and "'label'" in err[0], err
    assert "neither" not in err[0]


def _coeffs(cli_env, tmp_path, mode, models):
    out = tmp_path / "coeffs.csv"
    code = cli.main(["coeffs", "--suite", str(cli_env["suite"]), "--domain", "id_test",
                     "--mode", mode, *(f"--model={m}" for m in models), "--out", str(out)])
    return code, out


@pytest.fixture(scope="module")
def id_test_outputs(cli_env):
    """The tiny suite's id_test, the endpoint checkpoints and their probs."""
    dom = load_suite(str(cli_env["suite"])).domains()["id_test"]
    zs, ft = load_checkpoint(cli_env["zs"]), load_checkpoint(cli_env["ft"])
    arch = MlpArchitecture.from_header(zs.arch)
    p0, p1 = forward_batch(arch, zs.payload, dom.x), forward_batch(arch, ft.payload, dom.x)
    return arch, dom, zs, ft, p0, p1


@pytest.mark.parametrize("mode", COEFF_MODES)
def test_coeffs_pair_modes_write_the_library_coefficients(cli_env, id_test_outputs, tmp_path,
                                                          mode):
    arch, dom, zs, ft, p0, p1 = id_test_outputs
    code, out = _coeffs(cli_env, tmp_path, mode, [cli_env["zs"], cli_env["ft"]])
    assert code == 0
    if mode == "plain":
        expected = coeff_pair(entropy(p0), entropy(p1))
    elif mode == "offset_adjusted":
        expected, _ = coeff_pair_offset(entropy(p0), entropy(p1))
    elif mode == "oracle":
        rows = np.arange(dom.n_samples)
        expected = oracle_coeff(p0[rows, dom.y], p1[rows, dom.y])
    else:
        p_mid = forward_batch(arch, interpolate_pair(zs.payload, ft.payload, 0.5), dom.x)
        expected = pseudo_label_coeff(mode.split(":", 1)[1], p0, p1, p_mid=p_mid)
    batch = load_coefficients(str(out))
    assert batch.mode == mode
    assert np.array_equal(batch.coefficients, expected)


def test_coeffs_three_models_plain_rows_and_other_modes_rejected(
    cli_env, id_test_outputs, task_ckpts, tmp_path, capsys
):
    arch, dom, *_, p0, p1 = id_test_outputs
    models = [cli_env["zs"], cli_env["ft"], task_ckpts[0]]
    code, out = _coeffs(cli_env, tmp_path, "plain", models)
    assert code == 0
    p2 = forward_batch(arch, load_checkpoint(task_ckpts[0]).payload, dom.x)
    batch = load_coefficients(str(out))
    assert batch.coefficients.shape == (dom.n_samples, 3)
    expected = coeff_multi(np.stack([entropy(p) for p in (p0, p1, p2)], axis=1))
    assert np.array_equal(batch.coefficients, expected)
    out.unlink()
    capsys.readouterr()
    code, out = _coeffs(cli_env, tmp_path, "offset_adjusted", models)
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and "--mode plain" in err[0], err
    assert not out.exists()


def test_usage_errors_exit_1(cli_env, tmp_path, capsys):
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["eval", "--suite", str(cli_env["suite"])]) == 1  # no --out
    assert cli.main(["eval", "--suite", str(cli_env["suite"]), "--em-seed", "1",
                     "--out", str(tmp_path / "r.json")]) == 1  # the fits take no seed
    assert cli.main([]) == 1
    capsys.readouterr()


def test_clustered_batch_below_k_is_a_usage_error(cli_env, tmp_path, capsys):
    capsys.readouterr()
    code = cli.main([
        "eval", "--suite", str(cli_env["suite"]),
        "--theta0", str(cli_env["zs"]), "--theta1", str(cli_env["ft"]),
        "--strategy", "dawin_clustered", "--k", "3", "--batch-size", "2",
        "--out", str(tmp_path / "r.json"),
    ])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("usage error: batch_size 2"), err
    assert not (tmp_path / "r.json").exists()


def test_missing_suite_exits_2(tmp_path):
    code = cli.main([
        "eval", "--suite", str(tmp_path / "nope"), "--strategy", "zs",
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2


def test_corrupt_checkpoint_exits_2(cli_env, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint")
    code = cli.main([
        "eval", "--suite", str(cli_env["suite"]),
        "--theta0", str(bad), "--theta1", str(cli_env["ft"]),
        "--strategy", "zs", "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2


def _with_header_field(src, dst, keys, value):
    """Copy a checkpoint with the field at keys of its header replaced."""
    blob = src.read_bytes()
    (length,) = struct.unpack_from("<I", blob, 5)
    header = _set(json.loads(blob[9 : 9 + length]), keys, value)
    text = json.dumps(header).encode("utf-8")
    dst.write_bytes(blob[:5] + struct.pack("<I", len(text)) + text + blob[9 + length :])


@pytest.mark.parametrize(
    "key, value", [("activation", "gelu"), ("input_dim", "x"), ("hidden_widths", None)]
)
def test_bad_checkpoint_header_field_exits_2(cli_env, tmp_path, capsys, key, value):
    bad = tmp_path / "bad.ckpt"
    _with_header_field(cli_env["zs"], bad, ["arch", key], value)
    capsys.readouterr()
    code = cli.main([
        "eval", "--suite", str(cli_env["suite"]),
        "--theta0", str(bad), "--theta1", str(cli_env["ft"]),
        "--strategy", "zs", "--out", str(tmp_path / "r.json"),
    ])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and str(bad) in err[0] and repr(key) in err[0], err


@pytest.mark.parametrize("value", [{"epochs": "x"}, {"bogus": 1}, 5, None],
                         ids=["epochs_str", "unknown_key", "int", "null"])
def test_bad_specialist_train_config_exits_2_before_any_check(cli_env, tmp_path, capsys, value):
    bad = tmp_path / "ft.ckpt"
    _with_header_field(cli_env["ft"], bad, ["meta", "config"], value)
    capsys.readouterr()
    code = cli.main(["suite", "--suite", str(cli_env["suite"]),
                     "--theta0", str(cli_env["zs"]), "--theta1", str(bad)])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == 2
    assert len(err) == 1 and str(bad) in err[0] and "'config'" in err[0], err
    assert captured.out == ""


def test_manifest_missing_role_exits_2(cli_env, tmp_path, capsys):
    suite = tmp_path / "suite"
    shutil.copytree(cli_env["suite"], suite)
    manifest = json.loads((suite / "manifest.json").read_text())
    del manifest["roles"]["pretrain_mix"]
    (suite / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    code = cli.main(["eval", "--suite", str(suite), "--strategy", "zs",
                     "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and "manifest.json" in err[0] and "'pretrain_mix'" in err[0], err


def _manifest_edit(change):
    """A suite edit that rewrites manifest.json through change(manifest)."""
    def edit(suite):
        path = suite / "manifest.json"
        path.write_text(json.dumps(change(json.loads(path.read_text()))))
        return path
    return edit


def _set(manifest, keys, value):
    node = manifest
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return manifest


def _not_utf8(suite):
    path = suite / "manifest.json"
    path.write_bytes(path.read_bytes() + b"\xff")
    return path


def _field_over_limit(suite):
    path = suite / "domains" / "id_test.csv"
    lines = path.read_text().splitlines()
    lines[1] = lines[1] + "0" * 131072  # one field longer than csv.field_size_limit()
    path.write_text("\n".join(lines) + "\n")
    return path


def _csv_missing(suite):
    path = suite / "domains" / "id_val.csv"
    path.unlink()
    return path


@pytest.mark.parametrize("edit", [
    _not_utf8,
    _manifest_edit(lambda m: []),
    _manifest_edit(lambda m: _set(m, ["roles", "ood_tests"], 5)),
    _manifest_edit(lambda m: _set(m, ["domains", "id_val", "path"], 5)),
    _manifest_edit(lambda m: _set(m, ["domains", "ood_rot45", "shift_spec"], "x")),
    _manifest_edit(lambda m: _set(m, ["domains", "id_train", "shift_spec"],
                                  {"kind": "rotation", "angle_deg": 30.0})),
    _manifest_edit(lambda m: _set(m, ["seed"], float("inf"))),
    _manifest_edit(lambda m: _set(m, ["schema_version"], 2)),
    _field_over_limit,
    _csv_missing,
], ids=["not_utf8", "list", "ood_tests_int", "path_int", "shift_spec_str", "rotated_id_train",
        "seed_inf", "schema_version", "csv_field_over_limit", "csv_missing"])
def test_malformed_suite_file_exits_2_naming_it(cli_env, tmp_path, capsys, edit):
    suite = tmp_path / "suite"
    shutil.copytree(cli_env["suite"], suite)
    bad = edit(suite)
    capsys.readouterr()
    code = cli.main(["eval", "--suite", str(suite), "--strategy", "zs",
                     "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: "), err


@pytest.mark.parametrize("value", [None, "x"])
def test_bad_checkpoint_param_count_exits_2(cli_env, tmp_path, capsys, value):
    blob = cli_env["zs"].read_bytes()
    (length,) = struct.unpack_from("<I", blob, 5)
    header = json.loads(blob[9 : 9 + length])
    header["param_count"] = value
    text = json.dumps(header).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:5] + struct.pack("<I", len(text)) + text + blob[9 + length :])
    capsys.readouterr()
    code = cli.main([
        "eval", "--suite", str(cli_env["suite"]),
        "--theta0", str(bad), "--theta1", str(cli_env["ft"]),
        "--strategy", "zs", "--out", str(tmp_path / "r.json"),
    ])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and str(bad) in err[0] and "'param_count'" in err[0], err


@pytest.mark.parametrize(
    "section, name, key",
    [("domains", "id_val", "path"), ("domains", "id_test", "shift_spec"),
     ("mtl_tasks", 0, "train"), ("mtl_tasks", 1, "test")],
)
def test_manifest_entry_missing_key_exits_2(cli_env, tmp_path, capsys, section, name, key):
    suite = tmp_path / "suite"
    shutil.copytree(cli_env["suite"], suite)
    manifest = json.loads((suite / "manifest.json").read_text())
    del manifest[section][name][key]
    (suite / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    code = cli.main(["eval", "--suite", str(suite), "--strategy", "zs",
                     "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and "manifest.json" in err[0] and repr(key) in err[0], err
    assert (f"entry {name!r}" if section == "domains" else f"entry {name}") in err[0], err


@pytest.fixture(scope="module")
def task_ckpts(cli_env):
    """Two short CLI-trained task experts on the tiny suite."""
    paths = []
    for index in range(2):
        path = cli_env["root"] / f"task{index}.ckpt"
        assert cli.main([
            "train", "--suite", str(cli_env["suite"]), "--role", "task",
            "--task-index", str(index), "--init", str(cli_env["zs"]),
            "--epochs", "1", "--out", str(path),
        ]) == 0
        paths.append(path)
    return paths


@pytest.mark.parametrize("flags, k", [((), 1), (("--k", "2"), 2)])
def test_eval_task_arith_records_its_k(cli_env, task_ckpts, tmp_path, flags, k):
    out = tmp_path / "r.json"
    assert cli.main([
        "eval", "--suite", str(cli_env["suite"]),
        "--theta0", str(cli_env["zs"]), "--theta1", str(cli_env["ft"]),
        "--task-expert", str(task_ckpts[0]), "--task-expert", str(task_ckpts[1]),
        "--strategy", "dawin_task_arith", *flags, "--out", str(out),
    ]) == 0
    report = load_report(out)
    assert [s["k"] for s in report.config["strategies"]] == [k]
    assert len(report.rows) == 2


@pytest.mark.parametrize("count", [2, 3])
def test_calibrate_leaves_task_experts_at_unit_temperature(cli_env, task_ckpts, tmp_path, count):
    # --calibrate scales the ZS/FT pair only: the task kind's rows equal an
    # uncalibrated run's, with two task experts or three.
    experts = [task_ckpts[i % 2] for i in range(count)]
    rows = []
    for flags in ((), ("--calibrate",)):
        out = tmp_path / f"r{len(rows)}.json"
        assert cli.main([
            "eval", "--suite", str(cli_env["suite"]),
            "--theta0", str(cli_env["zs"]), "--theta1", str(cli_env["ft"]),
            *(f"--task-expert={p}" for p in experts),
            "--strategy", "dawin_task_arith", "--strategy", "dawin_sample", *flags,
            "--out", str(out),
        ]) == 0
        report = load_report(out)
        rows.append(report_signature(report)["rows"])
    assert len(report.config["options"]["temperatures"]) == 2
    task_rows = [[r for r in run if r["strategy"] == "dawin_task_arith"] for run in rows]
    assert len(task_rows[0]) == len(TINY_SPEC.task_angles)
    assert task_rows[0] == task_rows[1]
    # The pair's kinds do see the temperatures.
    assert rows[0] != rows[1]


def test_unknown_strategy_exits_1_before_training(cli_env, tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("experts were built before the strategy was checked")

    monkeypatch.setattr(harness, "build_experts", no_training)
    capsys.readouterr()
    code = cli.main(["eval", "--suite", str(cli_env["suite"]), "--strategy", "telepathy",
                     "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and "telepathy" in err[0], err


def test_analyze_writes_report(cli_env, tmp_path):
    out = tmp_path / "analysis.json"
    assert cli.main([
        "analyze", "--suite", str(cli_env["suite"]),
        "--theta0", str(cli_env["zs"]), "--theta1", str(cli_env["ft"]),
        "--out", str(out),
    ]) == 0
    report = load_report(out)
    assert "pooled" in report.entropy_bars
    assert report.splits


@pytest.fixture(scope="module")
def suite_run(cli_env):
    """`dawin suite` on the CLI-trained endpoints: its exit code and stdout lines."""
    out = cli_env["root"] / "checks.json"
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main([
            "suite", "--suite", str(cli_env["suite"]),
            "--theta0", str(cli_env["zs"]), "--theta1", str(cli_env["ft"]),
            "--out", str(out),
        ])
    return code, stdout.getvalue().splitlines()


def test_suite_exit_status_matches_printed_tally(suite_run):
    code, lines = suite_run
    tally = re.fullmatch(r"(\d+)/(\d+) checks passed, (\d+) failed", lines[-1])
    assert tally, lines[-1]
    passed, total, failed = (int(g) for g in tally.groups())
    assert passed + failed == total == len(lines) - 1
    assert failed == sum(not line.startswith("PASS") for line in lines[:-1])
    assert code == (cli.SUITE_FAILED_EXIT if failed else 0)
    assert code in (0, 3)


def test_suite_retrains_the_specialist_with_its_own_config(suite_run):
    # cli_env's specialist was trained for 2 epochs, not the role default of 5
    _, lines = suite_run
    assert "PASS determinism (0/4)" in lines, lines


def test_suite_batch_below_clustered_k_is_a_usage_error(cli_env, capsys):
    capsys.readouterr()
    code = cli.main([
        "suite", "--suite", str(cli_env["suite"]),
        "--theta0", str(cli_env["zs"]), "--theta1", str(cli_env["ft"]),
        "--batch-size", "2",
    ])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == 1
    assert len(err) == 1 and "clustered_gap_and_count" in err[0], err
    assert not re.search(r"^(PASS|FAIL) ", captured.out, re.MULTILINE), captured.out


def test_suite_help_lists_every_check(capsys):
    assert cli.main(["suite", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for name in harness.CHECKS:
        assert name in text


def test_eval_bad_grid_is_a_usage_error(cli_env, tmp_path, capsys):
    code = cli.main([
        "eval", "--suite", str(cli_env["suite"]), "--strategy", "oracle_domain",
        "--grid", "0.1,x", "--out", str(tmp_path / "r.json"),
    ])
    capsys.readouterr()
    assert code == 1
    assert not (tmp_path / "r.json").exists()


def _innermost_key(doc):
    key, value = next(iter(doc.items()))
    return _innermost_key(value) if isinstance(value, dict) and value else key


@pytest.mark.parametrize("text", [
    b"{not json", b"[1, 2]", b'{"seed": 1}\xff',
    b'{"strategies": 5}', b'{"grid": 5}', b'{"lam": [1]}', b'{"k": "x"}',
    b'{"batch_size": "x"}', b'{"batch_size": 1.7}', b'{"grid": "0.1,0.2"}',
    b'{"spec": 5}', b'{"spec": {"dim": "x"}}', b'{"spec": {"bogus": 1}}',
    b'{"spec": {"ood_shifts": 5}}', b'{"seed": "x"}',
    b'{"hidden_widths": 5}', b'{"epochs": "x"}',
])
def test_bad_config_file_exits_2(cli_env, tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    try:
        doc = json.loads(text)
        top, key = next(iter(doc)), _innermost_key(doc)
    except (ValueError, AttributeError):  # not JSON, or not an object
        top = key = None
    suite, out = str(cli_env["suite"]), str(tmp_path / "out")
    reader = {"seed": "gen", "spec": "gen", "hidden_widths": "train", "epochs": "train"}
    command = {
        "gen": ["gen", "--out", out],
        "train": ["train", "--suite", suite, "--role", "pretrain", "--out", out],
        "eval": ["eval", "--suite", suite, "--out", out],
    }[reader.get(top, "eval")]
    capsys.readouterr()
    code = cli.main([*command, "--config", str(cfg)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and str(cfg) in err[0], err
    assert key is None or repr(key) in err[0], err


def test_config_offset_string_is_rejected(cli_env, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"offset": "no"}))  # bool("no") is True
    capsys.readouterr()
    code = cli.main([
        "eval", "--suite", str(cli_env["suite"]), "--theta0", str(cli_env["zs"]),
        "--theta1", str(cli_env["ft"]), "--strategy", "dawin_sample",
        "--config", str(cfg), "--out", str(tmp_path / "r.json"),
    ])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and str(cfg) in err[0] and "'offset'" in err[0], err
    assert not (tmp_path / "r.json").exists()


def test_eval_csv_writes_the_strategy_table(cli_env, tmp_path):
    out, table = tmp_path / "r.json", tmp_path / "r.csv"
    assert cli.main([
        "eval", "--suite", str(cli_env["suite"]),
        "--theta0", str(cli_env["zs"]), "--theta1", str(cli_env["ft"]),
        "--strategy", "zs", "--strategy", "ft", "--out", str(out), "--csv", str(table),
    ]) == 0
    header, *rows = table.read_text().splitlines()
    assert header == "strategy,domain,accuracy,mean_entropy,merge_count,wall_ms"
    report = load_report(out)
    assert [r.split(",")[:2] for r in rows] == [[r["strategy"], r["domain"]] for r in report.rows]
    assert [float(r.split(",")[2]) for r in rows] == [r["accuracy"] for r in report.rows]


def test_console_script_help():
    exe = shutil.which("dawin")
    if exe is None:
        pytest.skip("console script not on PATH")
    done = subprocess.run([exe, "gen", "--help"], capture_output=True, text=True)
    assert done.returncode == 0
    assert "--spec" in done.stdout
