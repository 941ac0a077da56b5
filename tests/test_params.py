import numpy as np
import pytest
from hypothesis import given, strategies as st

from dawin.classifier import MlpArchitecture
from dawin.errors import CheckpointFormatError, IncompatibleModelsError
from dawin.params import (
    Checkpoint,
    ParamVector,
    TaskVector,
    checkpoint_id,
    combine_task_vectors,
    interpolate_pair,
    load_checkpoint,
    make_task_vector,
    materialize,
    mlp_param_count,
    save_checkpoint,
    task_vector_coefficients,
)

LAYOUT = "test:flat"


def pv(values, layout=LAYOUT):
    return ParamVector(np.asarray(values, dtype=np.float64), layout)


def test_interpolate_endpoints():
    a = pv([1.0, -2.0, 3.5])
    b = pv([0.5, 0.5, 0.5])
    assert np.array_equal(interpolate_pair(a, b, 0.0).values, a.values)
    assert np.array_equal(interpolate_pair(a, b, 1.0).values, b.values)


def test_interpolate_midpoint():
    out = interpolate_pair(pv([0.0, 2.0]), pv([2.0, 0.0]), 0.5)
    assert np.array_equal(out.values, [1.0, 1.0])


@given(
    st.lists(st.floats(-10, 10), min_size=1, max_size=8),
    st.lists(st.floats(-10, 10), min_size=1, max_size=8),
    st.floats(0, 1),
)
def test_interpolate_is_lerp(xs, ys, lam):
    n = min(len(xs), len(ys))
    a, b = np.array(xs[:n]), np.array(ys[:n])
    out = interpolate_pair(pv(a), pv(b), lam)
    np.testing.assert_allclose(out.values, (1 - lam) * a + lam * b, atol=1e-12)


def test_interpolate_rejects_bad_lambda_and_layout():
    a, b = pv([1.0]), pv([2.0])
    with pytest.raises(ValueError):
        interpolate_pair(a, b, 1.5)
    with pytest.raises(ValueError):
        interpolate_pair(a, b, float("nan"))
    with pytest.raises(IncompatibleModelsError):
        interpolate_pair(a, pv([2.0], layout="other"), 0.5)
    with pytest.raises(IncompatibleModelsError):
        interpolate_pair(a, pv([1.0, 2.0]), 0.5)


def test_param_vector_is_immutable():
    vec = pv([1.0, 2.0])
    with pytest.raises(ValueError):
        vec.values[0] = 9.0


def test_task_vector_identity_and_subtraction():
    base = pv([1.0, 2.0])
    assert np.all(make_task_vector(base, base).delta.values == 0.0)
    tau = make_task_vector(pv([3.0, 3.0]), pv([1.0, 2.0]))
    assert np.array_equal(tau.delta.values, [2.0, 1.0])


def test_task_vector_round_trip():
    theta0 = pv([0.5, -1.0, 2.0])
    theta_j = pv([1.5, 0.0, -2.0])
    tau = make_task_vector(theta_j, theta0)
    np.testing.assert_array_equal(theta0.values + tau.delta.values, theta_j.values)


def test_combine_zero_weights_is_base():
    theta0 = pv([1.0, 2.0])
    taus = [make_task_vector(pv([5.0, 5.0]), theta0)]
    out = combine_task_vectors(theta0, 0.3, [0.0], taus)
    assert np.array_equal(out.values, theta0.values)


def test_combine_full_strength_single_task():
    theta0 = pv([0.0])
    tau = make_task_vector(pv([5.0]), theta0)
    out = combine_task_vectors(theta0, 1.0, [1.0], [tau])
    assert np.array_equal(out.values, [5.0])


def test_combine_matches_scalar_loop():
    # Independent oracle: plain python loops over every index and task.
    rng = np.random.default_rng(3)
    theta0 = pv(rng.normal(size=12))
    experts = [pv(rng.normal(size=12)) for _ in range(4)]
    taus = [make_task_vector(e, theta0) for e in experts]
    weights = [0.25, 0.25, 0.25, 0.25]
    lam0 = 0.3
    out = combine_task_vectors(theta0, lam0, weights, taus)
    for i in range(12):
        expected = theta0.values[i]
        for w, tau in zip(weights, taus):
            expected += lam0 * w * tau.delta.values[i]
        assert abs(out.values[i] - expected) < 1e-12


def test_combine_rejects_mismatched_base():
    theta0 = pv([1.0, 2.0])
    other = pv([1.0, 2.0, 3.0], layout="other")
    tau = make_task_vector(other, other)
    with pytest.raises(IncompatibleModelsError):
        combine_task_vectors(theta0, 0.3, [1.0], [tau])


def test_task_vector_layout_must_match_base():
    with pytest.raises(IncompatibleModelsError):
        TaskVector(pv([1.0]), "someone-else")


# ----- checkpoints ---------------------------------------------------------------


def small_checkpoint():
    arch = MlpArchitecture(input_dim=3, hidden_widths=(4,), class_count=2)
    values = np.arange(arch.param_count, dtype=np.float64) / 7.0
    return Checkpoint(
        arch=arch.to_header(),
        payload=ParamVector(values, arch.layout_id),
        meta={"note": "fixture"},
    )


def test_checkpoint_round_trip_bit_identical(tmp_path):
    ckpt = small_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.payload.values, ckpt.payload.values)
    assert loaded.arch == ckpt.arch
    assert loaded.meta == ckpt.meta
    assert checkpoint_id(loaded) == checkpoint_id(ckpt)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_checkpoint(), path)
    blob = path.read_bytes()
    for length in range(len(blob)):
        path.write_bytes(blob[:length])
        with pytest.raises(CheckpointFormatError) as exc:
            load_checkpoint(path)
        assert str(exc.value).startswith(f"{path}: "), length


def test_header_payload_inconsistency_rejected(tmp_path):
    # Header says class_count=10 but the payload is sized for 2 classes.
    import json
    import struct

    ckpt = small_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 5)
    header = json.loads(blob[9 : 9 + header_len])
    header["arch"]["class_count"] = 10
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(blob[:5] + struct.pack("<I", len(new_header)) + new_header + blob[9 + header_len :])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"NOPE1" + b"\x00" * 32)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_header_int_over_the_digit_limit_rejected(tmp_path):
    # json.loads refuses ints of more than 4300 digits with a plain ValueError.
    import struct

    header = b'{"param_count": 1' + b"0" * 5000 + b"}"
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"DWIN1" + struct.pack("<I", len(header)) + header)
    with pytest.raises(CheckpointFormatError, match=f"^{path}: header is not valid JSON"):
        load_checkpoint(path)


def test_param_count_formula():
    # 3->4->2: (3*4+4) + (4*2+2) = 26
    assert mlp_param_count(3, (4,), 2) == 26


def _rows_setup():
    rng = np.random.default_rng(5)
    theta0 = pv(rng.normal(size=6))
    taus = [make_task_vector(pv(rng.normal(size=6)), theta0) for _ in range(3)]
    return theta0, taus


def test_combine_rows_match_one_row_combines():
    # each coefficient row, materialised on the basis theta0, taus, is the
    # one-row combine of its weights
    theta0, taus = _rows_setup()
    weights = np.random.default_rng(6).dirichlet(np.ones(3), size=9)
    rows = task_vector_coefficients(theta0, 0.3, weights, taus)
    assert rows.shape == (9, 4)
    basis = (theta0, *(tau.delta for tau in taus))
    for i in range(9):
        # the one-row arithmetic: theta0 plus (lambda0 * w_j) * tau_j in task order
        expected = theta0.values.copy()
        for w, tau in zip(weights[i], taus):
            expected += 0.3 * w * tau.delta.values
        assert np.array_equal(materialize(basis, rows[i]).values, expected)
        assert np.array_equal(combine_task_vectors(theta0, 0.3, weights[i], taus).values, expected)


@pytest.mark.parametrize("weights", [
    [[0.5, -0.1, 0.6]],          # negative
    [[0.5, np.nan, 0.5]],        # not finite
    [[0.5, np.inf, 0.5]],
    [[0.5, 0.5]],                # one weight short of the task count
    [0.2, 0.3, 0.5],             # a single row, not an (n, M) stack
])
def test_combine_rows_rejects_bad_weights(weights):
    theta0, taus = _rows_setup()
    with pytest.raises(ValueError):
        task_vector_coefficients(theta0, 0.3, np.array(weights), taus)


def test_combine_rows_rejects_non_finite_lambda0():
    theta0, taus = _rows_setup()
    with pytest.raises(ValueError, match="lambda_0"):
        task_vector_coefficients(theta0, np.nan, np.full((1, 3), 1 / 3), taus)
    with pytest.raises(ValueError, match="lambda_0"):
        combine_task_vectors(theta0, np.nan, np.full(3, 1 / 3), taus)


def test_combine_rows_rejects_mismatched_layout():
    theta0, taus = _rows_setup()
    other = pv(np.ones(6), layout="other")
    foreign = make_task_vector(other, other)
    short = make_task_vector(pv(np.ones(5)), pv(np.zeros(5)))
    for bad in (foreign, short):
        mixed = [taus[0], taus[1], bad]
        with pytest.raises(IncompatibleModelsError):
            task_vector_coefficients(theta0, 0.3, np.full((2, 3), 1 / 3), mixed)
        with pytest.raises(IncompatibleModelsError):
            combine_task_vectors(theta0, 0.3, np.full(3, 1 / 3), mixed)
        with pytest.raises(IncompatibleModelsError):
            materialize((theta0, bad.delta), (1.0, 0.3))


def test_combine_rows_rejects_non_finite_result():
    theta0 = pv([1e308, 0.0])
    tau = make_task_vector(pv([1e308, 0.0]), pv([0.0, 0.0]))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            materialize((theta0, tau.delta), (1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            combine_task_vectors(theta0, 1.0, [1.0], [tau])


def test_materialize_needs_one_coefficient_per_basis_vector():
    theta0, taus = _rows_setup()
    with pytest.raises(ValueError, match="expected 2 coefficients"):
        materialize((theta0, taus[0].delta), (1.0, 0.5, 0.5))
