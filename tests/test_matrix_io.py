"""CSV/binary round trips and the synthetic instance generators."""

import gzip

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import nnls as scipy_nnls

from archpursuit import (
    gen_hilbert_separable,
    gen_noisy_pairs,
    gen_uniform_separable,
    load_binary,
    load_csv,
    save_binary,
    save_csv,
)
from archpursuit.matrix_io import (
    format_value,
    hilbert_rows,
    pairwise_half_weights,
    require_matrix,
)


# ---------------------------------------------------------------------------
# CSV


def test_load_basic(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,2\n3,4\n")
    assert np.array_equal(load_csv(f), [[1.0, 2.0], [3.0, 4.0]])


def test_load_ragged_reports_row(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(f)


def test_load_non_numeric_reports_coordinates(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,x\n")
    with pytest.raises(ValueError, match=r"\(1,2\)"):
        load_csv(f)


def test_load_skip_header(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("a,b\n1,2\n")
    assert np.array_equal(load_csv(f, skip_header=True), [[1.0, 2.0]])


def test_save_integral_scalar(tmp_path):
    f = tmp_path / "m.csv"
    save_csv(np.array([[42.0]]), f)
    assert f.read_text() == "42\n"


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-8, 8, size=(5, 3))
    f = tmp_path / "m.csv"
    save_csv(m, f)
    back = load_csv(f)
    # repr round-trips float64 exactly, which is stronger than the required
    # 15 significant digits.
    assert np.array_equal(back, m)


def test_empty_round_trip(tmp_path):
    f = tmp_path / "m.csv"
    save_csv(np.empty((0, 0)), f)
    assert f.read_text() == ""
    assert load_csv(f).shape == (0, 0)


def test_load_rejects_nan(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,nan\n")
    with pytest.raises(ValueError, match="finite"):
        load_csv(f)


finite_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(finite_matrices)
@example(np.array([[-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308]]))
@example(np.array([[1.7976931348623157e308], [-1.7976931348623157e308], [42.0], [-1e16]]))
@example(np.array([[1.0]]))
def test_round_trip_is_bitwise(tmp_path_factory, m):
    f = tmp_path_factory.mktemp("rt") / "m.csv"
    save_csv(m, f)
    back = load_csv(f)
    assert back.shape == m.shape and back.dtype == np.float64
    # tobytes tells -0.0 from 0.0, which array_equal does not.
    assert back.tobytes() == m.tobytes()


@settings(max_examples=200, deadline=None)
@given(finite_matrices)
@example(np.array([[-0.0, 10.0, 1e16, 1e22, 0.5, -3.0, 5e-324]]))
def test_save_writes_format_value_per_cell(tmp_path_factory, m):
    f = tmp_path_factory.mktemp("fv") / "m.csv"
    save_csv(m, f)
    want = "".join(",".join(format_value(v) for v in row) + "\n" for row in m)
    assert f.read_bytes() == want.encode("ascii")


@settings(max_examples=300, deadline=None)
@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["{!r}", "{:.17g}", "{:.25e}", "{:.3f}", "{:.0e}", "{:+.30g}", "{:E}"]),
    st.sampled_from(["", " ", "\t", "  "]),
)
def test_load_reads_spellings_as_float_does(tmp_path_factory, x, spelling, pad):
    cell = pad + spelling.format(x) + pad
    assume(np.isfinite(float(cell)))  # "{:.0e}" rounds 1.5e308 up to 2e+308
    f = tmp_path_factory.mktemp("sp") / "m.csv"
    f.write_text(f"{cell},1\n")
    back = load_csv(f)
    assert back[0, 0].tobytes() == np.float64(float(cell)).tobytes()


def test_load_crlf_blank_lines_and_no_final_newline(tmp_path):
    want = np.array([[1.0, 2.5], [-3.0, 4e-300]])
    for text in (
        "1,2.5\r\n-3,4e-300\r\n",
        "\n1,2.5\n\n-3,4e-300\n\n",
        "1,2.5\n   \n\t\n-3,4e-300\n",
        " 1 , 2.5\r\n \r\n-3,4e-300",
        "1,2.5\r-3,4e-300\r",
    ):
        f = tmp_path / "m.csv"
        f.write_bytes(text.encode("ascii"))
        assert load_csv(f).tobytes() == want.tobytes(), repr(text)


def test_load_header_with_skip_header(tmp_path):
    f = tmp_path / "m.csv"
    f.write_bytes(b"x,y,z\r\n\r\n1,2,3\r\n4,5,6")
    assert np.array_equal(load_csv(f, skip_header=True), [[1, 2, 3], [4, 5, 6]])
    # The header is the first physical line, even when it is blank.
    f.write_text("\n1,2\n")
    assert np.array_equal(load_csv(f, skip_header=True), [[1.0, 2.0]])
    f.write_text("a,b\n")
    assert load_csv(f, skip_header=True).shape == (0, 0)


@pytest.mark.parametrize("text", ["", "\n\n", " \r\n\t\n"])
def test_load_empty_file_is_0_by_0(tmp_path, text):
    f = tmp_path / "m.csv"
    f.write_text(text)
    assert load_csv(f).shape == (0, 0)


@pytest.mark.parametrize("cell", ["nan", "-inf", "1e400"])
def test_load_rejects_non_finite(tmp_path, cell):
    f = tmp_path / "m.csv"
    f.write_text(f"1,2\n3,{cell}\n")
    with pytest.raises(ValueError, match="finite"):
        load_csv(f)


@pytest.mark.parametrize(
    "text, skip_header, message",
    [
        ("1,2\n3,4\n5\n", False, "ragged CSV: row 3 has 1 fields, expected 2"),
        ("a\n1,2\n3,4\n5\n", True, "ragged CSV: row 3 has 1 fields, expected 2"),
        ("1,2\n\n3,4,5\n", False, "ragged CSV: row 3 has 3 fields, expected 2"),
        ("1,2\n3,x\n", False, "non-numeric cell at (2,2): 'x'"),
        ("a,b\n1,2\n3,x\n", True, "non-numeric cell at (2,2): 'x'"),
        ("1,2\n\n,4\n", False, "non-numeric cell at (3,1): ''"),
        # A bad cell before a ragged row is reported first, in file order.
        ("1,2\n3,#\n5\n", False, "non-numeric cell at (2,2): '#'"),
    ],
)
def test_load_error_names_row_and_cell(tmp_path, text, skip_header, message):
    f = tmp_path / "m.csv"
    f.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_csv(f, skip_header=skip_header)
    assert str(exc.value) == message


def test_load_opens_only_the_named_file(tmp_path):
    # np.loadtxt given a name would fall back to a compressed sibling.
    with gzip.open(tmp_path / "m.csv.gz", "wt") as fh:
        fh.write("1,2\n")
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "m.csv")


@pytest.mark.parametrize("skip_header, row", [(False, 2), (True, 1)])
def test_load_rejects_digit_grouping_underscores(tmp_path, skip_header, row):
    # float("1_000") is 1000.0, but the CSV grammar has no digit grouping.
    f = tmp_path / "m.csv"
    f.write_text("1,2\n3,1_000\n")
    with pytest.raises(ValueError) as exc:
        load_csv(f, skip_header=skip_header)
    assert str(exc.value) == f"non-numeric cell at ({row},2): '1_000'"


# ---------------------------------------------------------------------------
# Binary


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((7, 4))
    f = tmp_path / "m.apmx"
    save_binary(m, f)
    raw = f.read_bytes()
    assert raw[:4] == b"APMX"
    assert np.array_equal(load_binary(f), m)


def test_binary_bad_magic(tmp_path):
    f = tmp_path / "m.apmx"
    f.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_binary(f)


def test_binary_truncated(tmp_path):
    f = tmp_path / "m.apmx"
    save_binary(np.ones((2, 3)), f)
    f.write_bytes(f.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_binary(f)


def test_binary_empty_matrix(tmp_path):
    f = tmp_path / "m.apmx"
    save_binary(np.empty((0, 0)), f)
    assert load_binary(f).shape == (0, 0)


# ---------------------------------------------------------------------------
# Generators


def test_uniform_instance_structure():
    inst = gen_uniform_separable(5, 4, 2, seed=11)
    assert np.array_equal(inst.W[:2], np.eye(2))
    assert np.allclose(inst.W[2:].sum(axis=1), 1.0)
    assert (inst.W >= 0).all()
    assert inst.true_extreme_indices == (0, 1)
    rel = np.linalg.norm(inst.X - inst.W @ inst.H) / np.linalg.norm(inst.X)
    assert rel <= 1e-12


def test_uniform_deterministic():
    a = gen_uniform_separable(20, 10, 3, seed=5)
    b = gen_uniform_separable(20, 10, 3, seed=5)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.W, b.W)
    assert np.array_equal(a.H, b.H)
    c = gen_uniform_separable(20, 10, 3, seed=6)
    assert not np.array_equal(a.X, c.X)


def test_uniform_dim_errors():
    with pytest.raises(ValueError):
        gen_uniform_separable(3, 10, 4, seed=0)
    with pytest.raises(ValueError):
        gen_uniform_separable(10, 3, 4, seed=0)


def test_hilbert_entries():
    H = hilbert_rows(3, 4)
    assert H[0, 0] == 1.0
    assert H[0, 1] == 0.5
    assert H[1, 0] == 0.5
    assert H[1, 1] == pytest.approx(1.0 / 3.0, abs=0)
    assert H[2, 3] == pytest.approx(1.0 / 6.0, abs=0)


def test_hilbert_instance():
    inst = gen_hilbert_separable(12, 9, 3, seed=2)
    assert np.array_equal(inst.H, hilbert_rows(3, 9))
    b = gen_hilbert_separable(12, 9, 3, seed=2)
    assert np.array_equal(inst.X, b.X)


def test_noisy_pairs_row_count():
    X = gen_noisy_pairs(50, 20, 0.01, seed=3)
    assert X.shape == (20 + 190, 50)


def test_noisy_pairs_zero_noise_is_separable():
    X = gen_noisy_pairs(30, 3, 0.0, seed=4)
    # Rows 3.. are exact midpoints of the pairs (0,1), (0,2), (1,2).
    assert np.allclose(X[3], 0.5 * (X[0] + X[1]), atol=1e-15)
    assert np.allclose(X[4], 0.5 * (X[0] + X[2]), atol=1e-15)
    assert np.allclose(X[5], 0.5 * (X[1] + X[2]), atol=1e-15)


def test_pairwise_half_weights_enumeration():
    W = pairwise_half_weights(3)
    assert np.array_equal(W[:3], np.eye(3))
    assert np.array_equal(
        W[3:], [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]
    )


def test_noisy_pairs_argument_errors():
    with pytest.raises(ValueError):
        gen_noisy_pairs(10, 1, 0.0, seed=0)
    with pytest.raises(ValueError):
        gen_noisy_pairs(10, 3, -0.1, seed=0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_uniform_separable(40, 25, 10, seed=8),
        lambda: gen_hilbert_separable(40, 25, 5, seed=8),
    ],
)
def test_exact_separability_by_reference_nnls(make):
    # Independent check with the scipy active-set NNLS solver, row by row:
    # every row of X is representable over rows 0..k-1 with tiny residual.
    inst = make()
    X, k = inst.X, len(inst.true_extreme_indices)
    H = X[:k]
    worst = 0.0
    for i in range(X.shape[0]):
        _, rnorm = scipy_nnls(H.T, X[i])
        worst = max(worst, rnorm)
    assert worst / np.linalg.norm(X) <= 1e-10


def test_require_matrix_validation():
    with pytest.raises(ValueError):
        require_matrix(np.ones(3))
    with pytest.raises(ValueError):
        require_matrix(np.array([[1.0, np.inf]]))
