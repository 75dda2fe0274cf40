"""Linear-algebra kernel: tolerances, Haar draws, inversion, CSV format."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import first_bad_cell, write_cells_per_cell
from qscatter import channel, cli, numerics, unscramble
from qscatter.errors import (
    ConditioningError,
    DimensionMismatchError,
    FormatError,
    InvalidDimensionError,
)


def test_substream_streams_are_distinct_and_stable():
    a1 = numerics.substream(7, 1).standard_normal(4)
    a2 = numerics.substream(7, 1).standard_normal(4)
    b = numerics.substream(7, 2).standard_normal(4)
    c = numerics.substream(8, 1).standard_normal(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.allclose(a1, b)
    assert not np.allclose(a1, c)


def test_as_matrix_accepts_lists_and_rejects_bad_shapes():
    m = numerics.as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    with pytest.raises(InvalidDimensionError):
        numerics.as_matrix([1, 2, 3])
    with pytest.raises(InvalidDimensionError):
        numerics.as_matrix(np.zeros((2, 2, 2)))


def test_as_matrix_rejects_non_finite_entries():
    with pytest.raises(InvalidDimensionError):
        numerics.as_matrix([[1.0, np.nan], [0.0, 0.0]])
    with pytest.raises(InvalidDimensionError):
        numerics.as_matrix([[1.0, 1j * np.inf], [0.0, 0.0]])


def test_as_matrix_handles_non_contiguous_input():
    # A conjugate transpose is a strided view; finiteness checks must not
    # assume contiguity.
    m = numerics.haar_unitary(5, 3)
    out = numerics.as_matrix(numerics.dag(m))
    np.testing.assert_allclose(out, m.conj().T)


def test_frozen_arrays_are_read_only():
    arr = numerics.frozen(np.arange(3.0))
    with pytest.raises(ValueError):
        arr[0] = 5.0


def test_dag_is_conjugate_transpose():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    np.testing.assert_array_equal(numerics.dag(m), m.conj().T)


def test_haar_unitary_is_unitary_and_seeded():
    for seed in range(20):
        u = numerics.haar_unitary(6, seed)
        assert numerics.is_unitary(u)
    np.testing.assert_array_equal(numerics.haar_unitary(4, 9),
                                  numerics.haar_unitary(4, 9))


def test_haar_isometry_int_seed_is_reproducible():
    a = numerics.haar_isometry(5, 3, 42)
    b = numerics.haar_isometry(5, 3, 42)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, numerics.haar_isometry(5, 3, 43))


def test_haar_isometry_draws_from_a_given_generator():
    gen = np.random.default_rng(0)
    first = numerics.haar_isometry(4, 2, gen)
    second = numerics.haar_isometry(4, 2, gen)
    assert not np.array_equal(first, second)
    fresh = np.random.default_rng(0)
    np.testing.assert_array_equal(first, numerics.haar_isometry(4, 2, fresh))
    np.testing.assert_array_equal(second, numerics.haar_isometry(4, 2, fresh))


def test_haar_unitary_trace_statistic():
    # For the Haar measure on U(n), E[|tr U|^2] = 1 independently of n.
    rng = np.random.default_rng(5)
    vals = [abs(np.trace(numerics.haar_unitary(4, rng))) ** 2
            for _ in range(400)]
    assert abs(np.mean(vals) - 1.0) < 0.25


def test_haar_unitary_rejects_bad_sizes():
    with pytest.raises(InvalidDimensionError):
        numerics.haar_unitary(0, 1)
    with pytest.raises(InvalidDimensionError):
        numerics.haar_unitary(2.5, 1)


def test_is_unitary_negative_cases():
    assert not numerics.is_unitary(2.0 * np.eye(3))
    assert not numerics.is_unitary(np.ones((2, 3)))


def _unit_sv(m):
    """m scaled so its largest singular value is 1, as a transmission
    matrix must have."""
    return m / np.linalg.norm(m, 2)


def test_solve_or_pinv_matches_true_inverse():
    """unscramble.build_w inverts a well-conditioned T exactly: with an
    untagged T, W^T is T^-1."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = _unit_sv(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        inv = unscramble.build_w(channel.EffectiveT(matrix=m)).w_alice.T
        np.testing.assert_allclose(inv @ m, np.eye(5), atol=1e-10)


def test_solve_or_pinv_degrades_to_pseudo_inverse():
    """Below PINV_RCOND times the largest singular value, build_w takes the
    pseudo-inverse with that cutoff."""
    u = numerics.haar_unitary(3, 0)
    v = numerics.haar_unitary(3, 1)
    m = u @ np.diag([1.0, 0.5, 1e-15]) @ v
    inv = unscramble.build_w(channel.EffectiveT(matrix=m)).w_alice.T
    expected = np.linalg.pinv(m, rcond=numerics.PINV_RCOND)
    np.testing.assert_allclose(inv, expected, atol=1e-12)


def test_solve_or_pinv_rejects_zero_and_non_square():
    with pytest.raises(ConditioningError, match="exactly zero"):
        unscramble.build_w(channel.EffectiveT(matrix=np.zeros((3, 3))))
    with pytest.raises(DimensionMismatchError):
        channel.EffectiveT(matrix=np.ones((2, 3)))


def test_condition_number_known_values():
    """EffectiveT keeps its singular values, read-only and descending, and
    their ratio as its condition number."""
    t = channel.EffectiveT(matrix=np.diag([1.0, 2.0, 4.0]) / 4)
    np.testing.assert_allclose(t.singular_values, [1.0, 0.5, 0.25])
    assert not t.singular_values.flags.writeable
    assert t.condition_number == pytest.approx(4.0)
    assert channel.EffectiveT(matrix=np.diag([1.0, 0.0])).condition_number == np.inf
    assert channel.EffectiveT(matrix=np.zeros((2, 2))).condition_number == np.inf
    m = _unit_sv(np.random.default_rng(2).standard_normal((6, 6)))
    assert channel.EffectiveT(matrix=m).condition_number == pytest.approx(
        np.linalg.cond(m), rel=1e-12)


def test_dist_up_to_scalar_gauge_invariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        c = (rng.standard_normal() + 1j * rng.standard_normal())
        assert numerics.dist_up_to_scalar(c * b, b) < 1e-12
    perturbed = b + 0.1
    assert numerics.dist_up_to_scalar(perturbed, b) > 1e-3


def test_dist_up_to_scalar_error_paths():
    with pytest.raises(DimensionMismatchError):
        numerics.dist_up_to_scalar(np.eye(2), np.eye(3))
    with pytest.raises(ConditioningError):
        numerics.dist_up_to_scalar(np.eye(2), np.zeros((2, 2)))


def test_is_prime_small_values():
    primes = [n for n in range(20) if numerics.is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19]


def test_matrix_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(17)
    m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    path = tmp_path / "nested" / "dir" / "m.csv"
    numerics.save_matrix_csv(path, m)
    np.testing.assert_array_equal(numerics.load_matrix_csv(path), m)


def test_matrix_csv_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("definitely,not\na,matrix\n")
    with pytest.raises(ValueError):
        numerics.load_matrix_csv(bad)
    sparse = tmp_path / "sparse.csv"
    sparse.write_text("rows,cols\n2,2\ni,j,re,im\n0,0,1,0\n")
    with pytest.raises(ValueError):
        numerics.load_matrix_csv(sparse)


# Values where %d and %.17g could part ways: signed zeros, both sides of
# 2**53 (2**53 + 1 is not a float; 2**53 + 2 is the next one), integers
# %.17g prints in exponent form from 1e17 on, and subnormals.
_EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2,
                -(2.0 ** 53 - 1), -(2.0 ** 53), 1e16, 1e16 + 2, 99999999999999984.0,
                1e17, 5e-324, 2.2250738585072009e-308, -1e-310, 0.1, -2.5]


@st.composite
def _cell_grids(draw):
    """1 or 2 grids of one shape, either all integer-valued (as scans and
    raw count tables are) or drawn from floats and the edge values."""
    rows = draw(st.integers(1, 12))
    cols = draw(st.sampled_from([1, 2, 3, 8, 11]))
    width = draw(st.integers(1, 2))
    integers = st.integers(-(2 ** 53) + 1, 2 ** 53 - 1).map(float)
    elements = draw(st.sampled_from([
        st.one_of(st.integers(0, 10 ** 6).map(float), integers),
        st.one_of(st.sampled_from(_EDGE_VALUES), integers,
                  st.floats(1e16, 1e17), st.floats(allow_nan=False, allow_infinity=False)),
    ]))
    cells = draw(st.lists(elements, min_size=rows * cols * width,
                          max_size=rows * cols * width))
    grid = np.array(cells, dtype=np.float64).reshape(width, rows, cols)
    return list(grid)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          deadline=None)
@given(grids=_cell_grids())
@example(grids=[np.array([[7.0]])])
@example(grids=[np.array([[-0.0]])])
@example(grids=[np.array([[2.0 ** 53 - 1, -(2.0 ** 53 - 1)], [2.0 ** 53, 2.0 ** 53 + 2]])])
@example(grids=[np.arange(16.0).reshape(2, 8) * 1e16])
@example(grids=[np.array([[5e-324, 1e-310, 2.2250738585072009e-308]])])
@example(grids=list(np.random.default_rng(3).poisson(50.0, (2, 40, 8)).astype(float)))
@example(grids=list(np.random.default_rng(4).standard_normal((2, 40, 8))))
@example(grids=[np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.5, 0.0], [-0.0, 1.0]])])
def test_write_cells_matches_the_per_cell_writer_and_reads_back_exactly(tmp_path, grids):
    rows, cols = grids[0].shape
    header = ["rows,cols", f"{rows},{cols}"]
    columns = "i,j" + ",v" * len(grids)
    ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
    numerics._write_cells(ours, header, columns, grids)
    write_cells_per_cell(reference, header, columns, grids)
    assert ours.read_bytes() == reference.read_bytes()
    read_header, back = numerics._read_cells(ours, columns, len(grids))
    assert read_header == header
    np.testing.assert_array_equal(back.view(np.int64),
                                  np.stack(grids, axis=-1).view(np.int64))


@pytest.mark.parametrize("corruption", ["truncated", "duplicate", "out-of-range", "zz",
                                        "cut-short"])
def test_matrix_csv_rejects_corrupt_cells(tmp_path, corruption):
    path = str(tmp_path / "t_hat.csv")
    numerics.save_matrix_csv(path, np.eye(2))
    with open(path, encoding="ascii") as fh:
        lines = fh.readlines()
    assert lines[-1] == "1,1,1,0\n"
    lines = {"truncated": lines[:-1],
             "duplicate": lines + ["0,0,1,0\n"],
             "out-of-range": lines + ["2,0,0,0\n"],
             "zz": lines[:-1] + ["1,1,zz,0\n"],
             "cut-short": lines[:-1] + ["1,1,1,0"]}[corruption]
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)
    with pytest.raises(FormatError):
        numerics.load_matrix_csv(path)
    assert cli.main(["unscramble", "--t-hat", path,
                     "--out", str(tmp_path / "out")]) == 2


def test_read_cells_names_the_lowest_duplicate_then_the_lowest_missing_cell(tmp_path):
    """Cells listed in any order, some dropped and some repeated, are judged
    as a count over the whole grid judges them (oracles.first_bad_cell);
    a complete grid reads back with every value in its place."""
    rng = np.random.default_rng(23)
    path = tmp_path / "m.csv"
    for _ in range(200):
        rows, cols = (int(n) for n in rng.integers(1, 5, size=2))
        cells = [(i, j) for i in range(rows) for j in range(cols) if rng.random() > 0.1]
        cells = cells or [(0, 0)]
        cells += [cells[k] for k in rng.integers(len(cells), size=rng.integers(0, 3))]
        rng.shuffle(cells)
        lines = ["rows,cols", f"{rows},{cols}", "i,j,re,im",
                 *[f"{i},{j},{i},{j}" for i, j in cells]]
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        expected = first_bad_cell(cells, rows, cols)
        if expected is None:
            np.testing.assert_array_equal(
                numerics.load_matrix_csv(path),
                np.arange(rows)[:, None] + 1j * np.arange(cols)[None, :])
        else:
            with pytest.raises(FormatError, match=re.escape(expected) + "$"):
                numerics.load_matrix_csv(path)
