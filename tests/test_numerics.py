"""Linear-algebra kernel: tolerances, Haar draws, inversion, CSV format."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import read_cells_by_lines, write_cells_per_cell
from qscatter import channel, cli, measure, numerics, unscramble
from qscatter.errors import (
    ConditioningError,
    DimensionMismatchError,
    FormatError,
    InvalidDimensionError,
    NormalizationError,
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


def test_build_w_inverts_a_well_conditioned_t():
    """unscramble.build_w inverts a well-conditioned T exactly: with an
    untagged T, W^T is T^-1."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = _unit_sv(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        ops = unscramble.build_w(channel.EffectiveT(matrix=m))
        inv = (ops.normalized_w * ops.eta[:, None]).T
        np.testing.assert_allclose(inv @ m, np.eye(5), atol=1e-10)


def test_build_w_takes_the_pseudo_inverse_below_the_cutoff():
    """Below PINV_RCOND times the largest singular value, build_w takes the
    pseudo-inverse with that cutoff."""
    u = numerics.haar_unitary(3, 0)
    v = numerics.haar_unitary(3, 1)
    m = u @ np.diag([1.0, 0.5, 1e-15]) @ v
    ops = unscramble.build_w(channel.EffectiveT(matrix=m))
    inv = (ops.normalized_w * ops.eta[:, None]).T
    expected = np.linalg.pinv(m, rcond=numerics.PINV_RCOND)
    np.testing.assert_allclose(inv, expected, atol=1e-12)


def test_build_w_rejects_a_zero_t_and_effective_t_a_non_square_one():
    with pytest.raises(ConditioningError, match="exactly zero"):
        unscramble.build_w(channel.EffectiveT(matrix=np.zeros((3, 3))))
    with pytest.raises(DimensionMismatchError):
        channel.EffectiveT(matrix=np.ones((2, 3)))


def test_effective_t_condition_number_known_values():
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


def test_dist_up_to_scalar_ignores_the_scale_of_either_argument():
    """The value is the relative residual ||a - c b|| / ||a||: a complex
    factor on either argument leaves it unchanged, and it is symmetric."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    b = a + 0.3 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    want = numerics.dist_up_to_scalar(a, b)
    assert 0.05 < want < 1
    for k in (1e-3, 7.0, 2.5 - 4j, 1e4j):
        assert numerics.dist_up_to_scalar(k * a, b) == pytest.approx(want, rel=1e-12)
        assert numerics.dist_up_to_scalar(a, k * b) == pytest.approx(want, rel=1e-12)
    assert numerics.dist_up_to_scalar(b, a) == pytest.approx(want, rel=1e-12)


def test_dist_up_to_scalar_error_paths():
    with pytest.raises(DimensionMismatchError):
        numerics.dist_up_to_scalar(np.eye(2), np.eye(3))
    with pytest.raises(ConditioningError):
        numerics.dist_up_to_scalar(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ConditioningError):
        numerics.dist_up_to_scalar(np.zeros((2, 2)), np.eye(2))


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


def _around(x):
    """x and the floats one ulp below and above it."""
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# Values where the renderer and format(x, '.17g') could part ways: signed
# zeros, subnormals (printed by format() itself), both sides of 2**53
# (2**53 + 1 is not a float), integers of 17 digits and from 1e17 on, where
# %g turns to exponent notation, and both sides of 1e-4, where it turns back.
_EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2,
                -(2.0 ** 53 - 1), -(2.0 ** 53), 1e16, 1e16 + 2, 99999999999999984.0,
                1e17, 5e-324, 2.2250738585072009e-308, -1e-310, 0.1, -2.5,
                *_around(1e-4)]


def _rendered(values):
    """The renderer's text for each value, and the indices of the values it
    left to format()."""
    words, fallback = numerics._render_g17(np.array(values, dtype=np.float64))
    return [column.tobytes().replace(b"\0", b"").decode("ascii") for column in words.T], fallback


# The renderer's seams: the edge values; each power of ten from 1e-40 to
# 1e20 one ulp either side; doubles below 10**k whose 17 digits round up to
# 1e<k> (the digits carry into the next decade); powers of ten whose scaled
# digits land within their error of 1e16 or 1e17; and exact decimal ties,
# where 10**(16 - x) is an exact double (the first two) and where it is not
# (3 * 2**-24 = 1.78813934326171875e-07).
_RENDER_EDGES = [*_EDGE_VALUES, *_around(1e16), *_around(1e17), *_around(2.0 ** 53),
                 5e-324, 2.2250738585072014e-308,
                 *[y for k in range(-40, 21) for y in _around(float(f"1e{k}"))],
                 1e-14, 1e-70, 1e-73, 1e-78, 1e-79, 1e98, 1e129,
                 100000000000000.125, 100000000000000.375, 3 * 2.0 ** -24]


def test_render_g17_prints_the_edge_values_as_format_does():
    values = [sign * x for x in _RENDER_EDGES for sign in (1.0, -1.0)]
    texts, fallback = _rendered(values)
    assert texts == [format(x, ".17g") for x in values]
    # format() prints the subnormals, the smallest normal, the exact ties and
    # every value whose scaled digits fall outside [1e16, 1e17) or round up
    # to 1e17: the powers of ten scaled a hair below 1e16, and the double
    # below each power of ten but 1 and 10 (its log10 rounds up to k).
    slipped = [-79, -78, -73, -70, -40, -39, -38, -36, -34, -29, -28, -24, -23, -21,
               -20, -19, -16, -14, -12, -11, -7, -6, 20, 98, 129]
    assert {abs(values[k]) for k in fallback} == {
        5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
        100000000000000.125, 100000000000000.375, 3 * 2.0 ** -24,
        *[float(f"1e{k}") for k in slipped],
        *[_around(float(f"1e{k}"))[0] for k in range(-40, 21) if k not in (0, 1)]}


def test_render_g17_proves_every_kind_of_value_the_pipeline_writes():
    """Counts, row-scaled counts, Haar-isometry entries, probabilities down
    to 1e-9 (printed in exponent notation below 1e-4) and signed zeros all
    print through the renderer, none through format()."""
    rng = np.random.default_rng(29)
    kinds = {
        "integers": np.arange(2_000_001.0),
        "row-scaled counts": rng.poisson(50.0, (101, 101))
        * rng.uniform(0.1, 10.0, (101, 1)) ** 2,
        "haar entries": numerics.haar_isometry(500, 8, 31).view(np.float64),
        "probabilities": 10.0 ** rng.uniform(-9.0, 0.0, 200_000),
        "signed zeros": np.array([0.0, -0.0]),
    }
    for kind, values in kinds.items():
        for block in np.array_split(values.ravel(), -(-values.size // 2 ** 18)):
            assert numerics._render_g17(block)[1].size == 0, kind


def test_g17_tables_spell_four_digits_and_count_their_trailing_zeros():
    t = numerics._g17_tables()
    for g in range(10000):
        text = b"%04d" % g
        assert t.digits[g].tobytes() == bytes(b for digit in text for b in (digit, 0))
        assert t.zeros[g] == len(text) - len(text.rstrip(b"0"))  # 4 for g = 0


@settings(deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=64))
def test_render_g17_prints_every_float_as_format_does(values):
    assert _rendered(values)[0] == [format(x, ".17g") for x in values]


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
# Grids past one 4096-value block of the renderer, so values meet block seams:
# integer counts, values falling to 1e-70 (exponent notation from row 5 on),
# complex cells of mixed magnitudes and the renderer's seams.
@example(grids=[np.random.default_rng(5).poisson(50.0, (67, 67)).astype(float)])
@example(grids=[np.random.default_rng(6).random((70, 70)) * 10.0 ** -np.arange(70)[:, None]])
@example(grids=list(np.random.default_rng(7).standard_normal((2, 45, 50))
                    * 10.0 ** np.random.default_rng(8).integers(-30, 25, (2, 45, 50))))
@example(grids=[np.resize(np.array(_RENDER_EDGES), (90, 51))])
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


@pytest.mark.parametrize("render_min", [numerics._RENDER_MIN, 0])
def test_every_written_grid_matches_the_per_cell_writer(tmp_path, monkeypatch, render_min):
    """A d=7 run and an unscramble of its t_hat.csv write row-scaled
    recovered tables, a predicted table in exponent notation and a
    channel.csv of small entries; each file is the per-cell writer's bytes
    for the grid read back from it. With render_min 0 the renderer also
    prints the grids below _RENDER_MIN, which format() prints as written."""
    monkeypatch.setattr(numerics, "_RENDER_MIN", render_min)
    run, ops = tmp_path / "run", tmp_path / "ops"
    assert cli.main(["run", "--scenario", "unscramble-certify", "--d", "7",
                     "--n-modes", "60", "--exposure", "1e4", "--n-mc", "10",
                     "--out", str(run)]) == 0
    assert cli.main(["unscramble", "--t-hat", str(run / "t_hat.csv"), "--out", str(ops)]) == 0
    texts = {path: path.read_text("ascii") for path in sorted(tmp_path.rglob("*.csv"))}
    by_name = {path.name: text for path, text in texts.items()}
    assert "row_scale" in by_name["recovered_tilted_0.csv"]
    assert "e-" in by_name["predicted_standard.csv"]
    assert "\n0,0,0.0" in by_name["channel.csv"]
    reference = tmp_path / "reference.csv"
    for path, text in texts.items():
        columns, width = ("i,j,re,im", 2) if "\ni,j,re,im\n" in text else ("a,b,count", 1)
        header, grid = numerics._read_cells(path, columns, width)
        write_cells_per_cell(reference, header, columns, list(np.moveaxis(grid, -1, 0)))
        assert path.read_bytes() == reference.read_bytes(), path


@pytest.mark.parametrize("corruption", ["truncated", "duplicate", "out-of-range", "zz",
                                        "cut-short", "three-sizes"])
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
             "cut-short": lines[:-1] + ["1,1,1,0"],
             "three-sizes": [lines[0], "2,2,2\n", *lines[2:]]}[corruption]
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)
    with pytest.raises(FormatError):
        numerics.load_matrix_csv(path)
    assert cli.main(["unscramble", "--t-hat", path,
                     "--out", str(tmp_path / "out")]) == 2


def test_read_cells_names_the_first_cell_out_of_the_writers_order(tmp_path):
    """A listing shuffled, with holes or with repeats is refused, naming the
    first cell line that is not the cell the writer puts there; a complete
    grid listed in the writer's row-major order reads back with every value
    in its place."""
    rng = np.random.default_rng(23)
    path = tmp_path / "m.csv"
    for _ in range(200):
        rows, cols = (int(n) for n in rng.integers(1, 5, size=2))
        grid = [(i, j) for i in range(rows) for j in range(cols)]
        cells = list(grid)
        edit = rng.integers(3)
        if edit == 0:  # two cells exchanged, or all shuffled
            a, b = rng.integers(len(cells), size=2)
            cells[a], cells[b] = cells[b], cells[a]
            if rng.random() < 0.5:
                rng.shuffle(cells)
        elif edit == 1:  # cells dropped
            cells = [c for c in cells if rng.random() > 0.2] or [(0, 0)]
        else:  # a cell repeated
            k = int(rng.integers(len(cells)))
            cells.insert(int(rng.integers(k, len(cells) + 1)), cells[k])
        lines = ["rows,cols", f"{rows},{cols}", "i,j,re,im",
                 *[f"{i},{j},{i},{j}" for i, j in cells]]
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        if cells == grid:
            np.testing.assert_array_equal(
                numerics.load_matrix_csv(path),
                np.arange(rows)[:, None] + 1j * np.arange(cols)[None, :])
            continue
        k = next((k for k, (cell, due) in enumerate(zip(cells, grid)) if cell != due),
                 min(len(cells), len(grid)))
        if k < len(cells) and (k == len(grid) or cells[k] < grid[k]):
            expected = f"duplicate cell {cells[k]}"
        else:
            expected = f"missing cell {grid[k]}"
        with pytest.raises(FormatError, match=re.escape(expected) + "$"):
            numerics.load_matrix_csv(path)


# ---------------------------------------------------------------------------
# The reader against oracles.read_cells_by_lines, the line-at-a-time reader
# it replaced, on corrupted copies of real files.


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """(text, columns, width) of three real files of a d=3 run: a
    row-scaled recovered table, a noiseless predicted table and t_hat.csv."""
    out = tmp_path_factory.mktemp("artifacts")
    assert cli.main(["run", "--scenario", "unscramble-certify", "--d", "3",
                     "--n-modes", "8", "--exposure", "1e3", "--n-mc", "0", "--seed", "1",
                     "--out", str(out / "run")]) == 0
    assert cli.main(["unscramble", "--t-hat", str(out / "run" / "t_hat.csv"),
                     "--out", str(out / "ops")]) == 0
    files = [(out / "run" / "tables" / "recovered_tilted_0.csv", "a,b,count", 1),
             (out / "ops" / "unscramble" / "predicted_mub_0.csv", "a,b,count", 1),
             (out / "run" / "t_hat.csv", "i,j,re,im", 2)]
    texts = [(path.read_text(encoding="ascii"), columns, width)
             for path, columns, width in files]
    assert "\nrow_scale\n" in texts[0][0] and ",inf,none\n" in texts[1][0]
    return texts


def _blank_cell_line(text: str, columns: str) -> bool:
    """True when a line below the columns line holds only whitespace."""
    lines = text.split("\n")
    stripped = [line.strip() for line in lines]
    if columns not in stripped:
        return False
    return any(line and not line.strip() for line in lines[stripped.index(columns) + 1:])


def _check_reader(path, columns, width, capsys) -> None:
    """_read_cells gives the header and bits oracles.read_cells_by_lines
    gives, or FormatError where that raises it or where a cell line holds
    only whitespace, and nothing else, not even a warning. A count table it
    rejects makes certify exit 2 with one stderr line."""
    text = path.read_text(encoding="ascii")  # universal newlines, as both readers
    try:
        want = read_cells_by_lines(path, columns, width)
    except FormatError:
        want = None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want is not None and not _blank_cell_line(text, columns):
            header, grid = numerics._read_cells(path, columns, width)
            assert header == want[0]
            np.testing.assert_array_equal(grid.view(np.int64), want[1].view(np.int64))
            return
        with pytest.raises(FormatError):
            numerics._read_cells(path, columns, width)
    if columns == "a,b,count":
        capsys.readouterr()
        assert cli.main(["certify", "--standard", str(path), "--table", str(path),
                         "--n-mc", "0", "--out", str(path.parent / "cert")]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1


def test_read_cells_agrees_with_the_line_reader_on_every_truncation(
        tmp_path, artifacts, capsys):
    path = tmp_path / "cut.csv"
    for text, columns, width in artifacts:
        for data in (text.encode("ascii"), text.replace("\n", "\r\n").encode("ascii")):
            for end in range(len(data) + 1):
                path.write_bytes(data[:end])
                _check_reader(path, columns, width, capsys)


_NUMBER_TOKENS = ["0", "-1", "7", "2.5", "-0", "+2", "1e999", "nan", "inf", "-inf", "",
                  " ", "x", "1e", "0x1", "3 4", " 5 ", "99999999999999999999", "1,2"]
_HEADER_TOKENS = ["rows", "cols", "rows,cols", "a,b,count", "i,j,re,im", "row_scale",
                  "basisA", "3", "2", "0", "-1", "", " ", "inf", "none", "1.5", "x",
                  "99999999999999999999"]


@st.composite
def _corrupted(draw, text: str, columns: str) -> str:
    """text with one to three of: its lines permuted, a field replaced (in
    a cell line, or in a header line down to the columns line), a line
    duplicated, an extra cell line, empty or whitespace-only lines
    inserted; and then, maybe, CRLF line endings."""
    lines = text.splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["permute", "number", "header", "duplicate",
                                     "extra", "blank"]))
        at = draw(st.integers(0, len(lines)))
        if kind == "permute":
            lines = list(draw(st.permutations(lines)))
        elif kind in ("number", "header") and lines:
            top = (lines.index(columns + "\n") if columns + "\n" in lines
                   else len(lines) - 1)
            i = draw(st.integers(0, top) if kind == "header"
                     else st.integers(min(top + 1, len(lines) - 1), len(lines) - 1))
            fields = lines[i][:-1].split(",")
            tokens = _HEADER_TOKENS if kind == "header" else _NUMBER_TOKENS
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.one_of(
                st.sampled_from(tokens), st.integers(-3, 5).map(str),
                st.floats(allow_nan=False).map(repr)))
            lines[i] = ",".join(fields) + "\n"
        elif kind == "duplicate" and lines:
            lines.insert(at, lines[draw(st.integers(0, len(lines) - 1))])
        elif kind == "extra":
            values = draw(st.lists(st.integers(-2, 4).map(str), min_size=2, max_size=5))
            lines.insert(at, ",".join(values) + "\n")
        elif kind == "blank":
            for _ in range(draw(st.integers(1, 3))):
                lines.insert(draw(st.integers(0, len(lines))),
                             draw(st.sampled_from(["\n", " \n", "\t\n", "  \t \n"])))
    text = "".join(lines)
    return text.replace("\n", "\r\n") if draw(st.booleans()) else text


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          deadline=None, max_examples=300)
@given(data=st.data())
def test_read_cells_agrees_with_the_line_reader_on_corrupted_files(
        tmp_path, artifacts, capsys, data):
    text, columns, width = data.draw(st.sampled_from(artifacts))
    path = tmp_path / "corrupted.csv"
    path.write_bytes(data.draw(_corrupted(text, columns)).encode("ascii"))
    _check_reader(path, columns, width, capsys)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          deadline=None, max_examples=300)
@given(data=st.data())
def test_count_table_reader_loads_the_draw_or_refuses_a_corrupted_file(
        tmp_path, artifacts, data):
    """A corrupted copy of a sampled, row-scaled table either loads as a
    whole-number draw whose product with row_scale is every cell the line
    reader sees, bit for bit (the original draw and row_scale when the file
    still holds the original cells and factors), or it is refused."""
    text, columns, width = artifacts[0]
    path = tmp_path / "recovered_tilted_0.csv"
    path.write_text(text, encoding="ascii")
    original = measure.load_count_table(path)
    assert not original.noiseless and original.row_scale is not None
    path.write_bytes(data.draw(_corrupted(text, columns)).encode("ascii"))
    try:
        table = measure.load_count_table(path)
    except (FormatError, NormalizationError):
        return
    cells = read_cells_by_lines(path, columns, width)[1][:, :, 0]
    if table.row_scale is None:
        np.testing.assert_array_equal(table.counts, cells)
        return
    if table.noiseless:
        np.testing.assert_allclose(table.corrected, cells, rtol=1e-15)
        return
    np.testing.assert_array_equal(table.counts, np.rint(table.counts))
    np.testing.assert_array_equal(table.corrected.view(np.int64), cells.view(np.int64))
    if (np.array_equal(cells, original.corrected)
            and np.array_equal(table.row_scale, original.row_scale)):
        np.testing.assert_array_equal(table.counts, original.counts)


def test_read_cells_reads_crlf_empty_lines_and_spaced_fields_but_not_blank_cell_lines(
        tmp_path, artifacts):
    """CRLF endings, empty lines and spaces around fields read as the file
    as written; an empty cell block is "no cells" with no numpy warning; a
    cell line holding only whitespace is FormatError."""
    text, columns, width = artifacts[2]
    path = tmp_path / "t_hat.csv"
    path.write_text(text, encoding="ascii")
    header, grid = numerics._read_cells(path, columns, width)
    lines = text.splitlines()
    k = lines.index(columns) + 1
    spaced = [*lines[:k], "", *[" " + line.replace(",", " , ") + "\t" for line in lines[k:]], ""]
    path.write_bytes(("\r\n".join(spaced) + "\r\n").encode("ascii"))
    spaced_header, spaced_grid = numerics._read_cells(path, columns, width)
    assert spaced_header == header
    np.testing.assert_array_equal(spaced_grid.view(np.int64), grid.view(np.int64))
    for block in ([], [""], ["", ""]):
        path.write_text("\n".join([*lines[:k], *block]) + "\n", encoding="ascii")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="no cells$"):
                numerics._read_cells(path, columns, width)
    path.write_text("\n".join([*lines[:k + 1], "  ", *lines[k + 1:]]) + "\n",
                    encoding="ascii")
    with pytest.raises(FormatError, match="malformed entry"):
        numerics._read_cells(path, columns, width)


def test_read_cells_names_indices_past_the_int64_range_without_a_warning(tmp_path):
    """Indices and claimed sizes past the int64 range, and a size past the
    float range, are judged and named without a warning or an overflow."""
    path = tmp_path / "m.csv"
    big = 2 ** 63
    for rows, cells, message in [
            (3, [(0, 0), (float(big), 0)], f"cell ({big}, 0) outside the 3x1 grid"),
            (10 ** 30, [(0, 0), (-2.0 * big, 0)],
             f"cell ({-2 * big}, 0) outside the {10 ** 30}x1 grid"),
            (10 ** 30, [(0, 0), (0, 0)], "duplicate cell (0, 0)"),
            (10 ** 30, [(float(big), 0)], "missing cell (0, 0)"),
            (10 ** 400, [(0, 0), (1e300, 0)], "missing cell (1, 0)")]:
        path.write_text("\n".join(["rows,cols", f"{rows},1", "i,j,re,im",
                                   *[f"{i!r},{j},1,0" for i, j in cells]]) + "\n",
                        encoding="ascii")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=re.escape(message) + "$"):
                numerics.load_matrix_csv(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
def test_read_cells_rejects_a_non_finite_value(tmp_path, token):
    path = tmp_path / "m.csv"
    path.write_text(f"rows,cols\n1,2\ni,j,re,im\n0,0,1,0\n0,1,2,{token}\n",
                    encoding="ascii")
    with pytest.raises(FormatError, match="non-finite cell entry$"):
        numerics.load_matrix_csv(path)
