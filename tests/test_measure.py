"""Coincidence tables: probabilities, Poisson sampling, phase scans, IO."""

import re
import tracemalloc

import numpy as np
import pytest

from oracles import kron_vector
from qscatter import bases, cli, measure, numerics, states
from qscatter.errors import (
    ConditioningError,
    DimensionMismatchError,
    FormatError,
    InvalidDimensionError,
    NormalizationError,
)


def test_count_table_validation():
    with pytest.raises(NormalizationError):
        measure.CountTable(counts=np.array([[-1.0]]), basis_label_a="a",
                           basis_label_b="b", exposure=1.0)
    with pytest.raises(NormalizationError):
        measure.CountTable(counts=np.ones((2, 2)), basis_label_a="a",
                           basis_label_b="b", exposure=0.0)
    with pytest.raises(InvalidDimensionError):
        measure.CountTable(counts=np.ones(3), basis_label_a="a",
                           basis_label_b="b", exposure=1.0)
    with pytest.raises(NormalizationError):
        measure.CountTable(counts=np.ones((2, 2)), basis_label_a="a",
                           basis_label_b="b", exposure=1.0,
                           row_scale=np.array([1.0, -1.0]))


@pytest.mark.parametrize("factor", [np.inf, np.nan])
def test_count_table_rejects_a_non_finite_row_scale(factor):
    with pytest.raises(NormalizationError, match="finite"):
        measure.CountTable(counts=np.ones((2, 2)), basis_label_a="a",
                           basis_label_b="b", exposure=1.0,
                           row_scale=np.array([factor, 1.0]))


def test_count_table_helpers():
    t = measure.CountTable(counts=np.array([[1.0, 3.0]]), basis_label_a="a",
                           basis_label_b="b", exposure=measure.NOISELESS)
    assert t.noiseless
    assert t.total() == 4.0
    np.testing.assert_allclose(t.normalized(), [[0.25, 0.75]])
    zero = measure.CountTable(counts=np.zeros((1, 1)), basis_label_a="a",
                              basis_label_b="b", exposure=1.0)
    with pytest.raises(NormalizationError):
        zero.normalized()


def test_probability_table_matches_projection_oracle():
    rng = np.random.default_rng(41)
    d = 4
    c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    st = states.make_state(c)
    kets_a = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
    kets_b = rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))
    table = measure.probability_table(st, kets_a, kets_b)
    for i in range(3):
        for j in range(5):
            amp = np.conjugate(np.kron(kets_a[i], kets_b[j])) @ kron_vector(c)
            assert table[i, j] == pytest.approx(abs(amp) ** 2, abs=1e-12)
            assert abs(states.project(st, kets_a[i], kets_b[j])) ** 2 == (
                pytest.approx(abs(amp) ** 2, abs=1e-12))


def test_sample_counts_noiseless_returns_exact_means():
    probs = np.array([[0.25, 0.75]])
    t = measure.sample_counts(probs, measure.NOISELESS, None, dark_rate=0.1)
    np.testing.assert_allclose(t.counts, probs + 0.1)
    assert t.noiseless and t.seed is None


def test_sample_counts_poisson_statistics():
    probs = np.array([[0.5]])
    t = measure.sample_counts(probs, 1e5, 7)
    assert t.counts[0, 0] == pytest.approx(1e5, rel=0.02)
    assert t.exposure == 2e5
    t2 = measure.sample_counts(probs, 1e5, 7)
    np.testing.assert_array_equal(t.counts, t2.counts)
    assert t.seed == 7


def test_sample_counts_seed_bookkeeping():
    probs = np.full((4, 4), 0.5)
    t = measure.sample_counts(probs, 100.0, 3, stream=(13, 1))
    assert t.seed == 3
    again = measure.sample_counts(probs, 100.0, 3, stream=(13, 1))
    np.testing.assert_array_equal(t.counts, again.counts)
    other = measure.sample_counts(probs, 100.0, 3, stream=(13, 2))
    assert other.seed == 3
    assert not np.array_equal(t.counts, other.counts)


def test_sample_counts_error_paths():
    with pytest.raises(NormalizationError):
        measure.sample_counts(np.array([[0.5]]), 100.0, None)
    with pytest.raises(NormalizationError):
        measure.sample_counts(np.array([[-0.5]]), 100.0, 1)
    with pytest.raises(NormalizationError):
        measure.sample_counts(np.array([[0.5]]), 100.0, 1, dark_rate=-0.1)
    for exposure in (100.0, measure.NOISELESS):  # a table is 2-D
        with pytest.raises(InvalidDimensionError):
            measure.sample_counts(np.array([0.5, 0.5]), exposure, 1)


def test_sample_counts_puts_the_brightest_cell_at_the_exposure():
    probs = np.array([[0.1, 0.3], [0.0, 0.6]])
    for exposure in (30.0, 1e4):
        t = measure.sample_counts(probs, exposure, 5, dark_rate=0.01)
        assert t.exposure * np.max(probs) == pytest.approx(exposure, rel=1e-12)


def test_all_dark_acquisition_raises_conditioning_error():
    # Dark counts do not set the scale: only the signal's peak does.
    for dark in (0.0, 0.1):
        with pytest.raises(ConditioningError):
            measure.sample_counts(np.zeros((2, 2)), 100.0, 1, dark_rate=dark)
    # A negative probability is rejected before any peak is taken.
    with pytest.raises(NormalizationError):
        measure.sample_counts(np.array([[-0.5, 0.0]]), 100.0, 1)


def test_measure_correlations_diagonal_for_max_entangled():
    st = states.max_entangled(5)
    for fam in (bases.standard_family(5), bases.mub(5, 2)):
        table = measure.measure_correlations(st, fam, measure.NOISELESS)
        assert table.basis_label_a == fam.kind
        assert table.basis_label_b == fam.kind + "*"
        off = table.counts - np.diag(np.diagonal(table.counts))
        np.testing.assert_allclose(off, 0.0, atol=1e-12)
        np.testing.assert_allclose(np.diagonal(table.counts), 1 / 5,
                                   atol=1e-12)


def test_measure_correlations_scale_to_the_peak_cell():
    st = states.make_state(np.diag([3.0, 2.0, 1.0]))
    fam = bases.mub(3, 1)
    probs = measure.probability_table(st, fam.matrix, np.conjugate(fam.matrix))
    table = measure.measure_correlations(st, fam, 500.0, seed=2)
    assert table.exposure * np.max(probs) == pytest.approx(500.0, rel=1e-12)


def test_measure_correlations_families_draw_independent_noise():
    st = states.max_entangled(5)
    one, two = (measure.measure_correlations(st, bases.mub(5, r), 1e4, seed=4)
                for r in (1, 2))
    assert one.seed == two.seed == 4
    assert not np.array_equal(one.counts, two.counts)


@pytest.mark.parametrize("d", [7, 31])
def test_measure_correlations_is_probability_table_on_its_kets(d):
    # The family's operators go to the kernel unconjugated; the table is
    # the one probability_table gives on the kets, bit for bit.
    rng = np.random.default_rng(d)
    st = states.make_state(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    lam = np.linspace(1.0, 2.0, d)
    lam /= np.linalg.norm(lam)
    for fam in (bases.standard_family(d), bases.mub(d, 2), bases.tilted(d, 3, lam)):
        table = measure.measure_correlations(st, fam, measure.NOISELESS)
        np.testing.assert_array_equal(
            table.counts, measure.probability_table(st, fam.matrix, np.conjugate(fam.matrix)))


def test_measure_correlations_dimension_check():
    with pytest.raises(DimensionMismatchError):
        measure.measure_correlations(states.max_entangled(3),
                                     bases.standard_family(4),
                                     measure.NOISELESS)


def _scan_state(d, seed, ref_weight=1.0):
    """A (d+1)-dimensional diagonal-source state sent through one unitary."""
    u = numerics.haar_unitary(d + 1, seed)
    w = np.ones(d + 1)
    w[0] = ref_weight
    src = states.weighted_source(w)
    return states.apply_one_sided(src, None, u), u


def test_phase_scans_have_documented_shapes_and_labels():
    d = 3
    st, _ = _scan_state(d, 0)
    fam = bases.mub(d, 1)
    s_tabs = measure.phase_step_scan_s(st, fam, measure.NOISELESS)
    e_tabs = measure.phase_step_scan_e(st, fam, measure.NOISELESS)
    assert len(s_tabs) == len(e_tabs) == len(measure.THETA_GRID)
    for step, table in enumerate(s_tabs):
        assert table.counts.shape == (d, d)
        assert table.basis_label_a == f"scan-s:mub:1:step{step}"
        assert table.basis_label_b == "mub:1"
    for step, table in enumerate(e_tabs):
        assert table.counts.shape == (1, d)
        assert table.basis_label_a == f"scan-e:mub:1:step{step}"


def test_phase_scan_steps_record_root_seed_and_differ():
    d = 3
    st, _ = _scan_state(d, 1)
    fam = bases.standard_family(d)
    tabs = measure.phase_step_scan_s(st, fam, 1e4, seed=9)
    assert all(t.seed == 9 for t in tabs)
    again = measure.phase_step_scan_s(st, fam, 1e4, seed=9)
    for a, b in zip(tabs, again):
        np.testing.assert_array_equal(a.counts, b.counts)
    assert not np.array_equal(tabs[0].counts, tabs[1].counts)


@pytest.mark.parametrize("scan", [measure.phase_step_scan_s, measure.phase_step_scan_e])
def test_phase_scan_steps_share_one_scale_set_by_their_joint_peak(scan):
    d = 3
    st, _ = _scan_state(d, 3)
    fam = bases.mub(d, 2)
    noiseless = scan(st, fam, measure.NOISELESS)
    peak = max(np.max(t.counts) for t in noiseless)
    tabs = scan(st, fam, 200.0, seed=4, dark_rate=0.01)
    assert len({t.exposure for t in tabs}) == 1
    assert tabs[0].exposure * peak == pytest.approx(200.0, rel=1e-12)
    # The shared scale is set by the joint peak, not each step's own.
    assert min(np.max(t.counts) for t in noiseless) < peak


def test_phase_scan_rejects_wrong_state_dimension():
    st = states.max_entangled(3)
    fam = bases.standard_family(3)
    with pytest.raises(DimensionMismatchError):
        measure.phase_step_scan_s(st, fam, measure.NOISELESS)
    st4, _ = _scan_state(3, 2)
    with pytest.raises(NormalizationError):
        measure.phase_step_scan_s(st4, fam, 1e4)


def test_zeta_correct_scales_rows_once():
    # The SLM row correction is the draw's row_scale: the table keeps the
    # draw, records the factors, and multiplies each row once, in
    # `corrected`.
    ones = np.ones((2, 3))
    z = np.array([2.0, 3.0])
    fixed = measure.sample_counts(ones, measure.NOISELESS, None, row_scale=z * z)
    np.testing.assert_array_equal(fixed.counts, ones)
    np.testing.assert_allclose(fixed.corrected[0], 4.0)
    np.testing.assert_allclose(fixed.corrected[1], 9.0)
    np.testing.assert_allclose(fixed.row_scale, z * z)
    assert fixed.total() == 39.0
    np.testing.assert_allclose(fixed.normalized(), fixed.corrected / 39.0)
    with pytest.raises(DimensionMismatchError):
        measure.sample_counts(ones, measure.NOISELESS, None, row_scale=np.ones(3))
    with pytest.raises(NormalizationError):
        measure.sample_counts(ones, measure.NOISELESS, None, row_scale=np.array([1.0, 0.0]))


def test_sample_counts_row_scale_multiplies_the_unscaled_draw():
    probs = np.random.default_rng(5).random((3, 4))
    s = np.array([0.5, 2.0, 7.25])
    draw = dict(exposure=400.0, seed=9, dark_rate=0.01, stream=(4, 1))
    plain = measure.sample_counts(probs, **draw)
    scaled = measure.sample_counts(probs, **draw, row_scale=s)
    np.testing.assert_array_equal(scaled.counts, plain.counts)
    np.testing.assert_array_equal(scaled.counts, np.rint(scaled.counts))
    np.testing.assert_array_equal(scaled.corrected, plain.counts * s[:, np.newaxis])
    np.testing.assert_array_equal(scaled.row_scale, s)
    assert plain.row_scale is None and plain.corrected is plain.counts
    assert (scaled.exposure, scaled.seed) == (plain.exposure, plain.seed)
    with pytest.raises(DimensionMismatchError):
        measure.sample_counts(probs, **draw, row_scale=s[:2])
    with pytest.raises(NormalizationError):
        measure.sample_counts(probs, **draw, row_scale=-s)


def _traced_peak(call) -> int:
    """Bytes that call() holds at its peak above what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_row_scaled_draw_peaks_no_higher_than_a_plain_one():
    # The row correction is recorded, not multiplied in, so a d=101 draw
    # with a row_scale holds no d x d array more than a plain draw.
    d = 101
    probs = np.random.default_rng(6).random((d, d))
    s = np.random.default_rng(7).random(d) + 0.5
    draw = dict(exposure=1e4, seed=3, stream=(5,))
    plain = _traced_peak(lambda: measure.sample_counts(probs, **draw))
    scaled = _traced_peak(lambda: measure.sample_counts(probs, **draw, row_scale=s))
    assert scaled <= plain + 0.1 * probs.nbytes, (scaled / probs.nbytes,
                                                   plain / probs.nbytes)


def test_count_table_round_trip(tmp_path):
    counts = np.array([[1.0, 2.0], [3.0, 5.0]])
    t = measure.CountTable(counts=counts, basis_label_a="mub:1",
                           basis_label_b="mub:1*", exposure=1e4, seed=12,
                           row_scale=np.array([1.5, 2.5]))
    path = tmp_path / "t.csv"
    measure.save_count_table(path, t)
    assert path.read_text(encoding="ascii").endswith("1,0,7.5\n1,1,12.5\n")
    back = measure.load_count_table(path)
    np.testing.assert_array_equal(back.counts, t.counts)
    np.testing.assert_array_equal(back.row_scale, t.row_scale)
    assert back.basis_label_a == "mub:1"
    assert back.exposure == 1e4 and back.seed == 12


def test_a_sampled_row_scaled_table_loads_back_its_integer_draw(tmp_path):
    """The file holds draw x row_scale; the reader gives back the draw
    exactly, and refuses a file with one cell that is not a whole count
    times its row's factor, naming the file."""
    probs = np.random.default_rng(8).random((5, 5))
    s = np.random.default_rng(9).random(5) + 0.5
    t = measure.sample_counts(probs, 1e4, 3, row_scale=s)
    path = tmp_path / "t.csv"
    measure.save_count_table(path, t)
    back = measure.load_count_table(path)
    np.testing.assert_array_equal(back.counts, t.counts)
    np.testing.assert_array_equal(back.corrected, t.corrected)
    np.testing.assert_array_equal(back.row_scale, s)
    lines = path.read_text(encoding="ascii").splitlines(keepends=True)
    a, b, count = lines[-1].split(",")
    edited = lines[:-1] + [f"{a},{b},{float(count) + float(s[int(a)]) / 2!r}\n"]
    path.write_text("".join(edited), encoding="ascii")
    with pytest.raises(FormatError, match=re.escape(str(path)) + ": .*row_scale"):
        measure.load_count_table(path)
    # A factor so small that a cell over it overflows: refused, with no warning.
    tiny = lines[:3] + ["5e-324," + lines[3].split(",", 1)[1]] + lines[4:]
    path.write_text("".join(tiny), encoding="ascii")
    with pytest.raises(NormalizationError, match="finite"):
        measure.load_count_table(path)


def test_count_table_round_trip_noiseless(tmp_path):
    t = measure.CountTable(counts=np.array([[0.125, 0.25]]),
                           basis_label_a="standard",
                           basis_label_b="standard*",
                           exposure=measure.NOISELESS)
    measure.save_count_table(tmp_path / "t.csv", t)
    back = measure.load_count_table(tmp_path / "t.csv")
    assert back.noiseless and back.seed is None
    np.testing.assert_array_equal(back.counts, t.counts)


def test_count_table_rejects_unsafe_labels(tmp_path):
    t = measure.CountTable(counts=np.ones((1, 1)), basis_label_a="a,b",
                           basis_label_b="c", exposure=1.0)
    with pytest.raises(NormalizationError):
        measure.save_count_table(tmp_path / "t.csv", t)


@pytest.mark.parametrize("corruption", ["truncated", "duplicate", "out-of-range", "zz",
                                        "cut-short"])
def test_count_table_rejects_corrupt_cells(tmp_path, corruption):
    std_path, fam_path = str(tmp_path / "standard.csv"), str(tmp_path / "mub_0.csv")
    for path, label in ((std_path, "standard"), (fam_path, "mub:0")):
        measure.save_count_table(path, measure.CountTable(
            counts=np.eye(3) * 50.0, basis_label_a=label,
            basis_label_b=label + "*", exposure=1e4, seed=1))
    with open(std_path, encoding="ascii") as fh:
        lines = fh.readlines()
    assert lines[-1] == "2,2,50\n"
    lines = {"truncated": lines[:-1],
             "duplicate": lines + ["0,0,50\n"],
             "out-of-range": lines + ["0,3,1\n"],
             "zz": lines[:-1] + ["2,2,zz\n"],
             "cut-short": lines[:-1] + ["2,2,5"]}[corruption]
    with open(std_path, "w", encoding="ascii") as fh:
        fh.writelines(lines)
    with pytest.raises(FormatError):
        measure.load_count_table(std_path)
    assert cli.main(["certify", "--standard", std_path, "--table", fam_path,
                     "--n-mc", "0", "--out", str(tmp_path / "cert")]) == 2
