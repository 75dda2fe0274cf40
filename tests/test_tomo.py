"""Phase-scan algebra and transmission-matrix reconstruction."""

import numpy as np
import pytest

from qscatter import bases, channel, measure, numerics, tomo
from qscatter.errors import (
    DegenerateReferenceError,
    DimensionMismatchError,
    NormalizationError,
    TagConflictError,
)


def _synthetic_tables(ref, sig, dark=0.0, label="standard", kind="s"):
    """Four step tables, in step order, with intensities
    |exp(-i theta) ref + sig|^2."""
    ref = np.asarray(ref, dtype=np.complex128)
    sig = np.asarray(sig, dtype=np.complex128)
    return [measure.CountTable(
                counts=np.abs(np.exp(-1j * theta) * ref + sig) ** 2 + dark,
                basis_label_a=f"scan-{kind}:{label}:step{step}",
                basis_label_b=label,
                exposure=measure.NOISELESS)
            for step, theta in enumerate(measure.THETA_GRID)]


def test_extract_s_recovers_cross_terms_exactly():
    rng = np.random.default_rng(5)
    d = 4
    ref = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    sig = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    values, label = tomo.extract_s(_synthetic_tables(ref, sig))
    np.testing.assert_allclose(values, ref * np.conjugate(sig), atol=1e-12)
    assert values.shape == (d, d) and label == "standard"


def test_extract_s_cancels_uniform_dark_offset():
    rng = np.random.default_rng(6)
    d = 3
    ref = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    sig = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    clean, _ = tomo.extract_s(_synthetic_tables(ref, sig))
    dark, _ = tomo.extract_s(_synthetic_tables(ref, sig, dark=7.5))
    np.testing.assert_allclose(dark, clean, atol=1e-12)


def test_extract_s_validates_record_sets():
    ref = np.ones((2, 2))
    sig = np.full((2, 2), 1 + 1j)
    tables = _synthetic_tables(ref, sig)
    with pytest.raises(NormalizationError):
        tomo.extract_s(tables[:3])
    other = _synthetic_tables(np.ones((3, 3)), np.ones((3, 3)))
    with pytest.raises(DimensionMismatchError):
        tomo.extract_s(tables[:3] + [other[3]])
    relabeled = _synthetic_tables(ref, sig, label="mub:1")
    with pytest.raises(NormalizationError):
        tomo.extract_s(tables[:3] + [relabeled[3]])
    wide = _synthetic_tables(np.ones((1, 4)), np.ones((1, 4)))
    with pytest.raises(DimensionMismatchError):
        tomo.extract_s(wide)


def test_extract_e_recovers_reference_diagonal():
    rng = np.random.default_rng(7)
    d = 5
    ref = rng.standard_normal((1, d)) + 1j * rng.standard_normal((1, d))
    sig = rng.standard_normal((1, d)) + 1j * rng.standard_normal((1, d))
    diag, label = tomo.extract_e(_synthetic_tables(ref, sig, kind="e"))
    np.testing.assert_allclose(diag, (ref * np.conjugate(sig))[0],
                               atol=1e-12)
    assert diag.shape == (d,) and label == "standard"


def test_extract_e_flags_degenerate_reference():
    sig = np.array([[1.0, 1.0, 1e-9]], dtype=np.complex128)
    ref = np.ones((1, 3), dtype=np.complex128)
    with pytest.raises(DegenerateReferenceError):
        tomo.extract_e(_synthetic_tables(ref, sig, kind="e"))
    with pytest.raises(DegenerateReferenceError):
        tomo.extract_e(_synthetic_tables(np.zeros((1, 3)), np.zeros((1, 3)),
                                         kind="e"))
    square = _synthetic_tables(np.ones((3, 3)), np.ones((3, 3)))
    with pytest.raises(DimensionMismatchError):
        tomo.extract_e(square)


def test_extract_e_rejects_a_floor_outside_unit_interval():
    tables = _synthetic_tables(np.ones((1, 3)), np.ones((1, 3)), kind="e")
    for floor in (np.nan, -1.0, 1.0, np.inf):
        with pytest.raises(NormalizationError, match="ref_floor"):
            tomo.extract_e(tables, ref_floor=floor)
    tomo.extract_e(tables, ref_floor=0.0)


def test_fix_gauge_normalizes_and_is_scalar_invariant():
    rng = np.random.default_rng(8)
    for _ in range(10):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        g = tomo.fix_gauge(m)
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)
        anchor = g.ravel()[np.flatnonzero(np.abs(g.ravel()) > 1e-12)[0]]
        assert anchor.imag == pytest.approx(0.0, abs=1e-12)
        assert anchor.real > 0
        c = (rng.standard_normal() + 1j * rng.standard_normal()) or 1.0
        np.testing.assert_allclose(tomo.fix_gauge(c * m), g, atol=1e-10)
    with pytest.raises(NormalizationError):
        tomo.fix_gauge(np.zeros((2, 2)))


def test_assemble_t_rejects_mismatched_scans():
    s = (np.eye(2, dtype=np.complex128), "standard")
    with pytest.raises(DimensionMismatchError):
        tomo.assemble_t(s, (np.ones(3, dtype=np.complex128), "standard"))
    with pytest.raises(NormalizationError):
        tomo.assemble_t(s, (np.ones(2, dtype=np.complex128), "mub:1"))
    t = tomo.assemble_t(s, (np.ones(2, dtype=np.complex128), "standard"))
    np.testing.assert_allclose(t.matrix, np.eye(2) / np.sqrt(2), atol=1e-15)


@pytest.mark.parametrize("family_spec", ["standard", "mub:1"])
def test_reconstruct_matches_channel_in_scan_family(family_spec):
    d, n_modes = 5, 12
    family = bases.parse_basis_spec(family_spec, d)
    for seed in range(4):
        ch = channel.haar_channel(d, n_modes, seed)
        full = channel.transmitted_state(ch, 1.0)
        s_rec = measure.phase_step_scan_s(full, family, measure.NOISELESS)
        e_rec = measure.phase_step_scan_e(full, family, measure.NOISELESS)
        recon = tomo.reconstruct(s_rec, e_rec, family)
        oracle = bases.rotate_matrix(channel.effective_t(ch).matrix, family)
        err = numerics.dist_up_to_scalar(recon.t.matrix, oracle)
        assert err < 1e-10
        assert recon.t.basis_tag.kind == family.kind
        assert not recon.t.includes_reference
        assert 0.0 < recon.e_ratio <= 1.0
        assert np.isfinite(recon.condition_number)


def test_reconstruction_error_shrinks_with_exposure():
    d, n_modes = 3, 8
    family = bases.standard_family(d)
    ch = channel.haar_channel(d, n_modes, 3)
    full = channel.transmitted_state(ch, 1.0)
    oracle = bases.rotate_matrix(channel.effective_t(ch).matrix, family)
    errs = {}
    for exposure in (1e3, 1e7):
        s_rec = measure.phase_step_scan_s(full, family, exposure, seed=11)
        e_rec = measure.phase_step_scan_e(full, family, exposure, seed=12)
        recon = tomo.reconstruct(s_rec, e_rec, family)
        errs[exposure] = numerics.dist_up_to_scalar(recon.t.matrix, oracle)
    assert errs[1e7] < errs[1e3] / 10
    assert errs[1e7] < 1e-1


def test_reconstruct_rejects_a_family_the_scans_were_not_recorded_in():
    d = 3
    scanned = bases.mub(d, 0)
    full = channel.transmitted_state(channel.haar_channel(d, 8, 5), 1.0)
    s_rec = measure.phase_step_scan_s(full, scanned, measure.NOISELESS)
    e_rec = measure.phase_step_scan_e(full, scanned, measure.NOISELESS)
    for other in (bases.mub(d, 1), bases.standard_family(d)):
        with pytest.raises(TagConflictError, match="mub:0"):
            tomo.reconstruct(s_rec, e_rec, other)
    assert tomo.reconstruct(s_rec, e_rec, scanned).t.basis_tag.kind == "mub:0"
