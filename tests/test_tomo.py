"""Phase-scan algebra and transmission-matrix reconstruction."""

import numpy as np
import pytest

from oracles import reconstruct_in_steps
from qscatter import bases, channel, measure, numerics, tomo, unscramble
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


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _e_tables(d, label="standard", dark=0.0):
    """A reference scan whose cross terms are all 1."""
    return _synthetic_tables(np.ones((1, d)), np.ones((1, d)), dark, label, kind="e")


def _assert_rejected_like_the_steps(error, s_tables, e_tables, family=None,
                                    ref_floor=1e-6, match=None):
    """reconstruct raises `error` (matching `match`) with the exception type
    and message of the step-by-step reference chain."""
    with pytest.raises(error, match=match) as got:
        tomo.reconstruct(s_tables, e_tables, family, ref_floor)
    with pytest.raises(error) as want:
        reconstruct_in_steps(s_tables, e_tables, family, ref_floor)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_extract_s_recovers_cross_terms_exactly():
    """reconstruct returns, up to its gauge, conj(S / conj(E))^T built from
    the exact cross terms ref * conj(sig) of both scans."""
    rng = np.random.default_rng(5)
    d = 4
    ref, sig = _complex(rng, (d, d)), _complex(rng, (d, d))
    ref_e, sig_e = _complex(rng, (1, d)), _complex(rng, (1, d))
    recon = tomo.reconstruct(_synthetic_tables(ref, sig),
                             _synthetic_tables(ref_e, sig_e, kind="e"))
    s = ref * np.conjugate(sig)
    e = ref_e * np.conjugate(sig_e)
    expected = numerics.dag(s / np.conjugate(e))
    assert recon.t.dim == d and recon.t.basis_tag is None
    assert numerics.dist_up_to_scalar(recon.t.matrix, expected) < 1e-12


def test_extract_s_cancels_uniform_dark_offset():
    rng = np.random.default_rng(6)
    d = 3
    ref, sig = _complex(rng, (d, d)), _complex(rng, (d, d))
    clean = tomo.reconstruct(_synthetic_tables(ref, sig), _e_tables(d))
    dark = tomo.reconstruct(_synthetic_tables(ref, sig, dark=7.5),
                            _e_tables(d, dark=7.5))
    np.testing.assert_allclose(dark.t.matrix, clean.t.matrix, atol=1e-12)
    assert dark.e_ratio == pytest.approx(clean.e_ratio, abs=1e-12)


def test_extract_s_validates_record_sets():
    ref = np.ones((2, 2))
    sig = np.full((2, 2), 1 + 1j)
    tables = _synthetic_tables(ref, sig)
    e_tables = _e_tables(2)
    _assert_rejected_like_the_steps(NormalizationError, tables[:3], e_tables,
                                    match="exactly 4 phase steps")
    other = _synthetic_tables(np.ones((3, 3)), np.ones((3, 3)))
    _assert_rejected_like_the_steps(DimensionMismatchError, tables[:3] + [other[3]],
                                    e_tables, match="differ in shape")
    relabeled = _synthetic_tables(ref, sig, label="mub:1")
    _assert_rejected_like_the_steps(NormalizationError, tables[:3] + [relabeled[3]],
                                    e_tables, match="differ in basis label")
    wide = _synthetic_tables(np.ones((1, 4)), np.ones((1, 4)))
    _assert_rejected_like_the_steps(DimensionMismatchError, wide, _e_tables(4),
                                    match="must be square")
    # the reference scan goes through the same step checks
    _assert_rejected_like_the_steps(NormalizationError, tables, e_tables[:3],
                                    match="exactly 4 phase steps")


def test_extract_e_recovers_reference_diagonal():
    """Each column of T is divided by the conjugate of its E entry, and
    e_ratio is the smallest |E| over the largest."""
    rng = np.random.default_rng(7)
    d = 5
    ref_e, sig_e = _complex(rng, (1, d)), _complex(rng, (1, d))
    e = (ref_e * np.conjugate(sig_e))[0]
    recon = tomo.reconstruct(_synthetic_tables(np.eye(d), np.eye(d)),
                             _synthetic_tables(ref_e, sig_e, kind="e"))
    expected = np.diag(1.0 / e)
    assert numerics.dist_up_to_scalar(recon.t.matrix, expected) < 1e-12
    assert recon.e_ratio == pytest.approx(np.min(np.abs(e)) / np.max(np.abs(e)),
                                          rel=1e-12)


def test_extract_e_flags_degenerate_reference():
    s_tables = _synthetic_tables(np.ones((3, 3)), np.ones((3, 3)))
    sig = np.array([[1.0, 1.0, 1e-9]], dtype=np.complex128)
    ref = np.ones((1, 3), dtype=np.complex128)
    _assert_rejected_like_the_steps(DegenerateReferenceError, s_tables,
                                    _synthetic_tables(ref, sig, kind="e"),
                                    match="dynamic range")
    _assert_rejected_like_the_steps(
        DegenerateReferenceError, s_tables,
        _synthetic_tables(np.zeros((1, 3)), np.zeros((1, 3)), kind="e"),
        match="no interference")
    _assert_rejected_like_the_steps(DimensionMismatchError, s_tables, s_tables,
                                    match="1 x d")


def test_extract_e_rejects_a_floor_outside_unit_interval():
    s_tables = _synthetic_tables(np.ones((3, 3)), np.ones((3, 3)))
    tables = _e_tables(3)
    for floor in (np.nan, -1.0, 1.0, np.inf):
        _assert_rejected_like_the_steps(NormalizationError, s_tables, tables,
                                        ref_floor=floor, match="ref_floor")
    assert tomo.reconstruct(s_tables, tables, ref_floor=0.0).e_ratio == 1.0


def test_fix_gauge_normalizes_and_is_scalar_invariant():
    """T has unit Frobenius norm and a real positive first entry of
    nonnegligible modulus, whatever complex factor scales either scan."""
    rng = np.random.default_rng(8)
    d = 4
    e_tables = _e_tables(d)
    for _ in range(10):
        ref, sig = _complex(rng, (d, d)), _complex(rng, (d, d))
        g = tomo.reconstruct(_synthetic_tables(ref, sig), e_tables).t.matrix
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)
        anchor = g.ravel()[np.flatnonzero(np.abs(g.ravel()) > 1e-12)[0]]
        assert anchor.imag == pytest.approx(0.0, abs=1e-12)
        assert anchor.real > 0
        c = (rng.standard_normal() + 1j * rng.standard_normal()) or 1.0
        scaled_s = tomo.reconstruct(_synthetic_tables(ref, sig * c), e_tables)
        np.testing.assert_allclose(scaled_s.t.matrix, g, atol=1e-10)
        scaled_e = tomo.reconstruct(
            _synthetic_tables(ref, sig),
            _synthetic_tables(np.full((1, d), c), np.ones((1, d)), kind="e"))
        np.testing.assert_allclose(scaled_e.t.matrix, g, atol=1e-10)
    _assert_rejected_like_the_steps(
        NormalizationError, _synthetic_tables(np.ones((2, 2)), np.zeros((2, 2))),
        _e_tables(2), match="all-zero")


def test_assemble_t_rejects_mismatched_scans():
    s_tables = _synthetic_tables(np.eye(2), np.ones((2, 2)))
    _assert_rejected_like_the_steps(DimensionMismatchError, s_tables, _e_tables(3),
                                    match="S and E dimensions differ")
    _assert_rejected_like_the_steps(NormalizationError, s_tables,
                                    _e_tables(2, label="mub:1"),
                                    match="S scanned in 'standard' but E in 'mub:1'")
    t = tomo.reconstruct(s_tables, _e_tables(2)).t
    np.testing.assert_allclose(t.matrix, np.eye(2) / np.sqrt(2), atol=1e-15)


def _scans(d, family, exposure, seed, dark_rate=0.0):
    full = channel.transmitted_state(channel.haar_channel(d, 2 * d + 1, seed), 1.0)
    return (measure.phase_step_scan_s(full, family, exposure, seed, dark_rate),
            measure.phase_step_scan_e(full, family, exposure, seed + 1, dark_rate))


@pytest.mark.parametrize("d", [2, 3, 5, 7, 31])
@pytest.mark.parametrize("spec", ["standard", "mub:0", "mub:1"])
@pytest.mark.parametrize("exposure, dark_rate", [(measure.NOISELESS, 0.0), (1e4, 0.02)])
def test_reconstruct_matches_the_step_by_step_chain_bit_for_bit(d, spec, exposure,
                                                                 dark_rate):
    """One pass through reconstruct gives the very bits of extracting S and
    E, assembling, gauge fixing, tagging and taking the condition number as
    separate steps (tests/oracles.reconstruct_in_steps)."""
    family = bases.parse_basis_spec(spec, d)
    s_tables, e_tables = _scans(d, family, exposure, 40 + d, dark_rate)
    for tag in (family, None):
        got = tomo.reconstruct(s_tables, e_tables, tag)
        want = reconstruct_in_steps(s_tables, e_tables, tag)
        assert got.t.matrix.strides == want.t.matrix.strides
        np.testing.assert_array_equal(np.ascontiguousarray(got.t.matrix).view(np.int64),
                                      np.ascontiguousarray(want.t.matrix).view(np.int64))
        assert got.e_ratio == want.e_ratio
        assert got.condition_number == want.condition_number
        assert got.t.basis_tag is tag and not got.t.includes_reference


def test_reconstruct_then_build_w_decomposes_t_once(monkeypatch):
    family = bases.mub(7, 1)
    s_tables, e_tables = _scans(7, family, measure.NOISELESS, 3)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    recon = tomo.reconstruct(s_tables, e_tables, family)
    ops = unscramble.build_w(recon.t)
    assert calls == [(7, 7)]
    assert ops.condition_number == recon.condition_number == recon.t.condition_number


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
