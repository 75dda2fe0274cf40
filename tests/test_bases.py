"""Basis families: unbiasedness, tilting, rotations, spec parsing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import phase_table
from qscatter import bases, channel, numerics, unscramble
from qscatter.errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    NormalizationError,
    UnsupportedDimensionError,
)


def test_standard_family_is_identity():
    fam = bases.standard_family(4)
    assert fam.kind == "standard"
    np.testing.assert_array_equal(fam.matrix, np.eye(4))
    assert fam.dim == 4
    with pytest.raises(InvalidDimensionError):
        bases.standard_family(1)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 31, 61, 101, 211])
def test_phase_table_matches_one_exponential_per_cell_bit_for_bit(d):
    for r in range(7):
        got = bases._phase_table(d, r)
        want = phase_table(d, r)
        assert got.shape == want.shape == (d, d)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_mub_rows_are_orthonormal():
    for d in (2, 3, 5, 7):
        for r in range(d):
            fam = bases.mub(d, r)
            assert numerics.is_unitary(fam.matrix)
            assert fam.kind == f"mub:{r}"


def test_mub_families_are_mutually_unbiased():
    for d in (2, 3, 5):
        mats = [bases.standard_family(d).matrix]
        mats += [bases.mub(d, r).matrix for r in range(d)]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                overlaps = np.abs(mats[i] @ mats[j].conj().T)
                np.testing.assert_allclose(overlaps, 1 / np.sqrt(d),
                                           atol=1e-10)


def test_mub_qubit_values():
    h = bases.mub(2, 0).matrix * np.sqrt(2)
    np.testing.assert_allclose(h, [[1, 1], [1, -1]], atol=1e-12)
    circ = bases.mub(2, 1).matrix * np.sqrt(2)
    np.testing.assert_allclose(circ, [[1, 1j], [1, -1j]], atol=1e-12)


def test_mub_rejects_bad_inputs():
    with pytest.raises(UnsupportedDimensionError):
        bases.mub(6, 0)
    with pytest.raises(InvalidDimensionError):
        bases.mub(5, 5)
    with pytest.raises(InvalidDimensionError):
        bases.mub(5, -1)


def test_check_lambdas_validation():
    lam = bases.check_lambdas(np.full(4, 0.5), 4)
    np.testing.assert_array_equal(lam, np.full(4, 0.5))
    with pytest.raises(DimensionMismatchError):
        bases.check_lambdas(np.full(3, 0.5), 4)
    with pytest.raises(NormalizationError):
        bases.check_lambdas([0.5, 0.5, 0.5, -0.5], 4)
    with pytest.raises(NormalizationError):
        bases.check_lambdas(np.full(4, 0.4), 4)


def test_tilted_rows_follow_the_spectrum():
    rng = np.random.default_rng(2)
    lam = rng.random(5) + 0.1
    lam = lam / np.linalg.norm(lam)
    fam = bases.tilted(5, 2, lam)
    assert fam.kind == "tilted:2"
    expected_mod = np.sqrt(lam) / float(np.sum(lam))
    np.testing.assert_allclose(np.abs(fam.matrix),
                               np.tile(expected_mod, (5, 1)), atol=1e-12)
    # One common row norm, below 1 for any non-degenerate spectrum.
    norms = np.linalg.norm(fam.matrix, axis=1)
    assert np.ptp(norms) < 1e-12
    assert norms[0] < 1.0
    with pytest.raises(InvalidDimensionError):
        bases.tilted(3, 3, np.full(3, 1 / np.sqrt(3)))


def test_tilted_with_uniform_spectrum_matches_mub():
    d = 7
    lam = np.full(d, 1 / np.sqrt(d))
    tilt = bases.tilted(d, 3, lam)
    ref = bases.mub(d, 3)
    ratio = tilt.matrix / ref.matrix
    np.testing.assert_allclose(ratio, ratio[0, 0], atol=1e-12)


def test_rotate_matrix_round_trip():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    fam = bases.mub(5, 2)
    rotated = bases.rotate_matrix(t, fam)
    np.testing.assert_allclose(
        rotated, fam.matrix.conj() @ t @ fam.matrix.T, atol=1e-12)
    back = bases.rotate_matrix(rotated, fam, inverse=True)
    np.testing.assert_allclose(back, t, atol=1e-10)


def test_rotate_matrix_standard_family_is_identity_map():
    rng = np.random.default_rng(6)
    t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(
        bases.rotate_matrix(t, bases.standard_family(3)), t, atol=1e-14)


def test_rotate_matrix_inverse_needs_unitary_family():
    lam = np.full(3, 1 / np.sqrt(3))
    fam = bases.tilted(3, 0, lam)
    with pytest.raises(UnsupportedDimensionError):
        bases.rotate_matrix(np.eye(3), fam, inverse=True)


def test_rotate_matrix_shape_check():
    with pytest.raises(DimensionMismatchError):
        bases.rotate_matrix(np.eye(4), bases.mub(5, 0))


def test_parse_basis_spec():
    assert bases.parse_basis_spec("standard", 5).kind == "standard"
    assert bases.parse_basis_spec("mub:2", 5).kind == "mub:2"
    for spec in ("fourier:1", "tilted:1"):
        with pytest.raises(InvalidDimensionError):
            bases.parse_basis_spec(spec, 5)
    with pytest.raises(InvalidDimensionError):
        bases.parse_basis_spec("mub:x", 5)
    for spec in ("recovered:standard", "recovered:mub:1", "mub:01", " mub:1"):
        with pytest.raises(InvalidDimensionError):
            bases.parse_basis_spec(spec, 5)


_PRIMES_TO_31 = [p for p in range(2, 32) if numerics.is_prime(p)]


@settings(deadline=None, max_examples=40)
@given(d=st.sampled_from(_PRIMES_TO_31),
       index=st.text(alphabet="0123456789 +-_*:\u0661", max_size=4))
def test_a_written_label_reads_back_to_itself_and_no_other_spelling_reads(d, index):
    """Every label the writers emit, the measured families' and the
    recovered ones', parses to its (kind, r) and spells back to itself; an
    index reads only when spelled as str(r) for r in 0..d-1."""
    ops = unscramble.build_w(channel.EffectiveT(matrix=np.eye(d)))
    lam = np.arange(1.0, d + 1) / np.linalg.norm(np.arange(1.0, d + 1))
    written = [(bases.standard_family(d).kind, ("standard", None)),
               (unscramble.recovered_label(None), ("standard", None))]
    for r in range(d):
        for kind, v in (("mub", unscramble.build_v(ops, r)),
                        ("tilted", unscramble.build_v(ops, r, lam))):
            written += [(v.kind, (kind, r)), (unscramble.recovered_label(v), (kind, r))]
    for label, parsed in written:
        assert bases.parse_label(label, d) == parsed
        kind, r = parsed
        prefix = bases.RECOVERED if label.startswith(bases.RECOVERED) else ""
        assert prefix + (kind if r is None else f"{kind}:{r}") == label
    refused = ["mub:01", "mub: 1", "mub:+1", "mub:-0", "mub:1**", "mub:1_0", " mub:1",
               f"mub:{d}", "recovered:recovered:mub:1", "standard*", "tilted:"]
    if index not in [str(r) for r in range(d)]:
        refused += [f"mub:{index}", f"recovered:tilted:{index}"]
    for label in refused:
        with pytest.raises(InvalidDimensionError, match="cannot classify basis label"):
            bases.parse_label(label, d)


def test_family_validation_catches_mismatches():
    with pytest.raises(DimensionMismatchError):
        bases.BasisFamily(kind="standard", matrix=np.ones((2, 3)))
