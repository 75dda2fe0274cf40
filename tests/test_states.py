"""Bipartite states: construction, operator action, projections."""

import numpy as np
import pytest

from oracles import kron_vector
from qscatter import states
from qscatter.errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    NormalizationError,
)


def test_make_state_computes_norm():
    st = states.make_state(np.eye(2) * 0.5)
    assert st.dim == 2
    assert st.norm_sq == pytest.approx(0.5)


def test_make_state_rejects_zero_and_non_square():
    with pytest.raises(NormalizationError):
        states.make_state(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        states.make_state(np.ones((2, 3)))


def test_physical_state_may_not_exceed_unit_norm():
    with pytest.raises(NormalizationError):
        states.make_state(np.eye(3), physical=True)
    st = states.make_state(np.eye(3) / np.sqrt(3), physical=True)
    assert st.norm_sq == pytest.approx(1.0)


def test_state_coeffs_are_immutable():
    st = states.max_entangled(3)
    with pytest.raises(ValueError):
        st.coeffs[0, 0] = 1.0


def test_max_entangled_structure():
    st = states.max_entangled(5)
    np.testing.assert_allclose(st.coeffs, np.eye(5) / np.sqrt(5))
    assert st.norm_sq == pytest.approx(1.0)
    with pytest.raises(InvalidDimensionError):
        states.max_entangled(1)


def test_weighted_source_normalizes_and_validates():
    st = states.weighted_source([3.0, 4.0])
    np.testing.assert_allclose(np.diagonal(st.coeffs), [0.6, 0.8])
    with pytest.raises(NormalizationError):
        states.weighted_source([1.0, -1.0])
    with pytest.raises(NormalizationError):
        states.weighted_source([0.0, 0.0])
    with pytest.raises(InvalidDimensionError):
        states.weighted_source([1.0])


def test_apply_one_sided_matches_kronecker_oracle():
    rng = np.random.default_rng(23)
    for d in (2, 3, 5):
        for _ in range(20):
            c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            st = states.make_state(c)
            out = states.apply_one_sided(st, a, b)
            oracle = np.kron(a, b) @ kron_vector(c)
            np.testing.assert_allclose(kron_vector(out.coeffs), oracle,
                                       atol=1e-12)


def test_apply_one_sided_none_means_identity():
    st = states.max_entangled(3)
    out = states.apply_one_sided(st, None, None)
    np.testing.assert_array_equal(out.coeffs, st.coeffs)


def test_apply_one_sided_shape_checks():
    st = states.max_entangled(3)
    with pytest.raises(DimensionMismatchError):
        states.apply_one_sided(st, np.eye(4), None)
    with pytest.raises(DimensionMismatchError):
        states.apply_one_sided(st, None, np.eye(2))


def test_project_matches_kronecker_oracle():
    rng = np.random.default_rng(29)
    d = 4
    c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    st = states.make_state(c)
    for _ in range(25):
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        amp = states.project(st, a, b)
        oracle = np.conjugate(np.kron(a, b)) @ kron_vector(c)
        assert amp == pytest.approx(oracle, abs=1e-12)


def test_project_shape_checks():
    st = states.max_entangled(3)
    with pytest.raises(DimensionMismatchError):
        states.project(st, np.ones(4), np.ones(3))
