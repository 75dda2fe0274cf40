"""Channels: isometries, effective matrices, the channel-state map, fixtures."""

import json
from importlib import resources

import numpy as np
import pytest

from oracles import kron_vector
from qscatter import bases, channel, numerics, states
from qscatter.errors import (
    DimensionMismatchError,
    FormatError,
    InvalidDimensionError,
    NormalizationError,
    UnsupportedDimensionError,
)


def test_channel_model_requires_unitary():
    # The stored columns must be orthonormal.
    with pytest.raises(NormalizationError):
        channel.ChannelModel(isometry=np.eye(6, 4) * 1.5)
    with pytest.raises(NormalizationError):
        channel.ChannelModel(isometry=np.ones((6, 4)))


def test_channel_model_rejects_bad_shapes():
    # Fewer than 3 columns (a reference plus at least 2 logical modes), and
    # fewer rows than columns.
    with pytest.raises(InvalidDimensionError):
        channel.ChannelModel(isometry=np.eye(6, 2))
    with pytest.raises(InvalidDimensionError):
        channel.ChannelModel(isometry=np.eye(3, 4))
    with pytest.raises(InvalidDimensionError):
        channel.ChannelModel(isometry=np.ones(4))
    with pytest.raises(InvalidDimensionError):
        channel.haar_channel(7, 7, 0)


def test_haar_channel_is_seeded():
    a = channel.haar_channel(3, 12, 5)
    b = channel.haar_channel(3, 12, 5)
    np.testing.assert_array_equal(a.isometry, b.isometry)
    assert a.isometry.shape == (12, 4)
    gram = numerics.dag(a.isometry) @ a.isometry
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-12


def test_haar_channel_logical_block_trace_statistic():
    # The d x d logical block of an N-mode Haar unitary has
    # E[|tr T|^2] = d / N (Zyczkowski & Sommers 2000).
    d, n, draws = 3, 9, 4000
    rng = np.random.default_rng(11)
    vals = np.array([abs(np.trace(channel.effective_t(
        channel.haar_channel(d, n, rng)).matrix)) ** 2 for _ in range(draws)])
    stderr = vals.std(ddof=1) / np.sqrt(draws)
    assert abs(vals.mean() - d / n) <= 5 * stderr


def test_effective_t_extracts_the_right_block():
    ch = channel.haar_channel(3, 9, 2)
    t = channel.effective_t(ch)
    np.testing.assert_array_equal(t.matrix, ch.isometry[1:4, 1:4])
    assert t.dim == 3 and t.basis_tag.kind == "standard"


def test_effective_t_rejects_amplification():
    with pytest.raises(NormalizationError):
        channel.EffectiveT(matrix=2.0 * np.eye(2))


def test_effective_t_rejects_a_tag_of_another_dimension():
    t = channel.EffectiveT(matrix=np.eye(3) / np.sqrt(3), basis_tag=bases.mub(3, 1))
    assert t.dim == 3 and t.basis_tag.kind == "mub:1"
    with pytest.raises(DimensionMismatchError):
        channel.EffectiveT(matrix=np.eye(3) / np.sqrt(3),
                           basis_tag=bases.standard_family(4))


def test_choi_state_matches_brute_force_postselection():
    # Send Bob's photon of |Phi+> on the logical input modes through the
    # medium's input columns with an explicit Kronecker product, then
    # postselect both photons on the logical modes.
    for seed, n in ((0, 8), (1, 10), (2, 12)):
        d = 3
        ch = channel.haar_channel(d, n, seed)
        logical = list(range(1, d + 1))

        src = np.zeros((d + 1, d + 1), dtype=np.complex128)
        for i in logical:
            src[i, i] = 1 / np.sqrt(d)
        big = np.kron(np.eye(d + 1), ch.isometry) @ kron_vector(src)
        post = big.reshape(d + 1, n)[np.ix_(logical, logical)]

        got = channel.choi_state(channel.effective_t(ch))
        np.testing.assert_allclose(got.coeffs, post, atol=1e-12)
        t = channel.effective_t(ch).matrix
        assert got.norm_sq == pytest.approx(float(np.linalg.norm(t)) ** 2 / d)


def test_choi_state_rotates_a_tagged_matrix_back_to_the_standard_basis():
    ch = channel.haar_channel(5, 12, 6)
    t = channel.effective_t(ch)
    want = channel.choi_state(t).coeffs
    for family in (bases.standard_family(5), bases.mub(5, 0), bases.mub(5, 3)):
        tagged = channel.EffectiveT(matrix=bases.rotate_matrix(t.matrix, family),
                                    basis_tag=family)
        np.testing.assert_allclose(channel.choi_state(tagged).coeffs, want, atol=1e-14)
    tilt = bases.tilted(5, 1, np.array([3.0, 2.0, 2.0, 1.0, 1.0]) / np.sqrt(19.0))
    with pytest.raises(UnsupportedDimensionError):
        channel.choi_state(channel.EffectiveT(matrix=t.matrix, basis_tag=tilt))


def test_transmitted_state_without_reference():
    ch = channel.haar_channel(4, 10, 3)
    st = channel.transmitted_state(ch)
    t = channel.effective_t(ch).matrix
    np.testing.assert_allclose(st.coeffs, t.T / 2.0, atol=1e-14)


def test_transmitted_state_with_reference():
    ch = channel.haar_channel(3, 9, 4)
    amp = 0.7
    st = channel.transmitted_state(ch, amp)
    assert st.dim == 4
    w = np.array([amp, 1.0, 1.0, 1.0])
    w = w / np.linalg.norm(w)
    expected = np.diag(w) @ ch.isometry[:4].T
    np.testing.assert_allclose(st.coeffs, expected, atol=1e-12)
    with pytest.raises(NormalizationError):
        channel.transmitted_state(ch, -1.0)


def test_drop_reference_removes_first_row_and_column():
    ch = channel.haar_channel(3, 9, 5)
    full = channel.transmitted_state(ch, 1.0)
    pix = channel.drop_reference(full)
    np.testing.assert_array_equal(pix.coeffs, full.coeffs[1:, 1:])
    with pytest.raises(InvalidDimensionError):
        channel.drop_reference(states.max_entangled(2))


def test_kraus_operators_resolve_identity():
    # Logical -> logical channel in Kraus form: the logical block, then one
    # 1 x d row per lost (reference or environment) output mode.
    for seed in range(5):
        ch = channel.haar_channel(3, 11, seed)
        logical = ch.isometry[:, 1:]
        ops = [logical[1:4]] + [logical[m:m + 1] for m in (0, *range(4, 11))]
        total = sum(numerics.dag(a) @ a for a in ops)
        np.testing.assert_allclose(total, np.eye(3), atol=1e-12)


def test_compose_two_channels_formula():
    rng = np.random.default_rng(7)
    for d in (2, 3, 5):
        for _ in range(5):
            u_a = numerics.haar_unitary(d, rng)
            u_b = numerics.haar_unitary(d, rng)
            t = channel.compose_two_channels(u_a, u_b)
            np.testing.assert_allclose(t.matrix, u_b @ u_a.T, atol=1e-14)
    with pytest.raises(NormalizationError):
        channel.compose_two_channels(np.eye(2) * 2, np.eye(2))
    with pytest.raises(DimensionMismatchError):
        channel.compose_two_channels(np.eye(3)[:2], np.eye(3)[:2])


def test_channel_round_trip(tmp_path):
    ch = channel.haar_channel(3, 9, 8)
    channel.save_channel(tmp_path / "ch", ch)
    back = channel.load_channel(tmp_path / "ch")
    np.testing.assert_array_equal(back.isometry, ch.isometry)
    with open(tmp_path / "ch.json", encoding="ascii") as fh:
        assert json.load(fh) == {"reference_index": 0, "logical_indices": [1, 2, 3]}
    # Older versions also wrote the mode count, channel.csv's row count.
    (tmp_path / "ch.json").write_text(
        '{"logical_indices": [1, 2, 3], "reference_index": 0, "total_modes": 9}\n',
        encoding="ascii")
    np.testing.assert_array_equal(channel.load_channel(tmp_path / "ch").isometry,
                                  ch.isometry)


def test_load_channel_rejects_a_full_unitary_file(tmp_path):
    # Older versions stored the whole N x N unitary beside the same
    # d-mode sidecar; read as an isometry it would be an (N-1)-mode channel.
    ch = channel.haar_channel(3, 9, 8)
    channel.save_channel(tmp_path / "ch", ch)
    numerics.save_matrix_csv(tmp_path / "ch.csv", numerics.haar_unitary(9, 8))
    with pytest.raises(FormatError):
        channel.load_channel(tmp_path / "ch")


@pytest.mark.parametrize("sidecar", ["{not json", '{"total_modes": 9}', "[1, 2]"])
def test_load_channel_rejects_bad_sidecars(tmp_path, sidecar):
    channel.save_channel(tmp_path / "ch", channel.haar_channel(3, 9, 8))
    (tmp_path / "ch.json").write_text(sidecar, encoding="ascii")
    with pytest.raises(FormatError):
        channel.load_channel(tmp_path / "ch")


def test_fixture_matrix_properties():
    t = channel.load_fixture_tm0()
    assert t.dim == 7
    assert t.basis_tag.kind == "mub:0"
    assert np.linalg.norm(t.matrix) == pytest.approx(1.0)
    ref = resources.files("qscatter.fixtures").joinpath("fixture_tm0.csv")
    with resources.as_file(ref) as path:
        raw = numerics.load_matrix_csv(path)
    assert raw.shape == (7, 7)
    np.testing.assert_allclose(t.matrix, raw / np.linalg.norm(raw),
                               atol=1e-14)


def test_fixture_lambda_properties():
    lam = channel.load_fixture_lambda()
    assert lam.shape == (7,)
    assert np.all(lam > 0)
    assert float(np.sum(lam * lam)) == pytest.approx(1.0, abs=1e-12)
