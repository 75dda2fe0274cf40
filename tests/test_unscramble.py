"""Unscrambling operators: construction, SLM scaling, recovered tables."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from qscatter import bases, certify, channel, cli, measure, states, tomo, unscramble
from qscatter.errors import (
    ConditioningError,
    DimensionMismatchError,
    InvalidDimensionError,
    NormalizationError,
)


def _tagged_channel(d, n_modes, seed, family):
    """Haar channel, its standard-basis block, and the family-tagged block."""
    ch = channel.haar_channel(d, n_modes, seed)
    t_std = channel.effective_t(ch)
    rotated = bases.rotate_matrix(t_std.matrix, family)
    t_tagged = channel.EffectiveT(matrix=rotated, basis_tag=family)
    return ch, t_std, t_tagged


def test_slm_eta_row_maxima():
    m = np.array([[3.0, -4.0], [0.5j, 0.1]])
    np.testing.assert_allclose(unscramble.slm_eta(m), [4.0, 0.5])
    with pytest.raises(ConditioningError):
        unscramble.slm_eta(np.array([[1.0, 2.0], [0.0, 0.0]]))


def test_build_w_formula_and_tags():
    d = 5
    fam = bases.mub(d, 1)
    _, _, t_tagged = _tagged_channel(d, 9, 0, fam)
    ops = unscramble.build_w(t_tagged)
    expected = np.linalg.inv(t_tagged.matrix).T @ fam.matrix
    np.testing.assert_allclose(ops.normalized_w * ops.eta[:, None], expected, atol=1e-10)
    np.testing.assert_allclose(ops.m_bob, np.conjugate(fam.matrix))
    np.testing.assert_allclose(ops.eta, np.max(np.abs(expected), axis=1),
                               atol=1e-12)
    assert ops.family is fam and ops.family.kind == "mub:1"
    assert t_tagged.condition_number == pytest.approx(
        np.linalg.cond(t_tagged.matrix), rel=1e-12)
    peak = np.max(np.abs(ops.normalized_w), axis=1)
    np.testing.assert_allclose(peak, 1.0, atol=1e-12)


def test_build_w_untagged_defaults_to_standard():
    t = channel.EffectiveT(matrix=np.eye(3) / np.sqrt(3))
    ops = unscramble.build_w(t)
    assert ops.family.kind == "standard"
    np.testing.assert_allclose(ops.m_bob, np.eye(3))


def test_build_w_rejections():
    lam = np.array([3.0, 2.0, 1.0]) / np.sqrt(14.0)
    fam = bases.tilted(3, 0, lam)
    t = channel.EffectiveT(matrix=np.eye(3) / 2, basis_tag=fam)
    with pytest.raises(NormalizationError):
        unscramble.build_w(t)


def test_unscrambling_restores_standard_correlations():
    d = 5
    for seed, fam in ((0, bases.standard_family(d)), (1, bases.mub(d, 2))):
        _, t_std, t_tagged = _tagged_channel(d, 11, seed, fam)
        state = channel.choi_state(t_std)
        ops = unscramble.build_w(t_tagged)
        probs = unscramble.recovered_probs(unscramble.recovered_state(state, ops))
        off = probs - np.diag(np.diagonal(probs))
        np.testing.assert_allclose(off, 0.0, atol=1e-14 * probs.max())
        weighted = np.diagonal(probs) * ops.eta ** 2
        np.testing.assert_allclose(weighted, weighted[0], rtol=1e-10)


def test_build_v_rotation_formula():
    d = 3
    fam = bases.standard_family(d)
    _, _, t_tagged = _tagged_channel(d, 7, 2, fam)
    ops = unscramble.build_w(t_tagged)
    v = unscramble.build_v(ops, 1)
    rot = bases.mub(d, 1)
    v_r = rot.matrix @ ops.normalized_w
    np.testing.assert_allclose(v.normalized_v * v.zeta[:, None], v_r, atol=1e-12)
    np.testing.assert_allclose(v.zeta, unscramble.slm_eta(v_r))
    assert v.r == 1 and v.kind == "mub:1"
    lam = np.array([3.0, 2.0, 1.0]) / np.sqrt(14.0)
    tilted_v = unscramble.build_v(ops, 0, lam)
    assert tilted_v.kind == "tilted:0"
    np.testing.assert_array_equal(tilted_v.family.matrix, bases.tilted(3, 0, lam).matrix)


def test_recovered_probs_zeta_convention():
    d = 3
    fam = bases.mub(d, 0)
    _, t_std, t_tagged = _tagged_channel(d, 8, 3, fam)
    state = channel.choi_state(t_std)
    ops = unscramble.build_w(t_tagged)
    v = unscramble.build_v(ops, 2)
    # The displayed table times zeta^2 is the table of the unnormalized V_r.
    physical = unscramble.recovered_probs(unscramble.recovered_state(state, ops), v)
    v_r = v.normalized_v * v.zeta[:, None]
    exact = measure.probability_table(state, np.conjugate(v_r),
                                      v.family.matrix @ np.conjugate(ops.m_bob))
    np.testing.assert_allclose(exact, physical * (v.zeta ** 2)[:, np.newaxis],
                               atol=1e-14)


@pytest.mark.parametrize("d", [7, 31])
def test_recovered_probs_is_probability_table_on_the_conjugated_operators(d):
    # The standard table is |R|^2 with no product; a rotated one is the
    # kernel on (M_r, conj(M_r)), which is probability_table on their
    # conjugates (the kets), bit for bit, with row w then divided by zeta_w^2.
    _, t_std, t_tagged = _tagged_channel(d, 2 * d, d, bases.mub(d, 1))
    ops = unscramble.build_w(t_tagged)
    rec = unscramble.recovered_state(channel.choi_state(t_std), ops)
    np.testing.assert_array_equal(unscramble.recovered_probs(rec),
                                  np.abs(rec.coeffs) ** 2)
    lam = np.linspace(1.0, 2.0, d)
    lam /= np.linalg.norm(lam)
    for v in (unscramble.build_v(ops, 2), unscramble.build_v(ops, 3, lam)):
        m = v.family.matrix
        expected = measure.probability_table(rec, np.conjugate(m), m)
        expected /= (v.zeta ** 2)[:, np.newaxis]
        np.testing.assert_array_equal(unscramble.recovered_probs(rec, v), expected)


@pytest.mark.parametrize("d", [7, 31, 101])
def test_recovered_tables_match_the_operator_pairing_they_replace(d):
    """Measured on R, each table agrees with the old pairing of operators
    on the unrecovered state, conj(M_r) conj(M0) with zeta^-1 V_r (eta^-1 W
    with conj(M0) for the standard table), to rounding; the sampled counts
    and row_scale do not move at all."""
    _, t_std, t_tagged = _tagged_channel(d, 2 * d, 5, bases.standard_family(d))
    state = channel.choi_state(t_std)
    ops = unscramble.build_w(t_tagged)
    rec = unscramble.recovered_state(state, ops)
    lam = np.linspace(1.0, 2.0, d)
    lam /= np.linalg.norm(lam)
    for v in (None, unscramble.build_v(ops, 1), unscramble.build_v(ops, 2, lam)):
        if v is None:
            reference = measure.probability_table(state, np.conjugate(ops.normalized_w),
                                                  np.conjugate(ops.m_bob))
        else:
            reference = measure.probability_table(state, np.conjugate(v.normalized_v),
                                                  v.family.matrix @ np.conjugate(ops.m_bob))
        probs = unscramble.recovered_probs(rec, v)
        assert np.max(np.abs(probs - reference)) <= 1e-12 * np.max(reference)
        table = unscramble.measure_recovered(rec, v, 1e4, seed=8)
        k = 0 if v is None else v.r + 1
        expected = measure.sample_counts(reference, 1e4, seed=8,
                                         stream=(unscramble._STREAM_RECOVERED, k))
        np.testing.assert_array_equal(table.counts, expected.counts)
        if v is None:
            assert table.row_scale is None
        else:
            np.testing.assert_array_equal(table.row_scale, v.zeta ** 2)


def test_recovered_probs_makes_no_conjugated_copies():
    """One call on a d = 101 tilted probe peaks at no more than 4 d x d
    complex arrays above where it started: conj(M_r) and the kernel's two
    products. Handing the operators over as kets, conjugated and conjugated
    back, peaked at 7."""
    d = 101
    _, t_std, t_tagged = _tagged_channel(d, 2 * d, 3, bases.standard_family(d))
    ops = unscramble.build_w(t_tagged)
    rec = unscramble.recovered_state(channel.choi_state(t_std), ops)
    lam = np.linspace(1.0, 2.0, d)
    lam /= np.linalg.norm(lam)
    v = unscramble.build_v(ops, 3, lam)
    unscramble.recovered_probs(rec, v)  # first use happens untraced
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        unscramble.recovered_probs(rec, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 4 * d * d * 16


def test_build_v_keeps_only_the_displayed_rows():
    """A d = 101 tilted build_v keeps at most 2.1 d x d complex arrays above
    where it started (the family and the displayed rows) and peaks at most
    at 3.9. Keeping the raw V_r beside its rows kept 3.01 and peaked at 4.82."""
    d = 101
    _, _, t_tagged = _tagged_channel(d, 2 * d, 3, bases.standard_family(d))
    ops = unscramble.build_w(t_tagged)
    lam = np.linspace(1.0, 2.0, d)
    lam /= np.linalg.norm(lam)
    unscramble.build_v(ops, 2, lam)  # first use happens untraced
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        v = unscramble.build_v(ops, 3, lam)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.kind == "tilted:3"
    assert kept - start <= 2.1 * d * d * 16
    assert peak - start <= 3.9 * d * d * 16


def test_records_read_their_facts_from_the_family():
    """Each record is built from an operator and its family and keeps no
    raw operator; Bob's side, the kind and r come from the family, and an
    operator of another size or a standard rotated probe is refused."""
    fam = bases.mub(3, 2)
    ops = unscramble.UnscrambleOperators(w=2 * fam.matrix, family=fam)
    assert [f.name for f in dataclasses.fields(ops)] == ["family", "eta", "normalized_w"]
    np.testing.assert_array_equal(ops.m_bob, np.conjugate(fam.matrix))
    assert ops.dim == 3 and ops.family.kind == "mub:2"
    v = unscramble.VOperator(v=fam.matrix, family=fam)
    assert [f.name for f in dataclasses.fields(v)] == ["family", "zeta", "normalized_v"]
    assert v.kind == "mub:2" and v.r == 2
    assert unscramble.recovered_label(v) == "recovered:mub:2"
    with pytest.raises(DimensionMismatchError):
        unscramble.UnscrambleOperators(w=np.eye(2), family=fam)
    with pytest.raises(DimensionMismatchError):
        unscramble.VOperator(v=np.eye(2), family=fam)
    with pytest.raises(InvalidDimensionError):
        unscramble.VOperator(v=np.eye(3), family=bases.standard_family(3))


def test_t_condition_number_and_a_target_dimension_each_have_one_home():
    """T's condition number lives on T alone: neither the correction nor
    the reconstruction keeps or aliases it. A target keeps its spectrum
    alone, and its dimension is the spectrum's length."""
    t = channel.EffectiveT(matrix=np.diag([0.5, 0.25, 0.125]),
                           basis_tag=bases.mub(3, 1))
    ops = unscramble.build_w(t)
    assert not hasattr(ops, "condition_number") and t.condition_number == 4.0
    assert [f.name for f in dataclasses.fields(tomo.Reconstruction)] == ["t", "e_ratio"]
    assert not hasattr(tomo.Reconstruction(t=t, e_ratio=1.0), "condition_number")
    assert [f.name for f in dataclasses.fields(certify.TargetState)] == ["lambdas"]
    target = certify.TargetState(lambdas=[0.6, 0.8])
    assert target.dim == 2 and certify.TargetState.uniform(5).dim == 5
    with pytest.raises(TypeError):
        certify.TargetState(dim=2, lambdas=[0.6, 0.8])


def test_build_v_normalizes_once_at_construction():
    d = 5
    _, _, t_tagged = _tagged_channel(d, 11, 9, bases.standard_family(d))
    ops = unscramble.build_w(t_tagged)
    v = unscramble.build_v(ops, 1)
    assert v.normalized_v is v.normalized_v
    assert not v.normalized_v.flags.writeable
    v_r = bases.mub(d, 1).matrix @ ops.normalized_w
    np.testing.assert_array_equal(v.zeta, unscramble.slm_eta(v_r))
    np.testing.assert_array_equal(v.normalized_v, v_r / v.zeta[:, np.newaxis])


def test_recovered_probs_dimension_check():
    t = channel.EffectiveT(matrix=np.eye(3) / 2)
    ops = unscramble.build_w(t)
    with pytest.raises(DimensionMismatchError):
        unscramble.recovered_state(states.max_entangled(4), ops)
    with pytest.raises(DimensionMismatchError):
        unscramble.recovered_probs(states.max_entangled(4), unscramble.build_v(ops, 1))


def test_predict_table_normalizes():
    d = 3
    fam = bases.standard_family(d)
    _, t_std, t_tagged = _tagged_channel(d, 7, 4, fam)
    ops = unscramble.build_w(t_tagged)
    rec = unscramble.recovered_state(channel.choi_state(t_std), ops)
    table = unscramble.predict_table(rec, unscramble.build_v(ops, 1))
    assert table.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(table >= 0)


def test_predict_table_is_the_displayed_table_times_zeta_squared():
    d = 5
    _, t_std, t_tagged = _tagged_channel(d, 11, 11, bases.standard_family(d))
    ops = unscramble.build_w(t_tagged)
    rec = unscramble.recovered_state(channel.choi_state(t_std), ops)
    for v in (None, unscramble.build_v(ops, 2)):
        probs = unscramble.recovered_probs(rec, v)
        if v is not None:
            probs = probs * (v.zeta ** 2)[:, np.newaxis]
        np.testing.assert_allclose(unscramble.predict_table(rec, v),
                                   probs / probs.sum(), rtol=0, atol=1e-14)


def test_predict_table_rejects_zero_weight():
    # A correction that leaves nothing fails where R is formed: both sender
    # rows read mode 0, which the state leaves empty. A tilted probe blind
    # to every mode R occupies fails in predict_table.
    ops = unscramble.UnscrambleOperators(
        w=np.array([[1.0, 0.0], [1.0, 0.0]]), family=bases.standard_family(2))
    with pytest.raises(NormalizationError):
        unscramble.recovered_state(states.make_state(np.diag([0.0, 1.0])), ops)
    ops = unscramble.UnscrambleOperators(
        w=np.eye(3), family=bases.standard_family(3))
    v = unscramble.build_v(ops, 1, [1.0, 0.0, 0.0])
    with pytest.raises(NormalizationError):
        unscramble.predict_table(states.make_state(np.diag([0.0, 1.0, 0.0])), v)


def test_measure_recovered_standard_and_rotated():
    d = 3
    fam = bases.mub(d, 1)
    _, t_std, t_tagged = _tagged_channel(d, 9, 5, fam)
    state = channel.choi_state(t_std)
    ops = unscramble.build_w(t_tagged)
    rec = unscramble.recovered_state(state, ops)

    std = unscramble.measure_recovered(rec, None, 1e4, seed=3)
    assert std.basis_label_a == "recovered:standard"
    assert std.basis_label_b == "recovered:standard*"
    assert std.row_scale is None and std.seed == 3

    v = unscramble.build_v(ops, 1)
    rot = unscramble.measure_recovered(rec, v, 1e4, seed=3)
    assert rot.basis_label_a == "recovered:mub:1"
    np.testing.assert_allclose(rot.row_scale, v.zeta ** 2)

    again = unscramble.measure_recovered(rec, v, 1e4, seed=3)
    np.testing.assert_array_equal(rot.counts, again.counts)
    other = unscramble.measure_recovered(rec, unscramble.build_v(ops, 2), 1e4, seed=3)
    assert not np.array_equal(rot.counts, other.counts)

    lam = np.array([3.0, 2.0, 1.0]) / np.sqrt(14.0)
    tilted = unscramble.measure_recovered(rec, unscramble.build_v(ops, 2, lam),
                                          1e4, seed=3)
    assert tilted.basis_label_a == "recovered:tilted:2"


def test_measure_recovered_puts_the_brightest_displayed_cell_at_the_exposure():
    d = 3
    fam = bases.mub(d, 0)
    _, t_std, t_tagged = _tagged_channel(d, 9, 8, fam)
    state = channel.choi_state(t_std)
    ops = unscramble.build_w(t_tagged)
    rec = unscramble.recovered_state(state, ops)
    for v in (None, unscramble.build_v(ops, 1)):
        probs = unscramble.recovered_probs(rec, v)
        table = unscramble.measure_recovered(rec, v, 300.0, seed=2)
        assert table.exposure * np.max(probs) == pytest.approx(300.0, rel=1e-12)


@pytest.mark.parametrize("exposure", [1e4, measure.NOISELESS])
def test_measure_recovered_builds_one_table(monkeypatch, exposure):
    built = []
    post_init = measure.CountTable.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    d = 3
    _, t_std, t_tagged = _tagged_channel(d, 9, 12, bases.mub(d, 0))
    state = channel.choi_state(t_std)
    ops = unscramble.build_w(t_tagged)
    rec = unscramble.recovered_state(state, ops)
    v = unscramble.build_v(ops, 1)
    monkeypatch.setattr(measure.CountTable, "__post_init__", counted)
    for table in (None, v):
        made = unscramble.measure_recovered(rec, table, exposure, seed=4)
        assert len(built) == 1 and built[0] is made
        built.clear()


def test_measure_recovered_noiseless_matches_prediction():
    d = 3
    fam = bases.standard_family(d)
    _, t_std, t_tagged = _tagged_channel(d, 7, 6, fam)
    state = channel.choi_state(t_std)
    ops = unscramble.build_w(t_tagged)
    rec = unscramble.recovered_state(state, ops)
    v = unscramble.build_v(ops, 1)
    table = unscramble.measure_recovered(rec, v, measure.NOISELESS)
    displayed = unscramble.recovered_probs(rec, v)
    np.testing.assert_allclose(table.counts, displayed, atol=1e-12)
    np.testing.assert_allclose(table.corrected, displayed * (v.zeta ** 2)[:, np.newaxis],
                               atol=1e-12)
    assert table.noiseless and table.seed is None
    with pytest.raises(NormalizationError):
        unscramble.measure_recovered(rec, v, 1e4)



@pytest.fixture
def build_v_calls(monkeypatch):
    """The argument tuples of every unscramble.build_v call from here on."""
    calls = []
    build_v = unscramble.build_v

    def counted(*args, **kwargs):
        calls.append(args)
        return build_v(*args, **kwargs)

    monkeypatch.setattr(unscramble, "build_v", counted)
    return calls


@pytest.mark.parametrize("lambdas", [None, np.array([3.0, 2.0, 1.0]) / np.sqrt(14.0)])
def test_one_build_v_call_per_rotated_table(build_v_calls, lambdas):
    d = 3
    _, t_std, t_tagged = _tagged_channel(d, 8, 7, bases.mub(d, 0))
    state = channel.choi_state(t_std)
    ops = unscramble.build_w(t_tagged)
    rec = unscramble.recovered_state(state, ops)
    v = unscramble.build_v(ops, 2, lambdas)
    assert len(build_v_calls) == 1
    # A built VOperator is used as it is, and the standard table needs no
    # rotated operators at all.
    for table in (None, v):
        unscramble.measure_recovered(rec, table, 1e4, seed=1)
        unscramble.recovered_probs(rec, table)
        unscramble.predict_table(rec, table)
    assert len(build_v_calls) == 1


def test_one_build_v_call_per_rotated_table_in_the_cli(build_v_calls, tmp_path):
    common = ["--d", "5", "--n-modes", "12", "--seed", "2", "--n-mc", "0"]
    assert cli.main(["run", "--scenario", "unscramble-certify", *common,
                     "--out", str(tmp_path / "run")]) == 0
    assert len(build_v_calls) == 5
    sim, rec = str(tmp_path / "sim"), str(tmp_path / "rec")
    assert cli.main(["simulate", *common, "--out", sim]) == 0
    assert cli.main(["tomo", "--scans", os.path.join(sim, "scans"), "--out", rec]) == 0
    assert cli.main(["unscramble", "--t-hat", os.path.join(rec, "t_hat.csv"),
                     "--out", str(tmp_path / "ops")]) == 0
    assert len(build_v_calls) == 10
