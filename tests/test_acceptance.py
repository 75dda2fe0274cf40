"""End-to-end guarantees: bounds, exactness, soundness, noise, determinism.

Each test here is one headline commitment of the library, checked at full
scale with explicit tolerances and a runtime budget. Run with -v to get a
single pass/fail line per commitment.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from oracles import (
    density_table,
    fidelity_uniform_closed_form,
    noiseless_table,
    random_density,
    target_ket,
)
from qscatter import bases, certify, channel, cli, measure, numerics, states, tomo


def test_schmidt_rank_bounds_reproduce_reference_values():
    start = time.monotonic()
    lam = channel.load_fixture_lambda()
    skewed = certify.TargetState(lambdas=lam)
    assert skewed.bounds()[4] == pytest.approx(0.8169, abs=5e-5)
    uniform = certify.TargetState.uniform(7)
    assert uniform.bounds()[3] == pytest.approx(4 / 7, abs=1e-12)
    assert uniform.bounds()[0] == pytest.approx(1 / 7, abs=1e-12)
    assert time.monotonic() - start < 1.0


def test_noiseless_phase_stepping_reconstructs_known_channels():
    start = time.monotonic()
    d = 7
    cases = [(n, seed, fam) for n in (10, 60) for seed in range(10)
             for fam in [bases.mub(d, 0) if seed % 2 else
                         bases.standard_family(d)]]
    assert len(cases) >= 20
    for n_modes, seed, family in cases:
        ch = channel.haar_channel(d, n_modes, seed)
        full = channel.transmitted_state(ch, 1.0)
        s_rec = measure.phase_step_scan_s(full, family, measure.NOISELESS)
        e_rec = measure.phase_step_scan_e(full, family, measure.NOISELESS)
        recon = tomo.reconstruct(s_rec, e_rec)
        oracle = bases.rotate_matrix(channel.effective_t(ch).matrix, family)
        err = numerics.dist_up_to_scalar(recon.t.matrix, oracle)
        assert err <= 1e-8, (n_modes, seed, family.kind, err)
    assert time.monotonic() - start < 30.0


def test_channel_state_matches_brute_force_postselection():
    start = time.monotonic()
    d = 7
    checked = 0
    for n_modes in (10, 60):
        logical = np.arange(1, d + 1)
        for seed in range(10):
            ch = channel.haar_channel(d, n_modes, seed)
            got = channel.choi_state(channel.effective_t(ch))

            src = np.zeros((n_modes, n_modes), dtype=np.complex128)
            src[logical, logical] = 1.0 / math.sqrt(d)
            after = src[:, logical] @ ch.isometry[:, 1:].T
            post = after[np.ix_(logical, logical)]
            assert np.max(np.abs(got.coeffs - post)) <= 1e-12
            checked += 1
    assert checked >= 20
    assert time.monotonic() - start < 30.0


def test_one_sided_channel_identities():
    start = time.monotonic()
    rng = np.random.default_rng(99)
    for d in (2, 3, 7):
        phi = states.max_entangled(d)
        for _ in range(100):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            both = states.apply_one_sided(phi, a, b)
            folded = states.apply_one_sided(phi, None, b @ a.T)
            assert np.max(np.abs(both.coeffs - folded.coeffs)) <= 1e-12
        for k in range(100):
            u_a = numerics.haar_unitary(d, rng)
            u_b = numerics.haar_unitary(d, rng)
            eff = channel.compose_two_channels(u_a, u_b)
            np.testing.assert_allclose(eff.matrix, u_b @ u_a.T, atol=1e-12)
            both = states.apply_one_sided(phi, u_a, u_b)
            folded = states.apply_one_sided(phi, None, eff.matrix)
            assert np.max(np.abs(both.coeffs - folded.coeffs)) <= 1e-12
    assert time.monotonic() - start < 10.0


def test_unbiased_family_overlaps():
    start = time.monotonic()
    for d in (2, 3, 5, 7, 11):
        mats = [bases.standard_family(d).matrix]
        mats += [bases.mub(d, r).matrix for r in range(d)]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                overlaps = np.abs(np.conjugate(mats[i]) @ mats[j].T)
                np.testing.assert_allclose(overlaps, 1.0 / math.sqrt(d),
                                           atol=1e-10)
    assert time.monotonic() - start < 5.0


def test_fidelity_estimators_sound_on_random_mixed_states():
    start = time.monotonic()
    rng = np.random.default_rng(123)
    for d in (2, 3, 5, 7):
        target = certify.TargetState.uniform(d)
        phi = target_ket(target.lambdas)
        families = [bases.mub(d, r) for r in range(d)]
        eye = np.eye(d)
        for _ in range(1000):
            rho = random_density(d * d, rng)
            std = noiseless_table(density_table(rho, eye, eye), "standard")
            fams = [noiseless_table(
                density_table(rho, f.matrix, np.conjugate(f.matrix)), f.kind)
                for f in families]
            exact = certify.fidelity_exact(std, fams, target)
            floor = certify.fidelity_lower_bound(std, fams[0], target)
            truth = float(np.real(np.conjugate(phi) @ rho @ phi))
            assert floor <= exact + 1e-9
            assert exact <= 1.0 + 1e-9
            assert abs(exact - truth) <= 1e-9

    d = 7
    phi = target_ket(np.full(d, 1.0 / math.sqrt(d)))
    op_sum = np.zeros((d * d, d * d), dtype=np.complex128)
    mats = [np.eye(d)] + [bases.mub(d, r).matrix for r in range(d)]
    for m in mats:
        for k in range(d):
            ket = np.kron(m[k], np.conjugate(m[k]))
            op_sum += np.outer(ket, np.conjugate(ket))
    identity_form = np.eye(d * d) + d * np.outer(phi, np.conjugate(phi))
    np.testing.assert_allclose(op_sum, identity_form, atol=1e-10)
    families = [bases.mub(d, r) for r in range(d)]
    eye = np.eye(d)
    for _ in range(50):
        rho = random_density(d * d, rng)
        std = noiseless_table(density_table(rho, eye, eye), "standard")
        fams = [noiseless_table(
            density_table(rho, f.matrix, np.conjugate(f.matrix)), f.kind)
            for f in families]
        closed = fidelity_uniform_closed_form(std, fams)
        via_identity = (float(np.real(np.trace(rho @ op_sum))) - 1.0) / d
        assert abs(closed - via_identity) <= 1e-9
    assert time.monotonic() - start < 300.0


def test_noisy_pipeline_certifies_high_dimensionality(tmp_path):
    start = time.monotonic()
    hits = 0
    for seed in range(50):
        cfg = cli.ScenarioConfig(scenario="unscramble-certify", d=7,
                                 n_modes=60, seed=seed, exposure=1e4,
                                 n_mc=0)
        report = cli.run_scenario(cfg, str(tmp_path / f"s{seed}"))
        if report["results"]["d_ent"] >= 6:
            hits += 1
    assert hits >= 45, f"only {hits}/50 noisy runs certified d_ent >= 6"

    cfg = cli.ScenarioConfig(scenario="unscramble-certify", d=7, n_modes=60,
                             seed=0, exposure=math.inf, n_mc=0)
    report = cli.run_scenario(cfg, str(tmp_path / "noiseless"))
    assert report["results"]["d_ent"] == 7
    assert time.monotonic() - start < 600.0


def test_scrambled_channels_certify_nothing():
    start = time.monotonic()
    d = 7
    target = certify.TargetState.uniform(d)
    families = [bases.mub(d, r) for r in range(d)]
    values = []
    for seed in range(50):
        ch = channel.haar_channel(d, 60, seed)
        state = channel.transmitted_state(ch)
        std = measure.measure_correlations(state, bases.standard_family(d),
                                           measure.NOISELESS)
        fams = [measure.measure_correlations(state, f, measure.NOISELESS)
                for f in families]
        values.append(certify.fidelity_exact(std, fams, target))
    assert float(np.median(values)) < 1 / 7
    assert time.monotonic() - start < 120.0


def test_scenario_reruns_are_byte_identical(tmp_path):
    start = time.monotonic()
    cfg = dict(scenario="unscramble-certify", d=7, n_modes=60, seed=21,
               exposure=1e4, n_mc=50)
    first, second = str(tmp_path / "one"), str(tmp_path / "two")
    cli.run_scenario(cli.ScenarioConfig(**cfg), first)
    cli.run_scenario(cli.ScenarioConfig(**cfg), second)
    seen = 0
    for root, _, files in os.walk(first):
        rel = os.path.relpath(root, first)
        for name in files:
            with open(os.path.join(root, name), "rb") as fa:
                blob_a = fa.read()
            with open(os.path.join(second, rel, name), "rb") as fb:
                blob_b = fb.read()
            assert blob_a == blob_b, os.path.join(rel, name)
            seen += 1
    assert seen > 5
    with open(os.path.join(first, "report.json"), encoding="ascii") as fh:
        report = json.load(fh)
    assert report["results"]["n_mc"] == 50
    assert time.monotonic() - start < 60.0
