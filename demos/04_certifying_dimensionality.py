"""
Certifying entanglement dimensionality from coincidence tables
==============================================================

Fidelity to a target state sum_m lambda_m |mm> upper-bounds what any
low-Schmidt-rank state can achieve: F > B_k, with B_k the sum of the k
largest lambda^2, is impossible at rank k. Measuring F therefore
certifies a dimensionality. This script walks the estimator ladder on
simulated data and ends on the spectrum shipped with the package.
"""

import tempfile

import numpy as np

from qscatter import bases, certify, channel, cli, measure, states

d = 7
uniform = certify.TargetState.uniform(d)
print(f"rank bounds B_k for the uniform target: "
      f"{np.round(uniform.bounds(), 4)}")

# A perfect maximally entangled pair, measured noiselessly in the
# standard family plus all d unbiased families: the exact estimator
# applies and gives F = 1, certifying the full dimensionality.
phi = states.max_entangled(d)
std = measure.measure_correlations(phi, bases.standard_family(d),
                                   measure.NOISELESS)
fams = [measure.measure_correlations(phi, bases.mub(d, r), measure.NOISELESS)
        for r in range(d)]
report = certify.certify(std, fams, target=uniform, n_mc=0)
print(f"ideal pair:      {report.summary()}")

# With only one unbiased family the uncancelled coherences are bounded
# through positivity instead of measured; the result is a strict lower
# bound, tight on the target state itself.
floor = certify.fidelity_lower_bound(std, fams[0], uniform)
print(f"single-family lower bound on the same data: {floor:.4f}")

# Noise robustness: Poisson counting statistics at decreasing exposure,
# on top of a dark-count floor at one percent of the brightest cell. Every
# table gets seed=2, yet each draws from its own sub-stream keyed by its
# family, so their counting noise is independent, as the Monte-Carlo
# error bar assumes. The resampling puts that error bar on F; the
# certificate holds while F clears the bound, and a separate flag says
# whether the 3 sigma margin also clears it.
print("\npeak counts   F          3 sigma   d_ent   robust")
peak = 1.0 / d  # brightest cell probability of every family table here
dark = 0.01 * peak  # dark_rate is a probability, added to every cell
for exposure in (1e5, 1e3, 1e2, 30.0):
    std = measure.measure_correlations(phi, bases.standard_family(d),
                                       exposure, seed=2, dark_rate=dark)
    fams = [measure.measure_correlations(phi, bases.mub(d, r),
                                         exposure, seed=2, dark_rate=dark)
            for r in range(d)]
    rep = certify.certify(std, fams, target=uniform, n_mc=400, seed=2)
    print(f"{exposure:11.0e}   {rep.fidelity:.4f}   {3*rep.fidelity_sigma:8.4f}"
          f"   {rep.d_ent:5d}   {rep.robust_3sigma}")

# The shipped measured spectrum is visibly nonuniform; its bounds sit
# higher than the uniform ones, which is exactly why certification against
# a nonuniform target uses tilted families matched to these weights.
lam = channel.load_fixture_lambda()
skewed = certify.TargetState(dim=7, lambdas=lam)
print(f"\nshipped spectrum lambda: {np.round(lam, 4)}")
print(f"its rank bounds:         {np.round(skewed.bounds(), 4)}")
print(f"rank-5 bound B_5 = {skewed.bounds()[4]:.4f}")

# End-to-end: the same certification reached through the scenario runner,
# which also writes config.json, the raw tables and report.json to disk,
# here to a temporary directory removed when the run is done.
with tempfile.TemporaryDirectory(prefix="qscatter_fixture_") as out_dir:
    out = cli.run_scenario(cli.ScenarioConfig(scenario="fixture-a1", d=7,
                                              n_modes=60, n_mc=0), out_dir)
res = out["results"]
print(f"\nfixture scenario: F = {res['fidelity']:.4f}, "
      f"d_ent = {res['d_ent']} of 7")
