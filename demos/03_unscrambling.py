"""
Undoing a scattering medium with one projective correction
==========================================================

A mode-mixing medium spreads each input mode over all outputs, so the
standard-basis coincidence table of a transmitted entangled pair looks
uniform and certifies nothing. Once the transmission matrix is known, a
single corrective operator W = (T^-1)^T M0, displayed on the sender side,
restores the correlations. The receiver never changes anything.
"""

import numpy as np

from qscatter import bases, channel, measure, numerics, tomo, unscramble

d = 7
n_modes = 60
seed = 5

medium = channel.haar_channel(d, n_modes, seed)
scrambled = channel.transmitted_state(medium)

def diagonal_weight(table):
    probs = table / table.sum()
    return float(np.trace(probs))

# Before correction: the standard-basis table has no structure left.
std_family = bases.standard_family(d)
before = measure.probability_table(scrambled, std_family.matrix,
                                   np.conjugate(std_family.matrix))
print(f"diagonal weight before unscrambling: {diagonal_weight(before):.3f} "
      f"(1/d = {1/d:.3f} would be featureless)")

# Reconstruct the matrix the way an experiment would: from phase scans.
family = bases.mub(d, 0)
probe = channel.transmitted_state(medium, reference_amplitude=1.0)
s_rec = measure.phase_step_scan_s(probe, family, measure.NOISELESS)
e_rec = measure.phase_step_scan_e(probe, family, measure.NOISELESS)
t_hat = tomo.reconstruct(s_rec, e_rec, family).t

# t_hat is expressed in the scan family it carries as basis_tag; choi_state
# rotates it back, so it predicts the scrambled state up to one phase.
gap = numerics.dist_up_to_scalar(channel.choi_state(t_hat).coeffs, scrambled.coeffs)
print(f"state predicted from t_hat vs scrambled state, up to a factor: {gap:.1e}")

# Invert it into sender/receiver operators. The sender side is an SLM:
# each displayed row is rescaled to unit maximum modulus, and the scales
# eta are reported because they reshape what the receiver sees.
ops = unscramble.build_w(t_hat)
print(f"condition number of the inversion: {ops.condition_number:.2f}")
print(f"eta (per-row SLM scales): {np.round(ops.eta, 3)}")

after = unscramble.recovered_probs(scrambled, ops)
print(f"diagonal weight after unscrambling:  {diagonal_weight(after):.3f}")

# The recovered state is not exactly maximally entangled: the eta scales
# act like a nonuniform Schmidt spectrum. The estimated weights below feed
# the tilted probe families used during certification (demo 04).
std_counts = unscramble.measure_recovered(scrambled, ops, None, measure.NOISELESS)
diag = np.diagonal(std_counts.counts)
lam = np.sqrt(diag / diag.sum())
print(f"recovered Schmidt-weight estimate: {np.round(lam, 4)}")

# Rotated probes V_r = M_r (eta^-1 W), built by build_v, need their own
# per-row scales zeta. measure_recovered keeps the draw as the table's
# counts and the factors zeta^2 in its row_scale field, so resampling
# redraws the counts that were drawn; `corrected` (and normalized())
# applies the factors.
v_1 = unscramble.build_v(ops, 1)
rotated = unscramble.measure_recovered(scrambled, ops, v_1, measure.NOISELESS)
print(f"rotated-probe table label: {rotated.basis_label_a!r}, "
      f"row_scale spread {rotated.row_scale.min():.3f}.."
      f"{rotated.row_scale.max():.3f}")

# Uniformity check of the rotated table: in any unbiased family of the
# recovered state, matched outcomes should dominate again.
probs = rotated.normalized()
print(f"matched-outcome weight in rotated family: {np.trace(probs):.3f}")
