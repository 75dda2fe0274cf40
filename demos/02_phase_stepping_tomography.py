"""
Measuring a transmission matrix with four-step phase scans
==========================================================

Coincidence counters only see intensities, so the complex entries of the
transmission matrix are recovered interferometrically: each projection is
interfered with a co-propagated reference at four phase offsets, and the
quarter combination ((R_0 - R_pi) + i(R_pi/2 - R_3pi/2)) / 4 isolates the
cross term. This script runs the full procedure on a known medium and
shows how the reconstruction error scales with exposure.
"""

import numpy as np

from qscatter import bases, channel, measure, numerics, tomo

d = 7
n_modes = 60
seed = 3

medium = channel.haar_channel(d, n_modes, seed)
family = bases.mub(d, 0)

# The tomography source keeps the reference mode populated on both sides;
# the state below lives on d + 1 modes per photon.
probe = channel.transmitted_state(medium, reference_amplitude=1.0)

# What the scan should produce: the logical block, expressed in the scan
# family (the measured matrix always comes out in the basis it was
# scanned in, up to one global phase that the gauge convention removes).
oracle = bases.rotate_matrix(channel.effective_t(medium).matrix, family)

print("exposure      error      e_ratio   cond(T)")
for exposure in (1e3, 1e4, 1e5, 1e6, measure.NOISELESS):
    s_rec = measure.phase_step_scan_s(probe, family, exposure,
                                      seed=None if exposure == measure.NOISELESS else 11)
    e_rec = measure.phase_step_scan_e(probe, family, exposure,
                                      seed=None if exposure == measure.NOISELESS else 12)
    # the tables' label names the scan family, and the result is tagged with it
    recon = tomo.reconstruct(s_rec, e_rec)
    err = numerics.dist_up_to_scalar(recon.t.matrix, oracle)
    tag = "noiseless" if exposure == measure.NOISELESS else f"{exposure:9.0e}"
    print(f"{tag}   {err:9.2e}   {recon.e_ratio:7.3f}   {recon.condition_number:7.2f}")

# The noiseless run recovers the matrix to machine precision; with Poisson
# noise the error falls roughly like 1/sqrt(exposure). The e_ratio column
# is the dynamic range of the reference interference: if any basis
# direction barely overlaps the reference, dividing by it would amplify
# noise, and reconstruct() refuses via DegenerateReferenceError instead of
# returning garbage (tune ref_floor to taste).

# The four raw intensity tables of the last scan, for inspection: step k
# holds |exp(-i theta_k) ref + signal|^2, so no single table is readable
# on its own; only the quarter combination is.
s_rec = measure.phase_step_scan_s(probe, family, measure.NOISELESS)
stack = np.stack([table.counts for table in s_rec])
print(f"\nraw scan stack shape: {stack.shape} (4 steps x {d} x {d})")
print(f"per-step totals: {np.round(stack.sum(axis=(1, 2)), 4)}")
