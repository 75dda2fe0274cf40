"""
A channel is a state: the two-photon picture of a scattering medium
===================================================================

Sending one photon of a maximally entangled pair through a mode-mixing
medium prepares a pure two-photon state whose coefficient matrix IS the
transmission matrix of the medium (up to 1/sqrt(d)). Everything the
package does rests on that correspondence, so this script builds it
explicitly and checks the two identities that make one-sided channel
algebra work.
"""

import numpy as np

from qscatter import channel, numerics, states

rng_seed = 7
d = 5
n_modes = 40

# A random multimode medium: the d + 1 input columns of a Haar unitary over
# all fibre modes (index 0 is the co-propagated reference). The photon never
# enters the other modes, so their columns are never drawn.
medium = channel.haar_channel(d, n_modes, rng_seed)
print(f"medium: {n_modes} modes, logical dimension {d}")

# The effective transmission matrix is the logical block of those columns.
# It is not unitary: the missing weight escaped into unmonitored modes.
t = channel.effective_t(medium)
sv = np.linalg.svd(t.matrix, compute_uv=False)
print(f"transmission-matrix singular values: {np.round(sv, 4)}")
print(f"captured weight |T|_F^2 / d = {np.linalg.norm(t.matrix)**2 / d:.4f}")

# Send half of |Phi+> through the medium. The resulting (sub-normalized)
# state has coefficients T^T / sqrt(d): channel tomography and state
# tomography are the same problem.
two_photon = channel.choi_state(t)
residual = np.max(np.abs(two_photon.coeffs - t.matrix.T / np.sqrt(d)))
print(f"coefficients equal T^T/sqrt(d) within {residual:.2e}")
print(f"postselection probability (norm^2): {two_photon.norm_sq:.4f}")

# Identity 1: acting on the sender side is the same as acting on the
# receiver side with the transpose. This is what lets a correction for
# Bob's medium be displayed on Alice's side instead.
phi = states.max_entangled(d)
rng = np.random.default_rng(rng_seed)
a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
both = states.apply_one_sided(phi, a, b)
folded = states.apply_one_sided(phi, None, b @ a.T)
print(f"ricochet residual |(A x B)|Phi+> - (I x BA^T)|Phi+>| = "
      f"{np.max(np.abs(both.coeffs - folded.coeffs)):.2e}")

# Identity 2: two media, one on each photon, act like the single product
# channel U_B U_A^T on Bob's side alone.
u_a = numerics.haar_unitary(d, 1)
u_b = numerics.haar_unitary(d, 2)
combined = channel.compose_two_channels(u_a, u_b)
two_media = states.apply_one_sided(phi, u_a, u_b)
one_medium = states.apply_one_sided(phi, None, combined.matrix)
print(f"two-channel residual: "
      f"{np.max(np.abs(two_media.coeffs - one_medium.coeffs)):.2e}")

# Consequence: a single corrective operator can undo BOTH media at once,
# because only the product U_B U_A^T matters. Demo 03 exploits this.
