"""Two-photon states as coefficient matrices.

A pure bipartite state |psi> = sum_ij C[i,j] |i>_A |j>_B is stored as the
matrix C. With that convention a product operator (A x B) acts as
C -> A C B^T, projections conjugate the kets, and the maximally entangled
state is the scaled identity. States may be sub-normalized: postselecting
the transmitted modes keeps norm_sq = success probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics
from .errors import DimensionMismatchError, InvalidDimensionError, NormalizationError
from .numerics import PROB_TOL, ComplexMatrix


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Pure (possibly sub-normalized) state of two qudits.

    coeffs[i, j] multiplies |i>_A |j>_B; dim and norm_sq are read from it.
    """

    coeffs: ComplexMatrix

    def __post_init__(self) -> None:
        c = numerics.as_matrix(self.coeffs)
        if c.shape[0] != c.shape[1]:
            raise DimensionMismatchError(
                f"coefficient matrix must be square, got {c.shape}")
        if c.shape[0] < 2:
            raise InvalidDimensionError(f"dim must be >= 2, got {c.shape[0]}")
        object.__setattr__(self, "coeffs", numerics.frozen(c))

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def norm_sq(self) -> float:
        return float(np.real(np.vdot(self.coeffs, self.coeffs)))


def make_state(coeffs, *, physical: bool = False) -> BipartiteState:
    """Build a state from a coefficient matrix.

    physical=True enforces 0 < norm_sq <= 1 + PROB_TOL, which holds for
    every state produced by a source or a passive medium. Operator images
    (unscrambling with SLM row normalization in particular) may legitimately
    exceed unit norm and skip the check.
    """
    state = BipartiteState(coeffs)
    n = state.norm_sq
    if n <= 0.0:
        raise NormalizationError("state has zero norm")
    if physical and n > 1.0 + PROB_TOL:
        raise NormalizationError(f"physical state has norm_sq {n} > 1")
    return state


def max_entangled(d: int) -> BipartiteState:
    """|Phi+> = sum_i |ii> / sqrt(d)."""
    return make_state(np.eye(d, dtype=np.complex128) / np.sqrt(d), physical=True)


def weighted_source(weights) -> BipartiteState:
    """Schmidt-diagonal source sum_i w_i |ii>, normalized.

    Used for the tomography source where the phase reference mode may carry
    a different brightness than the signal modes.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size < 2:
        raise InvalidDimensionError("weights must be a vector of length >= 2")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise NormalizationError("weights must be finite and nonnegative")
    norm = np.linalg.norm(w)
    if norm == 0:
        raise NormalizationError("all weights are zero")
    return make_state(np.diag(w / norm).astype(np.complex128), physical=True)


def apply_one_sided(state: BipartiteState,
                    op_a: Optional[ComplexMatrix],
                    op_b: Optional[ComplexMatrix]) -> BipartiteState:
    """Apply (A x B) to the state; None stands for the identity.

    Coefficients transform as C -> A C B^T. The result is not required to
    stay sub-normalized (amplifying inverses are allowed on purpose).
    """
    c = state.coeffs
    if op_a is not None:
        a = numerics.as_matrix(op_a)
        if a.shape[1] != state.dim:
            raise DimensionMismatchError(
                f"A-side operator shape {a.shape} incompatible with dim {state.dim}")
        c = a @ c
    if op_b is not None:
        b = numerics.as_matrix(op_b)
        if b.shape[1] != state.dim:
            raise DimensionMismatchError(
                f"B-side operator shape {b.shape} incompatible with dim {state.dim}")
        c = c @ b.T
    return make_state(c)


def project(state: BipartiteState, ket_a, ket_b) -> complex:
    """Projection amplitude <a, b | psi>; kets need not be normalized."""
    a = np.asarray(ket_a, dtype=np.complex128)
    b = np.asarray(ket_b, dtype=np.complex128)
    if a.shape != (state.dim,) or b.shape != (state.dim,):
        raise DimensionMismatchError(
            f"kets must have shape ({state.dim},), got {a.shape} and {b.shape}")
    return complex(np.conjugate(a) @ state.coeffs @ np.conjugate(b))
