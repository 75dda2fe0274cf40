"""Inverting a known transmission matrix with projective measurements only.

Given the reconstructed matrix T_M (expressed in scan family M0), the
operator

    W = (T_M^-1)^T M0

applied on the sender side, together with conj(M0) on the receiver side,
turns the scrambled two-photon state back into a standard-basis-correlated
one. A spatial light modulator can only display unit-max-modulus patterns,
so each row of W is divided by its largest modulus eta_w; the leftover
eta factors are what downstream estimators see as a nonuniform Schmidt
spectrum. recovered_state forms the state the correction leaves,
R = (eta^-1 W x conj(M0))|psi>, once, and every recovered table is
measured on it: the standard table is |R|^2 and family r's |M_r R M_r^H|^2.
Family r's sender patterns V_r = M_r (eta^-1 W), built by build_v, need
per-row SLM factors zeta_w too, so recovered_probs divides row w of that
table by zeta_w^2 after the kernel: the table the SLM displays.
measure_recovered records zeta^2 as the table's row_scale beside the
draw, and predict_table normalizes the table before the division. Each
recovered table is named by its VOperator, or by None for the standard.

UnscrambleOperators keeps the scan family M0, the displayed rows
eta^-1 W and their scales eta; VOperator keeps its family M_r, the rows
zeta^-1 V_r and their scales zeta. Neither keeps the raw W or V_r: Bob's
conj(M0), a family's kind and its index r are read from the family.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from . import numerics
from .bases import RECOVERED, BasisFamily, mub, parse_label, tilted
from .channel import EffectiveT
from .errors import (
    ConditioningError,
    DimensionMismatchError,
    InvalidDimensionError,
    NormalizationError,
)
from .measure import CountTable, _probabilities, sample_counts
from .states import BipartiteState, apply_one_sided

_STREAM_RECOVERED = 14


def slm_eta(matrix: np.ndarray) -> np.ndarray:
    """Per-row largest modulus: the scale an SLM display divides out."""
    m = numerics.as_matrix(matrix)
    eta = np.max(np.abs(m), axis=1)
    if np.any(eta <= 0):
        raise ConditioningError("operator has an all-zero row; cannot display it")
    return eta


def _displayed(op: np.ndarray, family: BasisFamily) -> Tuple[np.ndarray, np.ndarray]:
    """An operator's per-row largest moduli (slm_eta) and its rows divided
    by them, as the SLM displays them, both sealed read-only; the operator
    must be square in the family's dimension."""
    m = numerics.as_matrix(op)
    if m.shape != family.matrix.shape:
        raise DimensionMismatchError(
            f"operator shape {m.shape} does not match family {family.kind!r} "
            f"of dim {family.dim}")
    scales = slm_eta(m)
    # sealed in place, not copied as frozen() would: nobody else holds them
    rows = m / scales[:, np.newaxis]
    rows.flags.writeable = False
    scales.flags.writeable = False
    return scales, rows


@dataclass(frozen=True, eq=False)
class UnscrambleOperators:
    """The correction that undoes a tagged transmission matrix.

    Built from W = (T_M^-1)^T M0 and the scan family M0. It keeps eta, the
    per-row SLM scales of W, and normalized_w = eta^-1 W, the
    unit-max-modulus rows the sender SLM displays (as hologram, the
    conjugate of each row), but not W; m_bob = conj(M0) and dim are read
    from the family, T's condition number from T.
    """

    w: InitVar[np.ndarray]
    family: BasisFamily
    eta: np.ndarray = field(init=False)
    normalized_w: np.ndarray = field(init=False)

    def __post_init__(self, w: np.ndarray) -> None:
        eta, normalized_w = _displayed(w, self.family)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "normalized_w", normalized_w)

    @property
    def m_bob(self) -> np.ndarray:
        """conj(M0), the receiver's side of the correction."""
        return np.conjugate(self.family.matrix)

    @property
    def dim(self) -> int:
        return self.family.dim


def build_w(t: EffectiveT) -> UnscrambleOperators:
    """Invert a tagged transmission matrix into unscrambling operators.

    The matrix may carry any unitary-family tag.
    It is inverted exactly unless its smallest singular value falls below
    PINV_RCOND times its largest; then the pseudo-inverse with that cutoff
    is used. The choice reads the singular values t carries, as does
    t.condition_number. An all-zero matrix raises ConditioningError.
    """
    fam = t.basis_tag
    if fam.kind.startswith("tilted"):
        raise NormalizationError("scan family must be unitary (standard or unbiased)")
    sv = t.singular_values
    if sv[0] == 0:
        raise ConditioningError("matrix is exactly zero")
    if sv[-1] < numerics.PINV_RCOND * sv[0]:
        inv = np.linalg.pinv(t.matrix, rcond=numerics.PINV_RCOND)
    else:
        inv = np.linalg.inv(t.matrix)
    return UnscrambleOperators(w=inv.T @ fam.matrix, family=fam)


@dataclass(frozen=True, eq=False)
class VOperator:
    """Rotated sender operator probing one unbiased (or tilted) family.

    Built from V_r = M_r (eta^-1 W) and the family M_r. It keeps zeta,
    the per-row SLM scales of V_r, and normalized_v = zeta^-1 V_r, the
    unit-max-modulus rows the SLM displays, but not V_r; kind and r are
    read from the family, which must be mub or tilted.
    """

    v: InitVar[np.ndarray]
    family: BasisFamily
    zeta: np.ndarray = field(init=False)
    normalized_v: np.ndarray = field(init=False)

    def __post_init__(self, v: np.ndarray) -> None:
        if self.r is None:
            raise InvalidDimensionError("a rotated probe needs a mub or tilted family, "
                                        "not standard")
        zeta, normalized_v = _displayed(v, self.family)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "normalized_v", normalized_v)

    @property
    def kind(self) -> str:
        return self.family.kind

    @property
    def r(self) -> Optional[int]:
        return parse_label(self.family.kind, self.family.dim)[1]


def build_v(ops: UnscrambleOperators, r: int,
            lambdas: Optional[Sequence[float]] = None) -> VOperator:
    """Rotate the unscrambling operators into unbiased family r.

    With lambdas given, the tilted variant of the family is used instead,
    matched to a nonuniform recovered spectrum.
    """
    d = ops.dim
    fam = mub(d, r) if lambdas is None else tilted(d, r, lambdas)
    return VOperator(v=fam.matrix @ ops.normalized_w, family=fam)


def recovered_state(state: BipartiteState, ops: UnscrambleOperators) -> BipartiteState:
    """R = (eta^-1 W x conj(M0)) |psi>, the state the correction leaves:
    the displayed sender rows on Alice, the receiver's conj(M0) on Bob."""
    return apply_one_sided(state, ops.normalized_w, ops.m_bob)


def _corrected_probs(recovered: BipartiteState, v: Optional[VOperator]) -> np.ndarray:
    """|R|^2 for v None, else |M_r R M_r^H|^2: the table before the division by zeta^2."""
    if v is None:
        return np.abs(recovered.coeffs) ** 2
    return _probabilities(recovered, v.family.matrix, np.conjugate(v.family.matrix))


def recovered_probs(recovered: BipartiteState,
                    v: Optional[VOperator] = None) -> np.ndarray:
    """Outcome table the SLM displays (unit-max sender rows) on the
    recovered state, as raw probabilities: the standard table for v None,
    else family r's with row w divided by zeta_w^2."""
    probs = _corrected_probs(recovered, v)
    if v is not None:
        probs /= (v.zeta ** 2)[:, np.newaxis]
    return probs


def predict_table(recovered: BipartiteState,
                  v: Optional[VOperator] = None) -> np.ndarray:
    """Normalized prediction of a recovered outcome table (sums to one): v
    as in recovered_probs, the table taken before the division by zeta^2."""
    probs = _corrected_probs(recovered, v)
    total = float(np.sum(probs))
    if total <= 0:
        raise NormalizationError("predicted table has zero weight")
    probs /= total
    return probs


def recovered_label(v: Optional[VOperator]) -> str:
    """Alice's label of a table measured through the correction and V_r
    (the standard one for v None); the table reads Bob's from it."""
    return RECOVERED + ("standard" if v is None else v.kind)


def measure_recovered(recovered: BipartiteState, v: Optional[VOperator], exposure: float,
                      seed: Optional[int] = None,
                      dark_rate: float = 0.0) -> CountTable:
    """Simulate one coincidence table of the recovered state.

    v is None for the standard table or a VOperator from build_v. Sampling
    happens at the physically displayed (unit-max-modulus) patterns, one
    acquisition whose brightest cell has mean `exposure` counts, from
    sub-stream (_STREAM_RECOVERED, k) of seed with k = 0 for the standard
    table and r + 1 for family r; a rotated table keeps its draw and
    records row_scale zeta^2, which undoes the SLM normalization in the
    table's `corrected` rows.
    """
    k = 0 if v is None else v.r + 1
    return sample_counts(recovered_probs(recovered, v), exposure, seed, dark_rate,
                         stream=(_STREAM_RECOVERED, k), basis_label_a=recovered_label(v),
                         row_scale=None if v is None else v.zeta ** 2)
