"""Inverting a known transmission matrix with projective measurements only.

Given the reconstructed matrix T_M (expressed in scan family M0), the
operator

    W = (T_M^-1)^T M0

applied on the sender side, together with conj(M0) on the receiver side,
turns the scrambled two-photon state back into a standard-basis-correlated
one. A spatial light modulator can only display unit-max-modulus patterns,
so each row of W is divided by its largest modulus eta_w; the leftover
eta factors are what downstream estimators see as a nonuniform Schmidt
spectrum. Rotated versions V_r = M_r (eta^-1 W) probe the unbiased (or
tilted) families of that recovered state; their rows again need per-row
factors zeta_w, which are undone in post-processing by rescaling counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import numerics
from .bases import BasisFamily, mub, standard_family, tilted
from .channel import EffectiveT
from .errors import (
    ConditioningError,
    DimensionMismatchError,
    NormalizationError,
)
from .measure import CountTable, probability_table, sample_counts, zeta_correct
from .states import BipartiteState

_STREAM_RECOVERED = 14


def slm_eta(matrix: np.ndarray) -> np.ndarray:
    """Per-row largest modulus: the scale an SLM display divides out."""
    m = numerics.as_matrix(matrix)
    eta = np.max(np.abs(m), axis=1)
    if np.any(eta <= 0):
        raise ConditioningError("operator has an all-zero row; cannot display it")
    return eta


@dataclass(frozen=True, eq=False)
class UnscrambleOperators:
    """Sender/receiver operators that undo a tagged transmission matrix."""

    dim: int
    w_alice: np.ndarray
    m_bob: np.ndarray
    eta: np.ndarray
    basis_kind: str
    condition_number: float

    def __post_init__(self) -> None:
        w = numerics.as_matrix(self.w_alice)
        b = numerics.as_matrix(self.m_bob)
        if w.shape != (self.dim, self.dim) or b.shape != (self.dim, self.dim):
            raise DimensionMismatchError("operator shapes do not match dim")
        e = np.asarray(self.eta, dtype=np.float64)
        if e.shape != (self.dim,) or np.any(e <= 0):
            raise NormalizationError("eta must hold one positive scale per row")
        object.__setattr__(self, "w_alice", numerics.frozen(w))
        object.__setattr__(self, "m_bob", numerics.frozen(b))
        object.__setattr__(self, "eta", numerics.frozen(e))

    @property
    def normalized_w(self) -> np.ndarray:
        """W with unit-max-modulus rows: what the sender SLM displays
        (as hologram, the conjugate of each row)."""
        return self.w_alice / self.eta[:, np.newaxis]


def build_w(t: EffectiveT) -> UnscrambleOperators:
    """Invert a tagged transmission matrix into unscrambling operators.

    The matrix may carry any unitary-family tag (untagged means standard).
    Near-singular matrices degrade to a pseudo-inverse; the condition
    number is recorded so callers can judge the result.
    """
    if t.includes_reference:
        raise NormalizationError(
            "unscrambling acts on the logical block; drop the reference first")
    fam = t.basis_tag
    if fam is None:
        fam = standard_family(t.dim)
    if fam.kind.startswith("tilted"):
        raise NormalizationError("scan family must be unitary (standard or unbiased)")
    m0 = np.asarray(fam.matrix)
    inv = numerics.solve_or_pinv(t.matrix)
    w = inv.T @ m0
    return UnscrambleOperators(
        dim=t.dim,
        w_alice=w,
        m_bob=np.conjugate(m0),
        eta=slm_eta(w),
        basis_kind=fam.kind,
        condition_number=numerics.condition_number(t.matrix),
    )


@dataclass(frozen=True, eq=False)
class VOperator:
    """Rotated sender/receiver operators probing one unbiased family."""

    r: int
    kind: str
    v_alice: np.ndarray
    m_bob: np.ndarray
    zeta: np.ndarray
    family: BasisFamily

    def __post_init__(self) -> None:
        object.__setattr__(self, "v_alice", numerics.frozen(numerics.as_matrix(self.v_alice)))
        object.__setattr__(self, "m_bob", numerics.frozen(numerics.as_matrix(self.m_bob)))
        object.__setattr__(self, "zeta", numerics.frozen(np.asarray(self.zeta, dtype=np.float64)))

    @property
    def normalized_v(self) -> np.ndarray:
        return self.v_alice / self.zeta[:, np.newaxis]


def build_v(ops: UnscrambleOperators, r: int,
            lambdas: Optional[Sequence[float]] = None) -> VOperator:
    """Rotate the unscrambling operators into unbiased family r.

    With lambdas given, the tilted variant of the family is used instead,
    matched to a nonuniform recovered spectrum.
    """
    d = ops.dim
    fam = mub(d, r) if lambdas is None else tilted(d, r, lambdas)
    v = fam.matrix @ ops.normalized_w
    return VOperator(
        r=int(r),
        kind=fam.kind,
        v_alice=v,
        m_bob=np.conjugate(fam.matrix) @ ops.m_bob,
        zeta=slm_eta(v),
        family=fam,
    )


def _operators(ops: UnscrambleOperators, which: Union[str, int, VOperator],
               lambdas: Optional[Sequence[float]]
               ) -> Tuple[np.ndarray, np.ndarray, Optional[VOperator]]:
    """Resolve one recovered table's operators, building V_r at most once.

    which is "standard", a family index r, or a VOperator already built
    (whose family is fixed, so lambdas must then be None). Returns the
    sender operator as displayed (unit-max-modulus rows), the receiver
    operator, and the VOperator of family r (None for the standard table,
    whose eta^-1 W is displayed as is).
    """
    if isinstance(which, VOperator):
        if lambdas is not None:
            raise NormalizationError(
                "lambdas apply only when building V_r; a built VOperator fixes its family")
        v = which
    elif which == "standard":
        return ops.normalized_w, ops.m_bob, None
    else:
        v = build_v(ops, int(which), lambdas)
    return v.normalized_v, v.m_bob, v


def recovered_probs(state: BipartiteState, ops: UnscrambleOperators,
                    which: Union[str, int, VOperator] = "standard",
                    lambdas: Optional[Sequence[float]] = None,
                    corrected: bool = True) -> np.ndarray:
    """Outcome table of the unscrambled measurement, as raw probabilities.

    which = "standard" pairs eta^-1 W with conj(M0); an integer r pairs the
    rotated V_r operators, built once per call, and a VOperator already
    built is used as is. corrected=True gives the post-processed
    convention (zeta factors undone); corrected=False gives the physically
    displayed one (unit-max rows). The standard table is physical either
    way since eta^-1 W already has unit-max rows.
    """
    op_a, op_b, v = _operators(ops, which, lambdas)
    if corrected and v is not None:
        op_a = v.v_alice
    return probability_table(state, np.conjugate(op_a), np.conjugate(op_b))


def predict_table(state: BipartiteState, ops: UnscrambleOperators,
                  which: Union[str, int, VOperator] = "standard",
                  lambdas: Optional[Sequence[float]] = None) -> np.ndarray:
    """Normalized prediction of a recovered outcome table (sums to one).

    which is "standard", a family index r or a built VOperator, as in
    recovered_probs.
    """
    probs = recovered_probs(state, ops, which, lambdas, corrected=True)
    total = float(np.sum(probs))
    if total <= 0:
        raise NormalizationError("predicted table has zero weight")
    return probs / total


def measure_recovered(state: BipartiteState, ops: UnscrambleOperators,
                      which: Union[str, int, VOperator], exposure: float,
                      seed: Optional[int] = None,
                      lambdas: Optional[Sequence[float]] = None,
                      dark_rate: float = 0.0) -> CountTable:
    """Simulate one recovered-basis coincidence table.

    which is "standard", a family index r (one build_v call) or a built
    VOperator (none). Sampling happens at the physically displayed
    (unit-max-modulus) patterns, from sub-stream (_STREAM_RECOVERED, k) of
    seed with k = 0 for the standard table and r + 1 for family r; rotated
    tables are then rescaled row-wise by zeta^2 back to the exact operator
    convention, with the factors kept in row_scale.
    """
    op_a, op_b, v = _operators(ops, which, lambdas)
    label = "recovered:standard" if v is None else f"recovered:{v.kind}"
    k = 0 if v is None else v.r + 1
    probs = probability_table(state, np.conjugate(op_a), np.conjugate(op_b))
    table = sample_counts(probs, exposure, seed, dark_rate,
                          stream=(_STREAM_RECOVERED, k),
                          basis_label_a=label, basis_label_b=label + "*")
    return table if v is None else zeta_correct(table, v.zeta)
