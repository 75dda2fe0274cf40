"""Inverting a known transmission matrix with projective measurements only.

Given the reconstructed matrix T_M (expressed in scan family M0), the
operator

    W = (T_M^-1)^T M0

applied on the sender side, together with conj(M0) on the receiver side,
turns the scrambled two-photon state back into a standard-basis-correlated
one. A spatial light modulator can only display unit-max-modulus patterns,
so each row of W is divided by its largest modulus eta_w; the leftover
eta factors are what downstream estimators see as a nonuniform Schmidt
spectrum. Rotated versions V_r = M_r (eta^-1 W), built once per family by
build_v, probe the unbiased (or tilted) families of that recovered state;
their rows again need per-row factors zeta_w. recovered_probs gives only
the table the SLM displays; zeta is undone where a table is made, row w
times zeta_w^2 (measure_recovered, predict_table). Each recovered table
is named by its VOperator, or by None for the standard table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import numerics
from .bases import RECOVERED, BasisFamily, mub, standard_family, tilted
from .channel import EffectiveT
from .errors import (
    ConditioningError,
    DimensionMismatchError,
    NormalizationError,
)
from .measure import CountTable, _probabilities, sample_counts
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
    """Sender/receiver operators that undo a tagged transmission matrix.

    eta, the per-row SLM scales of w_alice, and normalized_w = eta^-1 W,
    the unit-max-modulus rows the sender SLM displays (as hologram, the
    conjugate of each row), are computed at construction.
    """

    w_alice: np.ndarray
    m_bob: np.ndarray
    basis_kind: str
    condition_number: float
    eta: np.ndarray = field(init=False)
    normalized_w: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        w = numerics.as_matrix(self.w_alice)
        b = numerics.as_matrix(self.m_bob)
        if w.shape[0] != w.shape[1] or b.shape != w.shape:
            raise DimensionMismatchError(
                f"operators must be square and of one shape, got {w.shape} and {b.shape}")
        object.__setattr__(self, "w_alice", numerics.frozen(w))
        object.__setattr__(self, "m_bob", numerics.frozen(b))
        object.__setattr__(self, "eta", numerics.frozen(slm_eta(w)))
        object.__setattr__(self, "normalized_w",
                           numerics.frozen(self.w_alice / self.eta[:, np.newaxis]))

    @property
    def dim(self) -> int:
        return self.w_alice.shape[0]


def build_w(t: EffectiveT) -> UnscrambleOperators:
    """Invert a tagged transmission matrix into unscrambling operators.

    The matrix may carry any unitary-family tag (untagged means standard).
    It is inverted exactly unless its smallest singular value falls below
    PINV_RCOND times its largest; then the pseudo-inverse with that cutoff
    is used. The choice and the recorded condition number both read the
    singular values t carries. An all-zero matrix raises ConditioningError.
    """
    fam = t.basis_tag
    if fam is None:
        fam = standard_family(t.dim)
    if fam.kind.startswith("tilted"):
        raise NormalizationError("scan family must be unitary (standard or unbiased)")
    m0 = np.asarray(fam.matrix)
    sv = t.singular_values
    if sv[0] == 0:
        raise ConditioningError("matrix is exactly zero")
    if sv[-1] < numerics.PINV_RCOND * sv[0]:
        inv = np.linalg.pinv(t.matrix, rcond=numerics.PINV_RCOND)
    else:
        inv = np.linalg.inv(t.matrix)
    return UnscrambleOperators(
        w_alice=inv.T @ m0,
        m_bob=np.conjugate(m0),
        basis_kind=fam.kind,
        condition_number=t.condition_number,
    )


@dataclass(frozen=True, eq=False)
class VOperator:
    """Rotated sender operator probing one unbiased (or tilted) family.

    zeta, the per-row SLM scales of v_alice, and normalized_v = zeta^-1 V_r,
    the unit-max-modulus rows the SLM displays, are computed at
    construction.
    """

    r: int
    v_alice: np.ndarray
    family: BasisFamily
    zeta: np.ndarray = field(init=False)
    normalized_v: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        v = numerics.as_matrix(self.v_alice)
        object.__setattr__(self, "v_alice", numerics.frozen(v))
        object.__setattr__(self, "zeta", numerics.frozen(slm_eta(v)))
        # sealed in place, not copied as frozen() would: nobody else holds
        # it, and a copy per rotated table is one more d x d allocation
        normalized_v = self.v_alice / self.zeta[:, np.newaxis]
        normalized_v.flags.writeable = False
        object.__setattr__(self, "normalized_v", normalized_v)

    @property
    def kind(self) -> str:
        return self.family.kind


def build_v(ops: UnscrambleOperators, r: int,
            lambdas: Optional[Sequence[float]] = None) -> VOperator:
    """Rotate the unscrambling operators into unbiased family r.

    With lambdas given, the tilted variant of the family is used instead,
    matched to a nonuniform recovered spectrum.
    """
    d = ops.dim
    fam = mub(d, r) if lambdas is None else tilted(d, r, lambdas)
    return VOperator(
        r=int(r),
        v_alice=fam.matrix @ ops.normalized_w,
        family=fam,
    )


def recovered_probs(state: BipartiteState, ops: UnscrambleOperators,
                    v: Optional[VOperator] = None) -> np.ndarray:
    """Outcome table the SLM displays (unit-max sender rows), as raw
    probabilities.

    v = None pairs eta^-1 W with conj(M0) (the standard table); a VOperator
    from build_v pairs zeta^-1 V_r with conj(M_r) conj(M0). zeta is not
    undone here; a VOperator call used to return the zeta-corrected table.
    These are operators, so they go to measure's kernel unconjugated:
    public functions take kets, and passing the operators through
    probability_table as kets would copy each one twice, conjugated and
    conjugated back. From d = 91 up those copies made the heap fault its
    pages back in on every table (see the measure module).
    """
    if v is None:
        op_a, op_b = ops.normalized_w, ops.m_bob
    else:
        op_a, op_b = v.normalized_v, np.conjugate(v.family.matrix) @ ops.m_bob
    return _probabilities(state, op_a, op_b)


def predict_table(state: BipartiteState, ops: UnscrambleOperators,
                  v: Optional[VOperator] = None) -> np.ndarray:
    """Normalized prediction of a recovered outcome table (sums to one).

    v is None for the standard table or a VOperator, as in recovered_probs;
    a rotated table's displayed rows are multiplied by zeta^2 before the
    table is normalized.
    """
    probs = recovered_probs(state, ops, v)
    if v is not None:
        probs = probs * (v.zeta ** 2)[:, np.newaxis]
    total = float(np.sum(probs))
    if total <= 0:
        raise NormalizationError("predicted table has zero weight")
    return probs / total


def recovered_label(v: Optional[VOperator]) -> str:
    """Alice's label of a table measured through the correction and V_r
    (the standard one for v None); Bob's adds a *."""
    return RECOVERED + ("standard" if v is None else v.kind)


def measure_recovered(state: BipartiteState, ops: UnscrambleOperators,
                      v: Optional[VOperator], exposure: float,
                      seed: Optional[int] = None,
                      dark_rate: float = 0.0) -> CountTable:
    """Simulate one recovered-basis coincidence table.

    v is None for the standard table or a VOperator from build_v. Sampling
    happens at the physically displayed (unit-max-modulus) patterns, one
    acquisition whose brightest cell has mean `exposure` counts, from
    sub-stream (_STREAM_RECOVERED, k) of seed with k = 0 for the standard
    table and r + 1 for family r; a rotated table's rows are drawn with
    row_scale zeta^2, which undoes the SLM normalization and is kept in
    the table.
    """
    label = recovered_label(v)
    k = 0 if v is None else v.r + 1
    return sample_counts(recovered_probs(state, ops, v), exposure, seed, dark_rate,
                         stream=(_STREAM_RECOVERED, k),
                         basis_label_a=label, basis_label_b=label + "*",
                         row_scale=None if v is None else v.zeta ** 2)
