"""Measurement basis families (standard, mutually unbiased, tilted).

For prime d the d Fourier-type bases with quadratic phases, together with
the standard basis, form a complete set of d+1 mutually unbiased bases.
Vectors are stored as the rows of BasisFamily.matrix. Tilted families warp
the unbiased vectors toward a non-uniform Schmidt spectrum and are not
orthogonal; their rows share one sub-unit norm.

Conventions used throughout the package:
  * omega = exp(+2*pi*i/d);
  * at d = 2 the quadratic phase uses the quartic root i (the usual qubit
    completion, since the odd-prime formula degenerates there);
  * Bob's measurement family for correlation tables is the entrywise
    conjugate of Alice's, which makes maximally entangled correlations
    diagonal in every family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import numerics
from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    NormalizationError,
    UnsupportedDimensionError,
)
from .numerics import PROB_TOL, ComplexMatrix

RECOVERED = "recovered:"


@dataclass(frozen=True, eq=False)
class BasisFamily:
    """One measurement family: d kets of dimension d, stored as matrix rows.

    kind is "standard", "mub:r" or "tilted:r".
    """

    kind: str
    matrix: ComplexMatrix

    def __post_init__(self) -> None:
        m = numerics.as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"basis matrix must be square, got {m.shape}")
        if np.any(np.linalg.norm(m, axis=1) == 0):
            raise NormalizationError("basis family contains a zero vector")
        object.__setattr__(self, "matrix", numerics.frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _require_prime(d: int) -> None:
    if d < 2 or int(d) != d:
        raise InvalidDimensionError(f"dimension must be an integer >= 2, got {d}")
    if not numerics.is_prime(int(d)):
        raise UnsupportedDimensionError(
            f"complete unbiased-basis construction needs a prime dimension, got {d}")


def _phase_table(d: int, r: int) -> ComplexMatrix:
    """Phase factors omega^(km) * (quadratic phase)^(r m^2), rows k, cols m.

    Every factor is a root of unity, so the table indexes the n roots
    exp(2 pi i e / n) by its integer exponent e: n exponentials in place
    of d^2, with the same bits.
    """
    k = np.arange(d)[:, None]
    m = np.arange(d)[None, :]
    if d == 2:
        # i^(2km + r m^2): quartic quadratic phase, else r=0 and r=1 collide.
        expo = np.mod(2 * k * m + r * m * m, 4)
        return np.exp(0.5j * np.pi * np.arange(4))[expo]
    expo = np.mod(k * m + r * m * m, d)
    return np.exp(2j * np.pi * np.arange(d) / d)[expo]


def standard_family(d: int) -> BasisFamily:
    if d < 2 or int(d) != d:
        raise InvalidDimensionError(f"dimension must be an integer >= 2, got {d}")
    return BasisFamily(kind="standard", matrix=np.eye(int(d), dtype=np.complex128))


def mub(d: int, r: int) -> BasisFamily:
    """r-th unbiased family, r in [0, d). Rows are orthonormal."""
    _require_prime(d)
    if not 0 <= r < d:
        raise InvalidDimensionError(f"family index r={r} outside [0, {d})")
    return BasisFamily(kind=f"mub:{r}", matrix=_phase_table(d, r) / np.sqrt(d))


def check_lambdas(lambdas, d: int) -> np.ndarray:
    lam = np.asarray(lambdas, dtype=np.float64)
    if lam.shape != (d,):
        raise DimensionMismatchError(f"need {d} Schmidt weights, got shape {lam.shape}")
    if np.any(lam < 0) or not np.all(np.isfinite(lam)):
        raise NormalizationError("Schmidt weights must be finite and nonnegative")
    if abs(float(np.sum(lam * lam)) - 1.0) > PROB_TOL:
        raise NormalizationError(
            f"Schmidt weights must satisfy sum(lambda^2)=1, got {float(np.sum(lam*lam))}")
    return lam


def tilted(d: int, r: int, lambdas) -> BasisFamily:
    """Tilted family: row k has components phase(k,m) sqrt(lambda_m)/sum(lambda).

    Matched to a target with Schmidt weights lambda (index order preserved,
    weights address physical modes). Rows are not orthogonal and share one
    sub-unit norm.
    """
    _require_prime(d)
    if not 0 <= r < d:
        raise InvalidDimensionError(f"family index r={r} outside [0, {d})")
    lam = check_lambdas(lambdas, d)
    matrix = _phase_table(d, r) * (np.sqrt(lam) / float(np.sum(lam)))[None, :]
    return BasisFamily(kind=f"tilted:{r}", matrix=matrix)


def rotate_matrix(t: ComplexMatrix, family: BasisFamily,
                  inverse: bool = False) -> ComplexMatrix:
    """Express a transmission matrix in a scan family: T_M = M* T M^T.

    inverse=True undoes the rotation (T = M^T T_M M* for unitary families).
    This is exactly how a matrix reconstructed by scanning in family M
    relates to its standard-basis form.
    """
    t = numerics.as_matrix(t)
    if t.shape != (family.dim, family.dim):
        raise DimensionMismatchError(
            f"matrix shape {t.shape} does not match family dim {family.dim}")
    m = family.matrix
    if inverse:
        if not numerics.is_unitary(m):
            raise UnsupportedDimensionError(
                "inverse rotation is only defined for unitary families")
        return m.T @ t @ np.conjugate(m)
    return np.conjugate(m) @ t @ m.T


def parse_label(label: str, d: int) -> Tuple[str, Optional[int]]:
    """Read a basis label, [recovered:](standard | mub:r | tilted:r), with r
    spelled as str(r) and in 0..d-1: the spelling every writer uses.

    Returns (kind, r), r None for standard; the recovered: prefix is not
    kept. Any other spelling raises InvalidDimensionError.
    """
    body = label[len(RECOVERED):] if label.startswith(RECOVERED) else label
    if body == "standard":
        return body, None
    kind, _, idx = body.partition(":")
    if kind in ("mub", "tilted") and idx in map(str, range(d)):
        return kind, int(idx)
    raise InvalidDimensionError(f"cannot classify basis label {label!r}")


def parse_basis_spec(spec: str, d: int) -> BasisFamily:
    """The unitary family a spec names: a label without the recovered:
    prefix, standard or mub:r."""
    kind, r = parse_label(spec, d)
    if spec.startswith(RECOVERED) or kind == "tilted":
        raise InvalidDimensionError(f"unknown basis spec {spec!r}")
    return standard_family(d) if r is None else mub(d, r)
