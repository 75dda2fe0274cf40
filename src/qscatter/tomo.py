"""Transmission-matrix reconstruction from four-step phase scans.

The scans interfere each signal projection against a common reference, so
every recorded intensity has the form |exp(-i theta) ref + sig|^2. The
quarter combination

    X = ((R_0 - R_pi) + i (R_pi/2 - R_3pi/2)) / 4 = ref * conj(sig)

recovers the cross term exactly and cancels any uniform dark-count offset.
Dividing the signal table by the reference diagonal and undoing the
conjugations leaves the transmission matrix expressed in the scan family,
up to one global complex factor that the gauge convention removes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from . import numerics
from .bases import BasisFamily
from .channel import EffectiveT
from .errors import (
    DegenerateReferenceError,
    DimensionMismatchError,
    NormalizationError,
    TagConflictError,
)
from .measure import CountTable


def _quarter_combination(tables: Sequence[CountTable]) -> Tuple[np.ndarray, str]:
    """Combine four phase-step tables, given in step order (step k at
    theta = k pi/2)."""
    if len(tables) != 4:
        raise NormalizationError(f"need exactly 4 phase steps, got {len(tables)}")
    shape = tables[0].counts.shape
    label = tables[0].basis_label_b
    for table in tables:
        if table.counts.shape != shape:
            raise DimensionMismatchError("phase-step tables differ in shape")
        if table.basis_label_b != label:
            raise NormalizationError("phase-step tables differ in basis label")
    r = [table.counts for table in tables]
    return ((r[0] - r[2]) + 1j * (r[1] - r[3])) / 4.0, label


def extract_s(tables: Sequence[CountTable]) -> Tuple[np.ndarray, str]:
    """Combine the four signal-scan tables into the S matrix.

    Returns the square matrix of cross terms S[m, n] = ref_n * conj(sig_nm)
    and the scan family label the tables were recorded in.
    """
    values, label = _quarter_combination(tables)
    if values.shape[0] != values.shape[1]:
        raise DimensionMismatchError(
            f"signal scan must be square, got shape {values.shape}")
    return values, label


def extract_e(tables: Sequence[CountTable],
              ref_floor: float = 1e-6) -> Tuple[np.ndarray, str]:
    """Combine the four reference-scan tables into the E diagonal.

    Returns the reference interference diagonal, one complex value per
    family vector, and the scan family label. Raises
    DegenerateReferenceError when any entry falls below ref_floor times
    the largest one: a vanishing entry means that basis direction never
    interferes with the reference and the division step would only
    amplify noise. ref_floor must be a finite number in [0, 1).
    """
    if not 0.0 <= ref_floor < 1.0:
        raise NormalizationError(f"ref_floor must lie in [0, 1), got {ref_floor}")
    values, label = _quarter_combination(tables)
    if values.shape[0] != 1:
        raise DimensionMismatchError(
            f"reference scan must yield 1 x d tables, got shape {values.shape}")
    diag = values[0]
    mags = np.abs(diag)
    top = float(np.max(mags))
    if top == 0.0:
        raise DegenerateReferenceError("reference scan recorded no interference")
    ratio = float(np.min(mags) / top)
    if ratio < ref_floor:
        raise DegenerateReferenceError(
            f"reference interference spans a {ratio:.2e} dynamic range; "
            f"below the {ref_floor:.2e} floor")
    return diag, label


def fix_gauge(matrix: np.ndarray) -> np.ndarray:
    """Remove the global complex factor: unit Frobenius norm, and the first
    entry of nonnegligible modulus (row-major order) made real positive."""
    m = numerics.as_matrix(matrix)
    norm = float(np.linalg.norm(m))
    if norm == 0.0:
        raise NormalizationError("cannot gauge-fix an all-zero matrix")
    m = m / norm
    flat = m.ravel()
    anchor = np.flatnonzero(np.abs(flat) > 1e-12)
    if anchor.size == 0:
        raise NormalizationError("cannot gauge-fix an all-zero matrix")
    a = flat[anchor[0]]
    return m * (np.conjugate(a) / abs(a))


def assemble_t(s: Tuple[np.ndarray, str], e: Tuple[np.ndarray, str]) -> EffectiveT:
    """Assemble the gauge-fixed transmission matrix from scan outputs.

    s and e are the (values, family label) pairs of extract_s and
    extract_e; they must agree in dimension and in scan family. The result
    is expressed in the scan family (untagged here; reconstruct tags it) and
    normalized to unit Frobenius norm with a real-positive leading entry.
    """
    (s_values, s_label), (e_diag, e_label) = s, e
    if e_diag.shape != s_values.shape[1:]:
        raise DimensionMismatchError("S and E dimensions differ")
    if s_label != e_label:
        raise NormalizationError(f"S scanned in {s_label!r} but E in {e_label!r}")
    ratio = s_values / np.conjugate(e_diag)[np.newaxis, :]
    t_hat = fix_gauge(numerics.dag(ratio))
    return EffectiveT(matrix=t_hat, includes_reference=False)


@dataclass(frozen=True)
class Reconstruction:
    """Assembled matrix plus the conditioning facts a caller should log."""

    t: EffectiveT
    e_ratio: float
    condition_number: float


def reconstruct(s_tables: Sequence[CountTable],
                e_tables: Sequence[CountTable],
                family: Optional[BasisFamily] = None,
                ref_floor: float = 1e-6) -> Reconstruction:
    """Full pipeline: the S and E scans' tables, each in step order, to a
    tagged transmission matrix.

    family, when given, must be the one the scan tables were recorded in;
    a different one raises TagConflictError.
    """
    s = extract_s(s_tables)
    e = extract_e(e_tables, ref_floor=ref_floor)
    t = assemble_t(s, e)
    if family is not None:
        if family.kind != s[1]:
            raise TagConflictError(
                f"scan tables were recorded in {s[1]!r}, not {family.kind!r}")
        t = replace(t, basis_tag=family)
    mags = np.abs(e[0])
    return Reconstruction(
        t=t,
        e_ratio=float(np.min(mags) / np.max(mags)),
        condition_number=numerics.condition_number(t.matrix),
    )
