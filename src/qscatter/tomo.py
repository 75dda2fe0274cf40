"""Transmission-matrix reconstruction from four-step phase scans.

reconstruct is the one path from the scans to a tagged, gauge-fixed
transmission matrix. The scans interfere each signal projection against a
common reference, so every recorded intensity has the form
|exp(-i theta) ref + sig|^2. The quarter combination

    X = ((R_0 - R_pi) + i (R_pi/2 - R_3pi/2)) / 4 = ref * conj(sig)

recovers the cross term exactly and cancels any uniform dark-count offset.
It turns the signal scan into the square matrix S[m, n] = ref_n *
conj(sig_nm) and the reference scan into the diagonal E, one value per
family vector. Dividing S by conj(E) column by column and taking the
conjugate transpose leaves the transmission matrix expressed in the scan
family, up to one global complex factor. The gauge convention removes it:
unit Frobenius norm, and the first entry of nonnegligible modulus
(row-major order) made real positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import numerics
from .bases import parse_basis_spec
from .channel import EffectiveT
from .errors import (
    DegenerateReferenceError,
    DimensionMismatchError,
    NormalizationError,
    TagConflictError,
    ToolkitError,
)
from .measure import CountTable


def _quarter_combination(tables: Sequence[CountTable]) -> Tuple[np.ndarray, str]:
    """Combine four phase-step tables, given in step order (step k at
    theta = k pi/2), and return the cross terms and the family label."""
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


@dataclass(frozen=True)
class Reconstruction:
    """Assembled matrix plus the conditioning facts a caller should log."""

    t: EffectiveT
    e_ratio: float

    @property
    def condition_number(self) -> float:
        return self.t.condition_number


def reconstruct(s_tables: Sequence[CountTable],
                e_tables: Sequence[CountTable],
                ref_floor: float = 1e-6) -> Reconstruction:
    """The S and E scans' tables, each in step order, to a tagged,
    gauge-fixed transmission matrix.

    Both scans must be recorded in one family, S as d x d tables and E as
    1 x d ones. Raises DegenerateReferenceError when an entry of E falls
    below ref_floor times the largest one (e_ratio, the smallest over the
    largest, is returned): a vanishing entry means that basis direction
    never interferes with the reference and the division would only
    amplify noise. ref_floor must be a finite number in [0, 1); at 0 an
    e_ratio of exactly 0 is still rejected, as T cannot be divided by it.
    T is tagged with the family the tables' label names; a label that names
    no unitary family (standard or mub:r at this dimension) raises
    TagConflictError.
    """
    s, s_label = _quarter_combination(s_tables)
    if s.shape[0] != s.shape[1]:
        raise DimensionMismatchError(f"signal scan must be square, got shape {s.shape}")
    if not 0.0 <= ref_floor < 1.0:
        raise NormalizationError(f"ref_floor must lie in [0, 1), got {ref_floor}")
    e, e_label = _quarter_combination(e_tables)
    if e.shape[0] != 1:
        raise DimensionMismatchError(
            f"reference scan must yield 1 x d tables, got shape {e.shape}")
    mags = np.abs(e[0])
    top = float(np.max(mags))
    if top == 0.0:
        raise DegenerateReferenceError("reference scan recorded no interference")
    e_ratio = float(np.min(mags) / top)
    if e_ratio < ref_floor:
        raise DegenerateReferenceError(
            f"reference interference spans a {e_ratio:.2e} dynamic range; "
            f"below the {ref_floor:.2e} floor")
    if e_ratio == 0.0:  # only a zero floor lets it through to here
        raise DegenerateReferenceError(
            f"reference interference vanishes at family vector {int(np.argmin(mags))}; "
            f"T cannot be divided by it")
    if e.shape[1:] != s.shape[1:]:
        raise DimensionMismatchError("S and E dimensions differ")
    if s_label != e_label:
        raise NormalizationError(f"S scanned in {s_label!r} but E in {e_label!r}")
    m = numerics.as_matrix(numerics.dag(s / np.conjugate(e)))
    norm = float(np.linalg.norm(m))
    m = m / norm if norm else m
    flat = m.ravel()
    anchor = np.flatnonzero(np.abs(flat) > 1e-12)
    if anchor.size == 0:
        raise NormalizationError("cannot gauge-fix an all-zero matrix")
    a = flat[anchor[0]]
    try:
        family = parse_basis_spec(s_label, s.shape[0])
    except ToolkitError:
        raise TagConflictError(
            f"scan tables were recorded in {s_label!r}, which names no "
            f"unitary family of dimension {s.shape[0]}") from None
    t = EffectiveT(matrix=m * (np.conjugate(a) / abs(a)), basis_tag=family)
    return Reconstruction(t=t, e_ratio=e_ratio)
