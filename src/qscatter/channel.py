"""Mode-mixing media as linear optical channels.

A medium acting on N spatial modes is an N x N unitary, but the photon
enters it through d logical modes (macro-pixels) plus one phase reference
mode only, so the medium is held as those d + 1 columns: an N x (d + 1)
isometry. Restricting it to the reference and logical output rows gives
the effective transmission matrix T, the only object the rest of the
pipeline ever needs: sending one photon of an entangled pair through the
medium and postselecting on the monitored modes maps |Phi+> to the
(sub-normalized) state with coefficient matrix T^T / sqrt(dim).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Union

import numpy as np

from . import numerics, states
from .bases import BasisFamily, mub
from .errors import (
    DimensionMismatchError,
    FormatError,
    InvalidDimensionError,
    NormalizationError,
)
from .numerics import ComplexMatrix


@dataclass(frozen=True, eq=False)
class ChannelModel:
    """A medium, held as the columns of its unitary that the photon enters.

    isometry[k, i] couples input mode i to output mode k. Column 0 is the
    reference input and columns 1..d the logical inputs. Output rows share
    that layout: row 0 is the reference, rows 1..d are logical and rows
    d+1.. are environment.
    """

    isometry: ComplexMatrix

    def __post_init__(self) -> None:
        v = numerics.as_matrix(self.isometry)
        n, cols = v.shape
        if cols < 3 or n < cols:
            raise InvalidDimensionError(
                f"isometry shape {v.shape}: need N >= d + 1 >= 3 for N modes, "
                "a reference and d logical modes")
        if not numerics.is_isometry(v):
            raise NormalizationError(
                "channel columns are not orthonormal within tolerance")
        object.__setattr__(self, "isometry", numerics.frozen(v))


def haar_channel(d: int, total_modes: int, seed) -> ChannelModel:
    """Random medium: the reference and logical columns of a Haar unitary."""
    return ChannelModel(isometry=numerics.haar_isometry(total_modes, d + 1, seed))


@dataclass(frozen=True, eq=False)
class EffectiveT:
    """Effective transmission matrix on the monitored modes.

    matrix[k, i] couples input mode i to output mode k. When
    includes_reference is set, index 0 is the reference on both sides.
    basis_tag records the scan family a reconstructed matrix is expressed
    in (None means standard basis).
    """

    matrix: ComplexMatrix
    includes_reference: bool = False
    basis_tag: Optional[BasisFamily] = None

    def __post_init__(self) -> None:
        m = numerics.as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(
                f"transmission matrix must be square, got {m.shape}")
        if self.basis_tag is not None and self.basis_tag.dim != m.shape[0]:
            raise DimensionMismatchError(
                f"basis tag {self.basis_tag.kind!r} has dim {self.basis_tag.dim}, "
                f"matrix has dim {m.shape[0]}")
        sv = np.linalg.svd(m, compute_uv=False)
        if sv.size and float(sv[0]) > 1.0 + 1e-9:
            raise NormalizationError(
                f"transmission matrix has singular value {float(sv[0])} > 1; "
                "sub-blocks of a unitary cannot amplify")
        object.__setattr__(self, "matrix", numerics.frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def effective_t(channel: ChannelModel, include_reference: bool = False) -> EffectiveT:
    """Restrict the medium to the monitored block.

    Output ordering matches input ordering; with the reference included the
    first row/column belong to the reference mode.
    """
    first = 0 if include_reference else 1
    v = channel.isometry
    sub = v[first:v.shape[1], first:]
    return EffectiveT(matrix=sub, includes_reference=include_reference)


def choi_state(t: EffectiveT) -> states.BipartiteState:
    """State isomorphic to the channel: (I x T)|Phi+>, kept sub-normalized.

    Coefficients are T^T / sqrt(dim); norm_sq equals ||T||_F^2 / dim, the
    postselection success probability.
    """
    d = t.dim
    coeffs = t.matrix.T / np.sqrt(d)
    return states.make_state(coeffs, physical=True)


def transmitted_state(channel: ChannelModel,
                      reference_amplitude: float = 0.0) -> states.BipartiteState:
    """Post-medium two-photon state on the monitored modes.

    With reference_amplitude == 0 the source is |Phi+> on the d logical
    modes. A positive amplitude adds the reference mode on both sides with
    the given relative weight (the tomography source), returning a
    (d+1)-dimensional state whose index 0 is the reference.
    """
    if reference_amplitude < 0:
        raise NormalizationError("reference amplitude must be nonnegative")
    if reference_amplitude == 0:
        t = effective_t(channel, include_reference=False)
        return choi_state(t)
    t = effective_t(channel, include_reference=True)
    weights = np.ones(t.dim)
    weights[0] = reference_amplitude
    source = states.weighted_source(weights)
    out = states.apply_one_sided(source, None, t.matrix)
    return states.make_state(out.coeffs, physical=True)


def drop_reference(state: states.BipartiteState) -> states.BipartiteState:
    """Postselect both photons onto the logical modes (drop index 0)."""
    if state.dim < 3:
        raise InvalidDimensionError("state too small to carry a reference mode")
    return states.make_state(state.coeffs[1:, 1:], physical=True)


def compose_two_channels(u_a: ComplexMatrix, u_b: ComplexMatrix) -> EffectiveT:
    """Effective matrix when each photon crosses its own d-mode unitary.

    (U_A x U_B)|Phi+> equals (I x T)|Phi+> with T = U_B U_A^T, so two
    lossless media acting on both photons are indistinguishable from one
    medium on Bob's photon alone.
    """
    a = numerics.as_matrix(u_a)
    b = numerics.as_matrix(u_b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("need two square matrices of equal size")
    for name, u in (("A", a), ("B", b)):
        if not numerics.is_unitary(u):
            raise NormalizationError(f"side-{name} matrix is not unitary")
    return EffectiveT(matrix=b @ a.T)


# ---------------------------------------------------------------------------
# Serialization and shipped fixtures
# ---------------------------------------------------------------------------


def _layout(isometry: ComplexMatrix) -> dict:
    """The <base>.json descriptor of where a stored isometry's columns sit."""
    n, cols = isometry.shape
    return {"total_modes": n, "logical_indices": list(range(1, cols)),
            "reference_index": 0}


def save_channel(path_base: Union[str, os.PathLike], channel: ChannelModel) -> None:
    """Write <base>.csv (the N x (d+1) isometry) and <base>.json (its layout)."""
    base = os.fspath(path_base)
    numerics.save_matrix_csv(base + ".csv", channel.isometry)
    with open(base + ".json", "w", encoding="ascii") as fh:
        json.dump(_layout(channel.isometry), fh, sort_keys=True)
        fh.write("\n")


def load_channel(path_base: Union[str, os.PathLike]) -> ChannelModel:
    """Read a medium saved by save_channel.

    The sidecar must describe the stored columns; a full N x N unitary with
    a d-mode sidecar, as older versions wrote, raises FormatError.
    """
    base = os.fspath(path_base)
    v = numerics.load_matrix_csv(base + ".csv")
    layout = _layout(v)
    meta = numerics._read_json(base + ".json", list(layout))
    if {key: meta[key] for key in layout} != layout:
        raise FormatError(f"{base}.json does not describe the {v.shape[0]}x"
                          f"{v.shape[1]} isometry in {base}.csv")
    return ChannelModel(isometry=v)


def load_fixture_tm0() -> EffectiveT:
    """Measured 7x7 transmission matrix shipped with the package.

    The values were obtained by scanning in the first unbiased family, so
    the matrix is basis-rotated and in arbitrary detector units. It is
    returned rescaled to unit Frobenius norm (pure gauge) and tagged with
    that family; the verbatim values are the complex-matrix CSV
    fixtures/fixture_tm0.csv, readable with numerics.load_matrix_csv.
    """
    ref = resources.files("qscatter.fixtures").joinpath("fixture_tm0.csv")
    with resources.as_file(ref) as path:
        m = numerics.load_matrix_csv(path)
    return EffectiveT(matrix=m / np.linalg.norm(m), basis_tag=mub(7, 0))


def load_fixture_lambda() -> np.ndarray:
    """Measured Schmidt weights shipped with the package, renormalized.

    The published values are rounded to four decimals; they are rescaled so
    sum(lambda^2) = 1 holds exactly (relative adjustment ~1e-5).
    """
    ref = resources.files("qscatter.fixtures").joinpath("fixture_lambda.json")
    with resources.as_file(ref) as path, open(path, "r", encoding="ascii") as fh:
        meta = json.load(fh)
    lam = np.asarray(meta["lambda"], dtype=np.float64)
    return lam / np.sqrt(float(np.sum(lam * lam)))
