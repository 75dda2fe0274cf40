"""Coincidence measurements: ideal probabilities, Poisson counts, phase scans.

Exposure policy: every sampler takes `exposure` as the Poisson mean of the
acquisition's brightest cell ("integrate until the peak cell has collected
that many counts"). A cell with ideal probability p then yields Poisson
counts with mean scale * (p + dark_rate), where scale = exposure / max(p)
over the acquisition. A coincidence table is one acquisition; the four
steps of a phase scan are one acquisition together, so they share one
scale and their interference ratios stay meaningful. exposure = inf is the
noiseless sentinel: sampling is bypassed and the table holds the exact
probabilities. Count tables record the scale their cells were drawn at,
the basis labels and the seed, so downstream estimators and resamplers
never guess.

Kets and operators: every table is computed by one private kernel,
_probabilities, which takes operators (the conjugated kets as rows), and
every caller inside the package hands it operators it built as such.
probability_table, the public entry for kets, conjugates them inside.
Conjugating an operator into kets only to conjugate it back made two
extra d x d copies per table; from d = 91 up (a complex d x d array past
glibc's 128 KB mmap threshold) they made the heap fault pages back in on
every table.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from . import numerics, states
from .bases import BasisFamily
from .errors import (
    ConditioningError,
    DimensionMismatchError,
    FormatError,
    InvalidDimensionError,
    NormalizationError,
)

NOISELESS = math.inf

# Fixed sub-stream ids: each sampled table draws from its own stream.
_STREAM_SCAN_S = 11
_STREAM_SCAN_E = 12
_STREAM_TABLE = 13

THETA_GRID = (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi)


@dataclass(frozen=True, eq=False)
class CountTable:
    """One coincidence table.

    counts[a, b] pairs Alice outcome a with Bob outcome b: the counts as
    drawn, integer-valued when sampled, and the exact cell means in
    noiseless mode. A recovered rotated table also carries row_scale, the
    SLM row correction zeta^2, one factor per row; `corrected` is the
    table with each row times its factor, which is what the table
    estimates and what its file stores. Resampling reads `counts`.
    """

    counts: np.ndarray
    basis_label_a: str
    basis_label_b: str
    exposure: float
    seed: Optional[int] = None
    row_scale: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        c = np.array(self.counts, dtype=np.float64)  # the table's one private copy
        if c.ndim != 2:
            raise InvalidDimensionError(f"counts must be 2-D, got shape {c.shape}")
        # min and max allocate nothing; a NaN fails the first comparison
        if c.size and not (c.min() >= 0 and c.max() < math.inf):
            raise NormalizationError("counts must be finite and nonnegative")
        if not (self.exposure > 0):
            raise NormalizationError(f"exposure must be positive, got {self.exposure}")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)
        if self.row_scale is not None:
            object.__setattr__(self, "row_scale",
                               numerics.frozen(_row_factors(self.row_scale, c.shape[0])))

    @property
    def noiseless(self) -> bool:
        return math.isinf(self.exposure)

    @property
    def corrected(self) -> np.ndarray:
        """counts with each row times its row_scale factor (counts itself
        when there is no row_scale); the one place that product is formed."""
        if self.row_scale is None:
            return self.counts
        return self.counts * self.row_scale[:, None]

    def total(self) -> float:
        return float(np.sum(self.corrected))

    def normalized(self) -> np.ndarray:
        corrected = self.corrected
        t = float(np.sum(corrected))
        if t <= 0:
            raise NormalizationError(
                f"table {self.basis_label_a}/{self.basis_label_b} has zero total counts")
        return corrected / t


def _row_factors(row_scale, rows: int) -> np.ndarray:
    """row_scale as floats, checked to hold one finite positive factor per row."""
    rs = np.asarray(row_scale, dtype=np.float64)
    if rs.shape != (rows,) or not np.all(np.isfinite(rs)) or np.any(rs <= 0):
        raise NormalizationError("row_scale must hold one finite positive factor per row")
    return rs


def probability_table(state: states.BipartiteState, kets_a, kets_b) -> np.ndarray:
    """All pairwise coincidence probabilities; kets given as matrix rows,
    conjugated here into the operators the kernel _probabilities takes (a
    caller that holds operators calls the kernel itself)."""
    return _probabilities(state, np.conjugate(numerics.as_matrix(kets_a)),
                          np.conjugate(numerics.as_matrix(kets_b)))


def _probabilities(state: states.BipartiteState, op_a, op_b) -> np.ndarray:
    """|A C B^T|^2 for operators A and B (conjugated kets as rows) and the
    state's coefficient matrix C; the one kernel every table goes through."""
    a = numerics.as_matrix(op_a)
    b = numerics.as_matrix(op_b)
    if a.shape[1] != state.dim or b.shape[1] != state.dim:
        raise DimensionMismatchError("projection kets do not match the state dimension")
    return np.abs(a @ state.coeffs @ b.T) ** 2


def _peak_scale(exposure: float, probs: Sequence[np.ndarray]) -> float:
    """Poisson scale that puts the brightest cell of `probs` at `exposure` counts."""
    if math.isinf(exposure):
        return NOISELESS
    peak = max(float(np.max(p)) for p in probs)
    if peak <= 0:
        raise ConditioningError("all-dark acquisition; cannot set exposure scale")
    return exposure / peak


def _checked(probs, dark_rate: float) -> np.ndarray:
    """A probability table as a float array, rounding-level negatives clipped;
    also rejects a negative dark rate."""
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p < -numerics.PROB_TOL):
        raise NormalizationError("negative probability in table")
    if dark_rate < 0:
        raise NormalizationError("dark_rate must be nonnegative")
    return np.clip(p, 0.0, None)


def _draw(p: np.ndarray, scale: float, seed: Optional[int], dark_rate: float,
          stream: Sequence[int], basis_label_a: str, basis_label_b: str,
          row_scale=None) -> CountTable:
    """Poisson counts with means scale * (p + dark_rate), recorded with the
    row_scale if given; scale = inf gives the means themselves. The means
    are formed in p, which _draw owns: it is _checked's private copy, and
    the acquisition's scale was read before any of its tables is drawn."""
    p += dark_rate
    if math.isinf(scale):
        counts, exposure, seed = p, NOISELESS, None
    elif not isinstance(seed, (int, np.integer)):
        raise NormalizationError("sampled mode needs an explicit integer seed")
    else:
        p *= scale
        counts = numerics._poisson(numerics.substream(seed, *stream), p)
        exposure, seed = float(scale), int(seed)
    return CountTable(counts=counts, basis_label_a=basis_label_a,
                      basis_label_b=basis_label_b, exposure=exposure, seed=seed,
                      row_scale=row_scale)


def sample_counts(probs, exposure: float, seed: Optional[int],
                  dark_rate: float = 0.0, *, stream: Sequence[int] = (),
                  basis_label_a: str = "custom", basis_label_b: str = "custom",
                  row_scale=None) -> CountTable:
    """Poisson-sample a probability table, one acquisition, into a CountTable.

    The brightest cell's mean is `exposure` counts (dark counts come on
    top), and the table records the scale that implies. exposure = inf
    returns the exact cell means (probabilities plus dark rate), bypassing
    the generator entirely; seed may then be None. Sampled mode needs an
    integer root seed: the counts are drawn from its sub-stream
    numerics.substream(seed, *stream) and the table records the root seed.
    Every caller passes a stream of its own per table, so one root seed
    serves a whole run while the tables' counting noise stays independent.
    A row_scale, one positive factor per row, is recorded beside the draw,
    sampled or noiseless, which it leaves as it is: the table's `corrected`
    rows are the draw's rows times their factors. An all-dark table raises
    ConditioningError.
    """
    p = _checked(probs, dark_rate)
    if row_scale is not None and np.shape(row_scale) != (p.shape[0],):
        raise DimensionMismatchError("row_scale must hold one factor per Alice row")
    return _draw(p, _peak_scale(exposure, [p]), seed, dark_rate, stream,
                 basis_label_a, basis_label_b, row_scale)


def measure_correlations(state: states.BipartiteState, family: BasisFamily,
                         exposure: float, seed: Optional[int] = None,
                         dark_rate: float = 0.0) -> CountTable:
    """Joint outcome table with Alice in `family` and Bob in its conjugate.

    The conjugated partner family makes maximally entangled correlations
    land on the diagonal for every family kind. Sampled counts come from a
    sub-stream of `seed` keyed by the family kind, so the tables of
    different families are independent and a rerun repeats them.
    """
    if family.dim != state.dim:
        raise DimensionMismatchError("family does not match the state dimension")
    probs = _probabilities(state, np.conjugate(family.matrix), family.matrix)
    return sample_counts(probs, exposure, seed, dark_rate,
                         stream=(_STREAM_TABLE, *family.kind.encode("ascii")),
                         basis_label_a=family.kind, basis_label_b=family.kind + "*")


def _with_reference(amplitude: complex, pixels: np.ndarray) -> np.ndarray:
    """Operators of the kets amplitude|ref> + |pixel row>, one per row,
    reference mode first: the kets, conjugated in place."""
    kets = np.hstack([np.full((pixels.shape[0], 1), amplitude, dtype=np.complex128),
                      pixels])
    return np.conjugate(kets, out=kets)


def _phase_scan(state: states.BipartiteState, family: BasisFamily, exposure: float,
                seed: Optional[int], dark_rate: float, name: str, stream: int,
                operators) -> List[CountTable]:
    """The four step tables of one scan, in step order; operators(exp(i
    theta)) gives Alice's and Bob's operators. The steps share one scale,
    set by their joint peak, and step k draws from sub-stream (stream, k)."""
    if state.dim != family.dim + 1:
        raise DimensionMismatchError(f"scan needs a state on {family.dim}+1 modes "
                                     f"(reference first), got dim {state.dim}")
    probs = [_checked(_probabilities(state, *operators(np.exp(1j * theta))), dark_rate)
             for theta in THETA_GRID]
    scale = _peak_scale(exposure, probs)
    return [_draw(p, scale, seed, dark_rate, (stream, step),
                  f"{name}:{family.kind}:step{step}", family.kind)
            for step, p in enumerate(probs)]


def phase_step_scan_s(state: states.BipartiteState, family: BasisFamily,
                      exposure: float, seed: Optional[int] = None,
                      dark_rate: float = 0.0) -> List[CountTable]:
    """Interference scan for the signal matrix S: four tables, step k at
    theta = k pi/2.

    For each step theta Alice projects onto exp(i theta)|ref> + |w_m> and
    Bob onto |v_n>, where w_m is the conjugated m-th family vector and v_n
    the plain n-th one. That pairing makes the assembled matrix land in the
    family's rotated form (the tag convention used downstream); for the
    standard basis it reduces to the textbook reference-plus-pixel scan.
    """
    m = family.matrix
    return _phase_scan(state, family, exposure, seed, dark_rate, "scan-s", _STREAM_SCAN_S,
                       lambda phase: (_with_reference(phase, np.conjugate(m)),
                                      _with_reference(0.0, m)))


def phase_step_scan_e(state: states.BipartiteState, family: BasisFamily,
                      exposure: float, seed: Optional[int] = None,
                      dark_rate: float = 0.0) -> List[CountTable]:
    """Interference scan for the reference (E) diagonal: four tables, step
    k at theta = k pi/2.

    Alice projects onto the bare reference mode; Bob steps the phase of his
    reference against each family vector. Yields 1 x d tables.
    """
    m = family.matrix
    return _phase_scan(state, family, exposure, seed, dark_rate, "scan-e", _STREAM_SCAN_E,
                       lambda phase: (_with_reference(1.0, np.zeros((1, family.dim))),
                                      _with_reference(phase, m)))


# ---------------------------------------------------------------------------
# CountTable CSV format:
#   basisA,basisB,exposure,seed
#   <labelA>,<labelB>,<exposure|inf>,<seed|none>
#   [row_scale                      (optional section)
#    <s0>,<s1>,...]
#   a,b,count
#   <a>,<b>,<count>
# A table with a row_scale stores its corrected cells, counts x row_scale.
# ---------------------------------------------------------------------------


def save_count_table(path: Union[str, os.PathLike], table: CountTable) -> str:
    """Write a table in the format above and return the SHA-256 hex digest
    of the bytes written."""
    exp = "inf" if table.noiseless else numerics._fmt(table.exposure)
    seed = "none" if table.seed is None else str(table.seed)
    for label in (table.basis_label_a, table.basis_label_b):
        if "," in label or "\n" in label:
            raise NormalizationError(f"basis label {label!r} not CSV-safe")
    header = ["basisA,basisB,exposure,seed",
              f"{table.basis_label_a},{table.basis_label_b},{exp},{seed}"]
    if table.row_scale is not None:
        header.append("row_scale")
        header.append(",".join(["%.17g"] * len(table.row_scale))
                      % tuple(table.row_scale.tolist()))
    return numerics._write_cells(path, header, "a,b,count", [table.corrected])


def load_count_table(path: Union[str, os.PathLike], digest=None) -> CountTable:
    """A table saved by save_count_table; a hashlib object given as `digest`
    is fed the file's bytes as read.

    A file with a row_scale holds counts x row_scale. A sampled table's
    counts are whole, so they are recovered as np.rint(cells / row_scale),
    and a file in which that draw times row_scale does not give back every
    stored cell bit for bit is a FormatError. A noiseless table's means are
    not whole; they are the plain quotient.
    """
    header, grid = numerics._read_cells(path, "a,b,count", 1, digest)
    if (len(header) not in (2, 4) or header[0] != "basisA,basisB,exposure,seed"
            or header[2:3] not in ([], ["row_scale"])):
        raise FormatError(f"{path}: not a count-table CSV")
    try:
        label_a, label_b, exp_s, seed_s = header[1].split(",")
        exposure = math.inf if exp_s == "inf" else float(exp_s)
        seed = None if seed_s == "none" else int(seed_s)
        row_scale = None
        if len(header) == 4:
            row_scale = np.array([float(tok) for tok in header[3].split(",")])
    except ValueError as exc:
        raise FormatError(f"{path}: malformed count-table header ({exc})") from exc
    counts = cells = grid[:, :, 0]
    if row_scale is not None:
        # The factors are checked before anything is divided by them. A
        # quotient that overflows is infinite, which CountTable refuses.
        with np.errstate(over="ignore"):
            counts = cells / _row_factors(row_scale, cells.shape[0])[:, None]
        if not math.isinf(exposure):
            counts = np.rint(counts)
    table = CountTable(counts=counts, basis_label_a=label_a, basis_label_b=label_b,
                       exposure=exposure, seed=seed, row_scale=row_scale)
    if (table.row_scale is not None and not table.noiseless
            and not np.array_equal(table.corrected, cells)):
        raise FormatError(f"{path}: cells are not whole counts times row_scale")
    return table
