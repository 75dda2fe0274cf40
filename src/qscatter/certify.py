"""Entanglement dimensionality certification from coincidence tables.

The certificate lower-bounds the fidelity F of the measured state to a
target pure state sum_m lambda_m |mm> using only the standard-basis table
and tables in unbiased (or lambda-tilted) families. F > B_k, where B_k is
the sum of the k largest lambda^2, is impossible for any state of Schmidt
rank k, so the largest k with F > B_(k-1) certifies that many entangled
dimensions.

Two estimators are provided. With all d unbiased families measured the
fidelity is recovered exactly: averaging the matched-outcome sums over the
families cancels every coherence that is not part of F. With a single
family the uncancelled coherences are bounded through positivity of the
density matrix, giving a strict lower bound that is tight on the target
state itself. Tables enter as their draws, CountTable.counts, and a
table's row_scale (the SLM row correction) weights its rows inside the
estimator; only count ratios matter, so postselected (sub-normalized)
states are handled with no extra work.

Both estimators have one implementation, _batched_estimator, a function of
the drawn counts with a leading axis of trials. The point estimate is that
function on the observed statistics as a single trial; the Monte-Carlo
error bar is the same function on Poisson redraws of them. Those
statistics are d-length per family table (its diagonal and off-diagonal
row sums), so each family table is read once, as it arrives from any
iterable, and the d tables of a run are never held together.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import numerics
from .bases import check_lambdas, parse_label
from .errors import (
    ConfigError,
    DimensionMismatchError,
    NormalizationError,
)
from .measure import CountTable

_STREAM_MC = 21

# Poisson cells drawn per block of Monte-Carlo trials: it bounds the
# working arrays of the batched estimator whatever n_mc is. A trial that
# alone draws more cells is a block of its own.
_MC_BLOCK_CELLS = 1 << 14

_UNIFORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TargetState:
    """Schmidt spectrum of the certification target sum_m lambda_m |mm>.

    The entries keep their index order (they pair with specific basis
    vectors of the tilted families); only the bounds sort them.
    """

    lambdas: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", numerics.frozen(
            check_lambdas(self.lambdas, np.size(self.lambdas))))

    @classmethod
    def uniform(cls, dim: int) -> "TargetState":
        return cls(lambdas=np.full(dim, 1.0 / math.sqrt(dim)))

    @property
    def dim(self) -> int:
        return self.lambdas.shape[0]

    @property
    def is_uniform(self) -> bool:
        return bool(np.max(np.abs(self.lambdas - 1.0 / math.sqrt(self.dim)))
                    <= _UNIFORM_TOL)

    def bounds(self) -> np.ndarray:
        """B_k for k = 1..dim: best fidelity any rank-k state can reach."""
        probs = np.sort(self.lambdas ** 2)[::-1]
        return np.cumsum(probs)


def estimate_lambda(table: Union[CountTable, np.ndarray]) -> TargetState:
    """Nominate a target from the diagonal of a standard-basis table.

    lambda_m = sqrt(N_mm / sum_n N_nn), index order preserved.
    """
    counts = table.corrected if isinstance(table, CountTable) else np.asarray(table)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise DimensionMismatchError("need a square table to nominate a target")
    diag = np.diagonal(counts).astype(np.float64)
    total = float(np.sum(diag))
    if total <= 0:
        raise NormalizationError("table diagonal is empty; no target to nominate")
    return TargetState(lambdas=np.sqrt(diag / total))


class _Family(NamedTuple):
    """What the estimators read of one rotated-family table: its kind and
    index, and per row the drawn diagonal cell, the drawn off-diagonal sum
    and the row correction."""

    kind: str
    r: int
    diag: np.ndarray
    off: np.ndarray
    scale: np.ndarray
    noiseless: bool


def _check_shape(table: CountTable, d: int) -> None:
    if table.counts.shape != (d, d):
        raise DimensionMismatchError(
            f"table shape {table.counts.shape} does not match dim {d}")


def _row_scale(table: CountTable) -> np.ndarray:
    d = table.counts.shape[0]
    return np.ones(d) if table.row_scale is None else table.row_scale


def _reduce(table: CountTable, d: int) -> _Family:
    """Validate one family table and keep only what the estimators read.

    A family table enters the estimators only through its diagonal and its
    row totals (a row correction scales whole rows), and a sum of
    independent Poisson cells is Poisson with the summed mean, so redrawing
    these statistics is exactly a Poisson redraw of every cell.
    """
    _check_shape(table, d)
    kind, r = parse_label(table.basis_label_a, d)
    if kind == "standard":
        raise NormalizationError("family tables must be rotated, got a standard one")
    diag = np.diagonal(table.counts).copy()
    return _Family(kind, r, diag, np.sum(table.counts, axis=1) - diag, _row_scale(table),
                   table.noiseless)


def _read_families(standard_table: CountTable, family_tables: Iterable[CountTable],
                   d: int) -> List[_Family]:
    """The one validation pass of both estimators: checks the standard table,
    then reads each family table once, in order, reducing it as it passes.

    The standard table must carry a standard label and every family table
    a rotated one, as bases.parse_label reads them, all d x d. Only the
    reductions are kept, so no more than one family table is held at a time.
    """
    if parse_label(standard_table.basis_label_a, d)[0] != "standard":
        raise NormalizationError(
            f"expected a standard-basis table, got {standard_table.basis_label_a!r}")
    _check_shape(standard_table, d)
    return [_reduce(table, d) for table in family_tables]


def _check_target(families: Sequence[_Family], target: TargetState) -> None:
    """Unbiased-family tables are only valid against a uniform target
    (tilted families handle a nonuniform spectrum)."""
    if any(f.kind == "mub" for f in families) and not target.is_uniform:
        raise NormalizationError(
            "unbiased-family tables certify uniform targets only; "
            "use tilted families for a nonuniform spectrum")


def _batched_estimator(standard_table: CountTable, families: Sequence[_Family],
                       target: TargetState, exact: bool):
    """The exact estimator (or the lower bound on families[0]) as a function
    of drawn statistics with a leading axis of n trials: every standard cell
    (n, d*d), and each family row's diagonal cell and off-diagonal sum,
    (n, k, d) each; returns (n,).

    Returns that function and the observed statistics in that layout,
    without the trial axis. The families come from _read_families.
    """
    d = target.dim
    lam = target.lambdas
    s2 = float(np.sum(lam)) ** 2
    std_scale = np.repeat(_row_scale(standard_table), d)
    weights = np.outer(lam, lam).ravel()
    # Total, sum lam_i lam_j S_ij and sum lam_i^2 S_ii of the corrected table.
    lin = std_scale[:, np.newaxis] * np.stack(
        [np.ones(d * d), weights, np.diag(lam * lam).ravel()], axis=1)
    fam_scale = np.stack([f.scale for f in families])
    tilted = np.array([f.kind == "tilted" for f in families])
    # Flat index of cell ((i + delta) % d, i), one row per delta = 1..d-1.
    idx = np.arange(d)
    cyclic = ((idx + np.arange(1, d)[:, np.newaxis]) % d) * d + idx

    def evaluate(std: np.ndarray, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
        total, weighted, on_diag = (std @ lin).T
        fam_total = np.sum(fam_scale * (diag + off), axis=2)
        if np.any(total <= 0) or np.any(fam_total <= 0):
            raise NormalizationError("a table or a redraw of it has zero total counts")
        cross = (weighted - on_diag) / total
        c = np.where(tilted, (d * d / s2 * weighted / total)[:, np.newaxis], 1.0)
        q = c * np.sum(fam_scale * diag, axis=2) / fam_total
        if exact:
            return s2 / d ** 2 * np.sum(q, axis=1) - cross
        # Positivity bound on the coherences one family cannot cancel: pairs
        # (m, n) group by the cyclic difference m - n, and within a group
        # every product of amplitudes sqrt(lambda lambda P) can appear,
        # minus the measured same-pair terms.
        u = np.sqrt(np.clip(weights * std * std_scale / total[:, np.newaxis], 0.0, None))
        vals = u[:, cyclic]
        bound = np.sum(np.sum(vals, axis=2) ** 2, axis=1) - np.sum(vals * vals, axis=(1, 2))
        return s2 / d * q[:, 0] - cross - bound

    observed = (standard_table.counts.ravel(), np.stack([f.diag for f in families]),
                np.stack([f.off for f in families]))
    return evaluate, observed


def _at_observed(evaluate, observed: Sequence[np.ndarray]) -> float:
    """The batched estimator on the tables' own statistics, as one trial."""
    (value,) = evaluate(*(m[np.newaxis] for m in observed))
    return float(value)


def fidelity_lower_bound(standard_table: CountTable, family_table: CountTable,
                         target: TargetState) -> float:
    """Certified fidelity floor from the standard table plus one family:
    `certify` on that one family, without error bars."""
    return certify(standard_table, [family_table], target, n_mc=0).fidelity


def fidelity_exact(standard_table: CountTable,
                   family_tables: Iterable[CountTable],
                   target: TargetState) -> float:
    """Exact fidelity from the complete set of d rotated families.

    Reads each family table once, in one validation pass (each family
    0..d-1 exactly once), then evaluates the batched estimator on their
    observed statistics as a single trial.
    """
    d = target.dim
    families = _read_families(standard_table, family_tables, d)
    _check_target(families, target)
    rs = sorted(f.r for f in families)
    if rs != list(range(d)):
        raise NormalizationError(
            f"exact fidelity needs families 0..{d - 1} once each, got {rs}")
    return _at_observed(*_batched_estimator(standard_table, families, target,
                                            exact=True))


def _monte_carlo(evaluate, means: Sequence[np.ndarray], n_mc: int,
                 seed: int) -> np.ndarray:
    """n_mc values of the batched estimator over Poisson redraws of the
    observed statistics.

    All trials come from one sub-stream and are evaluated in blocks of
    about _MC_BLOCK_CELLS drawn cells.
    """
    per_block = max(1, _MC_BLOCK_CELLS // sum(m.size for m in means))
    rng = numerics.substream(seed, _STREAM_MC)
    trials = np.empty(n_mc)
    for start in range(0, n_mc, per_block):
        n = min(per_block, n_mc - start)
        trials[start:start + n] = evaluate(
            *(numerics._poisson(rng, m, (n, *m.shape)) for m in means))
    return trials


@dataclass(frozen=True, eq=False)
class CertificationReport:
    """What a certification run measured; everything it concludes from
    that is a property."""

    fidelity: float
    fidelity_sigma: float
    n_mc: int
    method: str
    target: TargetState

    @property
    def dim(self) -> int:
        return self.target.dim

    @property
    def bounds(self) -> Tuple[float, ...]:
        return tuple(float(b) for b in self.target.bounds())

    @property
    def d_ent(self) -> int:
        return _dimensionality_from(self.fidelity, self.target.bounds())

    @property
    def robust_3sigma(self) -> bool:
        """F exceeds B_(d_ent - 1) (0 for d_ent 1) by more than 3 sigma."""
        d_ent = self.d_ent
        prev_bound = 0.0 if d_ent <= 1 else self.bounds[d_ent - 2]
        return bool(self.fidelity - 3 * self.fidelity_sigma > prev_bound)

    @property
    def entangled(self) -> bool:
        return self.d_ent >= 2

    def summary(self) -> str:
        sig = f" +- {3 * self.fidelity_sigma:.4f} (3 sigma)" if self.n_mc else ""
        return (f"F = {self.fidelity:.4f}{sig} [{self.method}], "
                f"certified dimensionality {self.d_ent} of {self.dim}")


def _dimensionality_from(fidelity: float, bounds: np.ndarray) -> int:
    """The largest k with F > B_(k-1), B_0 = 0, and at least 1: every
    state has Schmidt number >= 1, whatever F."""
    prev = np.concatenate(([0.0], bounds[:-1]))
    return max(1, int(np.sum(fidelity > prev)))


def _check_resampling(n_mc: int, seed: int) -> None:
    """Refuse a negative seed, or an n_mc below 0 or of 1, with ConfigError."""
    if n_mc < 0:
        raise ConfigError("n_mc must be nonnegative")
    if n_mc == 1:
        raise ConfigError("n_mc must be 0 or at least 2: one trial has no spread")
    if seed < 0:
        raise ConfigError("seed must be nonnegative")


def certify(standard_table: CountTable,
            family_tables: Iterable[CountTable],
            target: Optional[TargetState] = None,
            n_mc: int = 200,
            seed: int = 0) -> CertificationReport:
    """Run the full certification and error analysis.

    target defaults to the spectrum nominated from the standard table,
    except when every rotated table is mub-type: those moments are only
    defined against the uniform spectrum, so that is what they get. The
    exact estimator is used when all d families are present, otherwise the
    single-family lower bound (with a warning). The error bar is the
    spread of the estimator over n_mc Poisson redraws of the counts it
    reads, with the target and bases held fixed; it is 0 (and n_mc is
    reported as 0) when any table is noiseless.

    family_tables may be any iterable, a generator included: each table is
    read once, as it arrives, and only its d-length statistics are kept
    (see _reduce), so the rotated tables never need to be held together.
    An n_mc of 1 or below 0, or a negative seed, raises ConfigError before
    any table is read.
    """
    _check_resampling(n_mc, seed)
    d = standard_table.counts.shape[0] if target is None else target.dim
    families = _read_families(standard_table, family_tables, d)
    if not families:
        raise NormalizationError("certification needs at least one rotated family")
    if target is None:
        if {f.kind for f in families} == {"mub"}:
            target = TargetState.uniform(d)
        else:
            target = estimate_lambda(standard_table)
    _check_target(families, target)
    rs = sorted(f.r for f in families)

    noiseless = standard_table.noiseless or any(f.noiseless for f in families)
    exact = rs == list(range(d))
    if not exact:
        if len(families) > 1:
            warnings.warn(
                f"families {rs} do not cover 0..{d - 1}; "
                "falling back to the single-family lower bound",
                stacklevel=2)
        families = families[:1]
    evaluate, observed = _batched_estimator(standard_table, families, target, exact)
    fidelity = _at_observed(evaluate, observed)

    sigma = 0.0
    n_eff = 0
    if not noiseless and n_mc:
        trials = _monte_carlo(evaluate, observed, n_mc, seed)
        sigma = float(np.std(trials, ddof=1))
        n_eff = n_mc

    return CertificationReport(fidelity=fidelity, fidelity_sigma=sigma, n_mc=n_eff,
                               method="exact" if exact else "lower_bound", target=target)
