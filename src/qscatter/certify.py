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
state itself. Tables enter as raw counts; only count ratios matter, so
postselected (sub-normalized) states are handled with no extra work.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import numerics
from .errors import (
    DimensionMismatchError,
    NormalizationError,
)
from .measure import CountTable

_STREAM_MC = 21

_UNIFORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TargetState:
    """Schmidt spectrum of the certification target sum_m lambda_m |mm>.

    The entries keep their index order (they pair with specific basis
    vectors of the tilted families); only the bounds sort them.
    """

    dim: int
    lambdas: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.lambdas, dtype=np.float64)
        if lam.shape != (self.dim,):
            raise DimensionMismatchError(
                f"lambda shape {lam.shape} does not match dim {self.dim}")
        if not np.all(np.isfinite(lam)) or np.any(lam < 0):
            raise NormalizationError("lambda entries must be finite and nonnegative")
        total = float(np.sum(lam * lam))
        if abs(total - 1.0) > 1e-6:
            raise NormalizationError(
                f"sum(lambda^2) = {total:.8f}, expected 1")
        object.__setattr__(self, "lambdas", numerics.frozen(lam))

    @classmethod
    def uniform(cls, dim: int) -> "TargetState":
        return cls(dim=dim, lambdas=np.full(dim, 1.0 / math.sqrt(dim)))

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
    counts = table.counts if isinstance(table, CountTable) else np.asarray(table)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise DimensionMismatchError("need a square table to nominate a target")
    diag = np.diagonal(counts).astype(np.float64)
    total = float(np.sum(diag))
    if total <= 0:
        raise NormalizationError("table diagonal is empty; no target to nominate")
    return TargetState(dim=counts.shape[0], lambdas=np.sqrt(diag / total))


def _parse_kind(label: str) -> Tuple[str, Optional[int]]:
    """Classify a basis label into (kind, r); accepts recovered:... and *."""
    s = label
    if s.startswith("recovered:"):
        s = s[len("recovered:"):]
    s = s.rstrip("*")
    if s == "standard":
        return "standard", None
    for kind in ("mub", "tilted"):
        prefix = kind + ":"
        if s.startswith(prefix):
            try:
                return kind, int(s[len(prefix):])
            except ValueError:
                break
    raise NormalizationError(f"cannot classify basis label {label!r}")


def _normalized(table: CountTable, dim: int) -> np.ndarray:
    if table.counts.shape != (dim, dim):
        raise DimensionMismatchError(
            f"table shape {table.counts.shape} does not match dim {dim}")
    return table.normalized()


def c_lambda(standard_probs: np.ndarray, target: TargetState) -> float:
    """Normalization bridge between a tilted table and matched moments.

    Equals d^2 / (sum lambda)^2 times the lambda-weighted mass of the
    standard table; exactly 1 for a uniform target.
    """
    lam = target.lambdas
    s = float(np.sum(lam))
    return float(target.dim ** 2 / (s * s) * (lam @ standard_probs @ lam))


def matched_moments(table: CountTable, target: TargetState,
                    standard_probs: np.ndarray) -> np.ndarray:
    """Diagonal matched-outcome moments Q_r(k, k) of one family table.

    For tilted tables the counts (already corrected to the exact tilted
    vectors) are normalized and rescaled by c_lambda; unbiased-family
    tables are only valid against a uniform target, where the two
    conventions coincide.
    """
    kind, _ = _parse_kind(table.basis_label_a)
    if kind == "standard":
        raise NormalizationError("matched moments need a rotated-family table")
    if kind == "mub" and not target.is_uniform:
        raise NormalizationError(
            "unbiased-family tables certify uniform targets only; "
            "use tilted families for a nonuniform spectrum")
    probs = _normalized(table, target.dim)
    diag = np.diagonal(probs).astype(np.float64)
    if kind == "tilted":
        return c_lambda(standard_probs, target) * diag
    return diag


def _cross_measured(standard_probs: np.ndarray, target: TargetState) -> float:
    lam = target.lambdas
    weights = np.outer(lam, lam) * standard_probs
    return float(np.sum(weights) - np.trace(weights))


def _cross_bound(standard_probs: np.ndarray, target: TargetState) -> float:
    """Positivity bound on the coherences a single family cannot cancel.

    Off-diagonal pairs (m, n) group by the cyclic difference m - n; within
    one group every product of amplitudes sqrt(lambda lambda P) can appear,
    minus the measured same-pair terms.
    """
    d = target.dim
    lam = target.lambdas
    u = np.sqrt(np.clip(np.outer(lam, lam) * standard_probs, 0.0, None))
    total = 0.0
    idx = np.arange(d)
    for delta in range(1, d):
        vals = u[(idx + delta) % d, idx]
        s = float(np.sum(vals))
        total += s * s - float(np.sum(vals * vals))
    return total


def fidelity_lower_bound(standard_table: CountTable, family_table: CountTable,
                         target: TargetState) -> float:
    """Certified fidelity floor from the standard table plus one family."""
    d = target.dim
    probs = _normalized(standard_table, d)
    q = matched_moments(family_table, target, probs)
    s = float(np.sum(target.lambdas))
    return (s * s / d * float(np.sum(q))
            - _cross_measured(probs, target)
            - _cross_bound(probs, target))


def fidelity_exact(standard_table: CountTable,
                   family_tables: Sequence[CountTable],
                   target: TargetState) -> float:
    """Exact fidelity from the complete set of d rotated families."""
    d = target.dim
    seen = {}
    for table in family_tables:
        _, r = _parse_kind(table.basis_label_a)
        if r is None or not 0 <= r < d:
            raise NormalizationError(
                f"unexpected family label {table.basis_label_a!r}")
        if r in seen:
            raise NormalizationError(f"family {r} supplied twice")
        seen[r] = table
    if sorted(seen) != list(range(d)):
        raise NormalizationError(
            f"exact fidelity needs families 0..{d - 1}, got {sorted(seen)}")
    probs = _normalized(standard_table, d)
    s = float(np.sum(target.lambdas))
    q_total = 0.0
    for r in range(d):
        q_total += float(np.sum(matched_moments(seen[r], target, probs)))
    return s * s / d ** 2 * q_total - _cross_measured(probs, target)


def _resample(table: CountTable, rng: np.random.Generator) -> CountTable:
    """Poisson bootstrap of one table, honoring any row correction."""
    if table.row_scale is None:
        raw = table.counts
        new = rng.poisson(raw).astype(np.float64)
        return replace(table, counts=new)
    raw = table.counts / table.row_scale[:, np.newaxis]
    new = rng.poisson(raw).astype(np.float64) * table.row_scale[:, np.newaxis]
    return replace(table, counts=new)


@dataclass(frozen=True, eq=False)
class CertificationReport:
    """Everything a certification run concludes, in one record."""

    dim: int
    fidelity: float
    fidelity_sigma: float
    n_mc: int
    method: str
    bounds: Tuple[float, ...]
    d_ent: int
    robust_3sigma: bool
    target: TargetState

    @property
    def entangled(self) -> bool:
        return self.d_ent >= 2

    def summary(self) -> str:
        sig = f" +- {3 * self.fidelity_sigma:.4f} (3 sigma)" if self.n_mc else ""
        return (f"F = {self.fidelity:.4f}{sig} [{self.method}], "
                f"certified dimensionality {self.d_ent} of {self.dim}")


def _dimensionality_from(fidelity: float, bounds: np.ndarray) -> int:
    prev = np.concatenate(([0.0], bounds[:-1]))
    return int(np.sum(fidelity > prev))


def certify(standard_table: CountTable,
            family_tables: Sequence[CountTable],
            target: Optional[TargetState] = None,
            n_mc: int = 200,
            seed: int = 0) -> CertificationReport:
    """Run the full certification and error analysis.

    target defaults to the spectrum nominated from the standard table,
    except when every rotated table is mub-type: those moments are only
    defined against the uniform spectrum, so that is what they get. The
    exact estimator is used when all d families are present, otherwise the
    single-family lower bound (with a warning). Error bars come from
    Poisson-resampling every table n_mc times with the target and bases
    held fixed; noiseless tables skip the resampling.
    """
    if not family_tables:
        raise NormalizationError("certification needs at least one rotated family")
    if target is None:
        kinds = {_parse_kind(t.basis_label_a)[0] for t in family_tables}
        if kinds == {"mub"}:
            target = TargetState.uniform(standard_table.counts.shape[0])
        else:
            target = estimate_lambda(standard_table)
    d = target.dim

    rs = sorted(_parse_kind(t.basis_label_a)[1] for t in family_tables)
    exact = rs == list(range(d))
    if exact:
        method = "exact"

        def run(std: CountTable, fams: Sequence[CountTable]) -> float:
            return fidelity_exact(std, fams, target)
    else:
        method = "lower_bound"
        if len(family_tables) > 1:
            warnings.warn(
                f"families {rs} do not cover 0..{d - 1}; "
                "falling back to the single-family lower bound",
                stacklevel=2)

        def run(std: CountTable, fams: Sequence[CountTable]) -> float:
            return fidelity_lower_bound(std, fams[0], target)

    fidelity = run(standard_table, family_tables)
    bounds = target.bounds()
    d_ent = _dimensionality_from(fidelity, bounds)

    all_tables = [standard_table, *family_tables]
    noiseless = any(t.noiseless for t in all_tables)
    sigma = 0.0
    n_eff = 0
    if not noiseless and n_mc >= 2:
        trials = np.empty(n_mc)
        for i in range(n_mc):
            rng = numerics.substream(seed, _STREAM_MC, i)
            std = _resample(standard_table, rng)
            fams = [_resample(t, rng) for t in family_tables]
            trials[i] = run(std, fams)
        sigma = float(np.std(trials, ddof=1))
        n_eff = n_mc

    prev_bound = 0.0 if d_ent <= 1 else float(bounds[d_ent - 2])
    robust = bool(d_ent >= 1 and fidelity - 3 * sigma > prev_bound)

    return CertificationReport(
        dim=d,
        fidelity=float(fidelity),
        fidelity_sigma=sigma,
        n_mc=n_eff,
        method=method,
        bounds=tuple(float(b) for b in bounds),
        d_ent=d_ent,
        robust_3sigma=robust,
        target=target,
    )
