"""Reference computations that the benchmark checks qscatter's outputs against.

Nothing here imports qscatter. The two CSV readers, the unbiased bases,
the fidelity estimator, the Schmidt-rank bounds and the true fidelity of
a recovered state are written from their formulas, so a fault in the
program cannot hide in the code that checks it. `selftest` runs them on
cases with known answers; `run.py` calls it before every run.

Conventions (the ones the file formats and the paper use):
  * a two-photon state is its coefficient matrix psi[a, b];
  * Alice measuring rows A and Bob rows B see the table |A psi B^T|^2;
  * family r of a prime dimension d has rows omega^(k m + r m^2) / sqrt(d),
    and Bob measures the complex conjugate of Alice's family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

# Bootstrap trials drawn at once; bounds the memory a bootstrap holds.
BOOTSTRAP_CHUNK = 50

# ---------------------------------------------------------------------------
# File readers. Both are strict: every cell must appear exactly once.
# ---------------------------------------------------------------------------


@dataclass
class CountFile:
    counts: np.ndarray          # as stored: row-corrected when row_scale is set
    label_a: str
    label_b: str
    exposure: float
    row_scale: Optional[np.ndarray]

    @property
    def raw(self) -> np.ndarray:
        """The Poisson-distributed counts before any row correction."""
        if self.row_scale is None:
            return self.counts
        return self.counts / self.row_scale[:, None]


def parse_count_table(text: str) -> CountFile:
    """Count-table CSV: a label/exposure/seed header, an optional row_scale
    section, then one `a,b,count` line per cell."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 4 or lines[0] != "basisA,basisB,exposure,seed":
        raise ValueError("not a count-table CSV")
    label_a, label_b, exposure, _seed = lines[1].split(",")
    pos = 2
    row_scale = None
    if lines[pos] == "row_scale":
        row_scale = np.array([float(tok) for tok in lines[pos + 1].split(",")])
        pos += 2
    if lines[pos] != "a,b,count":
        raise ValueError("count-table CSV has no cell section")
    cells = [ln.split(",") for ln in lines[pos + 1:]]
    if any(len(c) != 3 for c in cells):
        raise ValueError("count-table cell line without three fields")
    rows = 1 + max(int(c[0]) for c in cells)
    cols = 1 + max(int(c[1]) for c in cells)
    counts = np.full((rows, cols), np.nan)
    for a, b, c in cells:
        i, j = int(a), int(b)
        if i < 0 or j < 0 or not math.isnan(counts[i, j]):
            raise ValueError(f"cell ({i},{j}) is negative or repeated")
        counts[i, j] = float(c)
    if np.isnan(counts).any():
        raise ValueError("count table has missing cells")
    if row_scale is not None and row_scale.shape != (rows,):
        raise ValueError("row_scale does not match the row count")
    return CountFile(counts=counts, label_a=label_a, label_b=label_b,
                     exposure=float(exposure), row_scale=row_scale)


def read_count_table(path) -> CountFile:
    with open(path, "r", encoding="ascii") as fh:
        return parse_count_table(fh.read())


def parse_matrix_lines(lines: Iterable[str],
                       columns: Optional[Sequence[int]] = None) -> np.ndarray:
    """Complex-matrix CSV: `rows,cols`, the two sizes, `i,j,re,im`, then one
    line per entry. With `columns` given, only those columns are kept (in
    that order); every entry of the file is still counted."""
    it = iter(lines)
    head = [next(it).strip(), next(it).strip(), next(it).strip()]
    if head[0] != "rows,cols" or head[2] != "i,j,re,im":
        raise ValueError("not a complex-matrix CSV")
    rows, cols = (int(tok) for tok in head[1].split(","))
    keep = list(range(cols)) if columns is None else [int(c) for c in columns]
    slot = {c: k for k, c in enumerate(keep)}
    if len(slot) != len(keep) or any(not 0 <= c < cols for c in keep):
        raise ValueError("requested columns repeat or lie outside the matrix")
    out = np.full((rows, len(keep)), np.nan, dtype=np.complex128)
    n = 0
    for ln in it:
        if not ln.strip():
            continue
        si, sj, sre, sim = ln.split(",")
        n += 1
        k = slot.get(int(sj))
        if k is None:
            continue
        i = int(si)
        if not 0 <= i < rows or not np.isnan(out[i, k].real):
            raise ValueError(f"entry ({i},{sj}) is out of range or repeated")
        out[i, k] = complex(float(sre), float(sim))
    if n != rows * cols or np.isnan(out.real).any():
        raise ValueError(f"matrix file holds {n} entries, expected {rows * cols}")
    return out


def read_matrix(path, columns: Optional[Sequence[int]] = None) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix_lines(fh, columns)


# ---------------------------------------------------------------------------
# Bases, tables and the estimator
# ---------------------------------------------------------------------------


def _phases(d: int, r: int) -> np.ndarray:
    """omega^(k m + r m^2), rows k, columns m, for an odd prime d."""
    if d < 3 or any(d % p == 0 for p in range(2, math.isqrt(d) + 1)):
        raise ValueError(f"d={d} is not an odd prime")
    k = np.arange(d)[:, None]
    m = np.arange(d)[None, :]
    return np.exp(2j * np.pi * ((k * m + r * m * m) % d) / d)


def mub(d: int, r: int) -> np.ndarray:
    """Unbiased family r, one basis vector per row."""
    return _phases(d, r) / math.sqrt(d)


def tilted(d: int, r: int, lambdas: np.ndarray) -> np.ndarray:
    """Family r warped toward the spectrum lambda: rows phase * sqrt(lambda)."""
    lam = np.asarray(lambdas, dtype=np.float64)
    return _phases(d, r) * np.sqrt(lam)[None, :] / lam.sum()


def family_table(psi: np.ndarray, family: np.ndarray) -> np.ndarray:
    """Alice measures `family`, Bob its complex conjugate: |F psi F^dag|^2."""
    return np.abs(family @ psi @ np.conjugate(family).T) ** 2


def lambda_from_standard(counts: np.ndarray) -> np.ndarray:
    """Target spectrum nominated by a standard table: sqrt of the normalized
    diagonal."""
    diag = np.diagonal(counts).astype(np.float64)
    return np.sqrt(diag / diag.sum())


def fidelity(standard: np.ndarray, families: Sequence[np.ndarray],
             lambdas: np.ndarray) -> float:
    """Fidelity to sum_m lambda_m |mm> from the standard table and the
    tables of all d (tilted or unbiased) families, in any order.

    Summed over k and r, the matched outcomes of the tilted families give
    (|sum_m lambda_m psi_mm|^2 + sum_{m!=n} lambda_m lambda_n |psi_mn|^2)
    over lambda^T |psi|^2 lambda; the standard table supplies that
    denominator and the second sum, which leaves the fidelity. Each table
    enters only through ratios of its own cells, so its exposure drops out;
    tilted tables must hold row-corrected counts, as the files store them.
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    if len(families) != lam.size:
        raise ValueError("the exact estimator needs all d families")
    p0 = standard / standard.sum()
    weight = float(lam @ p0 @ lam)
    matched = sum(float(np.trace(t)) / float(t.sum()) for t in families)
    return weight * matched - (weight - float(np.sum(lam ** 2 * np.diagonal(p0))))


def rank_bounds(lambdas: np.ndarray) -> np.ndarray:
    """B_0 .. B_(d-1): the best fidelity a state of Schmidt rank k reaches."""
    probs = np.sort(np.asarray(lambdas, dtype=np.float64) ** 2)[::-1]
    return np.concatenate(([0.0], np.cumsum(probs)[:-1]))


def certified_dimension(fidelity_value: float, lambdas: np.ndarray) -> int:
    """Number of rank bounds B_0 .. B_(d-1) that lie below the fidelity."""
    return int(np.sum(rank_bounds(lambdas) < fidelity_value))


def recovered_state(t_logical: np.ndarray, w_alice: np.ndarray,
                    m_bob: np.ndarray) -> np.ndarray:
    """psi = W (T^T / sqrt d) M_bob^T: |Phi+> through the medium, then the
    sender's correction and the receiver's fixed basis."""
    d = t_logical.shape[0]
    return w_alice @ (t_logical.T / math.sqrt(d)) @ m_bob.T


def true_fidelity(psi: np.ndarray, lambdas: np.ndarray) -> float:
    """|sum_m lambda_m psi_mm|^2 / ||psi||^2."""
    lam = np.asarray(lambdas, dtype=np.float64)
    overlap = complex(np.sum(lam * np.diagonal(psi)))
    return abs(overlap) ** 2 / float(np.vdot(psi, psi).real)


def bootstrap_sigma(standard: CountFile, families: Sequence[CountFile],
                    lambdas: np.ndarray, n: int,
                    rng: np.random.Generator) -> float:
    """Spread of `fidelity` over n Poisson resamples of the raw counts.

    Every cell is redrawn as Poisson(raw count) and row corrections are
    applied again. A family table enters the estimator only through its
    diagonal and its total, so for those tables the benchmark draws each
    row's diagonal cell and the sum of its other cells: a sum of
    independent Poisson cells is Poisson in their summed mean, so the
    estimate has the same distribution as redrawing every cell.
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    s0 = np.ones(lam.size) if standard.row_scale is None else standard.row_scale
    raw_fam = np.array([f.raw for f in families])
    diag_mean = np.diagonal(raw_fam, axis1=1, axis2=2)
    off_mean = raw_fam.sum(axis=2) - diag_mean
    scale = np.array([np.ones(lam.size) if f.row_scale is None else f.row_scale
                      for f in families])
    trials: List[np.ndarray] = []
    for start in range(0, n, BOOTSTRAP_CHUNK):
        m = min(BOOTSTRAP_CHUNK, n - start)
        n0 = rng.poisson(standard.raw, size=(m,) + standard.raw.shape) * s0[:, None]
        total0 = n0.sum(axis=(1, 2))
        weight = np.einsum("i,bij,j->b", lam, n0, lam) / total0
        diag0 = np.einsum("i,bii->b", lam ** 2, n0) / total0
        dg = rng.poisson(diag_mean, size=(m,) + diag_mean.shape) * scale
        off = rng.poisson(off_mean, size=(m,) + off_mean.shape) * scale
        matched = np.sum(dg.sum(axis=2) / (dg + off).sum(axis=2), axis=1)
        trials.append(weight * matched - (weight - diag0))
    return float(np.std(np.concatenate(trials), ddof=1))


def dist_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """min_c ||a - c b||_F / ||b||_F over complex c."""
    c = np.vdot(b, a) / np.vdot(b, b)
    return float(np.linalg.norm(a - c * b) / np.linalg.norm(b))


# ---------------------------------------------------------------------------
# Known answers
# ---------------------------------------------------------------------------


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(f"oracle self-test failed: {what}")


def selftest() -> None:
    """Run the oracles on inputs whose answers are known in closed form."""
    d = 7
    uniform = np.full(d, 1 / math.sqrt(d))
    mubs = [mub(d, r) for r in range(d)]
    for r in range(d):
        for s in range(r):
            overlap = np.abs(mubs[r] @ np.conjugate(mubs[s]).T) ** 2
            _expect(np.allclose(overlap, 1 / d), "families are not unbiased")

    def certify_pure(psi, lam, fams):
        return fidelity(np.abs(psi) ** 2, [family_table(psi, f) for f in fams], lam)

    phi = np.eye(d) / math.sqrt(d)
    _expect(abs(certify_pure(phi, uniform, mubs) - 1) < 1e-12, "|Phi+> must give F = 1")
    product = np.zeros((d, d))
    product[0, 0] = 1.0
    _expect(abs(certify_pure(product, uniform, mubs) - 1 / d) < 1e-12,
            "a product state must give F = 1/d")

    rng = np.random.default_rng(0)
    psi = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    psi += 3 * np.diag(rng.uniform(0.5, 1.5, d))
    lam = rng.uniform(0.2, 1.0, d)
    lam /= np.linalg.norm(lam)
    fams = [tilted(d, r, lam) for r in range(d)]
    _expect(abs(certify_pure(psi, lam, fams) - true_fidelity(psi, lam)) < 1e-12,
            "tilted tables must reproduce the true fidelity")
    _expect(abs(true_fidelity(recovered_state(np.eye(d), np.eye(d), np.eye(d)),
                              uniform) - 1) < 1e-12,
            "an empty medium must give F_true = 1")

    # d = 2 Werner state with p = 0.6, counted by hand: every table holds 40
    # on the diagonal and 10 off it, so F = (1 + 3p) / 4 = 0.7.
    werner = np.array([[40.0, 10.0], [10.0, 40.0]])
    qubit = np.full(2, 1 / math.sqrt(2))
    f2 = fidelity(werner, [werner, werner], qubit)
    _expect(abs(f2 - 0.7) < 1e-12, "the d=2 Werner table must give F = 0.7")
    _expect(certified_dimension(f2, qubit) == 2, "F = 0.7 > 1/2 certifies 2")
    _expect(certified_dimension(0.5, uniform) == 4, "B_3 = 3/7 < 0.5 < B_4")

    good = "basisA,basisB,exposure,seed\nx,x*,inf,none\na,b,count\n0,0,1\n0,1,2\n1,0,3\n1,1,4\n"
    _expect(parse_count_table(good).counts[1, 0] == 3, "count-table reader")
    for bad in (good.replace("1,1,4\n", ""), good.replace("1,1,4\n", "0,1,4\n")):
        try:
            parse_count_table(bad)
        except ValueError:
            continue
        _expect(False, "a table with a missing or repeated cell must be refused")
    mat = "rows,cols\n1,2\ni,j,re,im\n0,0,1,0\n0,1,0,2\n".splitlines()
    _expect(parse_matrix_lines(mat, [1])[0, 0] == 2j, "matrix reader")
    try:
        parse_matrix_lines(mat[:-1])
    except ValueError:
        pass
    else:
        _expect(False, "a matrix with a missing entry must be refused")
