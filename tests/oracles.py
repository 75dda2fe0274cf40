"""Shared test helpers: independent oracles the library must agree with.

Everything here is deliberately written from first principles (explicit
Kronecker products, quadratic forms, brute-force postselection) so the
tests do not reuse the code paths they are checking.
"""

import re
from dataclasses import dataclass, replace
from typing import Sequence, Tuple

import numpy as np

from qscatter import numerics
from qscatter.bases import parse_basis_spec
from qscatter.channel import EffectiveT
from qscatter.errors import (
    DegenerateReferenceError,
    DimensionMismatchError,
    FormatError,
    NormalizationError,
    TagConflictError,
    ToolkitError,
)
from qscatter.measure import NOISELESS, CountTable


def kron_vector(coeffs: np.ndarray) -> np.ndarray:
    """Coefficient matrix C as the length d^2 ket with |i>_A|j>_B at i*d+j."""
    return np.asarray(coeffs, dtype=np.complex128).ravel()


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank density matrix from the Hilbert-Schmidt (Ginibre) ensemble."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def density_table(rho: np.ndarray, alice_rows: np.ndarray,
                  bob_rows: np.ndarray) -> np.ndarray:
    """Coincidence probabilities of a joint density matrix.

    P[k, l] = <a_k b_l| rho |a_k b_l> evaluated as an explicit quadratic
    form over Kronecker-product kets (rows of the inputs, unnormalized
    rows allowed).
    """
    v = np.kron(np.asarray(alice_rows), np.asarray(bob_rows))
    q = np.conjugate(v) @ rho
    p = np.real(np.sum(q * v, axis=1))
    d_a = np.asarray(alice_rows).shape[0]
    d_b = np.asarray(bob_rows).shape[0]
    return p.reshape(d_a, d_b)


def target_ket(lambdas: np.ndarray) -> np.ndarray:
    """|psi_lambda> = sum_m lambda_m |mm> as a length d^2 vector."""
    lam = np.asarray(lambdas, dtype=np.float64)
    d = lam.size
    w = np.zeros(d * d, dtype=np.complex128)
    w[np.arange(d) * d + np.arange(d)] = lam
    return w


def phase_table(d: int, r: int) -> np.ndarray:
    """omega^(km) * (quadratic phase)^(r m^2), rows k, cols m, with one
    complex exponential per cell (i^(2km + r m^2) at d = 2)."""
    k = np.arange(d)[:, None]
    m = np.arange(d)[None, :]
    if d == 2:
        return np.exp(0.5j * np.pi * np.mod(2 * k * m + r * m * m, 4))
    return np.exp(2j * np.pi * np.mod(k * m + r * m * m, d) / d)


def write_cells_per_cell(path, header, columns, grids) -> None:
    """Cell-grid CSV written one cell at a time: the header lines, the
    columns line, then `i,j,v0,v1,...` per cell in row-major order, every
    value through %.17g."""
    rows, cols = np.asarray(grids[0]).shape
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for line in [*header, columns]:
            fh.write(line + "\n")
        for i in range(rows):
            for j in range(cols):
                values = ["%.17g" % float(g[i][j]) for g in grids]
                fh.write(",".join([str(i), str(j), *values]) + "\n")


def read_cells_by_lines(path, columns: str, width: int):
    """numerics._read_cells one line at a time: every line is stripped in
    Python and empty ones are dropped before np.loadtxt, so a
    whitespace-only line is skipped wherever it is, and each cell line is
    checked in turn against the cell the writer puts there. Returns
    (header, (rows, cols, width) array) or raises FormatError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: cannot read: {exc}") from exc
    if raw and not raw[-1].endswith("\n"):
        raise FormatError(f"{path}: last line has no newline; the file was cut short")
    lines = [ln.strip() for ln in raw if ln.strip()]
    if columns not in lines:
        raise FormatError(f"{path}: no {columns!r} line")
    k = lines.index(columns)
    header, body = lines[:k], lines[k + 1:]
    if not body:
        raise FormatError(f"{path}: no cells")
    try:
        cells = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        shape = None
        if "rows,cols" in header:
            dims = header[header.index("rows,cols") + 1]
            if not re.fullmatch(r"\s*\d+\s*,\s*\d+\s*", dims):
                raise ValueError(f"bad dimensions line {dims!r}")
            shape = tuple(int(n) for n in dims.split(","))
    except (ValueError, IndexError) as exc:
        raise FormatError(f"{path}: malformed entry ({exc})") from exc
    if cells.shape[1] != 2 + width:
        raise FormatError(f"{path}: cells have {cells.shape[1]} fields, "
                          f"expected {2 + width}")
    if not np.all(np.isfinite(cells)):
        raise FormatError(f"{path}: non-finite cell entry")
    idx = cells[:, :2]
    if shape is None:
        shape = tuple(int(n) + 1 for n in idx[-1])
    rows, cols = shape
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: bad dimensions {rows}x{cols}")
    # Line k of the cells must be cell (k // cols, k % cols); the first line
    # that is not is named.
    for k, (i, j) in enumerate(idx.tolist()):
        if i != int(i) or j != int(j):
            raise FormatError(f"{path}: non-integer cell index")
        i, j = int(i), int(j)
        if not (0 <= i < rows and 0 <= j < cols):
            raise FormatError(f"{path}: cell ({i}, {j}) outside the {rows}x{cols} grid")
        due = divmod(k, cols)
        if (i, j) < due:
            raise FormatError(f"{path}: duplicate cell ({i}, {j})")
        if (i, j) > due:
            raise FormatError(f"{path}: missing cell ({due[0]}, {due[1]})")
    if len(idx) < rows * cols:
        i, j = divmod(len(idx), cols)
        raise FormatError(f"{path}: missing cell ({i}, {j})")
    return header, cells[:, 2:].reshape(rows, cols, width)


def noiseless_table(probs: np.ndarray, label: str) -> CountTable:
    """Wrap exact probabilities as a noiseless CountTable with paired labels.

    Quadratic forms can land a hair below zero in floating point; genuine
    negatives stay fatal but that noise is clipped away.
    """
    p = np.asarray(probs, dtype=np.float64)
    assert p.min() > -1e-12
    return CountTable(counts=np.clip(p, 0.0, None),
                      basis_label_a=label, exposure=NOISELESS)


def fidelity_uniform_closed_form(standard_table: CountTable,
                                 family_tables) -> float:
    """Shortcut for uniform targets: (sum of all diagonals - 1) / d.

    The sum runs over the standard table and all d unbiased families, each
    normalized. Agrees with the library's exact estimator on a uniform
    target by a different route, which makes it an independent cross-check.
    """
    d = standard_table.counts.shape[0]
    if len(family_tables) != d:
        raise NormalizationError(f"need all {d} rotated families")
    total = 0.0
    for table in [standard_table, *family_tables]:
        total += float(np.sum(np.diagonal(table.normalized())))
    return (total - 1.0) / d


def _cross_measured(standard_probs: np.ndarray, lam: np.ndarray) -> float:
    weights = np.outer(lam, lam) * standard_probs
    return float(np.sum(weights) - np.trace(weights))


def _cross_bound(standard_probs: np.ndarray, lam: np.ndarray) -> float:
    """Positivity bound on the coherences a single family cannot cancel,
    summed group by group over the cyclic difference m - n."""
    d = lam.size
    u = np.sqrt(np.clip(np.outer(lam, lam) * standard_probs, 0.0, None))
    total = 0.0
    idx = np.arange(d)
    for delta in range(1, d):
        vals = u[(idx + delta) % d, idx]
        s = float(np.sum(vals))
        total += s * s - float(np.sum(vals * vals))
    return total


def _matched_moment_sum(table: CountTable, lam: np.ndarray,
                        standard_probs: np.ndarray) -> float:
    """Sum of the diagonal matched-outcome moments of one family table.

    A tilted table is rescaled by d^2 / (sum lambda)^2 times the
    lambda-weighted mass of the standard table (exactly 1 for a uniform
    target); an unbiased-family table is taken as it is.
    """
    diag = float(np.sum(np.diagonal(table.normalized())))
    if "tilted" not in table.basis_label_a:
        return diag
    s = float(np.sum(lam))
    return lam.size ** 2 / (s * s) * float(lam @ standard_probs @ lam) * diag


def scalar_fidelity_exact(standard_table: CountTable, family_tables,
                          lambdas: np.ndarray) -> float:
    """Exact fidelity from the standard table and all d family tables,
    one scalar table at a time, with no validation."""
    lam = np.asarray(lambdas, dtype=np.float64)
    d = lam.size
    probs = standard_table.normalized()
    q_total = sum(_matched_moment_sum(t, lam, probs) for t in family_tables)
    return float(np.sum(lam)) ** 2 / d ** 2 * q_total - _cross_measured(probs, lam)


def scalar_fidelity_lower_bound(standard_table: CountTable, family_table: CountTable,
                                lambdas: np.ndarray) -> float:
    """Single-family fidelity floor, one scalar table at a time, with no
    validation."""
    lam = np.asarray(lambdas, dtype=np.float64)
    probs = standard_table.normalized()
    q = _matched_moment_sum(family_table, lam, probs)
    return (float(np.sum(lam)) ** 2 / lam.size * q
            - _cross_measured(probs, lam) - _cross_bound(probs, lam))


# ---------------------------------------------------------------------------
# Reference tomography: the scan-to-T chain as four separate steps, each
# step's output passed on as a (values, family label) pair, the tag added by
# dataclasses.replace and the condition number from a second SVD. tomo's
# single reconstruct path must agree with it bit for bit.
# ---------------------------------------------------------------------------


_STEP_LABEL = re.compile(r"(scan-[se]):(.+):step([0-3])")


def _quarter_combination(tables: Sequence[CountTable],
                         scan: str) -> Tuple[np.ndarray, str]:
    if len(tables) != 4:
        raise NormalizationError(f"need exactly 4 phase steps, got {len(tables)}")
    shape = tables[0].counts.shape
    first = _STEP_LABEL.fullmatch(tables[0].basis_label_a)
    label = first.group(2) if first else None
    for step, table in enumerate(tables):
        if table.counts.shape != shape:
            raise DimensionMismatchError("phase-step tables differ in shape")
        match = _STEP_LABEL.fullmatch(table.basis_label_a)
        if not match or match.groups() != (scan, label, str(step)):
            raise NormalizationError(
                f"phase step {step} of {scan} is labelled {table.basis_label_a!r}")
    r = [table.counts for table in tables]
    return ((r[0] - r[2]) + 1j * (r[1] - r[3])) / 4.0, label


def extract_s(tables: Sequence[CountTable]) -> Tuple[np.ndarray, str]:
    values, label = _quarter_combination(tables, "scan-s")
    if values.shape[0] != values.shape[1]:
        raise DimensionMismatchError(
            f"signal scan must be square, got shape {values.shape}")
    return values, label


def extract_e(tables: Sequence[CountTable],
              ref_floor: float = 1e-6) -> Tuple[np.ndarray, str]:
    if not 0.0 <= ref_floor < 1.0:
        raise NormalizationError(f"ref_floor must lie in [0, 1), got {ref_floor}")
    values, label = _quarter_combination(tables, "scan-e")
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
    if ratio == 0.0:
        raise DegenerateReferenceError(
            f"reference interference vanishes at family vector {int(np.argmin(mags))}; "
            f"T cannot be divided by it")
    return diag, label


def fix_gauge(matrix: np.ndarray) -> np.ndarray:
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
    (s_values, s_label), (e_diag, e_label) = s, e
    if e_diag.shape != s_values.shape[1:]:
        raise DimensionMismatchError("S and E dimensions differ")
    if s_label != e_label:
        raise NormalizationError(f"S scanned in {s_label!r} but E in {e_label!r}")
    ratio = s_values / np.conjugate(e_diag)[np.newaxis, :]
    t_hat = fix_gauge(numerics.dag(ratio))
    return EffectiveT(matrix=t_hat)


def condition_number(m: np.ndarray) -> float:
    sv = np.linalg.svd(numerics.as_matrix(m), compute_uv=False)
    if sv[-1] == 0:
        return float("inf")
    return float(sv[0] / sv[-1])


@dataclass(frozen=True)
class ReferenceReconstruction:
    t: EffectiveT
    e_ratio: float
    condition_number: float


def reconstruct_in_steps(s_tables: Sequence[CountTable],
                         e_tables: Sequence[CountTable],
                         ref_floor: float = 1e-6) -> ReferenceReconstruction:
    s = extract_s(s_tables)
    e = extract_e(e_tables, ref_floor=ref_floor)
    t = assemble_t(s, e)
    d = t.dim
    try:
        family = parse_basis_spec(s[1], d)
    except ToolkitError:
        raise TagConflictError(
            f"scan tables were recorded in {s[1]!r}, which names no "
            f"unitary family of dimension {d}") from None
    t = replace(t, basis_tag=family)
    mags = np.abs(e[0])
    return ReferenceReconstruction(
        t=t,
        e_ratio=float(np.min(mags) / np.max(mags)),
        condition_number=condition_number(t.matrix),
    )
