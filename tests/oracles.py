"""Shared test helpers: independent oracles the library must agree with.

Everything here is deliberately written from first principles (explicit
Kronecker products, quadratic forms, brute-force postselection) so the
tests do not reuse the code paths they are checking.
"""

import numpy as np

from qscatter.errors import NormalizationError
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


def noiseless_table(probs: np.ndarray, label: str) -> CountTable:
    """Wrap exact probabilities as a noiseless CountTable with paired labels.

    Quadratic forms can land a hair below zero in floating point; genuine
    negatives stay fatal but that noise is clipped away.
    """
    p = np.asarray(probs, dtype=np.float64)
    assert p.min() > -1e-12
    return CountTable(counts=np.clip(p, 0.0, None),
                      basis_label_a=label, basis_label_b=label + "*",
                      exposure=NOISELESS)


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
