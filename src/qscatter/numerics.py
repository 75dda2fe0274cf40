"""Dense complex linear algebra kernel.

Everything else in the package builds on the helpers here: tolerance policy,
Haar-random isometries, gauge-insensitive matrix distance, the cell-grid CSV
codec behind both the complex-matrix and the count-table files, and the
reader of their JSON sidecars. All matrices are dense complex128 numpy
arrays, row-major, sized for dimensions up to a few hundred.
"""

from __future__ import annotations

import json
import os
from typing import List, Mapping, Sequence, Tuple, Union

import numpy as np

from .errors import (
    ConditioningError,
    DimensionMismatchError,
    FormatError,
    InvalidDimensionError,
    NormalizationError,
)

ComplexMatrix = np.ndarray

# Numeric tolerance policy, shared by every module.
UNITARITY_TOL = 1e-10  # bound on ||U^dag U - I||_max for matrices claimed unitary
PINV_RCOND = 1e-12  # relative singular-value cutoff for pseudo-inversion
PROB_TOL = 1e-9  # slack allowed on probability normalizations


def substream(root_seed: int, *stream: int) -> np.random.Generator:
    """Named sub-stream of a root seed, stable across runs and call order."""
    return np.random.default_rng([int(root_seed), *[int(s) for s in stream]])


def _poisson(rng: np.random.Generator, means, size=None) -> np.ndarray:
    """rng.poisson(means, size), with a mean numpy cannot sample (past
    about 9.2e18, or not finite) raised as NormalizationError."""
    try:
        return rng.poisson(means, size)
    except ValueError as exc:
        raise NormalizationError(f"cannot draw Poisson counts with mean "
                                 f"{float(np.max(means)):.3g}: {exc}") from exc


def as_matrix(values) -> ComplexMatrix:
    """Coerce to a 2-D complex128 array, rejecting NaN and infinities."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2:
        raise InvalidDimensionError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InvalidDimensionError("matrix contains NaN or infinite entries")
    return m


def frozen(array: np.ndarray) -> np.ndarray:
    """Copy an array and mark it read-only (our records are immutable)."""
    out = np.array(array)
    out.setflags(write=False)
    return out


def dag(m: ComplexMatrix) -> ComplexMatrix:
    """Conjugate transpose."""
    return np.conjugate(np.transpose(m))


def is_isometry(m: ComplexMatrix) -> bool:
    """True when the columns of m are orthonormal within UNITARITY_TOL."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        return False
    gram = dag(m) @ m
    return float(np.max(np.abs(gram - np.eye(m.shape[1])))) <= UNITARITY_TOL


def is_unitary(m: ComplexMatrix) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and is_isometry(m)


def haar_isometry(n: int, k: int, seed) -> ComplexMatrix:
    """Draw the first k columns of an n x n Haar unitary.

    Thin QR of an n x k complex Ginibre draw, with the R diagonal phases
    folded into Q so the factorization is unique. The result is exactly
    the column marginal of the Haar measure (Mezzadri 2007); for k == n it
    is a Haar unitary. seed is anything np.random.default_rng accepts; a
    Generator is drawn from as is.
    """
    if any(int(size) != size for size in (n, k)) or not 1 <= k <= n:
        raise InvalidDimensionError(f"cannot draw {k} orthonormal columns of "
                                    f"length {n}: need integers 1 <= k <= n")
    n, k = int(n), int(k)
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))[np.newaxis, :]


def haar_unitary(n: int, seed) -> ComplexMatrix:
    """Draw an n x n unitary from the Haar measure."""
    return haar_isometry(n, n, seed)


def dist_up_to_scalar(a: ComplexMatrix, b: ComplexMatrix) -> float:
    """Frobenius distance between a and the best complex rescaling of b.

    min_c ||a - c b||_F / ||b||_F with the closed form c = <b, a> / <b, b>.
    Zero exactly when a and b agree up to one global complex factor, which is
    the gauge freedom of every reconstructed transmission matrix here.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    bb = np.vdot(b, b)
    if bb == 0:
        raise ConditioningError("reference matrix is zero")
    c = np.vdot(b, a) / bb
    return float(np.linalg.norm(a - c * b) / np.sqrt(np.real(bb)))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


# ---------------------------------------------------------------------------
# Cell-grid CSV, the layout shared by matrices and count tables:
#   <header lines>           (format-specific; an optional `rows,cols` line
#                             followed by the two sizes declares the shape)
#   <columns line>           (i,j,re,im for matrices, a,b,count for tables)
#   <i>,<j>,<v>[,<v>...]     (one line per cell, row-major, each value as
#                             %.17g prints it: 17 significant digits, so the
#                             reader gets every float back bit for bit)
# A grid whose every value is an integer of magnitude below 2**53 and none
# of them -0.0 (every scan and every raw count table) is printed with %d,
# which gives the same text as %.17g for those values, only faster.
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_cells(path: Union[str, os.PathLike], header: Sequence[str],
                 columns: str, grids: Sequence[np.ndarray]) -> None:
    """Write header lines, the columns line, then one line per grid cell.

    Cell (i, j) carries grids[0][i, j], grids[1][i, j], ... in order, each
    as %.17g prints it. When every value of every grid is an integer below
    2**53 in magnitude and none is -0.0, the values are printed with %d
    instead: the same text for such values, and cheaper to format. One
    row template is built per call and lines are formatted and written one
    grid row at a time, so memory stays at one row of text whatever the
    grid size.
    """
    rows, cols = grids[0].shape
    values = np.stack(grids, axis=-1).reshape(rows, cols * len(grids))
    integral = bool(np.all((values == np.round(values)) & (np.abs(values) < 2.0 ** 53))
                    and not np.any((values == 0) & np.signbit(values)))
    if integral:
        values = values.astype(np.int64)
    cell = ",".join(["%d" if integral else "%.17g"] * len(grids))
    template = "".join([f"@,{j},{cell}\n" for j in range(cols)])
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in [*header, columns]))
        for i in range(rows):
            fh.write(template.replace("@", str(i)) % tuple(values[i].tolist()))


def _read_cells(path: Union[str, os.PathLike], columns: str,
                width: int) -> Tuple[List[str], np.ndarray]:
    """Read a file written by _write_cells with `width` values per cell.

    Returns the header lines above `columns` and a (rows, cols, width)
    float array. The shape is the one the header declares, else the one
    spanned by the largest indices seen. Every cell of that grid must
    appear exactly once with finite values, and the file must end with a
    newline as written, so one cut inside its last number is seen too;
    anything else raises FormatError.
    """
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
            dims = header[header.index("rows,cols") + 1].split(",")
            shape = (int(dims[0]), int(dims[1]))
    except (ValueError, IndexError) as exc:
        raise FormatError(f"{path}: malformed entry ({exc})") from exc
    if cells.shape[1] != 2 + width:
        raise FormatError(f"{path}: cells have {cells.shape[1]} fields, "
                          f"expected {2 + width}")
    if not np.all(np.isfinite(cells)):
        raise FormatError(f"{path}: non-finite cell entry")
    idx = cells[:, :2]
    if np.any(idx != np.round(idx)):
        raise FormatError(f"{path}: non-integer cell index")
    if shape is None:
        shape = tuple(int(n) + 1 for n in idx.max(axis=0))
    rows, cols = shape
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: bad dimensions {rows}x{cols}")
    outside = (idx < 0).any(axis=1) | (idx[:, 0] >= rows) | (idx[:, 1] >= cols)
    if outside.any():
        i, j = idx[np.argmax(outside)].astype(np.int64)
        raise FormatError(f"{path}: cell ({i}, {j}) outside the {rows}x{cols} grid")
    # Sorted row-major, the k-th cell must be cell k: a check in the number
    # of cells listed, not in the grid size the header or the indices claim.
    order = np.lexsort((idx[:, 1], idx[:, 0]))
    ij = idx[order].astype(np.int64)
    dup = np.flatnonzero(np.all(ij[1:] == ij[:-1], axis=1))
    if dup.size:
        raise FormatError(f"{path}: duplicate cell ({ij[dup[0], 0]}, {ij[dup[0], 1]})")
    k = np.arange(len(ij))  # k < len(ij), so min(cols, len(ij)) splits k as cols does
    gap = np.flatnonzero(np.any(ij != np.column_stack(np.divmod(k, min(cols, k.size))),
                                axis=1))
    if gap.size or k.size < rows * cols:
        i, j = divmod(int(gap[0]) if gap.size else k.size, cols)
        raise FormatError(f"{path}: missing cell ({i}, {j})")
    return header, cells[order, 2:].reshape(rows, cols, width)


def save_matrix_csv(path: Union[str, os.PathLike], m: ComplexMatrix) -> None:
    """Write a complex matrix: `rows,cols` header, then `i,j,re,im` cells."""
    m = as_matrix(m)
    rows, cols = m.shape
    _write_cells(path, ["rows,cols", f"{rows},{cols}"], "i,j,re,im",
                 [m.real, m.imag])


def load_matrix_csv(path: Union[str, os.PathLike]) -> ComplexMatrix:
    header, grid = _read_cells(path, "i,j,re,im", 2)
    if len(header) != 2 or header[0] != "rows,cols":
        raise FormatError(f"{path}: not a complex-matrix CSV")
    return grid.view(np.complex128)[:, :, 0]


def _read_json(path: Union[str, os.PathLike],
               keys: Union[Sequence[str], Mapping[str, object]] = ()) -> dict:
    """Read a JSON sidecar, an object holding at least `keys`, or raise FormatError.

    keys may map each name to a type or tuple of types its value must have
    (JSON true and false do not count as numbers).
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise FormatError(f"{path}: cannot read JSON: {exc}") from exc
    if not isinstance(data, dict) or not all(key in data for key in keys):
        raise FormatError(f"{path}: not a JSON object with the keys {list(keys)}")
    for key, kind in (keys.items() if isinstance(keys, Mapping) else ()):
        if isinstance(data[key], bool) or not isinstance(data[key], kind):
            raise FormatError(f"{path}: {key!r} has the wrong type: {data[key]!r}")
    return data
