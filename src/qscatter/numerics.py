"""Dense complex linear algebra kernel.

Everything else in the package builds on the helpers here: tolerance policy,
Haar-random isometries, gauge-insensitive matrix distance, the cell-grid CSV
codec behind both the complex-matrix and the count-table files, the reader
of JSON sidecars and the writer of every JSON file. All matrices are dense
complex128 numpy arrays, row-major, sized for dimensions up to a few hundred.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
from typing import Iterator, List, Mapping, NamedTuple, Sequence, Tuple, Union

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
    """Relative Frobenius distance between a and the best complex rescaling
    of b.

    ||a - c b||_F / ||a||_F with the closed form c = <b, a> / <b, b>: the
    sine of the angle between a and b, so neither argument's scale or
    global phase moves it. Zero exactly when a and b agree up to one global
    complex factor, which is the gauge freedom of every reconstructed
    transmission matrix here. The residual is formed explicitly: the
    equivalent sqrt(1 - |<a, b>|^2 / (<a, a> <b, b>)) cancels near 0.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    aa = np.linalg.norm(a)
    bb = np.vdot(b, b)
    if aa == 0 or bb == 0:
        raise ConditioningError("cannot compare against a zero matrix")
    c = np.vdot(b, a) / bb
    return float(np.linalg.norm(a - c * b) / aa)


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
# The writer prints those values through one renderer, _render_g17: numpy
# code giving the text format(x, '.17g') gives, a block of values at a time.
# It scales |x| once into 17 integer digits with exact double-double
# arithmetic (Dekker's TwoProduct against a double-double table of powers of
# ten) and keeps them only where one rule proves them (see _decimal17); every
# other value, a few seams such as powers of ten and subnormals among them,
# is printed by format() itself. Grids of fewer than _RENDER_MIN values are
# printed by %.17g (format()) alone.
# The reader also takes CRLF line endings, empty lines anywhere and spaces
# around fields, but not a cell line holding only whitespace. It hands the
# cell lines to numpy's parser untouched and reads the cells only in the
# order written: one vectorised comparison checks that cell line k is cell
# (k // cols, k % cols), and a file listing its cells in any other order
# is refused, naming the first line out of place.
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# Values rendered per block: writing a block peaks near 1.1 MB (about 270
# bytes a value, traced).
_CHUNK = 4096
# Below this many values a grid is printed by %.17g alone: the renderer's
# fixed cost is about 90 numpy calls a block. Writing a file of 49 values
# (a d=7 table) took 0.17-0.21 ms that way and 0.41-0.82 ms through the
# renderer, and the two crossed between 250 and 530 values (2-vCPU VM,
# best of 7 x 100 writes, three runs).
_RENDER_MIN = 512
_SPLIT = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
_POW_MIN, _POW_MAX = -300, 300  # the exponents k of the 10**k table
_EXP_MIN = _POW_MIN - 30  # the exponent table spells out -330..330
_WORD = np.dtype("<u8")  # rendered text is handled as little-endian 8-byte words


class _G17Tables(NamedTuple):
    hi: np.ndarray  # [k - _POW_MIN]: 10**k rounded to the nearest double
    hi_hi: np.ndarray  # hi split into two 26-bit halves for TwoProduct
    hi_lo: np.ndarray
    lo: np.ndarray  # 10**k - hi, rounded; 0 where 10**k is a double (0 <= k <= 22)
    digits: np.ndarray  # [g]: g's four digits as a word, each followed by a zero byte
    zeros: np.ndarray  # [g]: trailing zeros of g's four digits (4 for g = 0)
    head: np.ndarray  # [50 sign + 10 z + digit]: "-" if sign, "0." and z - 1 zeros if z, digit
    exponent: np.ndarray  # [0]: empty; [x - _EXP_MIN + 1]: "e+xx", "e-xxx"
    lanes: np.ndarray  # [n + 12]: mask of a digit word's first n digits (n clipped to 0..4)
    point_word: np.ndarray  # [k]: the word holding digit k (k <= 15), and a point
    point_bits: np.ndarray  # in the zero byte after that digit (byte 7 for digit 0)


def _words(texts: Sequence[bytes]) -> np.ndarray:
    """Each text, at most 8 bytes, zero-padded into one word."""
    return np.frombuffer(b"".join(text.ljust(8, b"\0") for text in texts), _WORD)


@functools.lru_cache(maxsize=None)
def _g17_tables() -> _G17Tables:
    """The renderer's lookup tables, built on first use."""
    hi, lo = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        if k >= 0:
            hi.append(float(10 ** k))
            lo.append(float(10 ** k - int(hi[-1])))
        else:
            # int / int rounds correctly; hi is p / q exactly, q a power of 2
            hi.append(1 / 10 ** -k)
            p, q = hi[-1].as_integer_ratio()
            lo.append((q - p * 10 ** -k) / (q * 10 ** -k))
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    g = np.arange(10000, dtype=np.int16)[:, np.newaxis]  # int16 keeps temporaries small
    tens = np.array([1000, 100, 10, 1], np.int16)
    digits = np.zeros((10000, 8), np.uint8)
    digits[:, ::2] = 48 + g // tens % 10
    tables = _G17Tables(
        hi=hi, hi_hi=hi_hi, hi_lo=hi - hi_hi, lo=np.array(lo),
        digits=digits.view(_WORD).ravel(),
        zeros=np.count_nonzero(g % (10 * tens) == 0, axis=1),
        head=_words([sign + lead + bytes([48 + digit]) for sign in (b"", b"-")
                     for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000")
                     for digit in range(10)]),
        exponent=_words([b""] + [b"e%+03d" % x for x in range(_EXP_MIN, -_EXP_MIN + 1)]),
        lanes=np.array([(1 << 16 * min(max(n, 0), 4)) - 1 for n in range(-12, 17)], _WORD),
        point_word=np.array([0] + [(k + 3) // 4 for k in range(1, 16)]),
        point_bits=np.array([46 << 56] + [46 << 8 * (2 * ((k - 1) % 4) + 1)
                                          for k in range(1, 16)], _WORD))
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _scaled(t: _G17Tables, a: np.ndarray, x: np.ndarray):
    """V = a * 10**(16 - x) as ph + pl, exact up to about 1e-14: ph is
    a * hi rounded, and Dekker's TwoProduct gives its error exactly, to which
    a * lo is added. Returns floor(V), and pl and the point halfway to the
    next integer, both less ph."""
    k = 16 - _POW_MIN - x
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    ph = a * t.hi.take(k)
    h_hi, h_lo = t.hi_hi.take(k), t.hi_lo.take(k)
    pl = ((a_hi * h_hi - ph) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo + a * t.lo.take(k)
    fl = np.floor(pl)
    return ph.astype(np.int64) + fl.astype(np.int64), pl, fl + 0.5


def _decimal17(t: _G17Tables, v: np.ndarray):
    """(D, x, unproven) with |v| = D * 10**(x - 16) rounded to nearest,
    10**16 <= D < 10**17, and D = x = 0 for a zero.

    x is floor(log10 |v|), and D is proved only when floor(V) of
    V = |v| * 10**(16 - x) lies in [1e16, 1e17), the rounded D stays below
    1e17 and V lies at least 2**-30 from a tie. Every other value (also
    subnormals, magnitudes outside [1e-280, 1e280) and non-finite values)
    is unproven, with D = 0.
    """
    a = np.abs(v)
    unproven = ~((a >= 1e-280) & (a < 1e280))
    a[unproven] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    n, pl, half = _scaled(t, a, x)
    d = n + (pl > half)
    unproven |= (np.abs(pl - half) < 2.0 ** -30) | (n < 10 ** 16) | (d >= 10 ** 17)
    zero = v == 0
    d[zero | unproven] = 0
    x[zero] = 0
    return d, x, unproven & ~zero


def _render_g17(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each float64 of `values` as format(x, '.17g') prints it.

    Returns a (6, n) array of little-endian words, one column per value:
    the column's bytes, zero bytes dropped, are the value's text, and its
    last byte is zero. Also returns the indices of the values printed by
    format() itself (see the cell-grid comment above). Fixed notation
    holds decimal exponents -4 <= x < 17 and exponent notation the rest;
    trailing zeros of the fraction, and a bare point, are left out, as %g
    does.
    """
    t = _g17_tables()
    v = np.asarray(values, dtype=np.float64).ravel()
    d, x, unproven = _decimal17(t, v)
    # D = lead | g0 g1 g2 g3, four groups of four digits
    lead = d // 10 ** 16
    top = d - lead * 10 ** 16
    bottom = top % 10 ** 8
    top //= 10 ** 8
    g = [top // 10 ** 4, top % 10 ** 4, bottom // 10 ** 4, bottom % 10 ** 4]
    trailing = 12 + t.zeros.take(g[0])  # 16 for D = 0
    for w in (1, 2, 3):
        trailing = np.where(g[w] != 0, 12 - 4 * w + t.zeros.take(g[w]), trailing)
    fixed = (x >= -4) & (x < 17)
    shown = np.where(fixed, np.maximum(17 - trailing, x + 1), 17 - trailing)
    out = np.empty((6, v.size), _WORD)
    t.head.take(50 * np.signbit(v) + 10 * np.where(fixed & (x < 0), -x, 0) + lead,
            out=out[0])
    for w in range(4):
        t.digits.take(g[w], out=out[1 + w])
        out[1 + w] &= t.lanes.take(shown - 4 * w + 11)
    t.exponent.take(np.where(fixed, 0, x - _EXP_MIN + 1), out=out[5])
    point = np.where(fixed, x, 0)  # the point follows this digit ...
    rows = np.flatnonzero((point >= 0) & (shown > point + 1))  # ... if any follow it
    point = point[rows]
    out.reshape(-1)[t.point_word.take(point) * v.size + rows] |= t.point_bits.take(point)
    fallback = np.flatnonzero(unproven)
    text = b"".join(_fmt(y).encode("ascii").ljust(48, b"\0") for y in v[fallback])
    out[:, fallback] = np.frombuffer(text, _WORD).reshape(-1, 6).T
    return out, fallback


def _cell_lines(values: np.ndarray, cols: int) -> Iterator[bytes]:
    """The `i,j,v0,v1,...` lines of a (cells, width) value array, its cells
    row-major in rows of `cols`, in blocks of about _CHUNK values."""
    cells, width = values.shape
    if values.size < _RENDER_MIN:
        cell = ",".join(["%.17g"] * width)
        template = "".join([f"@,{j},{cell}\n" for j in range(cols)])
        yield "".join([template.replace("@", str(i)) % tuple(row) for i, row in
                       enumerate(values.reshape(-1, cols * width).tolist())]).encode("ascii")
        return
    # A line is "i," and "j," as zero-padded words, then each value's six
    # words with its separator in the last byte.
    index_words = []
    for n in (cells // cols, cols):
        text = np.array([b"%d," % k for k in range(n)])
        size = -(-text.itemsize // 8)
        index_words.append(text.astype(f"S{8 * size}").view(_WORD).reshape(n, size))
    row_words, col_words = index_words
    start = row_words.shape[1] + col_words.shape[1]
    per = max(1, _CHUNK // width)  # cells per block
    for first in range(0, cells, per):
        k = np.arange(first, min(cells, first + per))
        text = _render_g17(values[first:first + k.size])[0]
        i = k // cols
        block = np.empty((k.size, start + 6 * width), _WORD)
        block[:, :row_words.shape[1]] = row_words[i]
        block[:, row_words.shape[1]:start] = col_words[k - i * cols]
        for w in range(width):
            block[:, start + 6 * w:start + 6 * w + 6] = text[:, w::width].T
            block[:, start + 6 * w + 5] |= (10 if w == width - 1 else 44) << 56
        del text  # free before the two copies below
        yield block.tobytes().translate(None, b"\0")


def _write_cells(path: Union[str, os.PathLike], header: Sequence[str],
                 columns: str, grids: Sequence[np.ndarray]) -> str:
    """Write header lines, the columns line, then one line per grid cell,
    and return the SHA-256 hex digest of the bytes written.

    Cell (i, j) carries grids[0][i, j], grids[1][i, j], ... in order, each
    as format(x, '.17g') prints it. The lines are rendered and written in
    blocks of about _CHUNK values, so beyond the stacked values memory stays
    near 1 MB whatever the grid size.
    """
    rows, cols = grids[0].shape
    values = np.stack(grids, axis=-1).astype(np.float64, copy=False).reshape(
        rows * cols, len(grids))
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for block in itertools.chain(
                ["".join(line + "\n" for line in [*header, columns]).encode("ascii")],
                _cell_lines(values, cols)):
            fh.write(block)
            digest.update(block)
    return digest.hexdigest()


def _read_cells(path: Union[str, os.PathLike], columns: str, width: int,
                digest=None) -> Tuple[List[str], np.ndarray]:
    """Read a file written by _write_cells with `width` values per cell.

    Returns the header lines above `columns`, stripped and without empty
    ones, and a (rows, cols, width) float array. The shape is the one the
    header declares (two integers >= 0 on the line after `rows,cols`), else
    the one the last cell line gives.
    The cells must be listed with finite values in the writer's row-major
    order, cell line k being cell (k // cols, k % cols), every cell of the
    grid once, and the file must end with a newline as written, so one cut
    inside its last number is seen too; anything else raises FormatError.
    The first cell line out of place is named: its index is not an integer,
    its cell lies outside the grid, it repeats a cell (it comes before the
    cell due there) or it skips one (the cell due there is missing). Line
    endings may be LF or CRLF, and empty lines and spaces around fields are
    skipped, but a cell line holding only whitespace is malformed. A
    hashlib object given as `digest` is fed the file's bytes as read.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        # universal newlines, as text mode reads them
        text = data.decode("ascii").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: cannot read: {exc}") from exc
    if digest is not None:
        digest.update(data)
    if text and not text.endswith("\n"):
        raise FormatError(f"{path}: last line has no newline; the file was cut short")
    lines = text.split("\n")
    header = []
    for k, line in enumerate(lines):
        line = line.strip()
        if line == columns:
            break
        if line:
            header.append(line)
    else:
        raise FormatError(f"{path}: no {columns!r} line")
    body = lines[k + 1:]
    if not any(body):
        raise FormatError(f"{path}: no cells")
    try:
        cells = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        shape = None
        if "rows,cols" in header:
            dims = header[header.index("rows,cols") + 1].split(",")
            if len(dims) != 2 or not all(n.strip().isdigit() for n in dims):
                raise ValueError(f"sizes {','.join(dims)!r} are not two integers >= 0")
            shape = (int(dims[0]), int(dims[1]))
    except (ValueError, IndexError) as exc:
        raise FormatError(f"{path}: malformed entry ({exc})") from exc
    if cells.shape[1] != 2 + width:
        raise FormatError(f"{path}: cells have {cells.shape[1]} fields, "
                          f"expected {2 + width}")
    if not np.all(np.isfinite(cells)):
        raise FormatError(f"{path}: non-finite cell entry")
    idx = cells[:, :2]
    rows, cols = shape if shape is not None else (int(n) + 1 for n in idx[-1])
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: bad dimensions {rows}x{cols}")
    # Cell line k must be cell (k // cols, k % cols), whatever grid the header
    # claims: k < len(idx), so min(cols, len(idx)) splits k as cols does.
    k = np.arange(len(idx))
    off = np.flatnonzero(np.any(idx != np.column_stack(np.divmod(k, min(cols, k.size))),
                                axis=1))
    first = min(int(off[0]) if off.size else k.size, rows * cols)  # the line judged
    if first == k.size == rows * cols:
        return header, np.ascontiguousarray(cells[:, 2:]).reshape(rows, cols, width)
    want = divmod(first, cols)
    if first < k.size:
        i, j = idx[first].tolist()  # Python floats: they may pass the int64 range
        if not (i.is_integer() and j.is_integer()):
            raise FormatError(f"{path}: non-integer cell index")
        if not (0 <= i < rows and 0 <= j < cols):
            raise FormatError(f"{path}: cell ({int(i)}, {int(j)}) outside the "
                              f"{rows}x{cols} grid")
        if (i, j) < want:
            raise FormatError(f"{path}: duplicate cell ({int(i)}, {int(j)})")
    raise FormatError(f"{path}: missing cell {want}")


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


def _jsonable(obj):
    """numpy values to plain Python, infinities to "inf"."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def _write_json(path: Union[str, os.PathLike], obj) -> None:
    """Write obj as canonical JSON: sorted keys, fixed indentation, every
    float at full precision, infinities as "inf"."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(_jsonable(obj), sort_keys=True, indent=2,
                            allow_nan=False) + "\n")
