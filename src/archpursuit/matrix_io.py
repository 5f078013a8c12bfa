"""Dense matrix I/O and synthetic separable-instance generators.

Conventions used throughout the package:

* matrices are 2-D float64 ``numpy`` arrays, rows are data points;
* indices in every API are 0-based (the Hilbert entry formula below is the
  one place stated 1-based, and is translated explicitly);
* CSV is the interchange format; a little-endian float64 binary format with
  an ``APMX`` magic header is provided for large matrices.
"""

from __future__ import annotations

import itertools
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from . import _rng

BINARY_MAGIC = b"APMX"


def require_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and canonicalize a dense matrix: 2-D, float64, all entries finite."""
    m = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    # max and min propagate NaN and allocate no n x p mask, unlike isfinite.
    if m.size and not (np.isfinite(m.max()) and np.isfinite(m.min())):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _checked_indices(indices, n: int) -> list[int]:
    """indices as ints, each a distinct row index of an n-row matrix."""
    out = [int(j) for j in indices]
    seen = set()
    for j in out:
        if not 0 <= j < n:
            raise ValueError(f"row index {j} is out of range for {n} rows")
        if j in seen:
            raise ValueError(f"row index {j} is repeated")
        seen.add(j)
    return out


def load_csv(path, skip_header: bool = False) -> np.ndarray:
    """Load a rectangular numeric CSV (no header by default) as an n x p matrix.

    The grammar: ASCII, comma-delimited, LF, CRLF or CR line endings, lines
    that are empty or all whitespace skipped, and with skip_header the first
    line dropped unread.  A cell is a decimal float as Python's float() reads
    it, surrounding whitespace allowed, but without digit-grouping underscores.
    Every value must be finite.  A file with no data rows is a 0 x 0 matrix.

    One C-level parse (np.loadtxt) fills the float64 array.  Only when it fails
    is the file read again, to raise a ValueError naming the offending 1-based
    row for ragged input, or the (row, column) pair for a non-numeric cell.
    """
    with open(path, "r", encoding="ascii") as fh:
        if skip_header:
            next(fh, None)
        try:
            with warnings.catch_warnings():
                # A file with no data rows is a 0 x 0 matrix, not a warning.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                X = np.loadtxt(
                    (line for line in fh if not line.isspace()),
                    delimiter=",",
                    comments=None,
                    ndmin=2,
                )
        except ValueError as exc:
            fault = _first_fault(path, skip_header)
            raise (ValueError(fault) if fault else exc) from None
    if X.size == 0:
        return np.empty((0, 0))
    return require_matrix(X, name=str(path))


def _first_fault(path, skip_header: bool) -> str | None:
    """The message for the first ragged row or non-numeric cell, in file order."""
    n_cols = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            if skip_header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            row_number = lineno - (1 if skip_header else 0)
            if n_cols is None:
                n_cols = len(cells)
            elif len(cells) != n_cols:
                return f"ragged CSV: row {row_number} has {len(cells)} fields, expected {n_cols}"
            for col, cell in enumerate(cells, start=1):
                if not _is_number(cell):
                    return f"non-numeric cell at ({row_number},{col}): {cell!r}"
    return None


def _is_number(cell: str) -> bool:
    # np.loadtxt rejects the digit-grouping underscores that float() allows.
    if "_" in cell:
        return False
    try:
        float(cell)
        return True
    except ValueError:
        return False


def format_value(v: float) -> str:
    """Shortest decimal string that round-trips the float64 exactly.

    Integral values drop the trailing ".0" so e.g. 42.0 prints as "42".
    """
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def save_csv(m, path) -> None:
    """Write a matrix as CSV, each value spelled as format_value spells it."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    with open(path, "w", encoding="ascii") as fh:
        for row in m:
            # repr never writes ".0" but at the end of an integral value, so
            # the replaces drop exactly the suffixes format_value drops.
            line = ",".join(map(repr, row.tolist())) + "\n"
            fh.write(line.replace(".0,", ",").replace(".0\n", "\n"))


def save_binary(m, path) -> None:
    """Write the binary format: b"APMX", u64 n_rows, u64 n_cols, float64 LE data."""
    m = require_matrix(m)
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        fh.write(m.astype("<f8").tobytes(order="C"))


def load_binary(path) -> np.ndarray:
    """Read the format ``save_binary`` writes.

    A bad magic, a header shorter than its 16 bytes, a payload that is not a
    whole number of float64 values, or one shorter ("truncated") or longer
    ("trailing bytes") than the header's shape raises ValueError.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != BINARY_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {BINARY_MAGIC!r}")
        header = fh.read(16)
        if len(header) < 16:
            raise ValueError(f"short binary header: expected 16 bytes, got {len(header)}")
        n_rows, n_cols = struct.unpack("<QQ", header)
        payload = fh.read()
    expected = 8 * n_rows * n_cols
    if len(payload) % 8:
        raise ValueError(
            f"binary payload of {len(payload)} bytes is not a whole number of "
            f"8-byte values (expected {expected} bytes)"
        )
    if len(payload) < expected:
        raise ValueError(
            f"truncated binary matrix: expected {expected} bytes of values, got {len(payload)}"
        )
    if len(payload) > expected:
        raise ValueError(
            f"binary matrix has {len(payload) - expected} trailing bytes after "
            f"the {expected} bytes of values"
        )
    data = np.frombuffer(payload, dtype="<f8")
    if n_rows * n_cols == 0:
        return np.empty((n_rows, n_cols))
    return require_matrix(data.reshape(n_rows, n_cols))


@dataclass(frozen=True)
class SeparableInstance:
    """An exactly separable factorization X = W @ H with known extreme rows.

    Rows ``true_extreme_indices`` of X equal the rows of H (W holds the
    identity block there); every other row is a convex combination of them.
    """

    X: np.ndarray
    W: np.ndarray
    H: np.ndarray
    true_extreme_indices: tuple[int, ...]


def _random_weights(n: int, k: int, rng) -> np.ndarray:
    # Identity block on top; remaining rows uniform on [0,1], normalized to
    # sum to one (convex combinations).
    W = np.zeros((n, k))
    W[:k] = np.eye(k)
    if n > k:
        rest = rng.random((n - k, k))
        W[k:] = rest / rest.sum(axis=1, keepdims=True)
    return W


def _separable_from_H(n: int, k: int, H: np.ndarray, rng) -> SeparableInstance:
    W = _random_weights(n, k, rng)
    X = W @ H
    return SeparableInstance(X=X, W=W, H=H, true_extreme_indices=tuple(range(k)))


def _check_dims(n: int, p: int, k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n or k > p:
        raise ValueError(f"need k <= n and k <= p, got k={k}, n={n}, p={p}")


def gen_uniform_separable(n: int, p: int, k: int, seed: int) -> SeparableInstance:
    """Separable instance with H entries i.i.d. uniform on [0, 1].

    Well conditioned: the k archetype rows form a polytope whose normal cones
    are all reasonably large, so pursuit needs few functionals.
    """
    _check_dims(n, p, k)
    rng = _rng.generator(seed, _rng.DOMAIN_INSTANCE)
    H = rng.random((k, p))
    return _separable_from_H(n, k, H, rng)


def hilbert_rows(k: int, p: int) -> np.ndarray:
    """First k rows of the p x p Hilbert matrix, entry (i, j) = 1/(i + j + 1) 0-based."""
    i = np.arange(k)[:, None]
    j = np.arange(p)[None, :]
    return 1.0 / (i + j + 1.0)


def gen_hilbert_separable(n: int, p: int, k: int, seed: int) -> SeparableInstance:
    """Separable instance with H = leading rows of the Hilbert matrix.

    Notoriously ill conditioned: the archetypes are nearly linearly dependent,
    the polytope is almost flat and some normal cones are tiny.
    """
    _check_dims(n, p, k)
    rng = _rng.generator(seed, _rng.DOMAIN_INSTANCE)
    return _separable_from_H(n, k, hilbert_rows(k, p), rng)


def pairwise_half_weights(k: int) -> np.ndarray:
    """The (k + C(k,2)) x k weight matrix [I; W2^T].

    Rows k.. place 1/2 in exactly two distinct coordinates, one row per
    unordered pair in lexicographic order.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    pairs = list(itertools.combinations(range(k), 2))
    W2 = np.zeros((len(pairs), k))
    for r, (a, b) in enumerate(pairs):
        W2[r, a] = 0.5
        W2[r, b] = 0.5
    return np.vstack([np.eye(k), W2])


def gen_noisy_pairs(p: int, k: int, epsilon: float, seed: int) -> np.ndarray:
    """Noisy test matrix W @ H + N with pairwise-midpoint interior rows.

    W is :func:`pairwise_half_weights`, H is k x p i.i.d. uniform on [0,1]
    and N has i.i.d. epsilon * N(0,1) entries.  With epsilon = 0 the result is
    exactly separable with extreme rows 0..k-1.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    rng = _rng.generator(seed, _rng.DOMAIN_INSTANCE)
    W = pairwise_half_weights(k)
    H = rng.random((k, p))
    X = W @ H
    if epsilon > 0:
        X = X + epsilon * rng.standard_normal(X.shape)
    return X
