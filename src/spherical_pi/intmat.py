"""Exact integer matrices with a certified Smith normal form.

Entries are plain Python ints, so intermediate values can grow without
bound and nothing overflows silently.  ``snf(m)`` returns the unimodular
transformations ``U`` and ``V`` alongside the form, which lets callers
(and the test suite) re-check every factorization by direct
multiplication; the keywords ``with_u`` and ``with_v`` skip one or both.
The pipeline asks only for what it reads: the quotients, pi0, pi1 and
every rank check take neither certificate, and the coroot-span check and
``dual_saturation`` take ``V`` only.  Both certificates are read only by
the independent verification route, :mod:`spherical_pi.verify`.

Matrices the package builds itself (normal forms and their
certificates, products, transposes, stacks, root and coroot matrices,
and the parsed embedding and colors, whose entries the parser has
checked) skip the entry check; the public constructors
``IntMatrix(...)``, ``from_rows`` and ``from_cols`` keep it.

``snf`` produces ``U @ M @ V == S`` with S diagonal, diagonal entries
positive up to the rank and zero afterwards, and each diagonal entry
dividing the next, so outputs are bit-reproducible.  The certificates
are blocks of the one matrix that the elimination works on,
``[[M | I_nr], [I_nc]]``: row operations on the rows of ``M`` carry the
``U`` block along and column operations on the columns of ``M`` carry
the ``V`` block along, and a skipped certificate has no block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class DimensionError(ValueError):
    """Operand shapes do not line up."""


def _check_int(x: object) -> int:
    # bool is an int subclass but never a legitimate matrix entry
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"matrix entries must be ints, got {type(x).__name__}")
    return x


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix; ``entries`` is a row-major tuple of rows."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("matrix dimensions must be nonnegative")
        # stored as a tuple of tuples whatever sequences came in
        entries = tuple(map(tuple, self.entries))
        object.__setattr__(self, "entries", entries)
        if len(entries) != self.rows:
            raise DimensionError(f"expected {self.rows} rows, got {len(entries)}")
        for row in entries:
            if len(row) != self.cols:
                raise DimensionError(
                    f"expected {self.cols} entries per row, got {len(row)}"
                )
            for x in row:
                _check_int(x)

    @classmethod
    def _trusted(
        cls, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]
    ) -> "IntMatrix":
        """Wrap entries whose shape and int type hold by construction, unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[int]], cols: int | None = None
    ) -> "IntMatrix":
        """Build from a list of rows; ``cols`` is required when ``rows`` is empty."""
        data = tuple(tuple(row) for row in rows)
        if cols is None:
            if not data:
                raise DimensionError("cannot infer the column count of an empty matrix")
            cols = len(data[0])
        return cls(len(data), cols, data)

    @classmethod
    def from_cols(
        cls, cols: Sequence[Sequence[int]], rows: int | None = None
    ) -> "IntMatrix":
        """Build from a list of columns; ``rows`` is required when ``cols`` is empty."""
        if not cols:
            if rows is None:
                raise DimensionError("cannot infer the row count of an empty matrix")
            return cls(rows, 0, tuple(() for _ in range(rows)))
        n = len(cols[0])
        for c in cols:
            if len(c) != n:
                raise DimensionError("columns have inconsistent lengths")
        if rows is not None and rows != n:
            raise DimensionError(f"expected {rows} entries per column, got {n}")
        return cls(n, len(cols), tuple(tuple(c[i] for c in cols) for i in range(n)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        entries = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return IntMatrix._trusted(self.cols, self.rows, entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # row i of the product is the sum of x * other[k] over the nonzero
        # x = self[i][k], so sparse operands cost their support
        out = []
        for row in self.entries:
            acc = [0] * other.cols
            for x, other_row in zip(row, other.entries):
                if x:
                    acc = [a + x * b for a, b in zip(acc, other_row)]
            out.append(tuple(acc))
        return IntMatrix._trusted(self.rows, other.cols, tuple(out))

    def mul_vec(self, vector: Sequence[int]) -> tuple[int, ...]:
        if len(vector) != self.cols:
            raise DimensionError(
                f"vector of length {len(vector)} against {self.rows}x{self.cols} matrix"
            )
        return tuple(sum(a * b for a, b in zip(row, vector)) for row in self.entries)


def stack_rows(top: IntMatrix, bottom: IntMatrix) -> IntMatrix:
    """Vertical concatenation."""
    if top.cols != bottom.cols:
        raise DimensionError(
            f"cannot stack {top.rows}x{top.cols} on {bottom.rows}x{bottom.cols}"
        )
    return IntMatrix._trusted(
        top.rows + bottom.rows, top.cols, top.entries + bottom.entries
    )


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form ``U @ M @ V == S`` with ``|det U| == |det V| == 1``.

    ``S`` is diagonal; the first ``rank`` diagonal entries are positive and
    form a divisibility chain, the rest are zero.  ``U`` or ``V`` is None
    when the call to :func:`snf` skipped it.
    """

    S: IntMatrix
    U: IntMatrix | None
    V: IntMatrix | None
    rank: int

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.S[i][i] for i in range(min(self.S.rows, self.S.cols)))


def _trusted_from_lists(mat: list[list[int]], cols: int) -> IntMatrix:
    return IntMatrix._trusted(len(mat), cols, tuple(map(tuple, mat)))


def _identity_list(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _swap_rows(mat: list[list[int]], i: int, j: int) -> None:
    mat[i], mat[j] = mat[j], mat[i]


def _negate_row(mat: list[list[int]], i: int) -> None:
    mat[i] = [-x for x in mat[i]]


def _row_sub(mat: list[list[int]], i: int, k: int, q: int) -> None:
    # row_i -= q * row_k
    rk = mat[k]
    mat[i] = [a - q * b for a, b in zip(mat[i], rk)]


def _swap_cols(mat: list[list[int]], i: int, j: int) -> None:
    for row in mat:
        row[i], row[j] = row[j], row[i]


def _negate_col(mat: list[list[int]], j: int) -> None:
    for row in mat:
        row[j] = -row[j]


def _col_sub(mat: list[list[int]], j: int, k: int, q: int) -> None:
    # col_j -= q * col_k
    for row in mat:
        row[j] -= q * row[k]


def _smallest_entry(s: list[list[int]], k: int, nr: int, nc: int) -> tuple[int, int] | None:
    best: tuple[int, int] | None = None
    best_abs = 0
    for i in range(k, nr):
        row = s[i]
        for j in range(k, nc):
            x = row[j]
            if x and (best is None or abs(x) < best_abs):
                best = (i, j)
                best_abs = abs(x)
                if best_abs == 1:
                    return best
    return best


def _reduce_pivot_col(s: list[list[int]], k: int, nr: int) -> bool:
    """Zero the entries below the pivot s[k][k] by unimodular row operations.

    Keeps the pivot positive; returns True when anything changed.
    """
    changed = False
    while True:
        if s[k][k] < 0:
            _negate_row(s, k)
            changed = True
        below = [i for i in range(k + 1, nr) if s[i][k]]
        if not below:
            return changed
        changed = True
        p = s[k][k]
        for i in below:
            q = s[i][k] // p
            if q:
                _row_sub(s, i, k, q)
        below = [i for i in range(k + 1, nr) if s[i][k]]
        if not below:
            return changed
        # the smallest remainder becomes the new, strictly smaller pivot
        i = min(below, key=lambda t: s[t][k])
        _swap_rows(s, k, i)


def _reduce_pivot_row(s: list[list[int]], k: int, nc: int) -> bool:
    """Column-operation mirror of ``_reduce_pivot_col``."""
    changed = False
    while True:
        if s[k][k] < 0:
            _negate_col(s, k)
            changed = True
        right = [j for j in range(k + 1, nc) if s[k][j]]
        if not right:
            return changed
        changed = True
        p = s[k][k]
        for j in right:
            q = s[k][j] // p
            if q:
                _col_sub(s, j, k, q)
        right = [j for j in range(k + 1, nc) if s[k][j]]
        if not right:
            return changed
        j = min(right, key=lambda t: s[k][t])
        _swap_cols(s, k, j)


def _non_divisible_entry(
    s: list[list[int]], k: int, nr: int, nc: int
) -> tuple[int, int] | None:
    p = s[k][k]
    if p == 1:
        return None
    for i in range(k + 1, nr):
        row = s[i]
        for j in range(k + 1, nc):
            if row[j] % p:
                return (i, j)
    return None


def snf(m: IntMatrix, *, with_u: bool = True, with_v: bool = True) -> SnfResult:
    """Smith normal form with transformation certificates.

    Works for any shape, including empty matrices.  Pivots are chosen as
    the smallest nonzero entry of the trailing submatrix, which keeps
    intermediate growth moderate without changing the (unique) result.
    The elimination runs once on the working rows ``[[M | I_nr], [I_nc]]``:
    ``with_u`` appends an identity block to the right of the rows of
    ``M``, so every row operation also builds ``U``, and ``with_v``
    appends ``nc`` identity rows below, so every column operation also
    builds ``V``.  A skipped certificate has no block and is None.
    Pivots are read off the ``M`` block alone, so ``S``, ``rank`` and a
    kept certificate are the same as those of the full call.  At the end
    ``S`` is the top-left block, ``U`` the top-right and ``V`` the bottom.
    """
    nr, nc = m.rows, m.cols
    s = [list(row) for row in m.entries]
    if with_u:
        s = [row + e for row, e in zip(s, _identity_list(nr))]
    if with_v:
        s += _identity_list(nc)
    k = 0
    while k < min(nr, nc):
        pivot = _smallest_entry(s, k, nr, nc)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            _swap_rows(s, k, pi)
        if pj != k:
            _swap_cols(s, k, pj)
        while True:
            while _reduce_pivot_col(s, k, nr) or _reduce_pivot_row(s, k, nc):
                pass
            bad = _non_divisible_entry(s, k, nr, nc)
            if bad is None:
                break
            # fold the offending row into the pivot row; re-clearing shrinks
            # the pivot to a proper divisor, so this terminates
            _row_sub(s, k, bad[0], -1)
        k += 1
    return SnfResult(
        S=_trusted_from_lists([row[:nc] for row in s[:nr]], nc),
        U=_trusted_from_lists([row[nc:] for row in s[:nr]], nr) if with_u else None,
        V=_trusted_from_lists(s[nr:], nc) if with_v else None,
        rank=k,
    )
