"""Exact integer matrices with certified Hermite and Smith normal forms.

Entries are plain Python ints, so intermediate values can grow without
bound and nothing overflows silently.  The normal-form routines return
the unimodular transformations alongside the form, which lets callers
(and the test suite) re-check every factorization by direct
multiplication.  ``snf(m)`` returns both ``U`` and ``V``; the keywords
``with_u`` and ``with_v`` skip one or both.  The package's own calls ask
only for what they read: the quotients, pi0, pi1 and every rank check
take neither certificate, the coroot-span check, ``dual_saturation`` and
``intersect`` take ``V`` only, and ``solve_in_lattice`` takes both.

Matrices the package builds itself (normal forms and their
certificates, products, transposes, stacks, root and coroot matrices,
and the parsed embedding and colors, whose entries the parser has
checked) skip the entry check; the public constructors
``IntMatrix(...)``, ``from_rows`` and ``from_cols`` keep it.

Conventions, fixed once so that outputs are bit-reproducible:

* ``snf`` produces ``U @ M @ V == S`` with S diagonal, diagonal entries
  positive up to the rank and zero afterwards, and each diagonal entry
  dividing the next.
* ``hnf`` works on columns and produces ``M @ U == H`` in column echelon
  form: the pivot row of each nonzero column is strictly below the pivot
  row of the previous one, pivots are positive, and the other entries in
  a pivot row are reduced into ``[0, pivot)``.  Zero columns trail.
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
        if len(self.entries) != self.rows:
            raise DimensionError(
                f"expected {self.rows} rows, got {len(self.entries)}"
            )
        for row in self.entries:
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

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise DimensionError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot_row = next((i for i in range(k + 1, n) if a[i][k]), None)
                if pivot_row is None:
                    return 0
                a[k], a[pivot_row] = a[pivot_row], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


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


@dataclass(frozen=True)
class HnfResult:
    """Column-style Hermite normal form ``M @ U == H`` with ``|det U| == 1``."""

    H: IntMatrix
    U: IntMatrix


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


def _row_add(mat: list[list[int]], i: int, k: int) -> None:
    # row_i += row_k
    rk = mat[k]
    mat[i] = [a + b for a, b in zip(mat[i], rk)]


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


def _reduce_pivot_col(
    s: list[list[int]], u: list[list[int]] | None, k: int, nr: int
) -> bool:
    """Zero the entries below the pivot s[k][k] by unimodular row operations.

    Applies each row operation to ``u`` too, unless it is None.  Keeps the
    pivot positive; returns True when anything changed.
    """
    changed = False
    while True:
        if s[k][k] < 0:
            _negate_row(s, k)
            if u is not None:
                _negate_row(u, k)
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
                if u is not None:
                    _row_sub(u, i, k, q)
        below = [i for i in range(k + 1, nr) if s[i][k]]
        if not below:
            return changed
        # the smallest remainder becomes the new, strictly smaller pivot
        i = min(below, key=lambda t: s[t][k])
        _swap_rows(s, k, i)
        if u is not None:
            _swap_rows(u, k, i)


def _reduce_pivot_row(
    s: list[list[int]], v: list[list[int]] | None, k: int, nc: int
) -> bool:
    """Column-operation mirror of ``_reduce_pivot_col``."""
    changed = False
    while True:
        if s[k][k] < 0:
            _negate_col(s, k)
            if v is not None:
                _negate_col(v, k)
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
                if v is not None:
                    _col_sub(v, j, k, q)
        right = [j for j in range(k + 1, nc) if s[k][j]]
        if not right:
            return changed
        j = min(right, key=lambda t: s[k][t])
        _swap_cols(s, k, j)
        if v is not None:
            _swap_cols(v, k, j)


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
    ``with_u=False`` skips the row updates of ``U`` and ``with_v=False``
    the column updates of ``V``; a skipped certificate is None.  Pivots
    depend on ``S`` alone, so ``S``, ``rank`` and a kept certificate are
    the same as those of the full call.
    """
    nr, nc = m.rows, m.cols
    s = [list(row) for row in m.entries]
    u = _identity_list(nr) if with_u else None
    v = _identity_list(nc) if with_v else None
    k = 0
    while k < min(nr, nc):
        pivot = _smallest_entry(s, k, nr, nc)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            _swap_rows(s, k, pi)
            if u is not None:
                _swap_rows(u, k, pi)
        if pj != k:
            _swap_cols(s, k, pj)
            if v is not None:
                _swap_cols(v, k, pj)
        while True:
            while _reduce_pivot_col(s, u, k, nr) or _reduce_pivot_row(s, v, k, nc):
                pass
            bad = _non_divisible_entry(s, k, nr, nc)
            if bad is None:
                break
            # fold the offending row into the pivot row; re-clearing shrinks
            # the pivot to a proper divisor, so this terminates
            _row_add(s, k, bad[0])
            if u is not None:
                _row_add(u, k, bad[0])
        k += 1
    return SnfResult(
        S=_trusted_from_lists(s, nc),
        U=None if u is None else _trusted_from_lists(u, nr),
        V=None if v is None else _trusted_from_lists(v, nc),
        rank=k,
    )


def hnf(m: IntMatrix) -> HnfResult:
    """Column-style Hermite normal form with its column transformation."""
    nr, nc = m.rows, m.cols
    h = [list(row) for row in m.entries]
    u = _identity_list(nc)
    col = 0
    for row in range(nr):
        if col == nc:
            break
        if not any(h[row][j] for j in range(col, nc)):
            continue
        while True:
            nz = [j for j in range(col, nc) if h[row][j]]
            j = min(nz, key=lambda t: abs(h[row][t]))
            if j != col:
                _swap_cols(h, col, j)
                _swap_cols(u, col, j)
            if h[row][col] < 0:
                _negate_col(h, col)
                _negate_col(u, col)
            p = h[row][col]
            leftover = False
            for j in range(col + 1, nc):
                q = h[row][j] // p
                if q:
                    _col_sub(h, j, col, q)
                    _col_sub(u, j, col, q)
                if h[row][j]:
                    leftover = True
            if not leftover:
                break
        p = h[row][col]
        for j in range(col):
            q = h[row][j] // p
            if q:
                _col_sub(h, j, col, q)
                _col_sub(u, j, col, q)
        col += 1
    return HnfResult(
        H=_trusted_from_lists(h, nc),
        U=_trusted_from_lists(u, nc),
    )


def solve_in_lattice(m: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """Integer solution ``x`` of ``m @ x == b``, or None when none exists."""
    if len(b) != m.rows:
        raise DimensionError(
            f"right-hand side of length {len(b)} against {m.rows}x{m.cols} matrix"
        )
    for x in b:
        _check_int(x)
    res = snf(m)
    c = res.U.mul_vec(tuple(b))
    y = [0] * m.cols
    for i in range(m.rows):
        if i < res.rank:
            si = res.S[i][i]
            if c[i] % si:
                return None
            y[i] = c[i] // si
        elif c[i]:
            return None
    return res.V.mul_vec(y)
