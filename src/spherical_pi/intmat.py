"""Exact integer matrices with a certified Smith normal form.

Entries are plain Python ints, so intermediate values can grow without
bound and nothing overflows silently.  ``snf(m)`` returns the unimodular
transformations ``U`` and ``V`` alongside the form, which lets callers
(and the test suite) re-check every factorization by direct
multiplication; the keywords ``with_u`` and ``with_v`` skip one or both.
The pipeline asks only for what it reads.  The colors' Smith form takes
``V`` only, because the coroot-span check and the ambient quotient (and
so pi0) read it, and so does ``dual_saturation``.  pi1 and the reduced
ambient form take neither certificate.  Both certificates are read only
by the independent verification route, :mod:`spherical_pi.verify`.

The full-rank check of the embedding, ``_full_column_rank``, asks a
yes/no question, so it starts with ``_rank_mod``, a Gaussian
elimination over ``Z/_P`` with ``_P = 2**61 - 1``.  The rank mod ``_P``
is never above the rank over Q, so a full rank mod ``_P`` proves full
rank.  Any other result falls back to the exact rank of the
certificate-free Smith form.

Matrices the package builds itself (normal forms and their
certificates, products, transposes, stacks, root and coroot matrices,
and the parsed embedding and colors, whose entries the parser has
checked) skip the entry check; the public constructors
``IntMatrix(...)``, ``from_rows`` and ``from_cols`` keep it.

``snf`` produces ``U @ M @ V == S`` with S diagonal, diagonal entries
positive up to the rank and zero afterwards, and each diagonal entry
dividing the next, so outputs are bit-reproducible.  A pivot is made
positive once, when it is moved into place; later pivots are remainders
of floor division by it, so they stay positive.  The certificates are
blocks of the one matrix that the elimination works on,
``[[M | I_nr], [I_nc]]``: row operations on the rows of ``M`` carry the
``U`` block along and column operations on the columns of ``M`` carry
the ``V`` block along, and a skipped certificate has no block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .arith import _check_count


class DimensionError(ValueError):
    """Operand shapes do not line up."""


# ``_INT_ONLY.issuperset(map(type, v))``: every entry of v is an exact int,
# so neither a bool nor another int subclass, and needs no per-entry check
_INT_ONLY = frozenset((int,))


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
        _check_count(self.rows, "row count")
        _check_count(self.cols, "column count")
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


def _clear_col(s: list[list[int]], k: int, nr: int) -> None:
    """Zero the entries below the positive pivot s[k][k] by row operations."""
    below = [i for i in range(k + 1, nr) if s[i][k]]
    while below:
        p = s[k][k]
        for i in below:
            q = s[i][k] // p
            if q:
                _row_sub(s, i, k, q)
        # zero rows stay zero; the least remainder is the new, smaller pivot
        below = [i for i in below if s[i][k]]
        if below:
            _swap_rows(s, k, min(below, key=lambda t: s[t][k]))


def _clear_row(s: list[list[int]], k: int, nc: int) -> bool:
    """Column mirror of ``_clear_col``; True when the row had an entry to clear."""
    right = [j for j in range(k + 1, nc) if s[k][j]]
    if not right:
        return False
    while right:
        p = s[k][k]
        for j in right:
            q = s[k][j] // p
            if q:
                _col_sub(s, j, k, q)
        right = [j for j in right if s[k][j]]
        if right:
            _swap_cols(s, k, min(right, key=lambda t: s[k][t]))
    return True


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
    A pivot is made positive once, when it is moved into place, and stays
    so: every later pivot is a remainder of floor division by a positive
    pivot, and the fold adds a row that is 0 in the pivot's column.
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
        if s[k][k] < 0:
            _negate_row(s, k)
        while True:
            _clear_col(s, k, nr)
            if _clear_row(s, k, nc):
                continue
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


# a prime; a matrix that is deficient mod it takes the exact rank
_P = 2**61 - 1


def _pack(entries: Sequence[int], w: int) -> int:
    """One int holding ``entries`` mod ``_P``, entry j in bits ``[j*w, (j+1)*w)``."""
    return sum((x % _P) << (w * j) for j, x in enumerate(entries) if x)


def _rank_mod(m: IntMatrix) -> int:
    """The rank of ``m`` over ``Z/_P``, which is never above its rank over Q.

    Gaussian elimination column by column on rows packed by ``_pack``, so
    that adding a multiple of the pivot row is one operation on ints.  The
    multiplier and the pivot's entries are below ``_P``, so an entry grows
    by less than ``_P**2`` per pivot and, with room for ``m.cols + 1``
    times that, never carries into the next.  Entries are reduced only
    where they are read: the leading entry of each row, and the pivot row.
    A row that no update has touched still holds the residues ``_pack``
    made, so it is searched first for a pivot, which then needs no
    repacking.  Each column's entry is then shifted out.
    """
    w = 2 * _P.bit_length() + (m.cols + 1).bit_length()
    low = (1 << w) - 1
    clean = [_pack(row, w) for row in m.entries]  # entries below _P
    dirty: list[int] = []  # rows that an update touched
    rank = 0
    for width in range(m.cols, 0, -1):
        i = next((i for i, row in enumerate(clean) if row & low), None)
        if i is not None:
            pivot = clean.pop(i)
        else:
            i = next((i for i, row in enumerate(dirty) if (row & low) % _P), None)
            if i is None:
                clean = [row >> w for row in clean]
                dirty = [row >> w for row in dirty]
                continue
            # the pivot's entries are reduced below _P, which bounds the growth
            packed = dirty.pop(i)
            pivot = _pack([packed >> (w * j) & low for j in range(width)], w)
        # row + (lead * minus_inverse mod _P) * pivot has a lead of 0 mod _P
        minus_inverse = _P - pow(pivot & low, -1, _P)
        dirty = [
            (row + lead * minus_inverse % _P * pivot) >> w if (lead := row & low)
            else row >> w
            for row in dirty
        ]
        untouched = []
        for row in clean:
            if lead := row & low:
                dirty.append((row + lead * minus_inverse % _P * pivot) >> w)
            else:
                untouched.append(row >> w)
        clean = untouched
        rank += 1
    return rank


def _full_column_rank(m: IntMatrix) -> bool:
    """Whether the columns of ``m`` are independent over Q.

    A full rank mod ``_P`` proves it; any other result is settled by the
    exact rank of the certificate-free Smith form.
    """
    return (
        _rank_mod(m) == m.cols
        or snf(m, with_u=False, with_v=False).rank == m.cols
    )
