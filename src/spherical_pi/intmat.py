"""Exact integer matrices with a certified Smith normal form.

Entries are plain Python ints, so intermediate values can grow without
bound and nothing overflows silently.  ``snf(m)`` returns the unimodular
transformations ``U`` and ``V`` alongside the form, which lets callers
(and the test suite) re-check every factorization by direct
multiplication; the keywords ``with_u`` and ``with_v`` skip one or both.
The pipeline asks only for what it reads: ``dual_saturation`` takes
``V``, and no report asks for a certificate.  Both certificates are read
only by the independent verification route, :mod:`spherical_pi.verify`.

The report reads its quotients and the coroot-span check off Hermite
bases.  ``_echelon`` finds the rank k of a matrix and the determinant
of a nonsingular k x k row minor by a fraction-free elimination,
``_outside_span`` carries other rows through its steps to find those
outside its row space over Q, and ``_hermite_mod`` computes the Hermite
basis of ``L(rows) + d Z^n``, for any d >= 1, with every entry kept
below d (Cohen, GTM 138, Alg. 2.4.8; Domich, Kannan and Trotter 1987).
At full rank, with d a multiple of the index, that lattice is the row
lattice itself.  ``_remainders`` divides other rows down such a basis;
a row lies in its lattice exactly when its remainder is 0.

The full-rank check of the embedding, ``_full_column_rank``, asks a
yes/no question, so it starts with ``_rank_mod``, a Gaussian
elimination over ``Z/_P`` with ``_P = 2**61 - 1``.  The rank mod ``_P``
is never above the rank over Q, so a full rank mod ``_P`` proves full
rank.  Any other result falls back to ``_echelon``, whose rank is
exact.

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
from itertools import compress
from math import gcd
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
        # row i of the product is the sum of x * y at column j over the
        # nonzero x = self[i][k] and the nonzero y = other[k][j], whose
        # positions are listed once, so sparse operands cost their support
        support = _support(other.entries)
        columns = range(self.cols)
        out = []
        for row in self.entries:
            acc = [0] * other.cols
            for k in compress(columns, row):
                x = row[k]
                for j, y in support[k]:
                    acc[j] += x * y
            out.append(tuple(acc))
        return IntMatrix._trusted(self.rows, other.cols, tuple(out))


def _support(rows: Sequence[Sequence[int]]) -> list[list[tuple[int, int]]]:
    """The nonzero entries of each row as ``(column, entry)`` pairs."""
    return [[(j, row[j]) for j in compress(range(len(row)), row)] for row in rows]


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
    A row that no update has touched ("clean") still holds the residues
    ``_pack`` made at their own columns; it waits under its lead column,
    is searched first for a pivot there, and is shifted into line only
    when it becomes the pivot or is updated.  A pivot found among the
    other ("dirty") rows is repacked, and every column's entry of a dirty
    row is shifted out.  A row that becomes 0 is dropped.
    """
    w = 2 * _P.bit_length() + (m.cols + 1).bit_length()
    low = (1 << w) - 1
    # clean rows by lead column, entries below _P
    clean: list[list[int]] = [[] for _ in range(m.cols)]
    for row in m.entries:
        if packed := _pack(row, w):
            clean[((packed & -packed).bit_length() - 1) // w].append(packed)
    dirty: list[int] = []  # rows that an update touched, column j at bits 0 to w
    rank = 0
    for j, waiting in enumerate(clean):
        shift = w * j
        if waiting:
            pivot = waiting[0] >> shift
            waiting = [row >> shift for row in waiting[1:]]
        else:
            i = next((i for i, row in enumerate(dirty) if (row & low) % _P), None)
            if i is None:
                dirty = [row >> w for row in dirty]
                continue
            # the pivot's entries are reduced below _P, which bounds the growth
            packed = dirty.pop(i)
            pivot = _pack([packed >> (w * k) & low for k in range(m.cols - j)], w)
        # row + (lead * minus_inverse mod _P) * pivot has a lead of 0 mod _P
        minus_inverse = _P - pow(pivot & low, -1, _P)
        updated = []
        for row in dirty + waiting:
            if lead := row & low:
                row += lead * minus_inverse % _P * pivot
            if row := row >> w:
                updated.append(row)
        dirty = updated
        rank += 1
    return rank


def _lead(row: Sequence[int], s: int) -> int | None:
    """The column of the first nonzero entry of ``row``, which holds the
    entries from column s on, or None when there is none."""
    x = next(filter(None, row), 0)
    return row.index(x) + s if x else None


_Elimination = tuple[list[int], dict[int, int], list[Sequence[int]]]  # see _echelon


def _carry(
    row: Sequence[int], c: int, s: int, elimination: _Elimination
) -> tuple[Sequence[int], int, int, int | None]:
    """Carry ``row``, its entries from column c on up to date to step s,
    through the steps of :func:`_echelon` so far.

    Only the steps at the pivot column of its first nonzero entry are
    taken; those it skips would only scale it by ``p_t / p_{t-1}``, and
    the ``p_{t-1} / p_{s-1}`` that steps s to t - 1 owe it is paid at
    the next step t that it takes.  Returns the row, c, s and the column
    of its first nonzero entry, which has no pivot, or None.
    """
    p, steps, tails = elimination
    while (j := _lead(row, c)) is not None and (t := steps.get(j)) is not None:
        a, row = row[j - c], row[j - c + 1 :]
        if t > s:
            a, row = a * p[t] // p[s], [x * p[t] // p[s] for x in row]
        row = [(p[t + 1] * x - a * y) // p[t] for x, y in zip(row, tails[t])]
        c, s = j + 1, t + 1
    return row, c, s, j


def _echelon(rows: Sequence[Sequence[int]], n: int) -> tuple[int, int, _Elimination]:
    """The rank k of ``rows``, ``|det|`` of a nonsingular k x k minor (1 at
    k = 0) and the elimination that found them, for :func:`_outside_span`.

    Fraction-free (Bareiss) elimination with row pivoting: a column where
    no remaining row is nonzero takes no step, and step t takes the first
    remaining row that is nonzero in its column ``c_t`` as its pivot row;
    the other rows become ``(p_t row - row[c_t] pivot) / p_{t-1}``, an
    exact division, where ``p_t`` is the pivot's entry there and ``p_{-1}
    = 1``.  ``|p_{k-1}|`` is the determinant of the minor on the pivot
    rows and columns, a multiple of the k-th determinantal divisor.

    A row is brought up to date by :func:`_carry` only when the search
    for a pivot reaches it.
    """
    p = [1]  # p[t] = p_{t-1}
    steps: dict[int, int] = {}  # t at c_t
    tails: list[Sequence[int]] = []  # the pivot row of step t, from column c_t + 1 on
    elimination = (p, steps, tails)
    # each remaining row as its entries from column c on, c, and the step
    # s it is up to date to
    work = [(row, 0, 0) for row in rows]
    for j in range(n):
        for i, (row, c, s) in enumerate(work):
            row, c, s, lead = _carry(row, c, s, elimination)
            work[i] = (row, c, s)
            if lead == j:
                break
        else:
            continue
        del work[i]
        k = len(tails)
        row = row[j - c :]
        if k > s:
            row = [x * p[k] // p[s] for x in row]
        p.append(row[0])
        steps[j] = k
        tails.append(row[1:])
    return len(tails), abs(p[-1]), elimination


def _outside_span(elimination: _Elimination, probes: Sequence[Sequence[int]]) -> list[int]:
    """The indices of the ``probes`` outside the row space over Q of the
    rows that :func:`_echelon` eliminated: those that :func:`_carry`
    leaves with a nonzero entry, at a column without a pivot."""
    carried = (_carry(row, 0, 0, elimination) for row in probes)
    return [i for i, (*_, lead) in enumerate(carried) if lead is not None]


def _remainders(
    basis: Sequence[Sequence[int]], rows: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Each of ``rows`` divided down ``basis``, an upper-triangular n x n
    matrix with a positive diagonal: the remainders.

    At each column j in turn, ``c_j // h_jj`` times row j is taken away
    along its nonzero entries, which leaves ``0 <= c_j < h_jj``.  A row
    lies in the lattice of ``basis`` exactly when its remainder is 0.
    Nothing is assumed of the entries above the pivots.
    """
    support = _support(basis)
    columns = range(len(basis))
    out = []
    for row in rows:
        c = list(row)
        # compress reads c[j] when it reaches j, after the steps before it
        for j in compress(columns, c):
            if q := c[j] // basis[j][j]:
                for t, x in support[j]:
                    c[t] -= q * x
        out.append(c)
    return out


def _hermite_mod(rows: Sequence[Sequence[int]], n: int, d: int) -> list[list[int]]:
    """The Hermite basis of ``L(rows) + d Z^n``, for any ``d >= 1``.

    The result is the n x n upper-triangular ``H`` with ``0 <= h_ij <
    h_jj`` above the diagonal.  The lattice contains ``d Z^n``, so every
    row is kept mod d (Cohen, GTM 138, Alg. 2.4.8; Domich, Kannan and
    Trotter 1987).  Column j folds every row that is nonzero there into
    one pivot row P by extended-gcd pairs, on entries j to n - 1 only.
    Row j of ``H`` is P times ``u``, where ``u x = gcd(x, d) = h_jj`` mod
    d, and what is left of the lattice also holds ``d / h_jj`` times the
    tail of P, which waits with the other rows.  A row waits untouched
    under its first nonzero column until that column comes, and moves on
    if its entry there is a multiple of d.  Last, rows are reduced from
    the bottom up: each entry above a pivot is reduced mod it by the
    reduced row below, along that row's nonzero entries only.
    """
    # (entries from column s on, s) of the working rows by lead column
    waiting: list[list[tuple[Sequence[int], int]]] = [[] for _ in range(n)]
    for row in rows:
        if (c := _lead(row, 0)) is not None:
            waiting[c].append((row, 0))
    basis = []
    for j, bucket in enumerate(waiting):
        pivot = None
        for row, s in bucket:
            row = row[j - s :]
            b = row[0] % d
            if not b:
                # a multiple of d: wait under the next column that is not
                row = [x % d for x in row]
                if (c := _lead(row, j)) is not None:
                    waiting[c].append((row, j))
                continue
            if pivot is None:
                pivot = [b] + [x % d for x in row[1:]]
                continue
            a, top, row = pivot[0], pivot[1:], row[1:]
            if b % a:
                g = gcd(a, b)
                a, b = a // g, b // g
                # [[u, v], [-b, a]] is unimodular and takes (a, b) to (1, 0)
                u = pow(a, -1, b)
                v = (1 - u * a) // b
                pivot = [g] + [(u * x + v * y) % d for x, y in zip(top, row)]
                row = [(a * y - b * x) % d for x, y in zip(top, row)]
            else:
                q = b // a
                row = [(y - q * x) % d for x, y in zip(top, row)]
            if (c := _lead(row, j + 1)) is not None:
                waiting[c].append((row, j + 1))
        if pivot is None:
            h, tail = d, [0] * (n - j - 1)
        else:
            h = gcd(pivot[0], d)
            u = pow(pivot[0] // h, -1, d // h)
            tail = [u * x % d for x in pivot[1:]]
            if h > 1:
                row = [d // h * x % d for x in pivot[1:]]
                if (c := _lead(row, j + 1)) is not None:
                    waiting[c].append((row, j + 1))
        basis.append([0] * j + [h] + tail)
    support: list[list[int]] = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        row = basis[i]
        for j in range(i + 1, n):
            if q := row[j] // basis[j][j]:
                below = basis[j]
                for t in support[j]:
                    row[t] -= q * below[t]
        support[i] = [t for t in range(i, n) if row[t]]
    return basis


def _full_column_rank(m: IntMatrix) -> bool:
    """Whether the columns of ``m`` are independent over Q.

    A full rank mod ``_P`` proves it; any other result is settled by the
    exact fraction-free elimination of :func:`_echelon`.
    """
    return _rank_mod(m) == m.cols or _echelon(m.entries, m.cols)[0] == m.cols
