"""The independent verification route, which no report, CLI command or
benchmark operation runs and no other module of the package imports.

The pipeline reads pi0 and pi1 off two Smith forms.  The test suite
re-checks it with what this module holds: ``det``, ``hnf`` and
``solve_in_lattice``; membership in and equality of saturations
(``contains``, ``same_set``); rational lattices with their intersection
and finite quotients, a second route to the ambient quotient; and the
root data ``torus``, ``product`` and ``coroot_saturation``.

``hnf`` works on columns and produces ``M @ U == H`` in column echelon
form: the pivot row of each nonzero column is strictly below the pivot
row of the previous one, pivots are positive, and the other entries in
a pivot row are reduced into ``[0, pivot)``.  Zero columns trail.  The
column operations run once on ``[M; I]``, whose top ``nr`` rows end as
``H`` and whose bottom ``nc`` rows end as ``U``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .intmat import (
    DimensionError,
    IntMatrix,
    _check_int,
    _col_sub,
    _identity_list,
    _negate_col,
    _swap_cols,
    _trusted_from_lists,
    snf,
)
from .lattices import (
    FinGenAbQuotient,
    SaturatedSet,
    Vector,
    _vec,
    dual_saturation,
    smith_quotient,
)
from .root_data import RootDatum


def det(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise DimensionError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
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


@dataclass(frozen=True)
class HnfResult:
    """Column-style Hermite normal form ``M @ U == H`` with ``|det U| == 1``."""

    H: IntMatrix
    U: IntMatrix


def hnf(m: IntMatrix) -> HnfResult:
    """Column-style Hermite normal form with its column transformation."""
    nr, nc = m.rows, m.cols
    # columns of [M; I] carry U along below H
    h = [list(row) for row in m.entries] + _identity_list(nc)
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
            if h[row][col] < 0:
                _negate_col(h, col)
            p = h[row][col]
            leftover = False
            for j in range(col + 1, nc):
                q = h[row][j] // p
                if q:
                    _col_sub(h, j, col, q)
                if h[row][j]:
                    leftover = True
            if not leftover:
                break
        p = h[row][col]
        for j in range(col):
            q = h[row][j] // p
            if q:
                _col_sub(h, j, col, q)
        col += 1
    return HnfResult(
        H=_trusted_from_lists(h[:nr], nc),
        U=_trusted_from_lists(h[nr:], nc),
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


def _denominator_scale(vectors: Iterable[Vector]) -> int:
    """lcm of every entry denominator; 1 for integral input."""
    scale = 1
    for v in vectors:
        for x in v:
            scale = math.lcm(scale, x.denominator)
    return scale


def _integerized(vectors: Sequence[Vector], dim: int, scale: int) -> IntMatrix:
    """Matrix whose columns are the given vectors multiplied by ``scale``."""
    cols = [[int(x * scale) for x in v] for v in vectors]
    return IntMatrix.from_cols(cols, rows=dim)


def _integer_coordinates(gens: Sequence[Vector], v: Vector) -> tuple[int, ...] | None:
    """Integer coefficients that combine ``gens`` into ``v``, or None."""
    scale = _denominator_scale(list(gens) + [v])
    target = [int(x * scale) for x in v]
    return solve_in_lattice(_integerized(gens, len(v), scale), target)


def _rational_rank(vectors: Sequence[Vector], dim: int) -> int:
    scale = _denominator_scale(vectors)
    return snf(_integerized(vectors, dim, scale), with_u=False, with_v=False).rank


def _rref(vectors: Sequence[Vector]) -> list[tuple[int, Vector]]:
    """Reduced row echelon basis of the span, as (pivot index, row) pairs."""
    result: list[tuple[int, list[Fraction]]] = []
    for v in vectors:
        w = list(v)
        for piv, base in result:
            c = w[piv]
            if c:
                w = [wi - c * bi for wi, bi in zip(w, base)]
        piv = next((i for i, x in enumerate(w) if x), None)
        if piv is None:
            continue
        c = w[piv]
        w = [x / c for x in w]
        for idx, (p0, b0) in enumerate(result):
            c0 = b0[piv]
            if c0:
                result[idx] = (p0, [x - c0 * y for x, y in zip(b0, w)])
        result.append((piv, w))
    return [(p, tuple(w)) for p, w in result]


def _eliminate(v: Vector, rref: Sequence[tuple[int, Vector]]) -> Vector:
    """Reduce ``v`` modulo the span described by ``rref``."""
    w = list(v)
    for piv, base in rref:
        c = w[piv]
        if c:
            w = [wi - c * bi for wi, bi in zip(w, base)]
    return tuple(w)


def contains(sat: SaturatedSet, vector: Iterable) -> bool:
    """Membership in the subgroup of Q^r that ``sat`` describes."""
    bases = sat.finite_direction_basis + sat.divisible_subspace_basis
    v = _vec(vector, len(bases[0]) if bases else None)
    rref = _rref(sat.divisible_subspace_basis)
    gens = [_eliminate(f, rref) for f in sat.finite_direction_basis]
    return _integer_coordinates(gens, _eliminate(v, rref)) is not None


def _subset_of(a: SaturatedSet, b: SaturatedSet) -> bool:
    b_rref = _rref(b.divisible_subspace_basis)
    for v in a.divisible_subspace_basis:
        if any(_eliminate(v, b_rref)):
            return False
    return all(contains(b, f) for f in a.finite_direction_basis)


def same_set(a: SaturatedSet, b: SaturatedSet) -> bool:
    """Pointwise equality of the two described subsets of Q^r."""
    return _subset_of(a, b) and _subset_of(b, a)


class NotASublatticeError(ValueError):
    """The claimed sublattice has a basis vector outside the big lattice."""


@dataclass(frozen=True, eq=False)
class Lattice:
    """Free subgroup of Q^ambient_rank with an independent rational basis."""

    ambient_rank: int
    basis: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if self.ambient_rank < 0:
            raise DimensionError("ambient rank must be nonnegative")
        basis = tuple(_vec(v, self.ambient_rank) for v in self.basis)
        object.__setattr__(self, "basis", basis)
        if _rational_rank(basis, self.ambient_rank) != len(basis):
            raise ValueError("basis vectors are linearly dependent")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def coordinates_of(self, vector: Iterable) -> tuple[int, ...] | None:
        """Integer coordinates of ``vector`` on the basis, or None."""
        return _integer_coordinates(self.basis, _vec(vector, self.ambient_rank))

    def contains(self, vector: Iterable) -> bool:
        return self.coordinates_of(vector) is not None

    def is_sublattice_of(self, other: "Lattice") -> bool:
        if self.ambient_rank != other.ambient_rank:
            return False
        return all(other.contains(v) for v in self.basis)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.is_sublattice_of(other) and other.is_sublattice_of(self)

    __hash__ = None  # type: ignore[assignment]  # equality is by span, not by basis


def intersect(a: Lattice, b: Lattice) -> Lattice:
    """Set-theoretic intersection of two lattices in the same ambient space."""
    if a.ambient_rank != b.ambient_rank:
        raise DimensionError(
            f"ambient ranks differ: {a.ambient_rank} vs {b.ambient_rank}"
        )
    dim = a.ambient_rank
    scale = _denominator_scale(list(a.basis) + list(b.basis))
    mat_a = _integerized(a.basis, dim, scale)
    negated_b = tuple(tuple(-x for x in v) for v in b.basis)
    stacked = _integerized(a.basis + negated_b, dim, scale)
    res = snf(stacked, with_u=False)
    gens: list[list[int]] = []
    for j in range(res.rank, stacked.cols):
        z = res.V.column(j)
        gens.append(list(mat_a.mul_vec(z[: a.rank])))
    # canonicalize the integer basis before undoing the scaling
    h = hnf(IntMatrix.from_cols(gens, rows=dim)).H
    basis = tuple(
        tuple(Fraction(x, scale) for x in h.column(j)) for j in range(len(gens))
    )
    return Lattice(dim, basis)


def quotient(big: Lattice, small: Lattice) -> FinGenAbQuotient:
    """Invariant factors of big/small for a finite-index sublattice."""
    if big.ambient_rank != small.ambient_rank:
        raise DimensionError(
            f"ambient ranks differ: {big.ambient_rank} vs {small.ambient_rank}"
        )
    coords = []
    for v in small.basis:
        c = big.coordinates_of(v)
        if c is None:
            raise NotASublatticeError(
                "a basis vector of the claimed sublattice is not in the big lattice"
            )
        coords.append(list(c))
    if small.rank != big.rank:
        raise ValueError(
            f"quotient of a rank-{big.rank} lattice by a rank-{small.rank} "
            "sublattice is not finite"
        )
    coords_snf = snf(
        IntMatrix.from_cols(coords, rows=big.rank), with_u=False, with_v=False
    )
    return smith_quotient(coords_snf)


def torus(rank: int, label: str | None = None) -> RootDatum:
    """Datum of a torus: no roots, no coroots."""
    return RootDatum(rank, (), (), label=label if label is not None else f"T^{rank}")


def product(a: RootDatum, b: RootDatum) -> RootDatum:
    """Direct product: lattices summed, roots and coroots padded with zeros."""
    left = (0,) * a.rank
    right = (0,) * b.rank
    roots = tuple(v + right for v in a.simple_roots) + tuple(
        left + v for v in b.simple_roots
    )
    coroots = tuple(v + right for v in a.simple_coroots) + tuple(
        left + v for v in b.simple_coroots
    )
    label = f"{a.label} x {b.label}" if a.label and b.label else ""
    return RootDatum(a.rank + b.rank, roots, coroots, label=label)


def coroot_saturation(rd: RootDatum) -> tuple[SaturatedSet, FinGenAbQuotient]:
    """Rational characters integral against every simple coroot.

    For an adjoint datum this recovers the weight lattice over the root
    lattice, so the finite quotient is the fundamental group of the type;
    the divisible rank equals the central torus rank.
    """
    return dual_saturation(rd.rank, rd.coroot_matrix())
