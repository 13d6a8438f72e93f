"""Lattices in rational space: saturation, intersection, finite quotients.

A :class:`Lattice` is a finitely generated free subgroup of some Q^d,
given by an independent rational basis.  :func:`dual_saturation` computes
the subgroup of Q^r on which a family of integer functionals stays
integral; its quotient by Z^r is described by a :class:`FinGenAbQuotient`
as a divisible rank plus a chain of invariant factors.

All rational arithmetic uses :class:`fractions.Fraction`; integer systems
are solved exactly after clearing denominators by their lcm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .arith import is_prime
from .intmat import DimensionError, IntMatrix, SnfResult, hnf, snf, solve_in_lattice

Vector = tuple[Fraction, ...]


class NotASublatticeError(ValueError):
    """The claimed sublattice has a basis vector outside the big lattice."""


def _vec(entries: Iterable, length: int | None = None) -> Vector:
    v = tuple(Fraction(x) for x in entries)
    if length is not None and len(v) != length:
        raise DimensionError(f"vector of length {len(v)}, expected {length}")
    return v


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


def _rational_rank(vectors: Sequence[Vector], dim: int) -> int:
    if not vectors:
        return 0
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


@dataclass(frozen=True)
class FinGenAbQuotient:
    """Quotient shape: ``(Q/Z)^divisible_rank x prod Z/d_i``.

    The invariant factors form an ascending divisibility chain with every
    factor at least 2; trivial factors are never stored.
    """

    divisible_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.divisible_rank < 0:
            raise ValueError("divisible rank must be nonnegative")
        factors = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        for d in factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} is not >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError(f"invariant factors {factors} are not a divisibility chain")

    @property
    def is_finite(self) -> bool:
        return self.divisible_rank == 0

    @property
    def is_trivial(self) -> bool:
        return self.divisible_rank == 0 and not self.invariant_factors

    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("quotient with divisible part has no finite order")
        return math.prod(self.invariant_factors)


@dataclass(frozen=True)
class SaturatedSet:
    """A saturation inside Q^r: finite directions plus a divisible subspace.

    The set consists of all integer combinations of the finite direction
    basis plus arbitrary rational combinations of the divisible subspace
    basis.  Both bases are jointly independent.
    """

    finite_direction_basis: tuple[Vector, ...]
    divisible_subspace_basis: tuple[Vector, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "finite_direction_basis",
            tuple(_vec(v) for v in self.finite_direction_basis),
        )
        object.__setattr__(
            self,
            "divisible_subspace_basis",
            tuple(_vec(v) for v in self.divisible_subspace_basis),
        )

    def _dim(self) -> int:
        for v in self.finite_direction_basis + self.divisible_subspace_basis:
            return len(v)
        return 0

    def contains(self, vector: Iterable) -> bool:
        """Membership in the described subgroup of Q^r."""
        dim = self._dim()
        v = _vec(vector, dim if dim else None)
        rref = _rref(self.divisible_subspace_basis)
        w = _eliminate(v, rref)
        gens = [_eliminate(f, rref) for f in self.finite_direction_basis]
        if not gens:
            return not any(w)
        scale = _denominator_scale(gens + [w])
        mat = _integerized(gens, len(w), scale)
        target = [int(x * scale) for x in w]
        return solve_in_lattice(mat, target) is not None

    def _subset_of(self, other: "SaturatedSet") -> bool:
        other_rref = _rref(other.divisible_subspace_basis)
        for v in self.divisible_subspace_basis:
            if any(_eliminate(v, other_rref)):
                return False
        return all(other.contains(f) for f in self.finite_direction_basis)

    def same_set(self, other: "SaturatedSet") -> bool:
        """Pointwise equality of the two described subsets of Q^r."""
        return self._subset_of(other) and other._subset_of(self)


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
        v = _vec(vector, self.ambient_rank)
        scale = _denominator_scale(list(self.basis) + [v])
        mat = _integerized(self.basis, self.ambient_rank, scale)
        target = [int(x * scale) for x in v]
        return solve_in_lattice(mat, target)

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


def dual_saturation(
    r: int, functionals: IntMatrix
) -> tuple[SaturatedSet, FinGenAbQuotient]:
    """All of Q^r where every functional row takes integer values.

    The rows of ``functionals`` are integer linear forms on the reference
    lattice Z^r.  Writing U F V = S for the Smith form of the functional
    matrix and substituting x = V y turns the integrality conditions into
    ``s_i * y_i`` integral, so the saturation is spanned by the columns of
    V scaled by 1/s_i (finite directions) together with the kernel columns
    (divisible directions).  The quotient by Z^r is (Q/Z)^(r - rank) times
    the product of Z/s_i over the elementary divisors exceeding 1.
    """
    if functionals.cols != r:
        raise DimensionError(
            f"functionals have {functionals.cols} columns, expected {r}"
        )
    res = snf(functionals, with_u=False)
    finite: list[Vector] = []
    for i in range(res.rank):
        s_i = res.S[i][i]
        finite.append(tuple(Fraction(x, s_i) for x in res.V.column(i)))
    divisible = [
        tuple(Fraction(x) for x in res.V.column(i)) for i in range(res.rank, r)
    ]
    return SaturatedSet(tuple(finite), tuple(divisible)), smith_quotient(res)


def smith_quotient(res: SnfResult) -> FinGenAbQuotient:
    """Quotient by Z^r of the dual saturation, read off the functionals' Smith form."""
    factors = tuple(s for s in res.diagonal()[: res.rank] if s > 1)
    return FinGenAbQuotient(res.S.cols - res.rank, factors)


def intersect(a: Lattice, b: Lattice) -> Lattice:
    """Set-theoretic intersection of two lattices in the same ambient space."""
    if a.ambient_rank != b.ambient_rank:
        raise DimensionError(
            f"ambient ranks differ: {a.ambient_rank} vs {b.ambient_rank}"
        )
    dim = a.ambient_rank
    scale = _denominator_scale(list(a.basis) + list(b.basis))
    mat_a = _integerized(a.basis, dim, scale)
    mat_b = _integerized(b.basis, dim, scale)
    stacked_cols = [list(mat_a.column(j)) for j in range(mat_a.cols)]
    stacked_cols += [[-x for x in mat_b.column(j)] for j in range(mat_b.cols)]
    stacked = IntMatrix.from_cols(stacked_cols, rows=dim)
    res = snf(stacked, with_u=False)
    gens: list[list[int]] = []
    for j in range(res.rank, stacked.cols):
        z = res.V.column(j)
        gens.append(list(mat_a.mul_vec(z[: a.rank])))
    if not gens:
        return Lattice(dim, ())
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


def p_prime_part(q: FinGenAbQuotient, p: int) -> FinGenAbQuotient:
    """Strip the p-part of every invariant factor; p = 1 keeps everything."""
    if p != 1 and not is_prime(p):
        raise ValueError(f"characteristic exponent must be 1 or a prime, got {p}")
    if p == 1:
        return q
    factors = []
    for d in q.invariant_factors:
        while d % p == 0:
            d //= p
        if d > 1:
            factors.append(d)
    return FinGenAbQuotient(q.divisible_rank, tuple(factors))
